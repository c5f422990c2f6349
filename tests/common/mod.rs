//! Reading the workspace's own source text, for the tests that hold a
//! document to the code: the non-test code of every `crates/*/src` file.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The `.rs` files under `dir`, recursively, in a stable order.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// `source` without its `#[cfg(test)]` items, and the names of the
/// `#[cfg(test)] mod name;` files it declares. An item runs from the line
/// after the attribute to the `;` or the `}` that brings its braces back
/// to level: braces inside string and character literals and comments are
/// not counted.
pub fn non_test_code(source: &str) -> (String, Vec<String>) {
    let mut code = String::new();
    let mut test_files = Vec::new();
    let mut lines = source.lines();
    while let Some(line) = lines.next() {
        if line.trim() != "#[cfg(test)]" {
            code.push_str(line);
            code.push('\n');
            continue;
        }
        let mut depth = 0i64;
        for item in lines.by_ref() {
            let trimmed = item.trim();
            if depth == 0 {
                if let Some(name) = trimmed
                    .strip_prefix("mod ")
                    .and_then(|m| m.strip_suffix(';'))
                {
                    test_files.push(name.to_string());
                    break;
                }
            }
            depth += brace_balance(item);
            if depth == 0 && (trimmed.ends_with('}') || trimmed.ends_with(';')) {
                break;
            }
        }
    }
    (code, test_files)
}

/// `{` minus `}` on `line`, outside string and character literals and
/// `//` comments.
fn brace_balance(line: &str) -> i64 {
    let bytes = line.as_bytes();
    let (mut balance, mut at) = (0, 0);
    while at < bytes.len() {
        match bytes[at] {
            b'/' if bytes.get(at + 1) == Some(&b'/') => break,
            b'"' => {
                at += 1;
                while at < bytes.len() && bytes[at] != b'"' {
                    at += if bytes[at] == b'\\' { 2 } else { 1 };
                }
            }
            // A character literal (`'{'`, `'\''`), not a lifetime.
            b'\'' if bytes.get(at + 2) == Some(&b'\'') => at += 2,
            b'\'' if bytes.get(at + 1) == Some(&b'\\') => {
                at += 2;
                while at < bytes.len() && bytes[at] != b'\'' {
                    at += 1;
                }
            }
            b'{' => balance += 1,
            b'}' => balance -= 1,
            _ => {}
        }
        at += 1;
    }
    balance
}

/// The non-test code of every file under `crates/*/src`, with its path: a
/// file a `#[cfg(test)] mod name;` declares is left out whole.
pub fn non_test_sources() -> Vec<(PathBuf, String)> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)
        .expect("crates/")
        .map(|entry| entry.expect("directory entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    crate_dirs.sort();
    for src in &crate_dirs {
        sources(src, &mut files);
    }
    assert!(files.len() > 50, "crates/*/src holds {} files", files.len());
    let mut skipped = BTreeSet::new();
    let mut code = Vec::new();
    for file in &files {
        let source = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        let (text, test_files) = non_test_code(&source);
        // `mod tests;` in `a/b.rs` is `a/b/tests.rs`, or `a/tests.rs` from
        // a `lib.rs`, `main.rs` or `mod.rs`.
        let dir = file.parent().expect("a directory");
        let stem = file.file_stem().and_then(|s| s.to_str()).expect("a name");
        for name in test_files {
            let nested = dir.join(stem).join(format!("{name}.rs"));
            let path = if nested.exists() {
                nested
            } else {
                dir.join(format!("{name}.rs"))
            };
            assert!(
                path.exists(),
                "{}: no file for `mod {name};`",
                file.display()
            );
            skipped.insert(path);
        }
        code.push((file.clone(), text));
    }
    code.into_iter()
        .filter(|(file, _)| !skipped.contains(file))
        .collect()
}
