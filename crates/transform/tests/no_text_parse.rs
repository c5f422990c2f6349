//! Source scan: the passes build the code they generate as syntax
//! (`util::Gen`) and never write it as text to parse again. Non-test code
//! in `crates/transform/src` may not name the frontend's parser —
//! `dp_frontend::parse`, `parse_expr`, `parse_stmt` or the `parser` module —
//! under any path or import.
//!
//! Comments and doc lines are stripped before matching, and each file is
//! read only up to its `#[cfg(test)]` module, so docs and unit tests may
//! still parse source.

use std::path::Path;

/// Identifiers no pass may use outside its tests.
const FORBIDDEN: [&str; 4] = ["parse", "parse_expr", "parse_stmt", "parser"];

#[test]
fn passes_do_not_parse_text() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files: Vec<_> = std::fs::read_dir(&src)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", src.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|file| file.extension().is_some_and(|ext| ext == "rs"))
        .collect();
    files.sort();
    assert!(files.len() >= 5, "{} holds the passes", src.display());
    for path in files {
        let source = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        if let Some((line, ident)) = first_parser_use(&source) {
            panic!(
                "{}:{line}: `{ident}` outside tests — build generated code with \
                 `util::Gen` instead of parsing text",
                path.display()
            );
        }
    }
}

#[test]
fn the_scan_sees_a_parser_call_and_nothing_else() {
    let call = "fn f() {\n    let p = dp_frontend::parse(&src);\n}\n";
    assert_eq!(first_parser_use(call), Some((2, "parse")));
    let import = "use dp_frontend::parser::parse_expr;\n";
    assert_eq!(first_parser_use(import), Some((1, "parser")));
    let clean = "/// Calls `parse(text)`.\nfn reparse_free() {} // parse_stmt\n\
                 #[cfg(test)]\nmod tests { use dp_frontend::parse; }\n";
    assert_eq!(first_parser_use(clean), None);
}

/// The first forbidden identifier in `source`'s non-test code, with its
/// 1-based line number.
fn first_parser_use(source: &str) -> Option<(usize, &'static str)> {
    for (lineno, line) in source.lines().enumerate() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            return None;
        }
        let code = line.find("//").map_or(line, |idx| &line[..idx]);
        for word in code.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
            if let Some(ident) = FORBIDDEN.iter().find(|f| **f == word) {
                return Some((lineno + 1, ident));
            }
        }
    }
    None
}
