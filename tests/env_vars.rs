//! The environment variables the workspace reads are one list: README's
//! table of them. A `"DPOPT_*"` literal that non-test code under
//! `crates/*/src` holds must be a row of that table, every row must be such
//! a literal, and README names no other `DPOPT_*` variable anywhere. A
//! variable added, renamed or dropped in the code fails here, not in a user
//! who believed the document.

mod common;

use common::non_test_code;
use std::collections::BTreeSet;
use std::path::PathBuf;

const README: &str = include_str!("../README.md");

/// The variables of README's table, whose rows start ``| `DPOPT_…` |``.
fn table() -> BTreeSet<String> {
    README
        .lines()
        .filter_map(|line| line.strip_prefix("| `DPOPT_")?.split_once("` |"))
        .map(|(rest, _)| format!("DPOPT_{rest}"))
        .collect()
}

/// Every `DPOPT_*` name `text` gives.
fn named(text: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut rest = text;
    while let Some(at) = rest.find("DPOPT_") {
        let tail = &rest[at..];
        let end = tail
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(tail.len());
        names.insert(tail[..end].to_string());
        rest = &tail[end..];
    }
    names
}

/// The `"DPOPT_*"` string literals the non-test code of `crates/*/src`
/// holds, each with a file it is in.
fn read_by_code() -> Vec<(String, PathBuf)> {
    let mut literals = Vec::new();
    for (file, text) in common::non_test_sources() {
        for line in text.lines() {
            // Code only: a `//` comment may quote a name it does not read.
            let line = line.split_once("//").map_or(line, |(code, _)| code);
            for name in named(line) {
                if line.contains(&format!("\"{name}\"")) {
                    literals.push((name, file.clone()));
                }
            }
        }
    }
    literals
}

#[test]
fn the_environment_variables_are_one_list() {
    let table = table();
    assert!(table.len() >= 10, "README's variable table: {table:?}");
    let code = read_by_code();
    let read: BTreeSet<String> = code.iter().map(|(name, _)| name.clone()).collect();
    for (name, file) in &code {
        assert!(
            table.contains(name),
            "{} reads `{name}`, which README's environment table lacks",
            file.display()
        );
    }
    for name in &table {
        assert!(
            read.contains(name),
            "README's environment table names `{name}`, which no non-test code reads"
        );
    }
    for name in named(README) {
        assert!(
            table.contains(&name),
            "README names `{name}`, which its environment table lacks"
        );
    }
}

#[test]
fn test_items_and_test_files_are_left_out() {
    let source = "\
fn a() { std::env::var(\"DPOPT_A\"); }
#[cfg(test)]
mod tests {
    fn b() { let c = '}'; std::env::var(\"DPOPT_B\"); }
}
#[cfg(test)]
mod oracle;
#[cfg(test)]
fn c() -> &'static str { \"{\" }
fn d() {}
";
    let (code, files) = non_test_code(source);
    assert_eq!(code, "fn a() { std::env::var(\"DPOPT_A\"); }\nfn d() {}\n");
    assert_eq!(files, ["oracle"]);
}
