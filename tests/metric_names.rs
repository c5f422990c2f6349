//! README's metrics table and the counters and histograms the code
//! registers are one list. A `Counter::new("…")` or `Histogram::new("…")`
//! literal that non-test code under `crates/*/src` holds must match a name
//! of that table, and every name of the table must match such a literal. A
//! metric added, renamed or dropped in the code fails here, not in an
//! operator who believed the document.
//!
//! A name of the table may hold `{a,b}` (either), `<op>` (one dotless
//! segment) and a trailing `*` (any rest).

mod common;

const README: &str = include_str!("../README.md");

/// The names in the first column of README's metrics table, the rows under
/// `| prefix | what |`, with their braces expanded.
fn table() -> Vec<String> {
    let rows = README
        .lines()
        .skip_while(|line| *line != "| prefix | what |")
        .skip(2)
        .take_while(|line| line.starts_with('|'));
    let mut names = Vec::new();
    for row in rows {
        let (first, _) = row
            .trim_start_matches("| ")
            .split_once(" | ")
            .expect("two columns");
        for name in first.split('`').skip(1).step_by(2) {
            names.extend(expand(name));
        }
    }
    names
}

/// `pattern` with each `{a,b}` spelled out both ways.
fn expand(pattern: &str) -> Vec<String> {
    let Some(open) = pattern.find('{') else {
        return vec![pattern.to_string()];
    };
    let close = open + pattern[open..].find('}').expect("a brace closes");
    let rest = expand(&pattern[close + 1..]);
    let mut names = Vec::new();
    for choice in pattern[open + 1..close].split(',') {
        for tail in &rest {
            names.push(format!("{}{choice}{tail}", &pattern[..open]));
        }
    }
    names
}

/// Whether `name` is one of the names `pattern` stands for.
fn matches(pattern: &str, name: &str) -> bool {
    if pattern == "*" {
        return !name.is_empty();
    }
    if let Some(placeholder) = pattern.strip_prefix('<') {
        let rest = &placeholder[placeholder.find('>').expect("a `<` closes") + 1..];
        let segment = name.find('.').unwrap_or(name.len());
        return (1..=segment).any(|at| matches(rest, &name[at..]));
    }
    match (pattern.bytes().next(), name.bytes().next()) {
        (None, None) => true,
        (Some(p), Some(n)) if p == n => matches(&pattern[1..], &name[1..]),
        _ => false,
    }
}

/// The metric names non-test code registers, each with the file it is in.
fn registered() -> Vec<(String, std::path::PathBuf)> {
    let mut names = Vec::new();
    for (file, text) in common::non_test_sources() {
        for line in text.lines() {
            // Code only: a `//` comment may quote a name it does not register.
            let mut rest = line.split_once("//").map_or(line, |(code, _)| code);
            while let Some(at) = ["Counter::new(\"", "Histogram::new(\""]
                .iter()
                .filter_map(|call| rest.find(call).map(|at| at + call.len()))
                .min()
            {
                let (name, tail) = rest[at..].split_once('"').expect("the literal closes");
                names.push((name.to_string(), file.clone()));
                rest = tail;
            }
        }
    }
    names
}

#[test]
fn the_metric_names_are_one_list() {
    let table = table();
    assert!(table.len() >= 20, "README's metrics table: {table:?}");
    let registered = registered();
    assert!(registered.len() >= 40, "registered: {registered:?}");
    for (name, file) in &registered {
        assert!(
            table.iter().any(|pattern| matches(pattern, name)),
            "{} registers `{name}`, which README's metrics table lacks",
            file.display()
        );
    }
    for pattern in &table {
        assert!(
            registered.iter().any(|(name, _)| matches(pattern, name)),
            "README's metrics table names `{pattern}`, which no non-test code registers"
        );
    }
}

#[test]
fn table_names_expand_and_match() {
    assert_eq!(
        expand("a.{b,c}_{d,e}"),
        ["a.b_d", "a.b_e", "a.c_d", "a.c_e"]
    );
    assert!(matches("serve.req.<op>_us", "serve.req.sweep_cell_us"));
    assert!(!matches("serve.req.<op>_us", "serve.req.a.b_us"));
    assert!(!matches("serve.req.<op>_us", "serve.req._us"));
    assert!(matches("serve.cache.*", "serve.cache.hits"));
    assert!(!matches("serve.cache.*", "serve.cache."));
    assert!(!matches("vm.run_us", "vm.run_usx"));
    assert!(!matches("vm.run_us", "vm.run"));
}
