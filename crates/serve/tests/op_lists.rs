//! `proto.rs` names its ops in three places: the table in its module doc,
//! the list its unknown-op message gives, and the arms of `parse_body`,
//! which reads them. The three must be one set, so an op added, renamed or
//! removed in one place fails here, not in a client that believed the
//! document.

use std::collections::BTreeSet;

const PROTO: &str = include_str!("../src/proto.rs");

/// The ops of the module doc's table, whose rows start ``//! | `op` ``.
fn table() -> BTreeSet<&'static str> {
    PROTO
        .lines()
        .filter_map(|line| line.strip_prefix("//! | `")?.split_once('`'))
        .map(|(op, _)| op)
        .collect()
}

/// The ops the unknown-op message lists, as `(a|b|…)`.
fn message() -> BTreeSet<&'static str> {
    let (_, rest) = PROTO
        .split_once("unknown op `{other}` (")
        .expect("the unknown-op message");
    let end = rest.find(')').expect("the list closes");
    rest[..end].split('|').collect()
}

/// The string patterns of `parse_body`'s arms, up to its unknown-op arm.
fn arms() -> BTreeSet<&'static str> {
    let body = &PROTO[PROTO.find("fn parse_body(").expect("parse_body")..];
    let body = &body[..body.find("other => Err(").expect("the unknown-op arm")];
    body.lines()
        .map(str::trim_start)
        .filter(|line| line.starts_with('"'))
        .filter_map(|line| line.split_once("=>"))
        .flat_map(|(patterns, _)| patterns.split('|'))
        .map(|pattern| pattern.trim().trim_matches('"'))
        .collect()
}

#[test]
fn the_op_table_the_unknown_op_message_and_the_reader_are_one_set() {
    let arms = arms();
    assert!(arms.len() >= 10, "parse_body's arms: {arms:?}");
    assert_eq!(
        table(),
        arms,
        "the module doc's op table against parse_body"
    );
    assert_eq!(message(), arms, "the unknown-op message against parse_body");
}
