//! Grep-enforcement of the shared-substrate discipline: the VM's grid
//! execution path, the sweep engine's generation runner, and the shard
//! scheduler's daemon drivers must draw their parallelism from `dp_pool`
//! — no raw `std::thread::scope` / `std::thread::spawn` is allowed to
//! reappear there (each one is a thread the shared budget cannot see).
//! The daemon's server is policed the same way, with an exact allowance
//! of named `thread::Builder` sites — the metrics-dump thread, the
//! session thread, and the launched-request thread — so a fourth cannot
//! appear unnoticed. The pool itself is the one sanctioned thread site:
//! one `thread::scope` (the one `Pool::scope` opens) and one
//! `thread::Builder` (the one a token pays for), and no others. Its unit
//! tests live in `pool/tests.rs`, outside the policed file.
//!
//! Comments and doc lines are stripped before matching so the files can
//! still *talk* about threads; only code is policed.

use std::path::Path;

/// Source files on the no-raw-threads list, relative to this crate, each
/// with the number of `thread::Builder` and `thread::scope` sites it is
/// allowed. A directory stands for every `.rs` file in it: the VM's
/// execution path is spread over `machine.rs`, `ops.rs`, `reference.rs`
/// and `memory.rs`, and a thread must not hide in whichever file comes
/// next. `thread::spawn` is allowed nowhere.
const POLICED: &[(&str, Allowance)] = &[
    ("../vm/src", Allowance::NONE),
    ("../sweep/src/lib.rs", Allowance::NONE),
    ("../serve/src/shard.rs", Allowance::NONE),
    (
        "../serve/src/server.rs",
        Allowance {
            builders: 3,
            scopes: 0,
        },
    ),
    (
        "../pool/src/pool.rs",
        Allowance {
            builders: 1,
            scopes: 1,
        },
    ),
];

#[derive(Debug, PartialEq)]
struct Allowance {
    builders: usize,
    scopes: usize,
}

impl Allowance {
    const NONE: Allowance = Allowance {
        builders: 0,
        scopes: 0,
    };
}

#[test]
fn grid_execution_and_generation_runner_use_the_shared_pool() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let policed = POLICED.iter().flat_map(|(rel, allowed)| {
        let path = root.join(rel);
        let files = if path.is_dir() {
            let mut files: Vec<_> = std::fs::read_dir(&path)
                .unwrap_or_else(|e| panic!("cannot list {}: {e}", path.display()))
                .map(|entry| entry.expect("directory entry").path())
                .filter(|file| file.extension().is_some_and(|ext| ext == "rs"))
                .collect();
            files.sort();
            assert!(!files.is_empty(), "{} holds no source", path.display());
            files
        } else {
            vec![path]
        };
        files.into_iter().map(move |file| (file, allowed))
    });
    for (path, allowed) in policed {
        let source = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let mut found = Allowance::NONE;
        for (lineno, line) in source.lines().enumerate() {
            let code = strip_comment(line);
            assert!(
                !code.contains("thread::spawn"),
                "{}:{}: `thread::spawn` in a pooled execution path — submit to \
                 dp_pool::Pool::shared() instead (see dp-pool's crate docs)",
                path.display(),
                lineno + 1,
            );
            found.builders += code.matches("thread::Builder").count();
            found.scopes += code.matches("thread::scope").count();
        }
        assert_eq!(
            &found,
            allowed,
            "{}: `thread::Builder` / `thread::scope` sites — a new thread needs \
             a reason and a new allowance here, or submit to \
             dp_pool::Pool::shared() instead",
            path.display(),
        );
    }
}

/// Drops `//`-style comments (incl. doc comments). Good enough for this
/// policing job: neither policed file puts `//` inside a string literal.
fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(idx) => &line[..idx],
        None => line,
    }
}
