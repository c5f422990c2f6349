//! Grep-enforcement of the shared-substrate discipline: the VM's grid
//! execution path, the sweep engine's generation runner, and the shard
//! scheduler's daemon drivers must draw their parallelism from `dp_pool`
//! — no raw `std::thread::scope` / `std::thread::spawn` is allowed to
//! reappear there (each one is a per-grid/per-generation thread-spawn
//! tax the pool exists to remove, and a worker set the shared budget
//! cannot see). The daemon's server is policed the same way, with an
//! exact allowance of named `thread::Builder` sites — the metrics-dump
//! thread, the session thread, and the launched-request thread — so a
//! fourth cannot appear unnoticed.
//!
//! Comments and doc lines are stripped before matching so the files can
//! still *talk* about threads; only code is policed.

use std::path::Path;

/// Source files on the no-raw-threads list, relative to this crate, each
/// with the number of `thread::Builder` sites it is allowed. A directory
/// stands for every `.rs` file in it: the VM's execution path is spread
/// over `machine.rs`, `ops.rs`, `reference.rs` and `memory.rs`, and a
/// thread must not hide in whichever file comes next.
const POLICED: &[(&str, usize)] = &[
    ("../vm/src", 0),
    ("../sweep/src/lib.rs", 0),
    ("../serve/src/shard.rs", 0),
    ("../serve/src/server.rs", 3),
];

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
    for (path, allowed_builders) in policed {
        let source = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let mut builders = 0;
        for (lineno, line) in source.lines().enumerate() {
            let code = strip_comment(line);
            for needle in ["thread::spawn", "thread::scope"] {
                assert!(
                    !code.contains(needle),
                    "{}:{}: `{needle}` in a pooled execution path — submit to \
                     dp_pool::Pool::shared() instead (see dp-pool's crate docs)",
                    path.display(),
                    lineno + 1,
                );
            }
            builders += code.matches("thread::Builder").count();
        }
        assert_eq!(
            builders,
            *allowed_builders,
            "{}: `thread::Builder` sites — a new thread needs a reason and a \
             new allowance here",
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
