//! The `DPOPT_JOBS` convention: the job count every parallel layer (sweep
//! cells, shard daemon drivers, serve's execution slots) sizes itself
//! from, resolved once per process with the precedence `--jobs` flag
//! ([`resolve_jobs`]) > `DPOPT_JOBS` env > available parallelism, so
//! nested layers never oversubscribe the host. [`crate::Pool::shared`]
//! holds [`configured_jobs`] minus one tokens: `DPOPT_JOBS=1` starts no
//! job thread.

use std::sync::OnceLock;

static CONFIGURED: OnceLock<usize> = OnceLock::new();

fn auto_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn env_jobs() -> usize {
    match std::env::var("DPOPT_JOBS") {
        Err(_) => auto_jobs(),
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(v) if v > 0 => v,
            _ => {
                dp_obs::diag!(
                    "warning: ignoring invalid DPOPT_JOBS=`{raw}`; falling back to available parallelism"
                );
                auto_jobs()
            }
        },
    }
}

/// Resolves the process-wide job count, **once**: an explicit flag value
/// (`--jobs N`, pass `Some(N)`) wins over `DPOPT_JOBS`, which wins over
/// available parallelism. The first resolution sticks for the life of the
/// process — the shared pool is sized from it — so front-ends should call
/// this before any parallel layer runs. A later conflicting flag warns on
/// stderr and returns the already-resolved count.
pub fn resolve_jobs(flag: Option<usize>) -> usize {
    let resolved = *CONFIGURED.get_or_init(|| flag.filter(|&n| n > 0).unwrap_or_else(env_jobs));
    if let Some(n) = flag {
        if n > 0 && n != resolved {
            dp_obs::diag!(
                "warning: --jobs {n} ignored; the worker budget was already resolved to {resolved} for this process"
            );
        }
    }
    resolved
}

/// The configured job count: the value [`resolve_jobs`] pinned, else
/// `DPOPT_JOBS` if set and valid, else available parallelism (min 1).
/// Resolved once per process; an invalid env value warns on stderr instead
/// of silently falling back.
pub fn configured_jobs() -> usize {
    resolve_jobs(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configured_jobs_is_positive_and_stable() {
        let a = configured_jobs();
        assert!(a >= 1);
        assert_eq!(a, configured_jobs());
        // Once resolved, a conflicting flag cannot change it.
        assert_eq!(resolve_jobs(Some(a + 7)), a);
    }
}
