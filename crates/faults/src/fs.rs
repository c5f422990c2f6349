//! Fault-injectable filesystem wrappers — the one I/O path the on-disk
//! caches go through.
//!
//! Each wrapper consults a [`FaultPlan`] (the one it is handed: the
//! process-global [`global()`](crate::global) plan in production, an
//! explicit one in unit tests) at its matching point and then performs —
//! or corrupts, delays, or fails — the real syscall:
//!
//! | kind         | `fs-read`                   | `fs-write`                         | `fs-rename`        |
//! |--------------|-----------------------------|------------------------------------|--------------------|
//! | `delay-ms<N>`| sleep, then read            | sleep, then write                  | sleep, then rename |
//! | `torn-write` | —                           | write half, **report success**     | —                  |
//! | `short-read` | return the first half       | —                                  | —                  |
//! | `bit-flip`   | flip one payload bit        | flip one payload bit, write all    | —                  |
//! | `enospc`     | fail `ENOSPC`               | write half, fail `ENOSPC`          | fail `ENOSPC`      |
//! | `eio`        | fail `EIO`                  | fail `EIO` (nothing written)       | fail `EIO`         |
//! | `panic`      | panic                       | panic                              | panic              |
//!
//! `disconnect` is a network-only kind and never fires here. The bit
//! flip XORs `0x20` into the middle payload byte — deterministic, and it
//! keeps ASCII payloads valid UTF-8 so the corruption reaches the
//! checksum verifier instead of dying in string decoding.

use crate::{FaultKind, FaultPlan, FaultPoint};
use std::io;
use std::path::Path;

const ENOSPC: i32 = 28;
const EIO: i32 = 5;

fn raw(errno: i32) -> io::Error {
    io::Error::from_raw_os_error(errno)
}

fn flip_middle_bit(bytes: &mut [u8]) {
    if !bytes.is_empty() {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
    }
}

/// [`std::fs::read_to_string`] through the global fault plan.
pub fn read_to_string(path: &Path, tag: &str) -> io::Result<String> {
    read_to_string_with(crate::global(), path, tag)
}

/// [`read_to_string`] against an explicit plan.
pub fn read_to_string_with(plan: &FaultPlan, path: &Path, tag: &str) -> io::Result<String> {
    match plan.fire(FaultPoint::FsRead, tag) {
        Some(FaultKind::DelayMs(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        Some(FaultKind::Enospc) => return Err(raw(ENOSPC)),
        Some(FaultKind::Eio) => return Err(raw(EIO)),
        Some(FaultKind::ShortRead) => {
            let text = std::fs::read_to_string(path)?;
            let mut cut = text.len() / 2;
            while cut > 0 && !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return Ok(text[..cut].to_string());
        }
        Some(FaultKind::BitFlip) => {
            let mut bytes = std::fs::read(path)?;
            flip_middle_bit(&mut bytes);
            return Ok(String::from_utf8_lossy(&bytes).into_owned());
        }
        Some(FaultKind::Panic) => panic!("injected fs-read panic ({tag})"),
        Some(FaultKind::TornWrite) | Some(FaultKind::Disconnect) | None => {}
    }
    std::fs::read_to_string(path)
}

/// [`std::fs::write`] through `plan`.
pub fn write_with(plan: &FaultPlan, path: &Path, contents: &[u8], tag: &str) -> io::Result<()> {
    match plan.fire(FaultPoint::FsWrite, tag) {
        Some(FaultKind::DelayMs(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        Some(FaultKind::TornWrite) => {
            // The crash lie: half the bytes land and the caller hears Ok.
            return std::fs::write(path, &contents[..contents.len() / 2]);
        }
        Some(FaultKind::Enospc) => {
            // A realistic disk-full: a partial write precedes the error.
            let _ = std::fs::write(path, &contents[..contents.len() / 2]);
            return Err(raw(ENOSPC));
        }
        Some(FaultKind::Eio) => return Err(raw(EIO)),
        Some(FaultKind::BitFlip) => {
            let mut corrupted = contents.to_vec();
            flip_middle_bit(&mut corrupted);
            return std::fs::write(path, corrupted);
        }
        Some(FaultKind::Panic) => panic!("injected fs-write panic ({tag})"),
        Some(FaultKind::ShortRead) | Some(FaultKind::Disconnect) | None => {}
    }
    std::fs::write(path, contents)
}

/// [`std::fs::rename`] through `plan`.
pub fn rename_with(plan: &FaultPlan, from: &Path, to: &Path, tag: &str) -> io::Result<()> {
    match plan.fire(FaultPoint::FsRename, tag) {
        Some(FaultKind::DelayMs(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        Some(FaultKind::Enospc) => return Err(raw(ENOSPC)),
        Some(FaultKind::Eio) => return Err(raw(EIO)),
        Some(FaultKind::Panic) => panic!("injected fs-rename panic ({tag})"),
        _ => {}
    }
    std::fs::rename(from, to)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dp-faults-fs-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn clean_plan_is_a_passthrough() {
        let dir = tmp_dir("clean");
        let path = dir.join("f.txt");
        let plan = FaultPlan::default();
        write_with(&plan, &path, b"hello world", "t").unwrap();
        assert_eq!(
            read_to_string_with(&plan, &path, "t").unwrap(),
            "hello world"
        );
        let dest = dir.join("g.txt");
        rename_with(&plan, &path, &dest, "t").unwrap();
        assert!(dest.exists() && !path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_reports_success_with_half_the_bytes() {
        let dir = tmp_dir("torn");
        let path = dir.join("f.txt");
        let plan = FaultPlan::parse("torn-write@fs-write:t").unwrap();
        write_with(&plan, &path, b"0123456789", "t").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"01234");
        // Disarmed: the second write is whole.
        write_with(&plan, &path, b"0123456789", "t").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"0123456789");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_fails_after_a_partial_write() {
        let dir = tmp_dir("enospc");
        let path = dir.join("f.txt");
        let plan = FaultPlan::parse("enospc@fs-write").unwrap();
        let err = write_with(&plan, &path, b"0123456789", "t").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(ENOSPC));
        assert_eq!(std::fs::read(&path).unwrap(), b"01234");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_and_short_read_corrupt_the_read_side() {
        let dir = tmp_dir("read");
        let path = dir.join("f.txt");
        std::fs::write(&path, "0123456789").unwrap();
        let plan = FaultPlan::parse("bit-flip@fs-read;short-read@fs-read").unwrap();
        let flipped = read_to_string_with(&plan, &path, "t").unwrap();
        assert_ne!(flipped, "0123456789");
        assert_eq!(flipped.len(), 10, "bit flip preserves length");
        let short = read_to_string_with(&plan, &path, "t").unwrap();
        assert_eq!(short, "01234");
        // Both entries disarmed: clean read.
        assert_eq!(
            read_to_string_with(&plan, &path, "t").unwrap(),
            "0123456789"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eio_on_rename_leaves_the_source_in_place() {
        let dir = tmp_dir("rename");
        let path = dir.join("f.txt");
        std::fs::write(&path, "x").unwrap();
        let plan = FaultPlan::parse("eio@fs-rename").unwrap();
        let err = rename_with(&plan, &path, &dir.join("g.txt"), "t").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(EIO));
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
