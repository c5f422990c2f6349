//! Content-addressed result cache — the crash-safe storage tier.
//!
//! Every sweep cell is keyed by [`crate::key::cell_key`] — see that module
//! for exactly which axes participate in the hash (it is the shared key
//! definition between this on-disk cache and the `dp-serve` daemon's
//! in-memory compiled-program cache).
//!
//! Summaries are persisted as one file per cell, `<key:016x>.json`, under
//! the cache directory (default `.dpopt-cache/`, override with
//! `DPOPT_CACHE_DIR`). The entry format is integrity-checked end to end:
//!
//! ```text
//! {"version":2,"key":"<key:016x>", ...}               ← JSON body
//! #dpopt-cache v2 len=<body bytes> fnv1a=<16 hex>     ← integrity footer
//! ```
//!
//! An entry is **bound to its key**: the body names the key it answers, and
//! filed under any other name it is `corrupt (key mismatch)` — a copied,
//! renamed or mis-routed entry is never served as another cell's result.
//!
//! Each thing that happens to a sealed entry is written once:
//!
//! - [`check`] is the one verdict — footer, length, checksum, version,
//!   body, schema, key — behind [`load`], [`load_sealed`], [`verify`] and
//!   [`receive`].
//! - `read_checked` reads the entry filed under a key, checks it and
//!   **quarantines** a corrupt one to `<key>.corrupt` (counted in
//!   `sweep.cache.corrupt`, diagnosed on stderr) rather than re-parsing it
//!   as a miss every run. [`load`] (typed, refreshes the LRU clock) and
//!   [`load_sealed`] (the raw bytes, for `cache-pull`) are its two views.
//! - `publish` is the write-then-rename that puts bytes under the live
//!   name, for [`store`] (which seals a summary first and reports whether
//!   the directory is still usable — [`StoreOutcome`]) and [`receive`].
//! - [`receive`] takes an entry from a peer — the `cache-push` handler and
//!   `dp_serve::shard::sync_caches`' pull loop — and publishes or quarantines it.
//! - `scan` walks the directory and owns the naming rules, for [`gc`]
//!   (quarantined entries go before live ones), [`verify`] (the fsck behind
//!   `dpopt cache verify [--repair]`) and [`list_keys`].
//!
//! All cache I/O except the fsck's goes through `faults::fs`, so the
//! fault plans in `DPOPT_FAULTS` (torn write, short read, bit flip,
//! `ENOSPC`, `EIO`, delayed rename) exercise exactly the code paths
//! production crashes hit — see `crates/cli/tests/chaos.rs` for the
//! process-level proof.

use crate::faults::{self, FaultPlan};
use crate::key::{fnv1a, parse_key, CACHE_FORMAT_VERSION};
use crate::CellSummary;
use dp_obs::json::{self, num, object, uint, Cursor, Json};
use dp_obs::metrics::Counter;
use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static CACHE_CORRUPT: Counter = Counter::new("sweep.cache.corrupt");

/// The tag cache I/O passes to [`faults::fs`] — fault plans can target
/// exactly this traffic with `kind@fs-write:sweep-cache`.
pub(crate) const FS_TAG: &str = "sweep-cache";

/// Cache hit/miss counters for one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells served from the cache.
    pub hits: usize,
    /// Cells executed (and, when caching is on, then stored).
    pub misses: usize,
    /// Whether the cache was consulted at all.
    pub enabled: bool,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (`0` for an empty sweep).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The cache directory to use: explicit override, else `DPOPT_CACHE_DIR`,
/// else `.dpopt-cache` in the current directory.
pub fn resolve_cache_dir(explicit: Option<&Path>) -> PathBuf {
    if let Some(dir) = explicit {
        return dir.to_path_buf();
    }
    match std::env::var_os("DPOPT_CACHE_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(".dpopt-cache"),
    }
}

fn cell_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.json"))
}

/// Best-effort LRU touch: bumps the modification time of a cache file, on
/// the handle it was just read through, so [`gc`] treats recently *used*
/// entries as recently *valuable*. Failure is harmless (the entry just ages
/// by its write time).
fn touch(entry: &File) {
    let _ = entry.set_modified(std::time::SystemTime::now());
}

// ----------------------------------------------------------------------
// Sealing and checking
// ----------------------------------------------------------------------

const FOOTER_MARK: &str = "\n#dpopt-cache v";

/// [`check`]'s reason for an intact entry of another format version: a
/// miss that is left in place to age out, where every other reason is
/// corruption.
const STALE: &str = "stale format version";

/// The integrity footer, as `Display`.
struct Footer {
    version: u32,
    len: usize,
    sum: u64,
}

impl fmt::Display for Footer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Footer { version, len, sum } = self;
        writeln!(f, "{FOOTER_MARK}{version} len={len} fnv1a={sum:016x}")
    }
}

/// Appends the integrity footer to a serialized body.
fn seal_entry(body: &str) -> String {
    let footer = Footer {
        version: CACHE_FORMAT_VERSION,
        len: body.len(),
        sum: fnv1a(body.as_bytes()),
    };
    format!("{body}{footer}")
}

/// Whether `text` is exactly what `shown` renders, decided while it
/// renders: nothing is allocated.
fn renders_as(text: &str, shown: impl fmt::Display) -> bool {
    struct Rest<'a>(&'a str);
    impl fmt::Write for Rest<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
            Ok(())
        }
    }
    let mut rest = Rest(text);
    write!(rest, "{shown}").is_ok() && rest.0.is_empty()
}

/// The one verdict on an entry's raw text (body + footer) offered as the
/// answer to `key`: the footer is exactly what [`store`] writes, its length
/// and fnv1a checksum match the body, the version is current, and the body
/// decodes as a summary **that names `key`** ([`decode_summary`]). `Err`
/// carries the reason: `"stale format version"` for an intact entry of
/// another version, decided before the key is looked at, and otherwise what
/// is corrupt about it. These are the strings quarantine diagnostics and
/// `cache verify` print. Nothing here allocates by a number read from
/// `text`.
pub fn check(text: &str, key: u64) -> Result<CellSummary, &'static str> {
    let Some(idx) = text.rfind(FOOTER_MARK) else {
        // No footer. A pre-checksum (v1) entry still decodes as versioned
        // JSON — stale, not corrupt; anything else is torn bytes.
        return match read_body(text.trim()) {
            Ok(body) if body.version.is_some() => Err(STALE),
            _ => Err("missing checksum footer"),
        };
    };
    let (body, tail) = text.split_at(idx);
    let mut fields = tail[FOOTER_MARK.len()..].split_whitespace();
    let version: Option<u32> = fields.next().and_then(|v| v.parse().ok());
    let len: Option<usize> = fields
        .next()
        .and_then(|p| p.strip_prefix("len="))
        .and_then(|v| v.parse().ok());
    let sum: Option<u64> = fields
        .next()
        .and_then(|p| p.strip_prefix("fnv1a="))
        .and_then(|v| u64::from_str_radix(v, 16).ok());
    let (Some(version), Some(len), Some(sum)) = (version, len, sum) else {
        return Err("malformed footer");
    };
    // Only the bytes `footer` renders are a footer: no sign, no upper-case
    // digit, no padding, nothing after the checksum.
    if !renders_as(tail, Footer { version, len, sum }) {
        return Err("malformed footer");
    }
    if len != body.len() {
        return Err("length mismatch");
    }
    if sum != fnv1a(body.as_bytes()) {
        return Err("checksum mismatch");
    }
    if version != CACHE_FORMAT_VERSION {
        return Err(STALE);
    }
    decode_summary(body, key)
}

/// Decodes a summary body, the text [`summary_json`] writes, as the answer
/// to `key`: `"undecodable body"` for text that is not one JSON document,
/// and otherwise [`SummaryBody::verdict`]. Whitespace, member order, escapes
/// and members it does not know are the text's to choose.
pub fn decode_summary(body: &str, key: u64) -> Result<CellSummary, &'static str> {
    read_body(body)
        .map_err(|_| "undecodable body")?
        .verdict(key)
}

/// `body`, one JSON document, read by [`SummaryBody::read`].
fn read_body(body: &str) -> json::Result<SummaryBody<'_>> {
    let mut cursor = Cursor::new(body);
    let read = SummaryBody::read(&mut cursor, |c, _| c.value().map(drop))?;
    cursor.finish()?;
    Ok(read)
}

/// The bits of [`SummaryBody::fields`] a whole summary sets.
const ALL_FIELDS: u16 = (1 << 14) - 1;

/// A summary body read in one walk, before its verdict: each member
/// [`summary_json`] writes, as the last of its name holds it, which is the
/// member a JSON tree keeps.
#[derive(Default)]
pub struct SummaryBody<'a> {
    summary: CellSummary,
    /// Bit `i` is set when the last of the `i`-th field's members (in the
    /// order [`SummaryBody::read`] lists them) holds a value of its type.
    fields: u16,
    /// The last `version`, when it is a `u64`.
    version: Option<u64>,
    /// The last `key`, when it is a string.
    key: Option<Cow<'a, str>>,
}

impl<'a> SummaryBody<'a> {
    /// Reads the value at `cursor` as a summary body, in one walk. Each
    /// member is read as the number, array of numbers or string its field
    /// asks for; a value of another type is read past and makes the member
    /// wrong. A member that is no field is handed to `other`, which must
    /// read its value and fail only on a syntax error. A value other than
    /// an object gives no member. Only a syntax error, nesting past
    /// [`json::MAX_DEPTH`] included, fails.
    pub fn read(
        cursor: &mut Cursor<'a>,
        mut other: impl FnMut(&mut Cursor<'a>, &str) -> json::Result<()>,
    ) -> json::Result<Self> {
        let mut body = SummaryBody::default();
        (body.summary.verified, body.summary.from_cache) = (true, true);
        let float = |c: &mut Cursor<'a>| c.or_skip(|c| c.number_as(Json::as_f64));
        let count = |c: &mut Cursor<'a>| c.or_skip(|c| c.number_as(Json::as_u64));
        let ints = |c: &mut Cursor<'a>| c.or_skip(|c| c.numbers(Json::as_i64));
        let floats = |c: &mut Cursor<'a>| c.or_skip(|c| c.numbers(Json::as_f64));
        cursor.or_skip(|cursor| {
            cursor.object(|c, name| {
                let s = &mut body.summary;
                let (field, given) = match name {
                    "version" => {
                        body.version = count(c)?;
                        return Ok(());
                    }
                    "key" => {
                        body.key = c.or_skip(Cursor::string)?;
                        return Ok(());
                    }
                    "total_us" => (0, float(c)?.map(|v| s.total_us = v)),
                    "device_span_us" => (1, float(c)?.map(|v| s.device_span_us = v)),
                    "parent_us" => (2, float(c)?.map(|v| s.parent_us = v)),
                    "child_us" => (3, float(c)?.map(|v| s.child_us = v)),
                    "launch_us" => (4, float(c)?.map(|v| s.launch_us = v)),
                    "aggregation_us" => (5, float(c)?.map(|v| s.aggregation_us = v)),
                    "disaggregation_us" => (6, float(c)?.map(|v| s.disaggregation_us = v)),
                    "warp_avg_total_us" => (7, float(c)?.map(|v| s.warp_avg_total_us = v)),
                    "device_launches" => (8, count(c)?.map(|v| s.device_launches = v)),
                    "host_launches" => (9, count(c)?.map(|v| s.host_launches = v)),
                    "origin_cycles_total" => (10, count(c)?.map(|v| s.origin_cycles_total = v)),
                    "instructions" => (11, count(c)?.map(|v| s.instructions = v)),
                    "output_ints" => (12, ints(c)?.map(|v| s.output_ints = v)),
                    "output_floats" => (13, floats(c)?.map(|v| s.output_floats = v)),
                    _ => return other(c, name),
                };
                body.fields = body.fields & !(1 << field) | u16::from(given.is_some()) << field;
                Ok(())
            })
        })?;
        Ok(body)
    }

    /// The summary, if the body answers `key`, with the verdicts a JSON
    /// tree of the body gives: a `version` other than the current one is
    /// `"stale format version"`, no `u64` version or a field missing or of
    /// another type is `"schema mismatch"`, and a `key` other than `key`'s
    /// spelling is `"key mismatch"`, in that order.
    pub fn verdict(self, key: u64) -> Result<CellSummary, &'static str> {
        match self.version {
            Some(v) if v != u64::from(CACHE_FORMAT_VERSION) => Err(STALE),
            Some(_) if self.fields == ALL_FIELDS => {
                if self.key.as_deref().and_then(parse_key) == Some(key) {
                    Ok(self.summary)
                } else {
                    Err("key mismatch")
                }
            }
            _ => Err("schema mismatch"),
        }
    }
}

/// Puts a failed entry aside as `<key>.corrupt` so it is never re-parsed
/// (and [`gc`] evicts it first), and counts it in `sweep.cache.corrupt`:
/// the file under the live name is moved there, or — for `rejected` bytes
/// that [`receive`] never published — they are written there.
fn quarantine(dir: &Path, key: u64, reason: &str, rejected: Option<&str>) {
    CACHE_CORRUPT.incr();
    let target = dir.join(format!("{key:016x}.corrupt"));
    let (what, moved) = match rejected {
        None => ("corrupt", std::fs::rename(cell_path(dir, key), &target)),
        Some(entry) => (
            "rejected",
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&target, entry)),
        ),
    };
    match moved {
        Ok(()) => dp_obs::diag!(
            "[dp-sweep] quarantined {what} cache entry {key:016x} ({reason}) -> {}",
            target.display()
        ),
        Err(e) => dp_obs::diag!(
            "[dp-sweep] {what} cache entry {key:016x} ({reason}); quarantine failed: {e}"
        ),
    }
}

/// Reads the entry filed under `key` and [`check`]s it: `Some` (the handle
/// it was read through, its raw text and summary) only for a current entry
/// that answers `key`. A corrupt one is quarantined — never served, never
/// re-parsed; a stale, absent or unreadable one is a plain miss.
fn read_checked(dir: &Path, key: u64) -> Option<(File, String, CellSummary)> {
    let path = cell_path(dir, key);
    let (entry, text) = match faults::fs::read_to_string_with(faults::global(), &path, FS_TAG) {
        Ok(read) => read,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
        Err(e) => {
            // Transient read failure: the bytes on disk may be fine, so
            // miss without quarantining.
            dp_obs::diag!("[dp-sweep] cache read failed for {key:016x}: {e}");
            return None;
        }
    };
    match check(&text, key) {
        Ok(summary) => Some((entry, text, summary)),
        Err(STALE) => None,
        Err(reason) => {
            quarantine(dir, key, reason, None);
            None
        }
    }
}

/// Loads a cached summary, if present and **verified** ([`check`]). A
/// *hit* (and only a hit — stale entries must keep aging toward eviction)
/// refreshes the entry's modification time, the LRU clock used by [`gc`],
/// on the handle it was read through: a hit opens its entry once.
pub fn load(dir: &Path, key: u64) -> Option<CellSummary> {
    let (entry, _, summary) = read_checked(dir, key)?;
    touch(&entry);
    Some(summary)
}

/// One entry's raw sealed text (body + footer), verified exactly as
/// [`load`] would — what `cache-pull` ships, so a replicated entry can
/// never differ from the original by a byte. Stale-format entries are
/// `None`: replicating an old format across the fleet helps nobody.
pub fn load_sealed(dir: &Path, key: u64) -> Option<String> {
    read_checked(dir, key).map(|(_, text, _)| text)
}

/// The persisted JSON form of a summary — the exact object [`store`]
/// writes (before the integrity footer is appended), also the payload of a
/// `dp-serve` `sweep-cell` response (one serialization path, so a served
/// cell and a cached cell can never disagree on a byte).
pub fn summary_json(key: u64, summary: &CellSummary) -> Json {
    object([
        ("version", uint(CACHE_FORMAT_VERSION as u64)),
        ("key", Json::Str(format!("{key:016x}"))),
        ("total_us", num(summary.total_us)),
        ("device_span_us", num(summary.device_span_us)),
        ("parent_us", num(summary.parent_us)),
        ("child_us", num(summary.child_us)),
        ("launch_us", num(summary.launch_us)),
        ("aggregation_us", num(summary.aggregation_us)),
        ("disaggregation_us", num(summary.disaggregation_us)),
        ("warp_avg_total_us", num(summary.warp_avg_total_us)),
        ("device_launches", uint(summary.device_launches)),
        ("host_launches", uint(summary.host_launches)),
        ("origin_cycles_total", uint(summary.origin_cycles_total)),
        ("instructions", uint(summary.instructions)),
        (
            "output_ints",
            Json::Array(summary.output_ints.iter().map(|&v| Json::Int(v)).collect()),
        ),
        (
            "output_floats",
            Json::Array(summary.output_floats.iter().map(|&v| num(v)).collect()),
        ),
    ])
}

// ----------------------------------------------------------------------
// Publishing: a summary of ours, or sealed bytes from a peer
// ----------------------------------------------------------------------

/// What [`store`] managed to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The entry was sealed and published.
    Stored,
    /// A transient failure; the next store may well succeed.
    TransientError,
    /// The directory is unusable — disk full (`ENOSPC`) or not writable
    /// (`EROFS`/permission denied). Callers should demote to cache-off
    /// instead of retrying every cell.
    Unavailable,
}

fn classify_store_error(e: &std::io::Error) -> StoreOutcome {
    const ENOSPC: i32 = 28;
    const EROFS: i32 = 30;
    if matches!(e.raw_os_error(), Some(ENOSPC) | Some(EROFS))
        || e.kind() == std::io::ErrorKind::PermissionDenied
    {
        StoreOutcome::Unavailable
    } else {
        StoreOutcome::TransientError
    }
}

/// Puts `bytes` under `key`'s live name: writes `<key>.tmp.<pid>.<n>`, then
/// renames, so concurrent workers and interrupted runs never expose a torn
/// file under the final name. `n` counts this process's publishes, so two
/// threads publishing one key never truncate each other's tmp file. When
/// the live entry already holds exactly `bytes`, nothing is written and its
/// LRU clock is refreshed: renaming over an existing file is the slow path
/// on ext4, which flushes the new file's data first (tens of ms per store).
/// Errors are reported to stderr, not raised (the cache is an accelerator,
/// not a correctness dependency); the [`StoreOutcome`] tells callers when
/// the directory itself is gone.
fn publish(plan: &FaultPlan, dir: &Path, key: u64, bytes: &[u8]) -> StoreOutcome {
    static PUBLISHES: AtomicU64 = AtomicU64::new(0);
    let path = cell_path(dir, key);
    if let Ok((live, text)) = faults::fs::read_to_string_with(plan, &path, FS_TAG) {
        if text.as_bytes() == bytes {
            touch(&live);
            return StoreOutcome::Stored;
        }
    }
    let n = PUBLISHES.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!("{key:016x}.tmp.{}.{n}", std::process::id()));
    let failed = |what: &str, at: &Path, e: std::io::Error| {
        dp_obs::diag!("[dp-sweep] cannot {what} {}: {e}", at.display());
        let _ = std::fs::remove_file(&tmp);
        classify_store_error(&e)
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        return failed("create cache dir", dir, e);
    }
    if let Err(e) = faults::fs::write_with(plan, &tmp, bytes, FS_TAG) {
        return failed("write", &tmp, e);
    }
    if let Err(e) = faults::fs::rename_with(plan, &tmp, &path, FS_TAG) {
        return failed("publish", &path, e);
    }
    StoreOutcome::Stored
}

/// Persists a summary: seals the serialized body with the integrity footer
/// and publishes it under `key`. The returned [`StoreOutcome`] tells
/// callers when the directory itself is gone so they can stop trying.
pub fn store(dir: &Path, key: u64, summary: &CellSummary) -> StoreOutcome {
    let entry = seal_entry(&summary_json(key, summary).to_string());
    publish(faults::global(), dir, key, entry.as_bytes())
}

/// Takes a sealed entry a peer offers as the answer to `key` — a
/// `cache-push` payload, a `cache-pull` response — and publishes it
/// verbatim if it passes [`check`]. Otherwise **nothing is written to the
/// live namespace**: the bytes are quarantined to `<key>.corrupt` for
/// inspection, counted in `sweep.cache.corrupt`, and `Err` says why, so
/// replication can never spread a bad byte or a mis-keyed entry.
pub fn receive(dir: &Path, key: u64, entry: &str) -> Result<StoreOutcome, &'static str> {
    match check(entry, key) {
        Ok(_) => Ok(publish(faults::global(), dir, key, entry.as_bytes())),
        Err(reason) => {
            quarantine(dir, key, reason, Some(entry));
            Err(reason)
        }
    }
}

/// Lifetime total of entries this process has quarantined (corrupt on
/// load, rejected on receipt) — `sweep.cache.corrupt`, exposed so the serve
/// `stats` op can report it without a metrics snapshot.
pub fn corrupt_count() -> u64 {
    CACHE_CORRUPT.value()
}

/// One cache directory and its disk-full latch: what a sweep, a sharded
/// sweep and a daemon's `--disk-cache` each hold for as long as they run.
/// The first store the directory refuses as full or read-only
/// ([`StoreOutcome::Unavailable`]) stops every later one and is reported
/// once; loads go on. Results still flow — the cache is an accelerator,
/// never a correctness dependency.
pub struct ResultCache {
    dir: PathBuf,
    broken: AtomicBool,
}

impl ResultCache {
    /// A handle on `dir`, which need not exist yet.
    pub fn new(dir: PathBuf) -> Self {
        ResultCache {
            dir,
            broken: AtomicBool::new(false),
        }
    }

    /// The directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// [`load`] from this directory.
    pub fn load(&self, key: u64) -> Option<CellSummary> {
        load(&self.dir, key)
    }

    /// [`store`] into this directory, unless it was found unusable before.
    pub fn store(&self, key: u64, summary: &CellSummary) -> StoreOutcome {
        if self.broken.load(Ordering::Relaxed) {
            return StoreOutcome::Unavailable;
        }
        let outcome = store(&self.dir, key, summary);
        if outcome == StoreOutcome::Unavailable && !self.broken.swap(true, Ordering::Relaxed) {
            dp_obs::diag!(
                "[dp-sweep] cache dir {} unavailable (disk full or read-only); \
                 continuing without the cache",
                self.dir.display()
            );
        }
        outcome
    }
}

// ----------------------------------------------------------------------
// The directory: scan, inventory, eviction (GC), verification (fsck)
// ----------------------------------------------------------------------

/// What a file name in the cache directory says the file is.
enum FileKind {
    /// `*.tmp.*`: what an interrupted [`publish`] leaves behind.
    Torn,
    /// `*.corrupt`: put aside by [`quarantine`].
    Quarantined,
    /// `<key:016x>.json`, as [`cell_path`] spells it: the entry for `key`.
    Entry(u64),
}

fn classify(name: &str) -> Option<FileKind> {
    if name.contains(".tmp.") {
        return Some(FileKind::Torn);
    }
    if name.ends_with(".corrupt") {
        return Some(FileKind::Quarantined);
    }
    parse_key(name.strip_suffix(".json")?).map(FileKind::Entry)
}

/// Every cache file in `dir` — name, kind, path — sorted by name, which
/// sorts entries by key. Names that are none of the three kinds are not
/// the cache's and are left alone. A missing directory is an empty cache,
/// and a file that live traffic removes or renames during the walk (a
/// publish renaming its `*.tmp.*`, a [`load`] quarantining, a [`gc`]) is
/// already gone, not an error.
fn scan(dir: &Path) -> std::io::Result<Vec<(String, FileKind, PathBuf)>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(kind) = classify(&name) else {
            continue;
        };
        if unless_gone(entry.file_type())?.is_some_and(|t| t.is_file()) {
            files.push((name, kind, entry.path()));
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

/// `Ok(None)` for `NotFound`: the file vanished under a concurrent writer.
fn unless_gone<T>(result: std::io::Result<T>) -> std::io::Result<Option<T>> {
    match result {
        Ok(value) => Ok(Some(value)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// The keys of every entry in the cache directory, sorted — the inventory
/// `cache-pull` answers so a fleet can converge.
pub fn list_keys(dir: &Path) -> std::io::Result<Vec<u64>> {
    let keys = scan(dir)?
        .into_iter()
        .filter_map(|(_, kind, _)| match kind {
            FileKind::Entry(key) => Some(key),
            _ => None,
        });
    Ok(keys.collect())
}

/// What [`gc`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Cell summaries found.
    pub entries: usize,
    /// Entries evicted (quarantined `.corrupt` files first, then least
    /// recently used).
    pub evicted: usize,
    /// Total bytes before eviction.
    pub bytes_before: u64,
    /// Total bytes after eviction.
    pub bytes_after: u64,
}

/// Prunes the cache directory down to `max_bytes`. Quarantined
/// `*.corrupt` files are evicted first (they exist only for post-incident
/// inspection), then **least-recently-used** cell summaries
/// (modification time is the LRU clock: [`store`] stamps it and [`load`]
/// refreshes it on every hit). Ties break on file name so eviction order
/// is deterministic. Stale `*.tmp.*` files from interrupted writes are
/// always removed. Like the scan, it takes a file that vanishes before its
/// turn as already gone.
pub fn gc(dir: &Path, max_bytes: u64) -> std::io::Result<GcReport> {
    // (live, mtime, name, bytes, path): sorted, that is quarantined first,
    // then oldest; the name keeps eviction deterministic when a
    // filesystem's timestamps are coarse.
    let mut cells = Vec::new();
    for (name, kind, path) in scan(dir)? {
        if matches!(kind, FileKind::Torn) {
            // Torn write leftovers are garbage regardless of budget.
            let _ = std::fs::remove_file(&path);
            continue;
        }
        let Some(meta) = unless_gone(std::fs::metadata(&path))? else {
            continue;
        };
        let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
        let live = matches!(kind, FileKind::Entry(_));
        cells.push((live, mtime, name, meta.len(), path));
    }
    let bytes_before = cells.iter().map(|c| c.3).sum();
    let mut report = GcReport {
        entries: cells.iter().filter(|c| c.0).count(),
        evicted: 0,
        bytes_before,
        bytes_after: bytes_before,
    };
    if bytes_before <= max_bytes {
        return Ok(report);
    }
    cells.sort();
    for (_, _, _, len, path) in cells {
        if report.bytes_after <= max_bytes {
            break;
        }
        if unless_gone(std::fs::remove_file(&path))?.is_some() {
            report.evicted += 1;
        }
        report.bytes_after -= len;
    }
    Ok(report)
}

/// What is wrong with one cache file (see [`VerifyFinding`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryProblem {
    /// A `*.tmp.*` leftover from an interrupted write.
    Torn,
    /// Failed [`check`] (bad footer, length, checksum or body, or filed
    /// under a key it does not answer).
    Corrupt,
    /// Intact, but written by a different format version.
    Stale,
    /// A `*.corrupt` file quarantined by an earlier [`load`].
    Quarantined,
}

impl EntryProblem {
    /// The label `dpopt cache verify` prints.
    pub fn label(&self) -> &'static str {
        match self {
            EntryProblem::Torn => "torn",
            EntryProblem::Corrupt => "corrupt",
            EntryProblem::Stale => "stale-version",
            EntryProblem::Quarantined => "quarantined",
        }
    }
}

/// One problematic file found by [`verify`].
#[derive(Debug, Clone)]
pub struct VerifyFinding {
    /// File name within the cache directory.
    pub name: String,
    /// The classification.
    pub problem: EntryProblem,
    /// Human-readable detail (the specific integrity failure).
    pub detail: String,
    /// Whether `--repair` removed it.
    pub repaired: bool,
}

/// The result of walking a cache directory with [`verify`].
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Files examined (entries, quarantine files, and tmp leftovers).
    pub scanned: usize,
    /// Entries that verified clean.
    pub ok: usize,
    /// Files removed by repair.
    pub repaired: usize,
    /// Problems, sorted by file name.
    pub findings: Vec<VerifyFinding>,
}

impl VerifyReport {
    /// True when every scanned entry verified clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings of one problem class.
    pub fn count(&self, problem: EntryProblem) -> usize {
        self.findings
            .iter()
            .filter(|f| f.problem == problem)
            .count()
    }
}

/// Walks the cache directory and verifies every entry — the fsck behind
/// `dpopt cache verify [--repair]`. Classifies `*.tmp.*` leftovers as
/// torn, `*.corrupt` files as quarantined, and [`check`]s each entry
/// against the key it is filed under (corrupt, or stale). With `repair`,
/// problem files are removed. Reads go straight to the filesystem, not
/// through the fault plan: fsck must see the real bytes.
pub fn verify(dir: &Path, repair: bool) -> std::io::Result<VerifyReport> {
    let mut report = VerifyReport::default();
    for (name, kind, path) in scan(dir)? {
        let problem = match kind {
            FileKind::Torn => Some((EntryProblem::Torn, "interrupted write".to_string())),
            FileKind::Quarantined => {
                Some((EntryProblem::Quarantined, "quarantined by load".to_string()))
            }
            FileKind::Entry(key) => {
                match std::fs::read_to_string(&path).map(|text| check(&text, key)) {
                    Ok(Ok(_)) => None,
                    Ok(Err(STALE)) => Some((
                        EntryProblem::Stale,
                        format!("not format v{CACHE_FORMAT_VERSION}"),
                    )),
                    Ok(Err(reason)) => Some((EntryProblem::Corrupt, reason.to_string())),
                    Err(e) => Some((EntryProblem::Corrupt, format!("unreadable: {e}"))),
                }
            }
        };
        report.scanned += 1;
        let Some((problem, detail)) = problem else {
            report.ok += 1;
            continue;
        };
        let repaired = repair && std::fs::remove_file(&path).is_ok();
        report.repaired += usize::from(repaired);
        report.findings.push(VerifyFinding {
            name,
            problem,
            detail,
            repaired,
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("dp-sweep-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let summary = CellSummary {
            label: "CDP".to_string(),
            total_us: 123.456789,
            device_span_us: 1.0 / 3.0,
            parent_us: 0.1,
            child_us: 0.2,
            launch_us: 0.3,
            aggregation_us: 0.0,
            disaggregation_us: 0.0,
            warp_avg_total_us: 99.5,
            device_launches: 12,
            host_launches: 3,
            origin_cycles_total: 9_007_199_254_740_993,
            instructions: 42,
            output_ints: vec![1, -2, 3],
            output_floats: vec![0.25, -1.5],
            verified: true,
            from_cache: false,
        };
        assert!(load(&dir, 7).is_none(), "empty cache misses");
        assert_eq!(store(&dir, 7, &summary), StoreOutcome::Stored);
        let loaded = load(&dir, 7).expect("stored entry loads");
        assert_eq!(loaded.total_us.to_bits(), summary.total_us.to_bits());
        assert_eq!(
            loaded.device_span_us.to_bits(),
            summary.device_span_us.to_bits()
        );
        assert_eq!(loaded.origin_cycles_total, summary.origin_cycles_total);
        assert_eq!(loaded.output_ints, summary.output_ints);
        assert_eq!(loaded.output_floats, summary.output_floats);
        assert!(loaded.from_cache);
        // The entry carries a verifiable footer.
        let text = std::fs::read_to_string(cell_path(&dir, 7)).unwrap();
        assert!(text.contains("#dpopt-cache v"), "footer present:\n{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_one_pass_decoder_reads_the_members_summary_json_writes() {
        let body = summary_json(7, &sample_summary("x")).to_string();
        let decoded = decode_summary(&body, 7).expect("a canonical body decodes");
        assert_eq!(summary_json(7, &decoded).to_string(), body);
        assert_eq!(decode_summary(&body, 8).err(), Some("key mismatch"));
        // Whitespace between tokens, a member name spelled with an escape,
        // a member it does not know and a member given twice, the last
        // counting, read as the tree reads them.
        let spaced = body
            .replace(',', " ,\n\t")
            .replace(':', "\r: ")
            .replace('[', "[ ");
        let escaped = body.replacen("\"total_us\"", "\"tot\\u0061l_us\"", 1);
        let unknown = body.replacen('{', r#"{"label":{"a":[1,"x"]},"#, 1);
        let repeated = body.replacen('{', r#"{"total_us":"x","#, 1);
        for respelled in [format!(" {spaced}\n"), escaped, unknown, repeated] {
            assert_ne!(respelled, body);
            let decoded = decode_summary(&respelled, 7).expect("a respelled body decodes");
            assert_eq!(summary_json(7, &decoded).to_string(), body, "{respelled}");
        }
        let shadowed = body.replacen('}', r#","total_us":null}"#, 1);
        assert_eq!(decode_summary(&shadowed, 7).err(), Some("schema mismatch"));
    }

    fn sample_summary(label: &str) -> CellSummary {
        CellSummary {
            label: label.to_string(),
            total_us: 1.0,
            device_span_us: 1.0,
            parent_us: 0.0,
            child_us: 0.0,
            launch_us: 0.0,
            aggregation_us: 0.0,
            disaggregation_us: 0.0,
            warp_avg_total_us: 1.0,
            device_launches: 0,
            host_launches: 1,
            origin_cycles_total: 1,
            instructions: 1,
            output_ints: vec![1, 2, 3],
            output_floats: vec![],
            verified: true,
            from_cache: false,
        }
    }

    /// [`store`] against an explicit fault plan.
    fn store_with(plan: &FaultPlan, dir: &Path, key: u64, summary: &CellSummary) -> StoreOutcome {
        let entry = seal_entry(&summary_json(key, summary).to_string());
        publish(plan, dir, key, entry.as_bytes())
    }

    fn set_age(dir: &Path, key: u64, seconds_ago: u64) {
        let f = std::fs::File::options()
            .write(true)
            .open(cell_path(dir, key))
            .unwrap();
        f.set_modified(std::time::SystemTime::now() - std::time::Duration::from_secs(seconds_ago))
            .unwrap();
    }

    #[test]
    fn gc_evicts_least_recently_used_first() {
        let dir = std::env::temp_dir().join(format!("dp-sweep-gc-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for key in [1u64, 2, 3] {
            store(&dir, key, &sample_summary("x"));
        }
        // Ages: key 2 oldest, then 1, then 3 (freshest).
        set_age(&dir, 1, 200);
        set_age(&dir, 2, 400);
        set_age(&dir, 3, 10);
        let entry_len = std::fs::metadata(cell_path(&dir, 1)).unwrap().len();

        // Budget for exactly one entry: the two stalest go, freshest stays.
        let report = gc(&dir, entry_len).unwrap();
        assert_eq!(report.entries, 3);
        assert_eq!(report.evicted, 2);
        assert_eq!(report.bytes_before, 3 * entry_len);
        assert_eq!(report.bytes_after, entry_len);
        assert!(load(&dir, 2).is_none(), "oldest entry evicted");
        assert!(load(&dir, 1).is_none(), "second-oldest evicted");
        assert!(load(&dir, 3).is_some(), "freshest entry survives");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_hits_refresh_the_lru_clock() {
        let dir = std::env::temp_dir().join(format!("dp-sweep-touch-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        store(&dir, 10, &sample_summary("a"));
        store(&dir, 11, &sample_summary("b"));
        set_age(&dir, 10, 500);
        set_age(&dir, 11, 100);
        // A hit on the stale entry makes it the freshest.
        assert!(load(&dir, 10).is_some());
        let entry_len = std::fs::metadata(cell_path(&dir, 10)).unwrap().len();
        let report = gc(&dir, entry_len).unwrap();
        assert_eq!(report.evicted, 1);
        assert!(load(&dir, 10).is_some(), "touched entry survives GC");
        assert!(load(&dir, 11).is_none(), "untouched entry was the LRU");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_handles_missing_dir_under_budget_and_tmp_files() {
        let dir = std::env::temp_dir().join(format!("dp-sweep-gc-edge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Missing directory is an empty cache.
        let report = gc(&dir, 0).unwrap();
        assert_eq!(report, GcReport::default());
        // Under budget: nothing evicted, torn tmp files still removed.
        store(&dir, 1, &sample_summary("x"));
        std::fs::write(dir.join("deadbeef.tmp.999"), "torn").unwrap();
        let report = gc(&dir, u64::MAX).unwrap();
        assert_eq!(report.entries, 1);
        assert_eq!(report.evicted, 0);
        assert!(!dir.join("deadbeef.tmp.999").exists());
        assert!(load(&dir, 1).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_evicts_quarantined_entries_before_live_ones() {
        let dir = std::env::temp_dir().join(format!("dp-sweep-gc-q-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        store(&dir, 1, &sample_summary("live"));
        set_age(&dir, 1, 10_000); // ancient, but live
        let entry_len = std::fs::metadata(cell_path(&dir, 1)).unwrap().len();
        // A fresh quarantined file bigger than the live entry.
        let corrupt = dir.join("00000000000000ff.corrupt");
        std::fs::write(&corrupt, vec![b'x'; 2 * entry_len as usize]).unwrap();
        // Budget fits the live entry only: the quarantine file must be the
        // first victim even though it is newer.
        let report = gc(&dir, entry_len).unwrap();
        assert_eq!(report.entries, 1, "corrupt files are not entries");
        assert_eq!(report.evicted, 1);
        assert!(!corrupt.exists(), "quarantined file evicted first");
        assert!(load(&dir, 1).is_some(), "live entry survives");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_versioned_entry_is_a_stale_miss_not_corruption() {
        let dir = std::env::temp_dir().join(format!("dp-sweep-ver-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A pre-footer (v1-era) entry: versioned JSON, no footer.
        std::fs::write(dir.join(format!("{:016x}.json", 9u64)), "{\"version\":0}").unwrap();
        assert!(load(&dir, 9).is_none());
        assert!(
            dir.join(format!("{:016x}.json", 9u64)).exists(),
            "stale entries age out, they are not quarantined"
        );
        let report = verify(&dir, false).unwrap();
        assert_eq!(report.count(EntryProblem::Stale), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entry_is_quarantined_counted_and_never_served() {
        let dir = std::env::temp_dir().join(format!("dp-sweep-q-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        store(&dir, 21, &sample_summary("x"));
        // Flip one byte of the body on disk — the footer checksum must
        // catch it.
        let path = cell_path(&dir, 21);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        dp_obs::metrics::enable();
        let before = CACHE_CORRUPT.value();
        assert!(load(&dir, 21).is_none(), "corrupt entry never served");
        assert!(CACHE_CORRUPT.value() > before, "corruption counted");
        assert!(!path.exists(), "entry removed from the live namespace");
        let corrupt = dir.join(format!("{:016x}.corrupt", 21u64));
        assert!(corrupt.exists(), "entry quarantined");
        // Still a miss afterwards, and no double quarantine.
        assert!(load(&dir, 21).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_reports_unavailable_on_disk_full() {
        let dir = std::env::temp_dir().join(format!("dp-sweep-full-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = faults::FaultPlan::parse("enospc@fs-write:sweep-cache").unwrap();
        assert_eq!(
            store_with(&plan, &dir, 5, &sample_summary("x")),
            StoreOutcome::Unavailable
        );
        assert!(load(&dir, 5).is_none(), "nothing published");
        // The torn tmp file was cleaned up.
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .count();
        assert_eq!(leftovers, 0, "no tmp leftovers after a failed store");
        // The plan is spent: the next store succeeds.
        assert_eq!(
            store_with(&plan, &dir, 5, &sample_summary("x")),
            StoreOutcome::Stored
        );
        assert!(load(&dir, 5).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_publish_is_caught_by_the_footer() {
        let dir = std::env::temp_dir().join(format!("dp-sweep-torn-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // torn-write reports success with half the bytes, so the rename
        // publishes a torn entry — exactly what a crash mid-write leaves.
        let plan = faults::FaultPlan::parse("torn-write@fs-write:sweep-cache").unwrap();
        assert_eq!(
            store_with(&plan, &dir, 6, &sample_summary("x")),
            StoreOutcome::Stored
        );
        assert!(load(&dir, 6).is_none(), "torn entry never served");
        assert!(
            dir.join(format!("{:016x}.corrupt", 6u64)).exists(),
            "torn entry quarantined"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_classifies_and_repairs_every_problem_class() {
        let dir = std::env::temp_dir().join(format!("dp-sweep-fsck-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // ok entry
        store(&dir, 1, &sample_summary("ok"));
        // torn tmp leftover
        std::fs::write(dir.join("00000000000000aa.tmp.1"), "half").unwrap();
        // quarantine file
        std::fs::write(dir.join("00000000000000bb.corrupt"), "junk").unwrap();
        // corrupt entry (checksum mismatch)
        store(&dir, 2, &sample_summary("bad"));
        let path2 = cell_path(&dir, 2);
        let mut bytes = std::fs::read(&path2).unwrap();
        bytes[12] ^= 0x01;
        std::fs::write(&path2, &bytes).unwrap();
        // stale entry (valid footer, old version)
        let body = "{\"version\":1}";
        let stale = format!(
            "{body}\n#dpopt-cache v1 len={} fnv1a={:016x}\n",
            body.len(),
            fnv1a(body.as_bytes())
        );
        std::fs::write(dir.join("00000000000000cc.json"), stale).unwrap();

        let report = verify(&dir, false).unwrap();
        assert_eq!(report.scanned, 5);
        assert_eq!(report.ok, 1);
        assert_eq!(report.count(EntryProblem::Torn), 1);
        assert_eq!(report.count(EntryProblem::Quarantined), 1);
        assert_eq!(report.count(EntryProblem::Corrupt), 1);
        assert_eq!(report.count(EntryProblem::Stale), 1);
        assert_eq!(report.repaired, 0, "no repair without the flag");
        assert!(!report.is_clean());

        let report = verify(&dir, true).unwrap();
        assert_eq!(report.repaired, 4);
        let report = verify(&dir, false).unwrap();
        assert!(report.is_clean(), "repair leaves a clean directory");
        assert_eq!(report.ok, 1, "the good entry survives repair");
        assert!(load(&dir, 1).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sealed_entries_round_trip_verbatim_between_directories() {
        let a = std::env::temp_dir().join(format!("dp-sweep-seal-a-{}", std::process::id()));
        let b = std::env::temp_dir().join(format!("dp-sweep-seal-b-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
        store(&a, 31, &sample_summary("x"));
        let entry = load_sealed(&a, 31).expect("stored entry ships");
        assert!(check(&entry, 31).is_ok());
        assert_eq!(check(&entry, 32).err(), Some("key mismatch"));
        assert_eq!(receive(&b, 31, &entry), Ok(StoreOutcome::Stored));
        // The replica is byte-identical and serves as a normal hit.
        assert_eq!(
            std::fs::read(cell_path(&a, 31)).unwrap(),
            std::fs::read(cell_path(&b, 31)).unwrap()
        );
        assert!(load(&b, 31).is_some());
        assert_eq!(list_keys(&b).unwrap(), vec![31]);
        std::fs::remove_dir_all(&a).ok();
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn store_sealed_rejects_corrupt_payloads_without_publishing() {
        let dir = std::env::temp_dir().join(format!("dp-sweep-seal-rej-{}", std::process::id()));
        let src = std::env::temp_dir().join(format!("dp-sweep-seal-src-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&src);
        store(&src, 41, &sample_summary("x"));
        let mut entry = load_sealed(&src, 41).unwrap().into_bytes();
        entry[10] ^= 0x20; // bit-flip in transit
        let entry = String::from_utf8(entry).unwrap();
        dp_obs::metrics::enable();
        let before = corrupt_count();
        assert_eq!(receive(&dir, 41, &entry), Err("checksum mismatch"));
        assert!(
            !cell_path(&dir, 41).exists(),
            "rejected payload never published"
        );
        // Receiving-side quarantine: counted and kept for inspection.
        // `>`: the counter is process-wide and neighbouring tests bump it
        // too; the quarantine file is this test's own evidence.
        assert!(corrupt_count() > before);
        assert!(dir.join(format!("{:016x}.corrupt", 41u64)).exists());
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&src).ok();
    }

    #[test]
    fn load_sealed_quarantines_corrupt_entries_and_skips_stale_ones() {
        let dir = std::env::temp_dir().join(format!("dp-sweep-seal-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(load_sealed(&dir, 1).is_none(), "missing dir is a miss");
        store(&dir, 1, &sample_summary("x"));
        let path = cell_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_sealed(&dir, 1).is_none(), "corrupt entry never ships");
        assert!(!path.exists(), "quarantined");
        // Stale entries are misses but stay in place.
        let body = "{\"version\":1}";
        let stale = format!(
            "{body}\n#dpopt-cache v1 len={} fnv1a={:016x}\n",
            body.len(),
            fnv1a(body.as_bytes())
        );
        std::fs::write(cell_path(&dir, 2), stale).unwrap();
        assert!(load_sealed(&dir, 2).is_none());
        assert!(cell_path(&dir, 2).exists());
        assert_eq!(list_keys(&dir).unwrap(), vec![2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_entry_filed_under_another_key_is_corrupt_to_every_reader() {
        let dir = std::env::temp_dir().join(format!("dp-sweep-misfiled-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        store(&dir, 1, &sample_summary("a"));
        // A valid entry copied under keys it does not answer, and a stale
        // one beside them.
        std::fs::copy(cell_path(&dir, 1), cell_path(&dir, 2)).unwrap();
        std::fs::copy(cell_path(&dir, 1), cell_path(&dir, 3)).unwrap();
        std::fs::copy(cell_path(&dir, 1), cell_path(&dir, 4)).unwrap();
        let body = "{\"version\":1}";
        std::fs::write(
            cell_path(&dir, 5),
            format!(
                "{body}{}",
                Footer {
                    version: 1,
                    len: body.len(),
                    sum: fnv1a(body.as_bytes())
                }
            ),
        )
        .unwrap();

        dp_obs::metrics::enable();
        let before = corrupt_count();
        assert!(load(&dir, 2).is_none(), "another cell's result is a miss");
        assert!(corrupt_count() > before, "counted in sweep.cache.corrupt");
        assert!(!cell_path(&dir, 2).exists(), "gone from the live namespace");
        assert!(dir.join(format!("{:016x}.corrupt", 2u64)).exists());
        assert!(load_sealed(&dir, 3).is_none(), "never shipped to a peer");
        assert!(dir.join(format!("{:016x}.corrupt", 3u64)).exists());
        std::fs::remove_file(dir.join(format!("{:016x}.corrupt", 2u64))).unwrap();
        std::fs::remove_file(dir.join(format!("{:016x}.corrupt", 3u64))).unwrap();

        let report = verify(&dir, false).unwrap();
        assert_eq!((report.scanned, report.ok), (3, 1));
        assert_eq!(report.count(EntryProblem::Corrupt), 1);
        assert_eq!(report.count(EntryProblem::Stale), 1, "stale comes first");
        let finding = &report.findings[0];
        assert_eq!(finding.name, format!("{:016x}.json", 4u64));
        assert_eq!(finding.problem, EntryProblem::Corrupt);
        assert_eq!(finding.detail, "key mismatch");
        assert_eq!(verify(&dir, true).unwrap().repaired, 2);
        assert!(
            !cell_path(&dir, 4).exists(),
            "repair removes the mis-filed entry"
        );
        assert!(
            load(&dir, 1).is_some(),
            "the entry under its own key is a hit"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_of_a_missing_dir_is_clean() {
        let dir = std::env::temp_dir().join(format!("dp-sweep-fsck-none-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = verify(&dir, false).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.scanned, 0);
    }
}
