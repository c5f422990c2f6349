//! The wire protocol: newline-delimited JSON over TCP or Unix sockets.
//!
//! One request per line, one response per line, answered in order. The
//! same parsing and building functions serve both sides — the `dpopt`
//! client builds requests with the builders here and the server parses
//! them with [`parse_request`], so the two can never disagree on a field
//! name.
//!
//! ## Requests
//!
//! Every request is a JSON object with an `"op"` member and an optional
//! `"id"` (any JSON value, echoed verbatim in the response):
//!
//! | op           | members                                                       |
//! |--------------|---------------------------------------------------------------|
//! | `compile`    | `source`, config (`threshold`/`coarsen`/`agg`/`agg_threshold`)|
//! | `transform`  | same as `compile`                                             |
//! | `execute`    | `source`, config, `kernel`, `grid`, `block`, `buffers`, `args`, `read` |
//! | `sweep-cell` | `benchmark`, `dataset` (`id`/`scale`/`seed`), `variant`       |
//! | `cache-push` | `key` (16-hex), `entry` (sealed cache bytes, verbatim)        |
//! | `cache-pull` | optional `key` (16-hex); without one, lists held keys         |
//! | `hello`      | optional `token` (a daemon's `--auth-token`)                  |
//! | `stats`      | —                                                             |
//! | `metrics`    | —                                                             |
//! | `shutdown`   | —                                                             |
//!
//! `execute` buffers: `[{"name":"d","words":N}]` (zero-filled) or
//! `{"name":"d","ints":[…]}` / `{"name":"d","floats":[…]}`, exactly one
//! of the three per entry; args are
//! numbers or `"@name"` buffer references; `read` entries are
//! `{"buffer":"d","len":N}` with optional `"offset"` and
//! `"floats":true`. A float read-back that holds an infinity or a NaN has
//! no JSON number: the `execute` answers an error naming the buffer and
//! the word (`` read `d`: `d[1]` is inf, … ``) instead.
//!
//! ## Reading and writing a line
//!
//! The session takes a line from the socket with [`read_line_into`],
//! never buffering past the request cap, and makes its bytes UTF-8
//! lossily. [`parse_request`] reads the line, every op and every refusal,
//! in one pass of the one JSON reader, [`json::Cursor`]: a member's value
//! is read into its typed field, and one of another shape is read past, so
//! that only a syntax error stops the pass. The verdicts and their messages
//! are those of the line's JSON tree ([`json::parse`]) read member by
//! member, which `tests/proptest_proto.rs` keeps as its oracle. A
//! `sweep-cell` answer is read back, by
//! `shard`, with the cache's own decoder
//! ([`dp_sweep::cache::SummaryBody`]). An `execute` or `transform` success
//! answer is written member by member in the tree's member order
//! ([`write_execute_answer`], [`write_transform_answer`]), through the
//! tree's own string and number writers; every other answer is a tree,
//! encoded once into the answer line. Either way the bytes are the tree's.
//!
//! ## Determinism contract
//!
//! For every op except `stats` and `metrics`, the response bytes are a
//! pure function of the request bytes: no timestamps, cache-hit flags,
//! socket addresses, or scheduling artifacts appear in a response. A
//! request answers byte-identically whether it was served cold,
//! cache-warm, or concurrently with any number of other clients.
//! (`stats` reports live counters and `metrics` dumps the `dp-obs`
//! registry — both are observability surfaces, deliberately outside the
//! contract. `cache-push`/`cache-pull` answer from mutable disk-cache
//! state and sit outside it too.)

use dp_core::OptConfig;
use dp_obs::json::{self, object, Cursor, Json};
use dp_sweep::key::parse_key;
use dp_sweep::spec::{cell_from_json, config_from_members, CellSpec};
use dp_workloads::benchmarks::Variant;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

// ----------------------------------------------------------------------
// Endpoints and streams
// ----------------------------------------------------------------------

/// Where a server listens / a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7477`.
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

impl Endpoint {
    /// Parses a CLI endpoint: `unix:/path/sock` or a TCP `host:port`.
    pub fn parse(spec: &str) -> Result<Endpoint, String> {
        if let Some(path) = spec.strip_prefix("unix:") {
            #[cfg(unix)]
            return Ok(Endpoint::Unix(PathBuf::from(path)));
            #[cfg(not(unix))]
            return Err(format!("unix sockets unsupported on this platform: {path}"));
        }
        if spec.contains(':') {
            Ok(Endpoint::Tcp(spec.to_string()))
        } else {
            Err(format!("bad endpoint `{spec}` (host:port or unix:/path)"))
        }
    }

    /// Connects a client stream to this endpoint.
    pub fn connect(&self) -> std::io::Result<Stream> {
        match self {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                // One NDJSON line per exchange: Nagle's algorithm would
                // hold the line hostage to the peer's delayed ACK
                // (~40ms per round-trip); latency is the product here.
                stream.set_nodelay(true)?;
                Ok(Stream::Tcp(stream))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
        }
    }
}

impl std::str::FromStr for Endpoint {
    type Err = String;

    /// `"addr".parse::<Endpoint>()` — same grammar as [`Endpoint::parse`];
    /// round-trips with [`Display`](std::fmt::Display).
    fn from_str(spec: &str) -> Result<Endpoint, String> {
        Endpoint::parse(spec)
    }
}

/// Parses a comma-separated endpoint list (`host:port`, `unix:/path`) —
/// the shared grammar behind every `--remote`/`--connect` flag (cli,
/// shard). Rejects empty entries (`A,,B`, trailing commas) and duplicates
/// with a clear message instead of letting a comma-bearing string reach
/// the resolver as one bogus address.
pub fn parse_endpoint_list(spec: &str) -> Result<Vec<Endpoint>, String> {
    let mut endpoints = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return Err(format!("empty endpoint in list `{spec}`"));
        }
        let endpoint: Endpoint = part.parse()?;
        if !seen.insert(endpoint.to_string()) {
            return Err(format!("duplicate endpoint `{part}` in list `{spec}`"));
        }
        endpoints.push(endpoint);
    }
    Ok(endpoints)
}

/// A connected socket, TCP or Unix.
#[derive(Debug)]
pub enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// A second handle to the same socket (for split read/write).
    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Severs both directions of the socket. Errors are ignored — the
    /// peer may already be gone, which is exactly when this gets called.
    pub(crate) fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    /// Sets the read timeout (`None` clears it) — the client side's
    /// defense against a hung server.
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

// ----------------------------------------------------------------------
// Request types
// ----------------------------------------------------------------------

/// One argument of an `execute` launch.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A reference to a named buffer's device address (`"@name"`).
    Buffer(String),
}

/// Initial contents of a named device buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum BufferData {
    /// `words` zero-initialized words.
    Words(usize),
    /// Initialized integer contents.
    Ints(Vec<i64>),
    /// Initialized float contents.
    Floats(Vec<f64>),
}

/// A named device allocation for an `execute` request.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferInit {
    /// Name referenced by `@name` args and `read` entries.
    pub name: String,
    /// Initial contents.
    pub data: BufferData,
}

/// A read-back of device memory after the launch completes.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadSpec {
    /// Which buffer.
    pub buffer: String,
    /// Word offset into the buffer.
    pub offset: usize,
    /// Words to read.
    pub len: usize,
    /// Read as floats instead of integers.
    pub floats: bool,
}

/// The most words of `"words"` buffers one `execute` request may ask for
/// (256 MiB of device memory). A line's `ints`/`floats` are bounded by the
/// line; `words` is a few bytes that name an allocation, so it has a bound
/// of its own — a protocol constant, not an option.
pub(crate) const MAX_EXECUTE_WORDS: u64 = 1 << 24;

/// An `execute` request: compile (through the cache), provision buffers,
/// launch one kernel, synchronize, read back results.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecuteRequest {
    /// CUDA-subset source text.
    pub source: String,
    /// Optimization configuration.
    pub config: OptConfig,
    /// Kernel to launch.
    pub kernel: String,
    /// Grid dimension (blocks).
    pub grid: i64,
    /// Block dimension (threads).
    pub block: i64,
    /// Named device buffers, allocated in order.
    pub buffers: Vec<BufferInit>,
    /// Launch arguments.
    pub args: Vec<Arg>,
    /// Read-backs performed after `sync`.
    pub reads: Vec<ReadSpec>,
}

/// A parsed request body.
#[derive(Debug, Clone)]
pub enum Request {
    /// Compile source, returning its content-addressed key and kernel list.
    Compile {
        /// Source text.
        source: String,
        /// Optimization configuration.
        config: OptConfig,
    },
    /// Compile source, returning the transformed source text.
    Transform {
        /// Source text.
        source: String,
        /// Optimization configuration.
        config: OptConfig,
    },
    /// Compile and run one kernel launch.
    Execute(Box<ExecuteRequest>),
    /// Run one sweep cell.
    SweepCell(Box<CellSpec>),
    /// Authenticate the session (`--auth-token` servers reject every
    /// other op until a `hello` with the right token succeeds).
    Hello {
        /// The shared secret presented by the client, if any.
        token: Option<String>,
    },
    /// Store one sealed disk-cache entry, verbatim, after checksum
    /// re-verification (requires `--disk-cache`).
    CachePush {
        /// The cell's content-addressed key.
        key: u64,
        /// The sealed entry bytes, exactly as they sit on disk.
        entry: String,
    },
    /// Fetch one sealed disk-cache entry by key, or — with no key — the
    /// sorted inventory of held keys (requires `--disk-cache`).
    CachePull {
        /// The cell key to fetch; `None` asks for the key inventory.
        key: Option<u64>,
    },
    /// Report live server counters (outside the determinism contract).
    Stats,
    /// Dump the `dp-obs` metrics registry (outside the determinism
    /// contract).
    Metrics,
    /// Drain in-flight requests, then stop the server.
    Shutdown,
}

/// A request line, parsed: the echoed `id` (if any) survives even when the
/// body is malformed, so error responses still correlate.
#[derive(Debug)]
pub struct ParsedRequest {
    /// The request's `id` member, echoed verbatim in the response.
    pub id: Option<Json>,
    /// The body, or a parse error message.
    pub body: Result<Request, String>,
}

/// Parses one NDJSON request line, every op and every refusal, in one
/// [`json::Cursor`] pass over `line.trim()`. A syntax error anywhere in the
/// line is `bad request JSON: …` with no `id`, whatever member errors come
/// before it; a valid document that is not an object needs an `op`.
/// Members come in any order: an unknown one is read past, the last of a
/// repeated one counts, and the refusals come in one fixed order, not the
/// text's. So the verdict and its message are those of the line's JSON
/// tree read member by member.
pub fn parse_request(line: &str) -> ParsedRequest {
    let text = line.trim();
    let mut cursor = Cursor::new(text);
    let mut members = Members::default();
    let read = cursor
        .or_skip(|c| c.object(|c, name| members.read(c, name)))
        .and_then(|_| cursor.finish());
    let id = members.id.take().filter(|_| read.is_ok());
    let body = match read {
        Ok(()) => members.parse_body(),
        Err(e) => Err(format!("bad request JSON: {}", e.message(text))),
    };
    ParsedRequest { id, body }
}

/// The members of a request line, as [`parse_request`] reads them: the
/// ones the hot ops read typed, `None` when absent or of another type; each
/// array member's items or its first refusal; the configuration members,
/// which [`config_from_members`] reads, and every other member as trees.
#[derive(Default)]
struct Members<'a> {
    op: Option<Cow<'a, str>>,
    id: Option<Json>,
    source: Option<Cow<'a, str>>,
    kernel: Option<Cow<'a, str>>,
    grid: Option<i64>,
    block: Option<i64>,
    buffers: Option<Result<Vec<BufferInit>, String>>,
    args: Option<Result<Vec<Arg>, String>>,
    reads: Option<Result<Vec<ReadSpec>, String>>,
    config: [Option<Json>; 4],
    rest: BTreeMap<String, Json>,
}

/// The configuration members, in [`Members::config`]'s order.
const CONFIG: [&str; 4] = ["threshold", "coarsen", "agg", "agg_threshold"];

impl<'a> Members<'a> {
    /// Reads the value of member `name`. Only a syntax error fails: a value
    /// of another shape is read past, for [`Members::parse_body`] to refuse.
    fn read(&mut self, c: &mut Cursor<'a>, name: &str) -> json::Result<()> {
        let int = |c: &mut Cursor<'a>| c.or_skip(|c| c.number_as(Json::as_i64));
        match name {
            "op" => self.op = c.or_skip(Cursor::string)?,
            "id" => self.id = Some(c.value()?),
            "source" => self.source = c.or_skip(Cursor::string)?,
            "kernel" => self.kernel = c.or_skip(Cursor::string)?,
            "grid" => self.grid = int(c)?,
            "block" => self.block = int(c)?,
            "buffers" => {
                let mut words_left = MAX_EXECUTE_WORDS;
                let buffer = |c: &mut Cursor| Ok(BufferEntry::read(c)?.init(&mut words_left));
                self.buffers = Some(items(c, "buffers", buffer)?);
            }
            "args" => self.args = Some(items(c, "args", |c| Ok(arg(c.value()?)))?),
            "read" => self.reads = Some(items(c, "read", |c| Ok(ReadEntry::read(c)?.spec()))?),
            _ => match CONFIG.iter().position(|&member| member == name) {
                Some(at) => self.config[at] = Some(c.value()?),
                None => drop(self.rest.insert(name.to_string(), c.value()?)),
            },
        }
        Ok(())
    }

    /// The request the members make, or the first refusal in the order
    /// the ops check their members: `source`, the configuration, `kernel`,
    /// `grid`, `block`, `buffers`, `args`, `read`.
    fn parse_body(self) -> Result<Request, String> {
        let op = self.op.ok_or("request needs an `op` string")?;
        let rest = Json::Object(self.rest);
        let source = || self.source.ok_or("`source` must be a string");
        let config = || {
            config_from_members(|name| {
                let at = CONFIG.iter().position(|&member| member == name)?;
                self.config[at].as_ref()
            })
        };
        match &*op {
            "compile" | "transform" => {
                let source = source()?.into_owned();
                let config = config()?;
                Ok(if op == "compile" {
                    Request::Compile { source, config }
                } else {
                    Request::Transform { source, config }
                })
            }
            "execute" => Ok(Request::Execute(Box::new(ExecuteRequest {
                source: source()?.into_owned(),
                config: config()?,
                kernel: self.kernel.ok_or("`kernel` must be a string")?.into_owned(),
                grid: self.grid.ok_or("`grid` must be an integer")?,
                block: self.block.ok_or("`block` must be an integer")?,
                buffers: self.buffers.transpose()?.unwrap_or_default(),
                args: self.args.transpose()?.unwrap_or_default(),
                reads: self.reads.transpose()?.unwrap_or_default(),
            }))),
            "sweep-cell" => cell_from_json(&rest).map(|r| Request::SweepCell(Box::new(r))),
            "hello" => Ok(Request::Hello {
                token: rest.get("token").and_then(Json::as_str).map(str::to_string),
            }),
            "cache-push" => {
                let key = parse_cache_key(rest.get("key").ok_or("cache-push needs a `key`")?)?;
                let entry = rest.get("entry").and_then(Json::as_str);
                let entry = entry.ok_or("`entry` must be a string")?.to_string();
                Ok(Request::CachePush { key, entry })
            }
            "cache-pull" => Ok(Request::CachePull {
                key: rest.get("key").map(parse_cache_key).transpose()?,
            }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown op `{other}` (hello|compile|transform|execute|sweep-cell|cache-push|cache-pull|stats|metrics|shutdown)"
            )),
        }
    }
}

/// A cache key on the wire: canonically a 16-hex string (u64 keys
/// overflow the interchange-safe integer range); a plain non-negative
/// integer is accepted too.
fn parse_cache_key(v: &Json) -> Result<u64, String> {
    if let Some(hex) = v.as_str() {
        return parse_key(hex)
            .ok_or_else(|| format!("`key` must be a 16-hex cell key, got `{hex}`"));
    }
    v.as_u64()
        .ok_or_else(|| "`key` must be a 16-hex cell key".to_string())
}

/// The items of an array member, each read and judged by `item`, or the
/// first item's refusal; a value that is not an array is refused as
/// `` `name` must be an array ``.
fn items<'a, T>(
    c: &mut Cursor<'a>,
    name: &str,
    mut item: impl FnMut(&mut Cursor<'a>) -> json::Result<Result<T, String>>,
) -> json::Result<Result<Vec<T>, String>> {
    let mut items = Ok(Vec::new());
    let array = c.or_skip(|c| {
        c.array(|c| {
            let verdict = item(c)?;
            if let Ok(read) = &mut items {
                match verdict {
                    Ok(v) => read.push(v),
                    Err(e) => items = Err(e),
                }
            }
            Ok(())
        })
    })?;
    Ok(array.map_or_else(|| Err(format!("`{name}` must be an array")), |()| items))
}

/// One `args` item: a number, or a `"@name"` buffer reference.
fn arg(value: Json) -> Result<Arg, String> {
    match value {
        Json::Int(v) => Ok(Arg::Int(v)),
        Json::Float(v) => Ok(Arg::Float(v)),
        Json::Str(mut name) if name.starts_with('@') => {
            name.remove(0);
            Ok(Arg::Buffer(name))
        }
        Json::Str(s) => Err(format!("string arg `{s}` must be a `@buffer` reference")),
        other => Err(format!("bad arg {other} (number or \"@buffer\")")),
    }
}

/// One `buffers` entry, each member as its last occurrence left it; a
/// value that is not an object has none.
#[derive(Default)]
struct BufferEntry {
    name: Option<String>,
    /// `Some(None)`: given, but not a non-negative integer.
    words: Option<Option<u64>>,
    /// `Some(Err(value))`: given, but not an array of integers.
    ints: Option<Result<Vec<i64>, Json>>,
    floats: Option<Result<Vec<f64>, Json>>,
}

impl BufferEntry {
    fn read(c: &mut Cursor) -> json::Result<BufferEntry> {
        let mut entry = BufferEntry::default();
        c.or_skip(|c| {
            c.object(|c, member| {
                match member {
                    "name" => entry.name = c.or_skip(Cursor::string)?.map(Cow::into_owned),
                    "words" => entry.words = Some(c.or_skip(|c| c.number_as(Json::as_u64))?),
                    "ints" => entry.ints = Some(c.or_value(|c| c.numbers(Json::as_i64))?),
                    "floats" => entry.floats = Some(c.or_value(|c| c.numbers(Json::as_f64))?),
                    _ => drop(c.value()?),
                }
                Ok(())
            })
        })?;
        Ok(entry)
    }

    /// The buffer the entry asks for, its `words` taken from `words_left`,
    /// or its refusal.
    fn init(self, words_left: &mut u64) -> Result<BufferInit, String> {
        let name = self.name.ok_or("buffer needs a `name`")?;
        let data = match (self.words, self.ints, self.floats) {
            (None, None, None) => {
                return Err(format!(
                    "buffer `{name}` needs `words`, `ints`, or `floats`"
                ));
            }
            (Some(words), None, None) => {
                let w = words.ok_or("`words` must be a non-negative integer")?;
                *words_left = words_left.checked_sub(w).ok_or_else(|| {
                    format!(
                        "buffer `{name}`: `words` {w} takes the request past the limit of \
                         {MAX_EXECUTE_WORDS} words"
                    )
                })?;
                BufferData::Words(w as usize)
            }
            (None, Some(ints), None) => {
                BufferData::Ints(ints.map_err(|v| refusal("ints", "integers", &v))?)
            }
            (None, None, Some(floats)) => {
                BufferData::Floats(floats.map_err(|v| refusal("floats", "numbers", &v))?)
            }
            _ => {
                return Err(format!(
                    "buffer `{name}` gives more than one of `words`, `ints`, and `floats`"
                ));
            }
        };
        Ok(BufferInit { name, data })
    }
}

/// The refusal of an `ints` or `floats` value that is not an array of
/// `what`.
fn refusal(member: &str, what: &str, value: &Json) -> String {
    match value {
        Json::Array(_) => format!("`{member}` must be {what}"),
        _ => format!("`{member}` must be an array"),
    }
}

/// One `read` entry, each member as its last occurrence left it; a value
/// that is not an object has none.
#[derive(Default)]
struct ReadEntry {
    buffer: Option<String>,
    /// `Some(None)`: given, but not a non-negative integer.
    offset: Option<Option<u64>>,
    len: Option<u64>,
    /// `Some(None)`: given, but not a boolean.
    floats: Option<Option<bool>>,
}

impl ReadEntry {
    fn read(c: &mut Cursor) -> json::Result<ReadEntry> {
        let mut entry = ReadEntry::default();
        let count = |c: &mut Cursor| c.or_skip(|c| c.number_as(Json::as_u64));
        c.or_skip(|c| {
            c.object(|c, member| {
                match member {
                    "buffer" => entry.buffer = c.or_skip(Cursor::string)?.map(Cow::into_owned),
                    "offset" => entry.offset = Some(count(c)?),
                    "len" => entry.len = count(c)?,
                    "floats" => entry.floats = Some(c.or_skip(Cursor::bool)?),
                    _ => drop(c.value()?),
                }
                Ok(())
            })
        })?;
        Ok(entry)
    }

    /// The read-back the entry asks for, or its refusal.
    fn spec(self) -> Result<ReadSpec, String> {
        let offset = self.offset.unwrap_or(Some(0));
        let floats = self.floats.unwrap_or(Some(false));
        Ok(ReadSpec {
            buffer: self.buffer.ok_or("read needs a `buffer`")?,
            offset: offset.ok_or("read `offset` must be a non-negative integer")? as usize,
            len: self.len.ok_or("read needs a `len`")? as usize,
            floats: floats.ok_or("read `floats` must be a boolean")?,
        })
    }
}

// ----------------------------------------------------------------------
// Request builders (client side)
// ----------------------------------------------------------------------

/// The configuration members of a request object, in the shape
/// [`config_from_json`] parses.
pub(crate) fn config_members(config: &OptConfig) -> Vec<(&'static str, Json)> {
    let mut members = Vec::new();
    if let Some(t) = config.threshold {
        members.push(("threshold", Json::Int(t)));
    }
    if let Some(c) = config.coarsen_factor {
        members.push(("coarsen", Json::Int(c)));
    }
    if let Some(agg) = &config.aggregation {
        members.push((
            "agg",
            Json::Str(dp_sweep::key::canonical_granularity(agg.granularity)),
        ));
        if let Some(t) = agg.agg_threshold {
            members.push(("agg_threshold", Json::Int(t)));
        }
    }
    members
}

/// Builds a `compile` or `transform` request.
pub fn source_request(op: &'static str, source: &str, config: &OptConfig) -> Json {
    let mut members = vec![
        ("op", Json::Str(op.to_string())),
        ("source", Json::Str(source.to_string())),
    ];
    members.extend(config_members(config));
    object(members)
}

/// Builds a `sweep-cell` request for a Table-I dataset cell.
pub fn sweep_cell_request(
    benchmark: &str,
    dataset_id: &str,
    scale: f64,
    seed: u64,
    label: &str,
    variant: &Variant,
) -> Json {
    let mut vmembers = vec![("label", Json::Str(label.to_string()))];
    match variant {
        Variant::NoCdp => vmembers.push(("no_cdp", Json::Bool(true))),
        Variant::Cdp(config) => vmembers.extend(config_members(config)),
    }
    object([
        ("op", Json::Str("sweep-cell".to_string())),
        ("benchmark", Json::Str(benchmark.to_string())),
        (
            "dataset",
            object([
                ("id", Json::Str(dataset_id.to_string())),
                ("scale", json::num(scale)),
                ("seed", json::uint(seed)),
            ]),
        ),
        ("variant", object(vmembers)),
    ])
}

/// Builds a bare request for an op with no members (`stats`, `shutdown`).
pub fn bare_request(op: &'static str) -> Json {
    object([("op", Json::Str(op.to_string()))])
}

/// Builds a `cache-push` request carrying one sealed entry verbatim.
pub fn cache_push_request(key: u64, entry: &str) -> Json {
    object([
        ("op", Json::Str("cache-push".to_string())),
        ("key", Json::Str(format!("{key:016x}"))),
        ("entry", Json::Str(entry.to_string())),
    ])
}

/// Builds a `cache-pull` request: one key, or `None` for the inventory.
pub fn cache_pull_request(key: Option<u64>) -> Json {
    let mut members = vec![("op", Json::Str("cache-pull".to_string()))];
    if let Some(key) = key {
        members.push(("key", Json::Str(format!("{key:016x}"))));
    }
    object(members)
}

/// Builds a `hello` authentication request.
pub fn hello_request(token: &str) -> Json {
    object([
        ("op", Json::Str("hello".to_string())),
        ("token", Json::Str(token.to_string())),
    ])
}

// ----------------------------------------------------------------------
// Response builders (server side)
// ----------------------------------------------------------------------

/// `response` with the request's `id` echoed in, when it carried one.
fn echo_id(mut response: Json, id: Option<&Json>) -> Json {
    if let (Json::Object(map), Some(id)) = (&mut response, id) {
        map.insert("id".to_string(), id.clone());
    }
    response
}

/// A successful response: `ok:true` + the op's members + the echoed id.
pub fn ok_response(id: Option<&Json>, members: Vec<(&'static str, Json)>) -> Json {
    let mut all = vec![("ok", Json::Bool(true))];
    all.extend(members);
    echo_id(object(all), id)
}

/// An error response: `ok:false` + the message + the echoed id.
pub(crate) fn error_response(id: Option<&Json>, message: &str) -> Json {
    let members = [
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.to_string())),
    ];
    echo_id(object(members), id)
}

/// A structured robustness error: `{"op":"error","kind":…,…}`. The
/// `kind` member is machine-matchable so clients can distinguish
/// load-shedding (`overloaded`, `deadline_exceeded`), protocol trouble
/// (`parse`, `too_large`), lifecycle (`draining`), and crashes (`panic`)
/// without parsing prose. Domain errors (compile failures, unknown
/// buffers) keep the legacy kind-less `error_response` shape.
pub fn error_response_kind(id: Option<&Json>, kind: &'static str, message: &str) -> Json {
    let members = [
        ("error", Json::Str(message.to_string())),
        ("kind", Json::Str(kind.to_string())),
        ("ok", Json::Bool(false)),
        ("op", Json::Str("error".to_string())),
    ];
    echo_id(object(members), id)
}

/// What an `execute` launch answers, before it is written.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecuteAnswer {
    /// Grids launched from the device.
    pub device_launches: u64,
    /// Grids launched from the host, as the timing model counts them.
    pub host_launches: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// The request's read-backs, in its order.
    pub outputs: Vec<Output>,
    /// Simulated time of the launch.
    pub total_us: f64,
}

/// One read-back of an [`ExecuteAnswer`].
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The buffer read.
    pub buffer: String,
    /// The words read.
    pub values: Values,
}

/// The words of one [`Output`].
#[derive(Debug, Clone, PartialEq)]
pub enum Values {
    /// Read as integers.
    Ints(Vec<i64>),
    /// Read as floats (`"floats":true`).
    Floats(Vec<f64>),
}

impl Values {
    /// Words read as floats, refused when one is an infinity or a NaN,
    /// which JSON has no number for: `Err` gives the first such word's
    /// index and value. The daemon answers that read as an `execute` error,
    /// so an answer's floats are always numbers on the wire.
    pub fn floats(values: Vec<f64>) -> Result<Values, (usize, f64)> {
        match values.iter().position(|v| !v.is_finite()) {
            Some(at) => Err((at, values[at])),
            None => Ok(Values::Floats(values)),
        }
    }
}

/// Writes one object member by member. The members must come in the byte
/// order of their names — the order [`Json::Object`]'s map iterates in —
/// so the text is the one the tree writes; a debug assertion checks it.
struct ObjectWriter<'a> {
    out: &'a mut String,
    last: Option<&'static str>,
}

impl<'a> ObjectWriter<'a> {
    fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, last: None }
    }

    /// Starts member `name` (a name that needs no escape) and returns the
    /// line its value is written to.
    fn member(&mut self, name: &'static str) -> &mut String {
        debug_assert!(
            self.last.is_none_or(|last| last < name),
            "member `{name}` written after `{}`",
            self.last.unwrap_or_default()
        );
        if self.last.is_some() {
            self.out.push(',');
        }
        self.last = Some(name);
        self.out.push('"');
        self.out.push_str(name);
        self.out.push_str("\":");
        self.out
    }

    /// The echoed `id`, in its place, when the request carried one.
    fn id(&mut self, id: Option<&Json>) {
        if let Some(id) = id {
            id.write(self.member("id"));
        }
    }

    fn finish(self) {
        self.out.push('}');
    }
}

/// An integer, as [`Json::Int`] writes one.
fn write_int(out: &mut String, v: impl std::fmt::Display) {
    let _ = write!(out, "{v}");
}

/// Writes an `execute` success answer into `out`: the bytes of
/// [`ok_response`] for the members the tree would carry, written without
/// the tree. A counter is written as the `u64` it is; the tree's
/// [`json::uint`] panics past `i64::MAX`.
pub fn write_execute_answer(out: &mut String, id: Option<&Json>, answer: &ExecuteAnswer) {
    let mut w = ObjectWriter::new(out);
    write_int(w.member("device_launches"), answer.device_launches);
    write_int(w.member("host_launches"), answer.host_launches);
    w.id(id);
    write_int(w.member("instructions"), answer.instructions);
    w.member("ok").push_str("true");
    w.member("op").push_str("\"execute\"");
    write_array(w.member("outputs"), &answer.outputs, |out, output| {
        let mut o = ObjectWriter::new(out);
        json::write_string(o.member("buffer"), &output.buffer);
        match &output.values {
            Values::Floats(values) => {
                write_array(o.member("floats"), values, |out, &v| {
                    json::write_f64(out, v)
                });
            }
            Values::Ints(values) => {
                write_array(o.member("ints"), values, |out, &v| write_int(out, v))
            }
        }
        o.finish();
    });
    json::write_f64(w.member("total_us"), answer.total_us);
    w.finish();
}

fn write_array<T>(out: &mut String, items: &[T], item: impl Fn(&mut String, &T)) {
    out.push('[');
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, v);
    }
    out.push(']');
}

/// Writes a `transform` success answer into `out`: the bytes of
/// [`ok_response`] with `diagnostics`, `op` and `source` members, written
/// without the tree.
pub fn write_transform_answer(
    out: &mut String,
    id: Option<&Json>,
    diagnostics: &[String],
    source: &str,
) {
    let mut w = ObjectWriter::new(out);
    write_array(w.member("diagnostics"), diagnostics, |out, d| {
        json::write_string(out, d);
    });
    w.id(id);
    w.member("ok").push_str("true");
    w.member("op").push_str("\"transform\"");
    json::write_string(w.member("source"), source);
    w.finish();
}

// ----------------------------------------------------------------------
// Line framing
// ----------------------------------------------------------------------

/// Writes one value as an NDJSON line and flushes.
pub(crate) fn write_line(w: &mut impl Write, value: &Json) -> std::io::Result<usize> {
    let mut text = String::new();
    value.write(&mut text);
    text.push('\n');
    w.write_all(text.as_bytes())?;
    w.flush()?;
    Ok(text.len())
}

/// Reads one NDJSON line; `None` on clean EOF.
pub fn read_line(r: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    Ok(Some(line))
}

/// Outcome of a bounded line read ([`read_line_into`]).
#[derive(Debug, PartialEq, Eq)]
pub enum LineRead<'b> {
    /// One line's raw bytes (trailing newline included when present).
    Line(&'b [u8]),
    /// The line exceeded the byte cap; its bytes were left unconsumed
    /// (the server answers a structured error and closes the connection).
    TooLarge,
    /// Clean EOF before any bytes.
    Eof,
}

/// Reads one line of at most `max_bytes` bytes (newline included) into
/// `bytes`, a buffer the caller keeps (cleared first), without ever
/// buffering more than the cap — a hostile or broken client cannot make
/// the server allocate an unbounded line. The line is its raw bytes, as
/// many as were taken from the socket; the server makes them UTF-8 with
/// `String::from_utf8_lossy`, so one binary-garbage line becomes a parse
/// error instead of an I/O error that drops the session. `max_bytes == 0`
/// means unlimited.
pub fn read_line_into<'b>(
    r: &mut impl BufRead,
    max_bytes: usize,
    bytes: &'b mut Vec<u8>,
) -> std::io::Result<LineRead<'b>> {
    let max_bytes = if max_bytes == 0 {
        usize::MAX
    } else {
        max_bytes
    };
    bytes.clear();
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            return Ok(if bytes.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(bytes)
            });
        }
        let (take, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos + 1, true),
            None => (buf.len(), false),
        };
        if bytes.len() + take > max_bytes {
            return Ok(LineRead::TooLarge);
        }
        bytes.extend_from_slice(&buf[..take]);
        r.consume(take);
        if done {
            return Ok(LineRead::Line(bytes));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::{AggConfig, AggGranularity};

    #[test]
    fn endpoints_parse() {
        assert_eq!(
            Endpoint::parse("127.0.0.1:7477").unwrap(),
            Endpoint::Tcp("127.0.0.1:7477".to_string())
        );
        #[cfg(unix)]
        assert_eq!(
            Endpoint::parse("unix:/tmp/dp.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/dp.sock"))
        );
        assert!(Endpoint::parse("nonsense").is_err());
    }

    #[test]
    fn endpoint_display_fromstr_round_trips() {
        for spec in ["127.0.0.1:7477", "unix:/tmp/dp.sock"] {
            #[cfg(not(unix))]
            if spec.starts_with("unix:") {
                continue;
            }
            let endpoint: Endpoint = spec.parse().unwrap();
            assert_eq!(endpoint.to_string(), spec);
            assert_eq!(endpoint.to_string().parse::<Endpoint>().unwrap(), endpoint);
        }
        assert!("nonsense".parse::<Endpoint>().is_err());
    }

    #[test]
    fn endpoint_lists_parse() {
        let list = parse_endpoint_list("127.0.0.1:1, 127.0.0.1:2").unwrap();
        assert_eq!(
            list,
            vec![
                Endpoint::Tcp("127.0.0.1:1".to_string()),
                Endpoint::Tcp("127.0.0.1:2".to_string()),
            ]
        );
        assert!(parse_endpoint_list("127.0.0.1:1,,127.0.0.1:2").is_err());
        assert!(parse_endpoint_list("127.0.0.1:1,").is_err());
        assert!(parse_endpoint_list("127.0.0.1:1,127.0.0.1:1").is_err());
    }

    #[test]
    fn compile_request_round_trips() {
        let config = OptConfig::none()
            .threshold(64)
            .coarsen_factor(4)
            .aggregation(AggConfig {
                granularity: AggGranularity::MultiBlock(8),
                agg_threshold: Some(2),
            });
        let line = source_request("compile", "__global__ void k() {}", &config).to_string();
        let parsed = parse_request(&line);
        let Ok(Request::Compile { source, config: c }) = parsed.body else {
            panic!("{:?}", parsed.body)
        };
        assert_eq!(source, "__global__ void k() {}");
        assert_eq!(c, config);
    }

    #[test]
    fn execute_request_parses() {
        let line = r#"{"op":"execute","source":"s","kernel":"k","grid":2,"block":32,
            "buffers":[{"name":"d","words":8},{"name":"e","ints":[1,2]},{"name":"f","floats":[0.5]}],
            "args":["@d",7,0.25,"@e"],
            "read":[{"buffer":"d","len":8},{"buffer":"f","len":1,"offset":0,"floats":true}],
            "id":42}"#;
        let parsed = parse_request(line);
        assert_eq!(parsed.id, Some(Json::Int(42)));
        let Ok(Request::Execute(req)) = parsed.body else {
            panic!("{:?}", parsed.body)
        };
        assert_eq!(req.kernel, "k");
        assert_eq!(req.buffers.len(), 3);
        assert_eq!(req.args[0], Arg::Buffer("d".to_string()));
        assert_eq!(req.args[1], Arg::Int(7));
        assert_eq!(req.args[2], Arg::Float(0.25));
        assert!(req.reads[1].floats);
    }

    #[test]
    fn sweep_cell_request_round_trips() {
        let variant = Variant::Cdp(OptConfig::none().threshold(128));
        let line = sweep_cell_request("BFS", "KRON", 0.002, 42, "CDP+T", &variant).to_string();
        let parsed = parse_request(&line);
        let Ok(Request::SweepCell(req)) = parsed.body else {
            panic!("{:?}", parsed.body)
        };
        assert_eq!(req.benchmark, "BFS");
        assert_eq!(req.variant.label, "CDP+T");
        assert!(matches!(req.variant.variant, Variant::Cdp(c) if c.threshold == Some(128)));
        assert!(matches!(
            req.dataset,
            dp_sweep::DatasetSpec::Table { scale, seed, .. } if scale == 0.002 && seed == 42
        ));
    }

    #[test]
    fn cache_push_and_pull_round_trip() {
        let entry =
            "{\"key\":\"00000000deadbeef\"}\n#dpopt-cache v2 len=27 fnv1a=0123456789abcdef\n";
        let line = cache_push_request(0xdead_beef, entry).to_string();
        let parsed = parse_request(&line);
        let Ok(Request::CachePush { key, entry: e }) = parsed.body else {
            panic!("{:?}", parsed.body)
        };
        assert_eq!(key, 0xdead_beef);
        assert_eq!(e, entry);

        let line = cache_pull_request(Some(0xdead_beef)).to_string();
        let Ok(Request::CachePull { key: Some(k) }) = parse_request(&line).body else {
            panic!("single-key pull")
        };
        assert_eq!(k, 0xdead_beef);
        let Ok(Request::CachePull { key: None }) =
            parse_request(&cache_pull_request(None).to_string()).body
        else {
            panic!("inventory pull")
        };

        // Integer keys are tolerated; garbage hex is not.
        let Ok(Request::CachePull { key: Some(7) }) =
            parse_request(r#"{"op":"cache-pull","key":7}"#).body
        else {
            panic!("integer key")
        };
        let err = parse_request(r#"{"op":"cache-pull","key":"xyz"}"#)
            .body
            .unwrap_err();
        assert!(err.contains("16-hex"), "{err}");
        // A string key has one spelling, `{key:016x}`: no sign, no short
        // or padded form, no upper case.
        for near in ["+7", "7", "000000000000000A", "00000000000000000007"] {
            let line = format!(r#"{{"op":"cache-pull","key":"{near}"}}"#);
            let err = parse_request(&line).body.unwrap_err();
            assert_eq!(
                err,
                format!("`key` must be a 16-hex cell key, got `{near}`")
            );
        }
        let err = parse_request(r#"{"op":"cache-push","entry":"x"}"#)
            .body
            .unwrap_err();
        assert!(err.contains("needs a `key`"), "{err}");
        let err = parse_request(r#"{"op":"cache-push","key":"00000000deadbeef"}"#)
            .body
            .unwrap_err();
        assert!(err.contains("`entry`"), "{err}");
    }

    #[test]
    fn malformed_requests_keep_their_id() {
        let parsed = parse_request(r#"{"op":"explode","id":"x7"}"#);
        assert_eq!(parsed.id, Some(Json::Str("x7".to_string())));
        assert!(parsed.body.unwrap_err().contains("unknown op"));

        let parsed = parse_request("not json");
        assert!(parsed.id.is_none());
        assert!(parsed.body.is_err());
    }

    #[test]
    fn responses_echo_ids_deterministically() {
        let ok = ok_response(Some(&Json::Int(3)), vec![("x", Json::Int(1))]);
        assert_eq!(ok.to_string(), r#"{"id":3,"ok":true,"x":1}"#);
        let err = error_response(None, "boom");
        assert_eq!(err.to_string(), r#"{"error":"boom","ok":false}"#);
    }

    #[test]
    fn kinded_errors_are_structured_and_echo_ids() {
        let err = error_response_kind(Some(&Json::Int(9)), "overloaded", "queue full");
        assert_eq!(
            err.to_string(),
            r#"{"error":"queue full","id":9,"kind":"overloaded","ok":false,"op":"error"}"#
        );
        let err = error_response_kind(None, "parse", "bad json");
        assert_eq!(
            err.to_string(),
            r#"{"error":"bad json","kind":"parse","ok":false,"op":"error"}"#
        );
    }

    /// Satellite: a table of malformed request lines. Every one must
    /// yield a structured parse error (never a panic, never a silent
    /// drop), and the `id` must survive whenever the line is valid JSON.
    #[test]
    fn malformed_request_table() {
        // (line, expected error fragment, id expected to survive)
        let table: &[(&str, &str, Option<Json>)] = &[
            ("not json at all", "bad request JSON", None),
            ("{\"op\":\"compile\"", "bad request JSON", None),
            ("42", "op", None),
            ("[1,2,3]", "op", None),
            ("{}", "op", None),
            (r#"{"op":7,"id":1}"#, "op", Some(Json::Int(1))),
            (
                r#"{"op":"explode","id":2}"#,
                "unknown op",
                Some(Json::Int(2)),
            ),
            (r#"{"op":"compile","id":3}"#, "`source`", Some(Json::Int(3))),
            (
                r#"{"op":"compile","source":7,"id":4}"#,
                "`source`",
                Some(Json::Int(4)),
            ),
            (
                r#"{"op":"execute","source":"s","id":5}"#,
                "`kernel`",
                Some(Json::Int(5)),
            ),
            (
                r#"{"op":"execute","source":"s","kernel":"k","grid":"x","id":6}"#,
                "`grid`",
                Some(Json::Int(6)),
            ),
            (
                r#"{"op":"execute","source":"s","kernel":"k","grid":1,"block":1,"buffers":[{"name":"d"}],"id":7}"#,
                "`words`, `ints`, or `floats`",
                Some(Json::Int(7)),
            ),
            (
                r#"{"op":"execute","source":"s","kernel":"k","grid":1,"block":1,"args":["d"],"id":8}"#,
                "`@buffer`",
                Some(Json::Int(8)),
            ),
            (
                r#"{"op":"execute","source":"s","kernel":"k","grid":1,"block":1,"read":[{"buffer":"d"}],"id":9}"#,
                "`len`",
                Some(Json::Int(9)),
            ),
            (
                r#"{"op":"sweep-cell","id":10}"#,
                "`benchmark`",
                Some(Json::Int(10)),
            ),
            (
                r#"{"op":"sweep-cell","benchmark":"BFS","id":11}"#,
                "`dataset`",
                Some(Json::Int(11)),
            ),
            (
                r#"{"op":"sweep-cell","benchmark":"BFS","dataset":{"id":"NOPE"},"variant":{},"id":12}"#,
                "unknown dataset",
                Some(Json::Int(12)),
            ),
            (
                r#"{"op":"sweep-cell","benchmark":"BFS","dataset":{"id":"KRON","scale":2.0},"variant":{},"id":13}"#,
                "`scale`",
                Some(Json::Int(13)),
            ),
            (
                r#"{"op":"compile","source":"s","threshold":"big","id":14}"#,
                "threshold",
                Some(Json::Int(14)),
            ),
            (
                r#"{"op":"execute","source":"s","kernel":"k","grid":1,"block":1,"buffers":[{"name":"d","words":893353197568}],"id":15}"#,
                "limit of 16777216 words",
                Some(Json::Int(15)),
            ),
            (
                // Each within the limit, together past it.
                r#"{"op":"execute","source":"s","kernel":"k","grid":1,"block":1,"buffers":[{"name":"a","words":16777216},{"name":"b","words":1}],"id":16}"#,
                "buffer `b`",
                Some(Json::Int(16)),
            ),
            (
                // A syntax error outranks a member error before it.
                r#"{"op":"execute","source":7,"id":17,"grid":01}"#,
                "bad request JSON: bad number `01}` at byte 42",
                None,
            ),
            (
                // Of a repeated member, the last counts.
                r#"{"op":"explode","op":"compile","id":18}"#,
                "`source` must be a string",
                Some(Json::Int(18)),
            ),
            (
                // Members are checked in one order, not the text's.
                r#"{"op":"execute","source":"s","grid":"x","id":19}"#,
                "`kernel` must be a string",
                Some(Json::Int(19)),
            ),
            (
                r#"{"op":"execute","source":"s","kernel":"k","grid":1,"block":1,"buffers":[{"name":"a","words":16777217},{"words":1}],"id":20}"#,
                "buffer `a`: `words` 16777217 takes the request past the limit of 16777216 words",
                Some(Json::Int(20)),
            ),
            (
                r#"{"op":"execute","source":"s","kernel":"k","grid":1,"block":1,"buffers":[{"name":"a","ints":{}}],"id":21}"#,
                "`ints` must be an array",
                Some(Json::Int(21)),
            ),
            (
                r#"{"op":"execute","source":"s","kernel":"k","grid":1,"block":1,"buffers":[{"name":"a","ints":[1.5]}],"id":22}"#,
                "`ints` must be integers",
                Some(Json::Int(22)),
            ),
            (
                r#"{"op":"explode","id":[1,"x"]}"#,
                "unknown op `explode` (hello|compile|transform|execute|sweep-cell|cache-push|cache-pull|stats|metrics|shutdown)",
                Some(Json::Array(vec![Json::Int(1), Json::Str("x".to_string())])),
            ),
        ];
        for (line, fragment, id) in table {
            let parsed = parse_request(line);
            assert_eq!(&parsed.id, id, "id for `{line}`");
            let err = parsed
                .body
                .expect_err(&format!("`{line}` must not parse as a request"));
            assert!(
                err.contains(fragment),
                "error for `{line}` must mention `{fragment}`, got `{err}`"
            );
        }
    }

    #[test]
    fn limited_reads_enforce_the_cap() {
        use std::io::Cursor;
        let mut raw = Vec::new();
        let mut r = Cursor::new(b"short\nlonger line\n".to_vec());
        assert_eq!(
            read_line_into(&mut r, 8, &mut raw).unwrap(),
            LineRead::Line(b"short\n")
        );
        assert_eq!(
            read_line_into(&mut r, 8, &mut raw).unwrap(),
            LineRead::TooLarge
        );

        // Unlimited (0) accepts anything and reports clean EOF after.
        let mut r = Cursor::new(b"x".repeat(100_000));
        let LineRead::Line(line) = read_line_into(&mut r, 0, &mut raw).unwrap() else {
            panic!("unlimited read must succeed");
        };
        assert_eq!(line.len(), 100_000);
        assert_eq!(read_line_into(&mut r, 0, &mut raw).unwrap(), LineRead::Eof);

        // Invalid UTF-8 is a line, not an I/O error, and the session's
        // lossy step replaces it.
        let mut r = Cursor::new(b"\xff\xfe{\"op\"}\n".to_vec());
        let LineRead::Line(line) = read_line_into(&mut r, 64, &mut raw).unwrap() else {
            panic!("lossy read must succeed");
        };
        let line = String::from_utf8_lossy(line);
        assert!(line.contains('\u{FFFD}'), "{line:?}");
    }

    /// A line's bytes are counted as the socket carried them: a byte that
    /// is not UTF-8 is one byte read, not the three of the replacement
    /// character the line is parsed with.
    #[test]
    fn bytes_read_counts_the_raw_bytes_of_a_line() {
        let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
        let server = crate::Server::bind(&endpoint, &crate::ServeOptions::default()).expect("bind");
        let endpoint = server.endpoint().clone();
        let daemon = std::thread::spawn(move || server.serve());
        let mut stream = endpoint.connect().expect("connect");
        let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
        let mut ask = |stream: &mut Stream, line: &[u8]| {
            stream.write_all(line).expect("write");
            let answer = read_line(&mut reader).expect("read").expect("answer");
            json::parse(&answer).expect("answers are JSON")
        };
        let stats = format!("{}\n", bare_request("stats"));
        let read_inorder = |stats: Json| {
            let bytes = stats.get("bytes").and_then(|b| b.get("read_inorder"));
            bytes.and_then(Json::as_u64).expect("bytes.read_inorder")
        };

        let before = read_inorder(ask(&mut stream, stats.as_bytes()));
        let line = b"{\"op\":\"st\xffats\"}\n";
        let refused = ask(&mut stream, line);
        assert_eq!(refused.get("kind"), Some(&Json::Str("parse".to_string())));
        let after = read_inorder(ask(&mut stream, stats.as_bytes()));
        assert_eq!(after - before, (line.len() + stats.len()) as u64);

        write_line(&mut stream, &bare_request("shutdown")).expect("shutdown");
        daemon.join().expect("daemon").expect("serve");
    }

    #[test]
    fn dangling_agg_threshold_is_rejected() {
        let parsed = parse_request(r#"{"op":"compile","source":"s","agg_threshold":4}"#);
        assert!(parsed.body.unwrap_err().contains("`agg_threshold` needs"));
    }
}
