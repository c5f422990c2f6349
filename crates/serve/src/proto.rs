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
//! lossily. The line is read by one scanner, the JSON tree's own: the tree
//! path ([`parse_request_tree`]) parses every op, and the one-pass decoder
//! ([`decode_request`]) reads the hot ones — `execute`, `compile`,
//! `transform` — straight into a [`Request`] through [`json::Cursor`],
//! with the same tokens and the same rules. The decoder answers only where
//! the tree answers the same and leaves everything else, every refusal
//! included, to the tree, so the verdicts and their messages are the
//! tree's. An `execute` or `transform`
//! success answer is written member by member in the tree's member order
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

use dp_core::{AggConfig, AggGranularity, OptConfig};
use dp_obs::json::{self, object, Cursor, Json};
use dp_sweep::spec::{
    cell_from_json, checked_coarsen_factor, config_from_json, parse_granularity, CellSpec,
};
use dp_workloads::benchmarks::Variant;
use std::borrow::Cow;
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
    pub(crate) floats: bool,
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

/// Parses one NDJSON request line: by [`decode_request`] when it can
/// answer, by [`parse_request_tree`] otherwise. Both read the same
/// `line.trim()`, and the decoder answers only where the tree answers the
/// same, so the result is always the tree's.
pub fn parse_request(line: &str) -> ParsedRequest {
    decode_request(line).unwrap_or_else(|| parse_request_tree(line))
}

/// Parses one NDJSON request line through the JSON tree: every op, every
/// refusal and its message.
pub fn parse_request_tree(line: &str) -> ParsedRequest {
    let doc = match json::parse(line.trim()) {
        Ok(doc) => doc,
        Err(e) => {
            return ParsedRequest {
                id: None,
                body: Err(format!("bad request JSON: {e}")),
            }
        }
    };
    let id = doc.get("id").cloned();
    let body = parse_body(&doc);
    ParsedRequest { id, body }
}

fn parse_body(doc: &Json) -> Result<Request, String> {
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or("request needs an `op` string")?;
    match op {
        "compile" | "transform" => {
            let source = doc
                .get("source")
                .and_then(Json::as_str)
                .ok_or("`source` must be a string")?
                .to_string();
            let config = config_from_json(doc)?;
            Ok(if op == "compile" {
                Request::Compile { source, config }
            } else {
                Request::Transform { source, config }
            })
        }
        "execute" => parse_execute(doc).map(|r| Request::Execute(Box::new(r))),
        "sweep-cell" => cell_from_json(doc).map(|r| Request::SweepCell(Box::new(r))),
        "hello" => Ok(Request::Hello {
            token: doc
                .get("token")
                .and_then(Json::as_str)
                .map(str::to_string),
        }),
        "cache-push" => {
            let key = parse_cache_key(doc.get("key").ok_or("cache-push needs a `key`")?)?;
            let entry = doc
                .get("entry")
                .and_then(Json::as_str)
                .ok_or("`entry` must be a string")?
                .to_string();
            Ok(Request::CachePush { key, entry })
        }
        "cache-pull" => {
            let key = doc.get("key").map(parse_cache_key).transpose()?;
            Ok(Request::CachePull { key })
        }
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown op `{other}` (hello|compile|transform|execute|sweep-cell|cache-push|cache-pull|stats|metrics|shutdown)"
        )),
    }
}

/// A cache key on the wire: canonically a 16-hex string (u64 keys
/// overflow the interchange-safe integer range); a plain non-negative
/// integer is accepted too.
fn parse_cache_key(v: &Json) -> Result<u64, String> {
    if let Some(hex) = v.as_str() {
        return u64::from_str_radix(hex, 16)
            .map_err(|_| format!("`key` must be a 16-hex cell key, got `{hex}`"));
    }
    v.as_u64()
        .ok_or_else(|| "`key` must be a 16-hex cell key".to_string())
}

fn parse_execute(doc: &Json) -> Result<ExecuteRequest, String> {
    let source = doc
        .get("source")
        .and_then(Json::as_str)
        .ok_or("`source` must be a string")?
        .to_string();
    let config = config_from_json(doc)?;
    let kernel = doc
        .get("kernel")
        .and_then(Json::as_str)
        .ok_or("`kernel` must be a string")?
        .to_string();
    let grid = doc
        .get("grid")
        .and_then(Json::as_i64)
        .ok_or("`grid` must be an integer")?;
    let block = doc
        .get("block")
        .and_then(Json::as_i64)
        .ok_or("`block` must be an integer")?;

    let mut buffers = Vec::new();
    let mut words_left = MAX_EXECUTE_WORDS;
    for b in array_member(doc, "buffers")? {
        let name = b
            .get("name")
            .and_then(Json::as_str)
            .ok_or("buffer needs a `name`")?
            .to_string();
        let given = ["words", "ints", "floats"]
            .iter()
            .filter(|m| b.get(m).is_some());
        if given.count() > 1 {
            return Err(format!(
                "buffer `{name}` gives more than one of `words`, `ints`, and `floats`"
            ));
        }
        let data = if let Some(w) = b.get("words") {
            let w = w.as_u64().ok_or("`words` must be a non-negative integer")?;
            words_left = words_left.checked_sub(w).ok_or_else(|| {
                format!(
                    "buffer `{name}`: `words` {w} takes the request past the limit of \
                     {MAX_EXECUTE_WORDS} words"
                )
            })?;
            BufferData::Words(w as usize)
        } else if let Some(ints) = b.get("ints") {
            BufferData::Ints(
                ints.as_array()
                    .ok_or("`ints` must be an array")?
                    .iter()
                    .map(|v| v.as_i64())
                    .collect::<Option<Vec<_>>>()
                    .ok_or("`ints` must be integers")?,
            )
        } else if let Some(floats) = b.get("floats") {
            BufferData::Floats(
                floats
                    .as_array()
                    .ok_or("`floats` must be an array")?
                    .iter()
                    .map(|v| v.as_f64())
                    .collect::<Option<Vec<_>>>()
                    .ok_or("`floats` must be numbers")?,
            )
        } else {
            return Err(format!(
                "buffer `{name}` needs `words`, `ints`, or `floats`"
            ));
        };
        buffers.push(BufferInit { name, data });
    }

    let mut args = Vec::new();
    for a in array_member(doc, "args")? {
        args.push(match a {
            Json::Int(v) => Arg::Int(*v),
            Json::Float(v) => Arg::Float(*v),
            Json::Str(s) => {
                let name = s
                    .strip_prefix('@')
                    .ok_or_else(|| format!("string arg `{s}` must be a `@buffer` reference"))?;
                Arg::Buffer(name.to_string())
            }
            other => return Err(format!("bad arg {other} (number or \"@buffer\")")),
        });
    }

    let mut reads = Vec::new();
    for r in array_member(doc, "read")? {
        reads.push(ReadSpec {
            buffer: r
                .get("buffer")
                .and_then(Json::as_str)
                .ok_or("read needs a `buffer`")?
                .to_string(),
            offset: match r.get("offset") {
                None => 0,
                Some(offset) => offset
                    .as_u64()
                    .ok_or("read `offset` must be a non-negative integer")?
                    as usize,
            },
            len: r
                .get("len")
                .and_then(Json::as_u64)
                .ok_or("read needs a `len`")? as usize,
            floats: match r.get("floats") {
                None => false,
                Some(Json::Bool(floats)) => *floats,
                Some(_) => return Err("read `floats` must be a boolean".to_string()),
            },
        });
    }

    Ok(ExecuteRequest {
        source,
        config,
        kernel,
        grid,
        block,
        buffers,
        args,
        reads,
    })
}

/// The items of an optional array member: none when it is absent, a
/// refusal when it is anything but an array.
fn array_member<'a>(doc: &'a Json, name: &str) -> Result<&'a [Json], String> {
    match doc.get(name) {
        None => Ok(&[]),
        Some(value) => value
            .as_array()
            .ok_or_else(|| format!("`{name}` must be an array")),
    }
}

// ----------------------------------------------------------------------
// One-pass decoder (the hot ops)
// ----------------------------------------------------------------------

/// The members [`decode_request`] reads, by bit; a member outside this list
/// sends the line to the tree.
const MEMBERS: [&str; 13] = [
    "op",
    "id",
    "source",
    "threshold",
    "coarsen",
    "agg",
    "agg_threshold",
    "kernel",
    "grid",
    "block",
    "buffers",
    "args",
    "read",
];

/// The bits of [`MEMBERS`] only an `execute` reads (`kernel` onwards).
const EXECUTE_ONLY: u64 = !0 << 7;

/// Reads an `execute`, `compile` or `transform` line straight into its
/// [`Request`], in one pass over the same `line.trim()` the tree parses,
/// through the tree's own tokens ([`json::Cursor`]) and the tree path's own
/// rules (`MAX_EXECUTE_WORDS`, `@buffer` args, [`checked_coarsen_factor`],
/// [`parse_granularity`], `agg_threshold` needing `agg`). Members come in
/// any order. `Some` only for a line the tree parses to the same
/// [`ParsedRequest`]; `None` for anything else — another op, an unknown or
/// repeated member, a value of another type or range, trailing bytes,
/// nesting beyond the shape, a refusal — which [`parse_request`] hands to
/// [`parse_request_tree`]. So every verdict, and every message, is the
/// tree's.
pub fn decode_request(line: &str) -> Option<ParsedRequest> {
    let mut cursor = Cursor::new(line.trim());
    let mut members = Members::default();
    let seen = cursor.members(&MEMBERS, |cursor, name| members.read(cursor, name))?;
    cursor.peek().is_none().then_some(())?;
    members.request(seen)
}

/// The members of a hot request line, as [`decode_request`] reads them.
#[derive(Default)]
struct Members<'a> {
    op: Option<Cow<'a, str>>,
    id: Option<Json>,
    source: Option<Cow<'a, str>>,
    threshold: Option<i64>,
    coarsen: Option<i64>,
    agg: Option<AggGranularity>,
    agg_threshold: Option<i64>,
    kernel: Option<Cow<'a, str>>,
    grid: Option<i64>,
    block: Option<i64>,
    buffers: Vec<BufferInit>,
    args: Vec<Arg>,
    reads: Vec<ReadSpec>,
}

impl<'a> Members<'a> {
    /// Reads the value of member `name`.
    fn read(&mut self, cursor: &mut Cursor<'a>, name: &str) -> Option<()> {
        match name {
            "op" => self.op = Some(cursor.string()?),
            "id" => self.id = Some(cursor.scalar()?),
            "source" => self.source = Some(cursor.string()?),
            "threshold" => self.threshold = Some(cursor.number()?.as_i64()?),
            "coarsen" => self.coarsen = Some(cursor.number()?.as_i64()?),
            "agg" => self.agg = Some(parse_granularity(&cursor.string()?)?),
            "agg_threshold" => self.agg_threshold = Some(cursor.number()?.as_i64()?),
            "kernel" => self.kernel = Some(cursor.string()?),
            "grid" => self.grid = Some(cursor.number()?.as_i64()?),
            "block" => self.block = Some(cursor.number()?.as_i64()?),
            "buffers" => {
                let mut words_left = MAX_EXECUTE_WORDS;
                cursor.array(|cursor| {
                    let buffer = read_buffer(cursor)?;
                    if let BufferData::Words(words) = buffer.data {
                        words_left = words_left.checked_sub(words as u64)?;
                    }
                    self.buffers.push(buffer);
                    Some(())
                })?;
            }
            "args" => cursor.array(|cursor| {
                let arg = match cursor.peek()? {
                    b'"' => Arg::Buffer(cursor.string()?.strip_prefix('@')?.to_string()),
                    _ => match cursor.number()? {
                        Json::Int(v) => Arg::Int(v),
                        Json::Float(v) => Arg::Float(v),
                        _ => return None,
                    },
                };
                self.args.push(arg);
                Some(())
            })?,
            "read" => cursor.array(|cursor| {
                self.reads.push(read_spec(cursor)?);
                Some(())
            })?,
            _ => return None,
        }
        Some(())
    }

    /// The request the members make, built as the tree path builds it;
    /// `seen` holds the [`MEMBERS`] bits the line gave.
    fn request(self, seen: u64) -> Option<ParsedRequest> {
        let mut config = OptConfig::none();
        if let Some(t) = self.threshold {
            config = config.threshold(t);
        }
        if let Some(c) = self.coarsen {
            config = config.coarsen_factor(checked_coarsen_factor(c).ok()?);
        }
        match (self.agg, self.agg_threshold) {
            (Some(granularity), agg_threshold) => {
                let mut agg = AggConfig::new(granularity);
                agg.agg_threshold = agg_threshold;
                config = config.aggregation(agg);
            }
            (None, Some(_)) => return None,
            (None, None) => {}
        }
        let source = self.source?.into_owned();
        let body = match &*self.op? {
            "execute" => Request::Execute(Box::new(ExecuteRequest {
                source,
                config,
                kernel: self.kernel?.into_owned(),
                grid: self.grid?,
                block: self.block?,
                buffers: self.buffers,
                args: self.args,
                reads: self.reads,
            })),
            "compile" if seen & EXECUTE_ONLY == 0 => Request::Compile { source, config },
            "transform" if seen & EXECUTE_ONLY == 0 => Request::Transform { source, config },
            _ => return None,
        };
        Some(ParsedRequest {
            id: self.id,
            body: Ok(body),
        })
    }
}

/// One `buffers` entry: a `name` and exactly one of `words`, `ints` and
/// `floats`.
fn read_buffer(cursor: &mut Cursor) -> Option<BufferInit> {
    let (mut name, mut data) = (None, None);
    let seen = cursor.members(&["name", "words", "ints", "floats"], |cursor, member| {
        match member {
            "name" => name = Some(cursor.string()?.into_owned()),
            "words" => {
                let words = cursor.number()?.as_u64()?;
                (words <= MAX_EXECUTE_WORDS).then_some(())?;
                data = Some(BufferData::Words(words as usize));
            }
            "ints" => data = Some(BufferData::Ints(cursor.numbers(Json::as_i64)?)),
            "floats" => data = Some(BufferData::Floats(cursor.numbers(Json::as_f64)?)),
            _ => return None,
        }
        Some(())
    })?;
    // Bits 1 to 3 are the data members: exactly one is set.
    (seen >> 1).is_power_of_two().then_some(())?;
    Some(BufferInit {
        name: name?,
        data: data?,
    })
}

/// One `read` entry: `buffer` and `len`, optional `offset` and `floats`.
fn read_spec(cursor: &mut Cursor) -> Option<ReadSpec> {
    let (mut buffer, mut offset, mut len, mut floats) = (None, 0, None, false);
    cursor.members(&["buffer", "offset", "len", "floats"], |cursor, member| {
        match member {
            "buffer" => buffer = Some(cursor.string()?.into_owned()),
            "offset" => offset = cursor.number()?.as_u64()? as usize,
            "len" => len = Some(cursor.number()?.as_u64()? as usize),
            "floats" => floats = cursor.bool()?,
            _ => return None,
        }
        Some(())
    })?;
    Some(ReadSpec {
        buffer: buffer?,
        offset,
        len: len?,
        floats,
    })
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
