//! Property tests for the request path's own parsers: `read_line_into`
//! (socket bytes → one bounded line, made UTF-8 as the session does) and
//! `proto::parse_request` (line → `Request`). Whatever arrives, neither panics; a line over the cap is
//! `TooLarge` with no more than the cap buffered; every refusal is a
//! message the server can answer as one `kind:"parse"` line; and an `id`
//! outlives a malformed body. `parse_request` reads a line in one cursor
//! pass; on every generated line it must give what
//! [`oracle_parse_request`], the same line read through the JSON tree,
//! gives, to the last bit and the last byte of a message.

use dp_core::{AggConfig, AggGranularity, OptConfig};
use dp_obs::json::{self, Json};
use dp_serve::proto::{
    self, Arg, BufferData, BufferInit, ExecuteRequest, LineRead, ParsedRequest, ReadSpec, Request,
};
use dp_sweep::key::parse_key;
use dp_sweep::spec::{cell_from_json, config_from_json};
use dp_workloads::benchmarks::Variant;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Cursor};

const SOURCE: &str = "__global__ void k(int* d) { d[threadIdx.x] = 1; }";

/// One valid request of every op, untagged.
fn valid_requests() -> Vec<Json> {
    let config = OptConfig::none().threshold(64).coarsen_factor(2);
    let execute = r#"{"op":"execute","source":"s","kernel":"k","grid":2,"block":32,
        "buffers":[{"name":"d","words":8},{"name":"e","ints":[1,2]},{"name":"f","floats":[0.5]}],
        "args":["@d",7,0.25],"read":[{"buffer":"d","len":8,"offset":1,"floats":true}]}"#;
    vec![
        proto::source_request("compile", SOURCE, &config),
        proto::source_request("transform", SOURCE, &OptConfig::all()),
        json::parse(execute).expect("the execute template is JSON"),
        proto::sweep_cell_request("BFS", "KRON", 0.01, 42, "CDP+T", &Variant::Cdp(config)),
        proto::cache_push_request(0xdead_beef, "{}\n#dpopt-cache v2 len=2 fnv1a=0\n"),
        proto::cache_pull_request(Some(7)),
        proto::cache_pull_request(None),
        proto::hello_request("s3cret"),
        proto::bare_request("stats"),
        proto::bare_request("metrics"),
        proto::bare_request("shutdown"),
    ]
}

/// What a member is overwritten with to spoil a body while the line stays
/// JSON: wrong types, wrong ranges, and a value nested to the parser's cap.
fn spoilers() -> Vec<Json> {
    let deep = "[".repeat(json::MAX_DEPTH - 2) + &"]".repeat(json::MAX_DEPTH - 2);
    vec![
        Json::Null,
        Json::Bool(true),
        Json::Int(-1),
        Json::Int(i64::MAX),
        Json::Float(-0.5),
        Json::Str(String::new()),
        Json::Str("@".to_string()),
        Json::Array(vec![Json::Null, Json::Int(3)]),
        json::object([("id", Json::Str("NOPE".to_string()))]),
        json::parse(&deep).expect("within the cap"),
    ]
}

/// The line the server would answer a refused body with.
fn assert_answerable(parsed: &ParsedRequest) -> Result<(), TestCaseError> {
    let Err(message) = &parsed.body else {
        return Ok(());
    };
    prop_assert!(!message.is_empty());
    let answer = proto::error_response_kind(parsed.id.as_ref(), "parse", message).to_string();
    prop_assert!(!answer.contains('\n'), "one line: {}", answer);
    let back = json::parse(&answer);
    prop_assert!(back.is_ok(), "{}", answer);
    let back = back.unwrap();
    prop_assert_eq!(back.get("kind").and_then(Json::as_str), Some("parse"));
    prop_assert_eq!(back.get("id"), parsed.id.as_ref());
    Ok(())
}

// ----------------------------------------------------------------------
// The oracle: a request line read through the JSON tree
// ----------------------------------------------------------------------

/// The most `words` one `execute` may ask for, as the protocol sets it.
const MAX_EXECUTE_WORDS: u64 = 1 << 24;

/// A request line read through the JSON tree: `json::parse` builds it, and
/// each op reads its members from it in its own order. Whatever the line,
/// `parse_request` must give this.
fn oracle_parse_request(line: &str) -> ParsedRequest {
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
    let body = oracle_body(&doc);
    ParsedRequest { id, body }
}

fn oracle_body(doc: &Json) -> Result<Request, String> {
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
        "execute" => oracle_execute(doc).map(|r| Request::Execute(Box::new(r))),
        "sweep-cell" => cell_from_json(doc).map(|r| Request::SweepCell(Box::new(r))),
        "hello" => Ok(Request::Hello {
            token: doc
                .get("token")
                .and_then(Json::as_str)
                .map(str::to_string),
        }),
        "cache-push" => {
            let key = oracle_cache_key(doc.get("key").ok_or("cache-push needs a `key`")?)?;
            let entry = doc
                .get("entry")
                .and_then(Json::as_str)
                .ok_or("`entry` must be a string")?
                .to_string();
            Ok(Request::CachePush { key, entry })
        }
        "cache-pull" => {
            let key = doc.get("key").map(oracle_cache_key).transpose()?;
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

fn oracle_cache_key(v: &Json) -> Result<u64, String> {
    if let Some(hex) = v.as_str() {
        return parse_key(hex)
            .ok_or_else(|| format!("`key` must be a 16-hex cell key, got `{hex}`"));
    }
    v.as_u64()
        .ok_or_else(|| "`key` must be a 16-hex cell key".to_string())
}

fn oracle_execute(doc: &Json) -> Result<ExecuteRequest, String> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, made a line the way the session does.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..255, 0..200)) {
        let (mut reader, mut raw) = (Cursor::new(bytes), Vec::new());
        while let LineRead::Line(line) = proto::read_line_into(&mut reader, 64, &mut raw).unwrap() {
            let line = String::from_utf8_lossy(line);
            assert_answerable(&proto::parse_request(&line))?;
            agrees(&line)?;
        }
    }

    /// A valid request of every op with bytes overwritten, inserted or
    /// removed parses or is refused with a message.
    #[test]
    fn byte_mutated_requests_never_panic(
        which in 0usize..64,
        edits in prop::collection::vec((0usize..3, 0usize..4096, 0u8..255), 1..6),
    ) {
        let requests = valid_requests();
        let mut bytes = requests[which % requests.len()].to_string().into_bytes();
        for (kind, at, byte) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => { bytes.remove(at); }
                _ => bytes.insert(at, byte),
            }
        }
        let line = String::from_utf8_lossy(&bytes);
        assert_answerable(&proto::parse_request(&line))?;
        agrees(&line)?;
    }

    /// A tagged request with members spoiled or dropped is still JSON, so
    /// whatever becomes of the body, the `id` comes back.
    #[test]
    fn an_id_survives_a_malformed_body(
        which in 0usize..64,
        edits in prop::collection::vec((0usize..64, 0usize..64), 1..4),
        id in prop_oneof![(0i64..1000).prop_map(Json::Int), Just(Json::Str("r-7".to_string()))],
    ) {
        let requests = valid_requests();
        let Json::Object(mut members) = requests[which % requests.len()].clone() else {
            unreachable!("requests are objects")
        };
        prop_assert!(proto::parse_request(&Json::Object(members.clone()).to_string()).body.is_ok());
        let spoilers = spoilers();
        for (member, spoiler) in edits {
            let name = members.keys().nth(member % members.len()).cloned().expect("non-empty");
            match spoilers.get(spoiler % (spoilers.len() + 1)) {
                Some(value) => members.insert(name, value.clone()),
                None => members.remove(&name),
            };
            if members.is_empty() {
                break;
            }
        }
        members.insert("id".to_string(), id.clone());
        let line = Json::Object(members).to_string();
        let parsed = proto::parse_request(&line);
        prop_assert_eq!(parsed.id.as_ref(), Some(&id));
        assert_answerable(&parsed)?;
        agrees(&line)?;
    }

    /// Nesting past the parser's cap — in the line itself or inside a
    /// member — is a refusal, never a deep recursion.
    #[test]
    fn deep_nesting_is_refused(depth in 129usize..200_000, inside in 0usize..2) {
        let deep = "[".repeat(depth);
        let line = if inside == 1 { format!(r#"{{"op":"stats","id":{deep}"#) } else { deep };
        agrees(&line)?;
        let parsed = proto::parse_request(&line);
        prop_assert_eq!(parsed.id, None);
        prop_assert_eq!(
            parsed.body.unwrap_err(),
            "bad request JSON: nesting deeper than 128"
        );
    }

    /// `read_line_into` hands back exactly the lines under the cap and
    /// stops at the first one over it, having taken no more than the cap
    /// from the socket.
    #[test]
    fn limited_reads_never_buffer_past_the_cap(
        lengths in prop::collection::vec(0usize..40, 1..8),
        cap in 1usize..32,
        chunk in 1usize..16,
    ) {
        let mut input = Vec::new();
        for (i, len) in lengths.iter().enumerate() {
            input.extend(std::iter::repeat_n(b'a' + (i % 26) as u8, *len));
            input.push(b'\n');
        }
        let mut reader = BufReader::with_capacity(chunk, Cursor::new(input));
        let mut raw = Vec::new();
        for len in &lengths {
            let taken_before = reader.get_ref().position() as usize - reader.buffer().len();
            let read = proto::read_line_into(&mut reader, cap, &mut raw).unwrap();
            let taken = reader.get_ref().position() as usize - reader.buffer().len() - taken_before;
            if len + 1 > cap {
                prop_assert_eq!(read, LineRead::TooLarge);
                prop_assert!(taken <= cap, "took {} of a {}-byte line, cap {}", taken, len + 1, cap);
                return Ok(());
            }
            let LineRead::Line(line) = read else {
                return Err(TestCaseError::fail(format!("{read:?} for a line within the cap")));
            };
            prop_assert_eq!(line.len(), len + 1);
        }
        prop_assert_eq!(proto::read_line_into(&mut reader, cap, &mut raw).unwrap(), LineRead::Eof);
        prop_assert!(reader.fill_buf().unwrap().is_empty());
    }
}

// ----------------------------------------------------------------------
// The one-pass reader and the direct answer writers against the tree
// ----------------------------------------------------------------------

/// `parse_request` gives what the oracle gives for `line`, to the last bit
/// (`{:?}` tells `-0.0` from `0.0`) and the last byte of a message.
fn agrees(line: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        format!("{:?}", proto::parse_request(line)),
        format!("{:?}", oracle_parse_request(line)),
        "line {:?}",
        line
    );
    Ok(())
}

/// Whether the request is one of the hot ops, `execute`, `compile` and
/// `transform`.
fn is_hot(request: &Json) -> bool {
    matches!(
        request.get("op").and_then(Json::as_str),
        Some("execute" | "compile" | "transform")
    )
}

/// A splitmix64 stream: one generated seed spelled out into as many
/// choices as a case needs.
struct Bits(u64);

impl Bits {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }

    fn int(&mut self) -> i64 {
        match self.below(4) {
            0 => self.pick(&[i64::MIN, i64::MAX, -1, 0, 1]),
            1 => self.next() as i64,
            _ => self.below(2000) as i64 - 1000,
        }
    }

    /// A finite float, often one of the kinds a writer gets wrong.
    fn float(&mut self) -> f64 {
        let special = [
            -0.0,
            0.0,
            0.1,
            -2.5,
            9_223_372_036_854_775_808.0,
            -9_223_372_036_854_775_808.0,
            1.8446744073709552e19,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            -2.2250738585072014e-308,
        ];
        match self.below(3) {
            0 => self.pick(&special),
            _ => Some(f64::from_bits(self.next()))
                .filter(|v| v.is_finite())
                .unwrap_or(1.5),
        }
    }

    /// A float that may have no JSON number: an infinity or a NaN one time
    /// in four, else [`Bits::float`].
    fn any_float(&mut self) -> f64 {
        match self.below(8) {
            0 => self.pick(&[f64::INFINITY, f64::NEG_INFINITY]),
            1 => f64::from_bits(f64::NAN.to_bits() | self.below(1 << 20) as u64),
            _ => self.float(),
        }
    }

    /// A string with characters a writer must escape and a reader must
    /// unescape.
    fn string(&mut self) -> String {
        let chars = [
            'a', 'Z', '"', '\\', '\n', '\t', '\u{1}', '/', 'é', '€', '😀', '@',
        ];
        (0..self.below(6)).map(|_| self.pick(&chars)).collect()
    }

    /// An `id` of any JSON kind.
    fn id(&mut self) -> Json {
        match self.below(7) {
            0 => Json::Int(self.int()),
            1 => Json::Float(self.float()),
            2 => Json::Str(self.string()),
            3 => Json::Bool(self.below(2) == 1),
            4 => Json::Null,
            5 => Json::Array(vec![Json::Int(self.int()), Json::Str(self.string())]),
            _ => json::object([("k", Json::Str(self.string()))]),
        }
    }

    /// JSON whitespace between two tokens, often none.
    fn ws(&mut self) -> &'static str {
        self.pick(&["", "", "", " ", "\t", "\n", "\r\n  "])
    }
}

/// `value` as JSON text with whitespace between its tokens, members in a
/// shuffled order, and strings spelled with escapes they do not need.
fn respell(value: &Json, bits: &mut Bits) -> String {
    let mut out = String::new();
    let ws = |out: &mut String, bits: &mut Bits| out.push_str(bits.ws());
    match value {
        Json::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match (c, bits.below(4)) {
                    ('\n', _) => out.push_str("\\n"),
                    ('"', _) => out.push_str("\\\""),
                    ('\\', _) => out.push_str("\\\\"),
                    ('/', 0) => out.push_str("\\/"),
                    (c, 0) if c <= '\u{ffff}' => out.push_str(&format!("\\u{:04x}", c as u32)),
                    (c, 1) if c <= '\u{ffff}' => out.push_str(&format!("\\u{:04X}", c as u32)),
                    (c, _) => out.push(c),
                }
            }
            out.push('"');
        }
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(&mut out, bits);
                out.push_str(&respell(item, bits));
                ws(&mut out, bits);
            }
            out.push(']');
        }
        Json::Object(members) => {
            let mut members: Vec<_> = members.iter().collect();
            for i in (1..members.len()).rev() {
                members.swap(i, bits.below(i + 1));
            }
            out.push('{');
            for (i, (name, value)) in members.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(&mut out, bits);
                out.push_str(&respell(&Json::Str(name.clone()), bits));
                ws(&mut out, bits);
                out.push(':');
                ws(&mut out, bits);
                out.push_str(&respell(value, bits));
                ws(&mut out, bits);
            }
            out.push('}');
        }
        scalar => out.push_str(&scalar.to_string()),
    }
    out
}

/// Whitespace `str::trim` strips from the ends of a line but JSON does not
/// allow between tokens.
const TRIMMED_ONLY: [char; 6] = ['\u{b}', '\u{c}', '\u{85}', '\u{a0}', '\u{2028}', '\u{3000}'];

/// A JSON document whose objects keep their members in the order written,
/// repeats included: a request the generator spoils, then writes.
#[derive(Clone)]
enum Doc {
    Value(Json),
    Array(Vec<Doc>),
    Object(Vec<(String, Doc)>),
}

impl Doc {
    fn new(value: &Json) -> Doc {
        match value {
            Json::Array(items) => Doc::Array(items.iter().map(Doc::new).collect()),
            Json::Object(members) => Doc::Object(
                members
                    .iter()
                    .map(|(name, value)| (name.clone(), Doc::new(value)))
                    .collect(),
            ),
            value => Doc::Value(value.clone()),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Doc::Value(value) => value.write(out),
            Doc::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Doc::Object(members) => {
                out.push('{');
                for (i, (name, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::write_string(out, name);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// The names a spoiled member of a request, a `buffers` entry and a `read`
/// entry may have: the ones some op reads, and one none does. A buffer's
/// data members come twice, so that an entry often gives two of them.
#[rustfmt::skip]
const REQUEST_MEMBERS: &[&str] = &[
    "op", "id", "source", "kernel", "grid", "block", "buffers", "args", "read", "threshold",
    "coarsen", "agg", "agg_threshold", "token", "key", "entry", "benchmark", "dataset", "variant",
    "x",
];
const BUFFER_MEMBERS: &[&str] = &["name", "words", "ints", "floats", "words", "ints", "x"];
const READ_MEMBERS: &[&str] = &["buffer", "offset", "len", "floats", "x"];

/// The values a spoiled member or item may get: the [`spoilers`], and
/// values some member takes.
fn values() -> Vec<Json> {
    let ints = |items: &[i64]| Json::Array(items.iter().map(|&v| Json::Int(v)).collect());
    let mut values = spoilers();
    values.extend([
        Json::Int(8),
        Json::Int(16_777_216),
        Json::Int(16_777_217),
        Json::Float(2.0),
        Json::Bool(false),
        Json::Str("d".to_string()),
        Json::Str("@d".to_string()),
        Json::Str("execute".to_string()),
        Json::Str("compile".to_string()),
        Json::Str("multiblock:8".to_string()),
        ints(&[]),
        ints(&[1, 2]),
        Json::Array(vec![Json::Float(1.5)]),
        Json::Object(Default::default()),
        json::object([
            ("name", Json::Str("g".to_string())),
            ("words", Json::Int(1 << 24)),
        ]),
    ]);
    values
}

/// Spoils one place of `doc` with one of `values`: the document itself,
/// or a member of the request, of a `buffers` entry or of a `read` entry,
/// or an item of one of its arrays, overwritten, dropped or repeated.
fn spoil(doc: &mut Doc, bits: &mut Bits, values: &[Json]) {
    let value = Doc::new(&bits.pick(values));
    if bits.below(16) == 0 {
        *doc = value;
        return;
    }
    let Doc::Object(members) = doc else {
        return;
    };
    let (array, names) = bits.pick(&[
        ("", REQUEST_MEMBERS),
        ("buffers", BUFFER_MEMBERS),
        ("buffers", BUFFER_MEMBERS),
        ("read", READ_MEMBERS),
        ("args", &[]),
    ]);
    // The occurrence of the array that counts is the last.
    let items = members.iter_mut().rev().find(|(name, _)| name == array);
    let Some((_, Doc::Array(items))) = items else {
        return spoil_members(members, REQUEST_MEMBERS, value, bits);
    };
    let at = bits.below(items.len() + 1);
    match (items.get_mut(at), bits.below(4)) {
        (Some(Doc::Object(entry)), 0 | 1) if !names.is_empty() => {
            spoil_members(entry, names, value, bits)
        }
        (Some(item), 0) => *item = value,
        (Some(_), 1) => drop(items.remove(at)),
        (Some(item), 2) => {
            let item = item.clone();
            items.insert(bits.below(items.len() + 1), item);
        }
        _ => items.insert(at, value),
    }
}

/// Overwrites, drops or repeats one member of an object, one of `names`
/// or one it has.
fn spoil_members(members: &mut Vec<(String, Doc)>, names: &[&str], value: Doc, bits: &mut Bits) {
    let name = match members.len() {
        0 => bits.pick(names).to_string(),
        given => match bits.below(3) {
            0 => members[bits.below(given)].0.clone(),
            _ => bits.pick(names).to_string(),
        },
    };
    match bits.below(3) {
        0 => match members.iter_mut().find(|(n, _)| *n == name) {
            Some((_, old)) => *old = value,
            None => members.push((name, value)),
        },
        1 => members.retain(|(n, _)| *n != name),
        _ => members.insert(bits.below(members.len() + 1), (name, value)),
    }
}

/// The `execute` answer as the tree writes it, member for member.
fn execute_answer_tree(id: Option<&Json>, answer: &proto::ExecuteAnswer) -> String {
    let outputs = answer.outputs.iter().map(|output| {
        let values = match &output.values {
            proto::Values::Ints(v) => (
                "ints",
                Json::Array(v.iter().map(|&v| Json::Int(v)).collect()),
            ),
            proto::Values::Floats(v) => (
                "floats",
                Json::Array(v.iter().map(|&v| json::num(v)).collect()),
            ),
        };
        json::object([("buffer", Json::Str(output.buffer.clone())), values])
    });
    let members = vec![
        ("device_launches", json::uint(answer.device_launches)),
        ("host_launches", json::uint(answer.host_launches)),
        ("instructions", json::uint(answer.instructions)),
        ("op", Json::Str("execute".to_string())),
        ("outputs", Json::Array(outputs.collect())),
        ("total_us", json::num(answer.total_us)),
    ];
    proto::ok_response(id, members).to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Every valid request parses, and on any line — valid, spoiled
    /// anywhere (a member of the request, of a `buffers` or `read` entry,
    /// an item of an array, or the document itself, overwritten, dropped
    /// or repeated), or with bytes overwritten, inserted or removed — the
    /// one-pass reader answers what the tree answers. Half the lines are
    /// an `execute`, whose members have the most rules.
    #[test]
    fn the_decoder_answers_only_as_the_tree_does(
        which in 0usize..64,
        seed in i64::MIN..i64::MAX,
        edits in prop::collection::vec((0usize..3, 0usize..4096, 0u8..255), 0..4),
    ) {
        let mut bits = Bits(seed as u64);
        let requests = valid_requests();
        let request = &requests[if bits.below(2) == 0 { 2 } else { which % requests.len() }];
        let line = request.to_string();
        prop_assert!(proto::parse_request(&line).body.is_ok(), "valid line {}", line);
        agrees(&line)?;

        let (values, mut doc) = (values(), Doc::new(request));
        for _ in 0..1 + bits.below(4) {
            spoil(&mut doc, &mut bits, &values);
        }
        let mut text = String::new();
        doc.write(&mut text);
        agrees(&text)?;
        let mut bytes = text.into_bytes();
        for (kind, at, byte) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => { bytes.remove(at); }
                _ => bytes.insert(at, byte),
            }
            agrees(&String::from_utf8_lossy(&bytes))?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hot requests respelled — members in any order, whitespace between
    /// tokens, escapes where none are needed, an `id` of every JSON kind,
    /// whitespace only `str::trim` knows at the ends — parse as the tree
    /// parses them, and so do the same lines with a member repeated or
    /// trim-only whitespace between two tokens.
    #[test]
    fn respelled_hot_requests_decode_as_the_tree_parses_them(
        which in 0usize..64,
        seed in i64::MIN..i64::MAX,
    ) {
        let mut bits = Bits(seed as u64);
        let hot: Vec<Json> = valid_requests().into_iter().filter(is_hot).collect();
        let Json::Object(mut members) = hot[which % hot.len()].clone() else {
            unreachable!("requests are objects")
        };
        if bits.below(4) > 0 {
            members.insert("id".to_string(), bits.id());
        }
        let request = Json::Object(members);
        let trim = |bits: &mut Bits| -> String {
            (0..bits.below(3)).map(|_| bits.pick(&TRIMMED_ONLY)).collect()
        };
        let body = respell(&request, &mut bits);
        let line = format!("{}{}{body}{}{}\n", trim(&mut bits), bits.ws(), bits.ws(), trim(&mut bits));
        agrees(&line)?;
        prop_assert!(proto::parse_request(&line).body.is_ok(), "{}", line);

        // A member given twice: the last counts.
        let op = respell(request.get("op").expect("hot requests name their op"), &mut bits);
        let twice = body.replacen('{', &format!("{{\"op\":{op},"), 1);
        agrees(&twice)?;
        prop_assert!(proto::parse_request(&twice).body.is_ok(), "{}", twice);

        // Whitespace JSON does not allow, between two tokens.
        let commas: Vec<usize> = body.match_indices(',').map(|(at, _)| at).collect();
        let at = commas[bits.below(commas.len())];
        let spoiled = format!("{}{}{}", &body[..at], bits.pick(&TRIMMED_ONLY), &body[at..]);
        agrees(&spoiled)?;
        prop_assert!(proto::parse_request(&spoiled).body.is_err(), "{:?}", spoiled);
    }

    /// `execute` and `transform` answers written member by member are the
    /// bytes the tree writes, an infinity or a NaN included (`null` on
    /// both paths); the daemon's read-back refuses exactly the floats that
    /// have no JSON number, naming the first.
    #[test]
    fn direct_answers_are_the_trees_bytes(seed in i64::MIN..i64::MAX) {
        let mut bits = Bits(seed as u64);
        let id = (bits.below(3) > 0).then(|| bits.id());
        let counter = |bits: &mut Bits| bits.int().unsigned_abs().min(i64::MAX as u64);
        let outputs = (0..bits.below(4))
            .map(|_| {
                let values = if bits.below(2) == 0 {
                    proto::Values::Ints((0..bits.below(5)).map(|_| bits.int()).collect())
                } else {
                    proto::Values::Floats((0..bits.below(5)).map(|_| bits.any_float()).collect())
                };
                proto::Output { buffer: bits.string(), values }
            })
            .collect();
        let answer = proto::ExecuteAnswer {
            device_launches: counter(&mut bits),
            host_launches: counter(&mut bits),
            instructions: counter(&mut bits),
            outputs,
            total_us: bits.any_float(),
        };
        for output in &answer.outputs {
            if let proto::Values::Floats(values) = &output.values {
                let refused = proto::Values::floats(values.clone()).err().map(|(at, _)| at);
                prop_assert_eq!(refused, values.iter().position(|v| !v.is_finite()));
            }
        }
        let mut line = String::new();
        proto::write_execute_answer(&mut line, id.as_ref(), &answer);
        prop_assert_eq!(&line, &execute_answer_tree(id.as_ref(), &answer));

        let diagnostics: Vec<String> = (0..bits.below(3)).map(|_| bits.string()).collect();
        let source = bits.string() + "__global__ void k() {\n  \"x\";\n}\n";
        let tree = proto::ok_response(
            id.as_ref(),
            vec![
                ("diagnostics", Json::Array(diagnostics.iter().cloned().map(Json::Str).collect())),
                ("op", Json::Str("transform".to_string())),
                ("source", Json::Str(source.clone())),
            ],
        );
        line.clear();
        proto::write_transform_answer(&mut line, id.as_ref(), &diagnostics, &source);
        prop_assert_eq!(line, tree.to_string());
    }
}

/// One value of a valid hot request respelled into one its rule refuses:
/// the reader refuses the line as the tree does, with the same message.
#[test]
fn near_misses_are_refused_as_the_tree_refuses_them() {
    let requests = valid_requests();
    let execute = requests[2].to_string();
    let config = OptConfig::all().aggregation(AggConfig {
        granularity: AggGranularity::MultiBlock(8),
        agg_threshold: Some(4),
    });
    let compile = proto::source_request("compile", SOURCE, &config).to_string();
    let near_misses = [
        (&execute, r#""@d""#, r#""d""#),
        (&execute, r#""grid":2"#, r#""grid":2.0"#),
        (&execute, r#""block":32"#, r#""block":"32""#),
        (&execute, r#""kernel":"k""#, r#""kernel":null"#),
        (&execute, r#""words":8"#, r#""words":-8"#),
        (&execute, r#""words":8"#, r#""words":16777217"#),
        (&execute, r#""words":8"#, r#""words":8,"ints":[1]"#),
        (&execute, r#""words":8"#, r#""words":-8,"ints":[1]"#),
        (&execute, r#""ints":[1,2]"#, r#""ints":[1,2.5]"#),
        (&execute, r#""floats":[0.5]"#, r#""floats":[true]"#),
        (&execute, r#""len":8"#, r#""len":-1"#),
        (&execute, r#""buffer":"d","#, ""),
        (&execute, r#","name":"e""#, ""),
        (&execute, r#","source":"s""#, ""),
        (&compile, r#""coarsen":"#, r#""coarsen":-"#),
        (&compile, r#""agg":""#, r#""agg":"x"#),
        (&compile, r#""agg":"#, r#""ag":"#),
        (&compile, r#""source":"#, r#""source":0,"s":"#),
    ];
    for (line, from, to) in near_misses {
        assert!(line.contains(from), "`{from}` is not in {line}");
        let line = line.replacen(from, to, 1);
        let tree = oracle_parse_request(&line);
        assert!(tree.body.is_err(), "the tree takes {line}: {:?}", tree.body);
        assert_eq!(
            format!("{:?}", proto::parse_request(&line)),
            format!("{tree:?}"),
            "{line}"
        );
    }
}
