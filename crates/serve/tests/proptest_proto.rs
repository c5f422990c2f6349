//! Property tests for the request path's own parsers: `read_line_limited`
//! (socket bytes → one bounded line) and `proto::parse_request` (line →
//! `Request`). Whatever arrives, neither panics; a line over the cap is
//! `TooLarge` with no more than the cap buffered; every refusal is a
//! message the server can answer as one `kind:"parse"` line; and an `id`
//! outlives a malformed body.

use dp_core::{AggConfig, AggGranularity, OptConfig};
use dp_obs::json::{self, Json};
use dp_serve::proto::{self, LineRead, ParsedRequest};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, made a line the way the session does.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..255, 0..200)) {
        let mut reader = Cursor::new(bytes);
        while let LineRead::Line(line) = proto::read_line_limited(&mut reader, 64).unwrap() {
            assert_answerable(&proto::parse_request(&line))?;
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
        assert_answerable(&proto::parse_request(&String::from_utf8_lossy(&bytes)))?;
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
        let parsed = proto::parse_request(&Json::Object(members).to_string());
        prop_assert_eq!(parsed.id.as_ref(), Some(&id));
        assert_answerable(&parsed)?;
    }

    /// Nesting past the parser's cap — in the line itself or inside a
    /// member — is a refusal, never a deep recursion.
    #[test]
    fn deep_nesting_is_refused(depth in 129usize..200_000, inside in 0usize..2) {
        let deep = "[".repeat(depth);
        let line = if inside == 1 { format!(r#"{{"op":"stats","id":{deep}"#) } else { deep };
        let parsed = proto::parse_request(&line);
        prop_assert_eq!(parsed.id, None);
        prop_assert_eq!(
            parsed.body.unwrap_err(),
            "bad request JSON: nesting deeper than 128"
        );
    }

    /// `read_line_limited` hands back exactly the lines under the cap and
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
        for len in &lengths {
            let taken_before = reader.get_ref().position() as usize - reader.buffer().len();
            let read = proto::read_line_limited(&mut reader, cap).unwrap();
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
        prop_assert_eq!(proto::read_line_limited(&mut reader, cap).unwrap(), LineRead::Eof);
        prop_assert!(reader.fill_buf().unwrap().is_empty());
    }
}

// ----------------------------------------------------------------------
// The one-pass decoder and the direct answer writers against the tree
// ----------------------------------------------------------------------

/// Whether the one-pass decoder answered `line`; where it did, its request
/// must be the tree path's to the last bit (`{:?}` tells `-0.0` from `0.0`).
fn decoder_agrees(line: &str) -> Result<bool, TestCaseError> {
    let Some(decoded) = proto::decode_request(line) else {
        return Ok(false);
    };
    let tree = proto::parse_request_tree(line);
    prop_assert_eq!(
        format!("{decoded:?}"),
        format!("{tree:?}"),
        "line {:?}",
        line
    );
    Ok(true)
}

/// Whether the decoder reads this op at all.
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
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The decoder answers every valid hot request, and on any line —
    /// valid, spoiled, or with bytes overwritten, inserted or removed — it
    /// answers only what the tree answers.
    #[test]
    fn the_decoder_answers_only_as_the_tree_does(
        which in 0usize..64,
        spoils in prop::collection::vec((0usize..64, 0usize..64), 0..4),
        edits in prop::collection::vec((0usize..3, 0usize..4096, 0u8..255), 0..4),
    ) {
        let requests = valid_requests();
        let request = &requests[which % requests.len()];
        let line = request.to_string();
        prop_assert_eq!(decoder_agrees(&line)?, is_hot(request), "valid line {}", line);

        let Json::Object(mut members) = request.clone() else {
            unreachable!("requests are objects")
        };
        let spoilers = spoilers();
        for (member, spoiler) in spoils {
            let name = members.keys().nth(member % members.len()).cloned().expect("non-empty");
            match spoilers.get(spoiler % (spoilers.len() + 1)) {
                Some(value) => members.insert(name, value.clone()),
                None => members.remove(&name),
            };
            if members.is_empty() {
                break;
            }
        }
        let mut bytes = Json::Object(members).to_string().into_bytes();
        decoder_agrees(&String::from_utf8_lossy(&bytes))?;
        for (kind, at, byte) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => { bytes.remove(at); }
                _ => bytes.insert(at, byte),
            }
            decoder_agrees(&String::from_utf8_lossy(&bytes))?;
        }
    }

    /// Hot requests respelled — members in any order, whitespace between
    /// tokens, escapes where none are needed, an `id` of every JSON kind,
    /// whitespace only `str::trim` knows at the ends — decode as the tree
    /// parses them; the decoder leaves array and object ids, repeated
    /// members and trim-only whitespace between tokens to the tree.
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
        let id = (bits.below(4) > 0).then(|| bits.id());
        if let Some(id) = &id {
            members.insert("id".to_string(), id.clone());
        }
        let scalar_id = !matches!(id, Some(Json::Array(_) | Json::Object(_)));
        let request = Json::Object(members);
        let trim = |bits: &mut Bits| -> String {
            (0..bits.below(3)).map(|_| bits.pick(&TRIMMED_ONLY)).collect()
        };
        let body = respell(&request, &mut bits);
        let line = format!("{}{}{body}{}{}\n", trim(&mut bits), bits.ws(), bits.ws(), trim(&mut bits));
        prop_assert_eq!(decoder_agrees(&line)?, scalar_id, "line {:?}", line);
        prop_assert!(proto::parse_request(&line).body.is_ok(), "{}", line);

        // A member given twice: the tree keeps the last, the decoder
        // declines.
        let twice = body.replacen('{', &format!("{{\"op\":{},", respell(request.get("op").expect("hot requests name their op"), &mut bits)), 1);
        prop_assert!(!decoder_agrees(&twice)?, "repeated member decoded: {}", twice);

        // Whitespace JSON does not allow, between two tokens.
        let commas: Vec<usize> = body.match_indices(',').map(|(at, _)| at).collect();
        let at = commas[bits.below(commas.len())];
        let spoiled = format!("{}{}{}", &body[..at], bits.pick(&TRIMMED_ONLY), &body[at..]);
        prop_assert!(!decoder_agrees(&spoiled)?, "{:?}", spoiled);
    }

    /// `execute` and `transform` answers written member by member are the
    /// bytes the tree writes.
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
                    proto::Values::Floats((0..bits.below(5)).map(|_| bits.float()).collect())
                };
                proto::Output { buffer: bits.string(), values }
            })
            .collect();
        let answer = proto::ExecuteAnswer {
            device_launches: counter(&mut bits),
            host_launches: counter(&mut bits),
            instructions: counter(&mut bits),
            outputs,
            total_us: bits.float(),
        };
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
/// the tree refuses the line, so the decoder must not answer it.
#[test]
fn near_misses_are_left_to_the_tree() {
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
        let tree = proto::parse_request_tree(&line);
        assert!(tree.body.is_err(), "the tree takes {line}: {:?}", tree.body);
        assert!(proto::decode_request(&line).is_none(), "decoded {line}");
    }
}
