//! Property tests for the request path's own parsers: `read_line_limited`
//! (socket bytes → one bounded line) and `proto::parse_request` (line →
//! `Request`). Whatever arrives, neither panics; a line over the cap is
//! `TooLarge` with no more than the cap buffered; every refusal is a
//! message the server can answer as one `kind:"parse"` line; and an `id`
//! outlives a malformed body.

use dp_core::OptConfig;
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
