//! Property tests for the one parser that reads cache bytes we did not
//! write: `cache::check`, behind every `load`, `cache verify`, `cache-push`
//! and `cache-pull`, and `cache::receive`, which publishes what it accepts.
//! Neither may panic on anything, nor allocate by a number the input
//! carries; every refusal is one of eight reasons; whatever is accepted is
//! the entry `store` would have written for that key; a refused offer
//! leaves nothing under the live name; and every verdict is the one the
//! JSON tree gives (`tree_check` below, which reads a body with
//! `json::parse` and `summary_from_json`), also on bodies that are valid
//! JSON in another shape than the one `summary_json` writes.

use dp_sweep::cache::{self, StoreOutcome};
use dp_sweep::json::{self, Json};
use dp_sweep::key::{fnv1a, CACHE_FORMAT_VERSION};
use dp_sweep::CellSummary;
use proptest::prelude::*;

/// Every reason `check` may refuse with.
const REASONS: [&str; 8] = [
    "missing checksum footer",
    "malformed footer",
    "length mismatch",
    "checksum mismatch",
    "stale format version",
    "undecodable body",
    "schema mismatch",
    "key mismatch",
];

const MARK: &str = "\n#dpopt-cache v";

/// A stream of generated numbers, spent one per choice.
struct Picks(std::vec::IntoIter<usize>);

impl Picks {
    fn next(&mut self) -> usize {
        self.0.next().unwrap_or(0)
    }

    fn of<T: Clone>(&mut self, pool: &[T]) -> T {
        pool[self.next() % pool.len()].clone()
    }

    fn key(&mut self) -> u64 {
        let wide = (self.next() as u64) << 40 ^ (self.next() as u64) << 20 ^ self.next() as u64;
        self.of(&[wide, wide, wide, 0, 1, u64::MAX])
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

fn arb_picks() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..1_000_000, 96..97)
}

/// A summary with every field drawn, the floats from the classes the
/// writer treats apart (fractional, integral, `-0.0`, past `i64`).
fn summary(p: &mut Picks) -> CellSummary {
    let floats = [
        0.0,
        -0.0,
        1.0,
        0.1,
        1.0 / 3.0,
        61.137,
        7205.907,
        1e19,
        1e300,
    ];
    let ints = [0, 1, 467, 6511, 9_007_199_254_740_993, u64::MAX >> 1];
    CellSummary {
        label: String::new(),
        total_us: p.of(&floats),
        device_span_us: p.of(&floats),
        parent_us: p.of(&floats),
        child_us: p.of(&floats),
        launch_us: p.of(&floats),
        aggregation_us: p.of(&floats),
        disaggregation_us: p.of(&floats),
        warp_avg_total_us: p.of(&floats),
        device_launches: p.of(&ints),
        host_launches: p.of(&ints),
        origin_cycles_total: p.of(&ints),
        instructions: p.of(&ints),
        output_ints: (0..p.next() % 4)
            .map(|_| p.of(&[0, -1, 3, i64::MIN, i64::MAX]))
            .collect(),
        output_floats: (0..p.next() % 4).map(|_| p.of(&floats)).collect(),
        verified: true,
        from_cache: true,
    }
}

/// The footer as the format documents it — written out here, not borrowed
/// from the code under test.
fn seal(body: &str) -> String {
    format!(
        "{body}{MARK}{CACHE_FORMAT_VERSION} len={} fnv1a={:016x}\n",
        body.len(),
        fnv1a(body.as_bytes())
    )
}

fn body_of(key: u64, summary: &CellSummary) -> String {
    cache::summary_json(key, summary).to_string()
}

/// Bytes overwritten, removed or inserted.
fn byte_edits(p: &mut Picks, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + p.next() % 5 {
        let at = p.next() % (bytes.len() + 1);
        match p.next() % 3 {
            0 if at < bytes.len() => bytes[at] = p.next() as u8,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, p.next() as u8),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A footer with each field drawn from what a writer, a bit flip or a
/// hostile peer could put there; the first choice of each is the true one.
fn edited_footer(p: &mut Picks, body: &str) -> String {
    let len = body.len();
    let sum = fnv1a(body.as_bytes());
    let version = p.of(&[
        "2",
        "1",
        "0",
        "02",
        "+2",
        "4294967296",
        "99999999999999999999",
        "",
    ]);
    let len = p.of(&[
        len.to_string(),
        (len + 1).to_string(),
        format!("+{len}"),
        format!("0{len}"),
        "0".to_string(),
        "18446744073709551615".to_string(),
        "18446744073709551616".to_string(),
        "99999999999999999999".to_string(),
    ]);
    let sum = p.of(&[
        format!("{sum:016x}"),
        format!("{sum:016X}"),
        format!("{sum:x}"),
        format!("0{sum:016x}"),
        format!("{:016x}", sum ^ 1),
        "zz".to_string(),
    ]);
    let gap = p.of(&[" ", " ", " ", "  ", "\t"]);
    let tail = p.of(&["\n", "\n", "\n", "", "\n\n", " x\n", MARK]);
    format!("{body}{MARK}{version}{gap}len={len}{gap}fnv1a={sum}{tail}")
}

/// A body changed as JSON — a member dropped, mistyped, added, the
/// version or the key rewritten, a value nested past the parser's cap —
/// or cut short, for the offer to re-seal under a true checksum.
fn edited_body(p: &mut Picks, key: u64, summary: &CellSummary) -> String {
    let Json::Object(mut members) = cache::summary_json(key, summary) else {
        unreachable!("a summary is an object");
    };
    let names: Vec<String> = members.keys().cloned().collect();
    let name = p.of(&names);
    let values = [
        Json::Null,
        Json::Int(-1),
        Json::Float(0.5),
        Json::Str("x".to_string()),
        Json::Array(vec![Json::Null]),
    ];
    match p.next() % 7 {
        0 => drop(members.remove(&name)),
        1 => drop(members.insert(name, p.of(&values))),
        2 => drop(members.insert("extra".to_string(), p.of(&values))),
        3 => drop(members.insert("version".to_string(), Json::Int(p.of(&[0, 1, 3])))),
        4 => drop(members.insert("key".to_string(), Json::Str(format!("{:016x}", !key)))),
        5 => {
            let deep = (0..200).fold(Json::Int(0), |inner, _| Json::Array(vec![inner]));
            drop(members.insert(name, deep));
        }
        _ => {
            let body = Json::Object(members).to_string();
            return body[..p.next() % body.len()].to_string();
        }
    }
    Json::Object(members).to_string()
}

/// A body that is valid JSON but not in the shape `summary_json` writes,
/// for the offer to re-seal under a true checksum: members reordered,
/// whitespace between tokens, an escaped member name, a member repeated
/// with a bad value first or last, a number spelled another way, an unknown
/// member holding a number past `i64`, something after the closing brace.
fn respelled_body(p: &mut Picks, key: u64, summary: &CellSummary) -> String {
    let Json::Object(members) = cache::summary_json(key, summary) else {
        unreachable!("a summary is an object");
    };
    let mut members: Vec<(String, String)> = members
        .into_iter()
        .map(|(name, value)| (Json::Str(name).to_string(), value.to_string()))
        .collect();
    let at = p.next() % members.len();
    let mut after = "";
    match p.next() % 8 {
        0 => {
            let by = 1 + p.next() % (members.len() - 1);
            members.rotate_left(by);
        }
        1 => {
            let ws = p.of(&[" ", "\n", "\t", "\r\n  "]);
            let (name, value) = &mut members[at];
            match p.next() % 3 {
                0 => name.insert_str(0, ws),
                1 => name.push_str(ws),
                _ => value.push_str(ws),
            }
        }
        2 => {
            let name = &mut members[at].0;
            let first = name.as_bytes()[1];
            name.replace_range(1..2, &format!("\\u{first:04x}"));
        }
        3 | 4 => {
            let name = members[at].0.clone();
            let bad = p
                .of(&["null", "\"x\"", "-1", "0.5", "[null]", "{}"])
                .to_string();
            let bad_first = p.of(&[true, false]);
            members.insert(if bad_first { 0 } else { members.len() }, (name, bad));
        }
        5 => {
            let value = &mut members[at].1;
            match json::parse(value) {
                Ok(Json::Int(n)) => *value = p.of(&[format!("{n}.0"), format!("{n}e0")]),
                Ok(Json::Float(f)) => *value = p.of(&[format!("{f:.0}"), format!("{f:e}")]),
                _ => {}
            }
        }
        6 => {
            let big = p.of(&["99999999999999999999", "-9223372036854775809", "1e400"]);
            members.insert(at, ("\"zz\"".to_string(), big.to_string()));
        }
        _ => after = p.of(&[" ", "\n", "x", "}", ",", "0", "{}"]),
    }
    let mut body = String::from("{");
    for (i, (name, value)) in members.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("{name}:{value}"));
    }
    body.push('}');
    body + after
}

/// `check` as the JSON tree decides it: the footer as the format documents
/// it, then `json::parse` → `summary_from_json` → the named key compared.
/// `Ok` holds the summary as `summary_json` writes it, which tells every
/// field's bits apart.
fn tree_check(text: &str, key: u64) -> Result<String, &'static str> {
    let stale = "stale format version";
    let Some(idx) = text.rfind(MARK) else {
        return match json::parse(text.trim()) {
            Ok(v) if v.get("version").and_then(Json::as_u64).is_some() => Err(stale),
            _ => Err("missing checksum footer"),
        };
    };
    let (body, tail) = text.split_at(idx);
    let mut fields = tail[MARK.len()..].split_whitespace();
    let version = fields.next().and_then(|v| v.parse::<u32>().ok());
    let len = fields
        .next()
        .and_then(|v| v.strip_prefix("len="))
        .and_then(|v| v.parse::<usize>().ok());
    let sum = fields
        .next()
        .and_then(|v| v.strip_prefix("fnv1a="))
        .and_then(|v| u64::from_str_radix(v, 16).ok());
    let (Some(version), Some(len), Some(sum)) = (version, len, sum) else {
        return Err("malformed footer");
    };
    if tail != format!("{MARK}{version} len={len} fnv1a={sum:016x}\n") {
        return Err("malformed footer");
    }
    if len != body.len() {
        return Err("length mismatch");
    }
    if sum != fnv1a(body.as_bytes()) {
        return Err("checksum mismatch");
    }
    if version != CACHE_FORMAT_VERSION {
        return Err(stale);
    }
    let v = json::parse(body).map_err(|_| "undecodable body")?;
    let Some(summary) = summary_from_json(&v) else {
        return match v.get("version").and_then(Json::as_u64) {
            Some(n) if n != u64::from(CACHE_FORMAT_VERSION) => Err(stale),
            _ => Err("schema mismatch"),
        };
    };
    if v.get("key").and_then(Json::as_str) != Some(format!("{key:016x}").as_str()) {
        return Err("key mismatch");
    }
    Ok(body_of(key, &summary))
}

/// Reads a JSON tree of the form `summary_json` writes back into a
/// summary (label empty, `verified`/`from_cache` set as a cache hit would
/// be); `None` on a schema or version mismatch.
fn summary_from_json(v: &Json) -> Option<CellSummary> {
    if v.get("version")?.as_u64()? != CACHE_FORMAT_VERSION as u64 {
        return None;
    }
    let f = |name: &str| v.get(name)?.as_f64();
    let u = |name: &str| v.get(name)?.as_u64();
    Some(CellSummary {
        label: String::new(),
        total_us: f("total_us")?,
        device_span_us: f("device_span_us")?,
        parent_us: f("parent_us")?,
        child_us: f("child_us")?,
        launch_us: f("launch_us")?,
        aggregation_us: f("aggregation_us")?,
        disaggregation_us: f("disaggregation_us")?,
        warp_avg_total_us: f("warp_avg_total_us")?,
        device_launches: u("device_launches")?,
        host_launches: u("host_launches")?,
        origin_cycles_total: u("origin_cycles_total")?,
        instructions: u("instructions")?,
        output_ints: v
            .get("output_ints")?
            .as_array()?
            .iter()
            .map(|x| x.as_i64())
            .collect::<Option<Vec<i64>>>()?,
        output_floats: v
            .get("output_floats")?
            .as_array()?
            .iter()
            .map(|x| x.as_f64())
            .collect::<Option<Vec<f64>>>()?,
        verified: true,
        from_cache: true,
    })
}

/// One thing a disk or a peer might hand over as the entry for a key.
struct Offer {
    text: String,
    key: u64,
    /// Whether the body is still the bytes `summary_json` writes (only the
    /// edited-and-re-sealed bodies are not).
    canonical_body: bool,
}

fn offer(p: &mut Picks) -> Offer {
    let key = p.key();
    let summary = summary(p);
    let body = body_of(key, &summary);
    let entry = seal(&body);
    let mut canonical_body = true;
    let text = match p.next() % 8 {
        0 => {
            let n = p.next() % 64;
            String::from_utf8_lossy(&p.bytes(n)).into_owned()
        }
        1 => {
            let (n, m) = (p.next() % 32, p.next() % 32);
            let mut bytes = p.bytes(n);
            bytes.extend_from_slice(MARK.as_bytes());
            bytes.extend(p.bytes(m));
            String::from_utf8_lossy(&bytes).into_owned()
        }
        2 => byte_edits(p, &entry),
        3 => entry[..p.next() % entry.len()].to_string(),
        4 => edited_footer(p, &body),
        5 => {
            canonical_body = false;
            seal(&edited_body(p, key, &summary))
        }
        6 => {
            canonical_body = false;
            seal(&respelled_body(p, key, &summary))
        }
        _ => entry,
    };
    // The same key, or — one time in three — another.
    let key = p.of(&[key, key, !key]);
    Offer {
        text,
        key,
        canonical_body,
    }
}

/// `check`'s verdict on an offer, held to the properties above: `None` for
/// an acceptance, the reason for a refusal.
fn verdict(offer: &Offer) -> Result<Option<&'static str>, TestCaseError> {
    let Offer { text, key, .. } = offer;
    prop_assert_eq!(
        cache::check(text, *key).map(|s| body_of(*key, &s)),
        tree_check(text, *key),
        "check and the tree disagree on {:?}",
        text
    );
    let summary = match cache::check(text, *key) {
        Ok(summary) => summary,
        Err(reason) => {
            prop_assert!(REASONS.contains(&reason), "unknown reason `{reason}`");
            return Ok(Some(reason));
        }
    };
    // An accepted entry ends in exactly the footer its body seals to, its
    // body names the key, and what it decodes to seals back to itself.
    let body = &text[..text.rfind(MARK).expect("an accepted entry has a footer")];
    prop_assert_eq!(&seal(body), text);
    let parsed = json::parse(body).expect("an accepted body parses");
    let named = parsed.get("key").and_then(Json::as_str).map(str::to_string);
    prop_assert_eq!(named, Some(format!("{key:016x}")));
    let resealed = seal(&body_of(*key, &summary));
    if offer.canonical_body {
        prop_assert_eq!(&resealed, text);
    }
    let again = cache::check(&resealed, *key);
    prop_assert_eq!(
        again.map(|s| body_of(*key, &s)),
        Ok(body_of(*key, &summary))
    );
    Ok(None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Arbitrary bytes, mutated, truncated, footer-edited and re-sealed
    /// entries, under their key or another: a known reason, or the entry.
    #[test]
    fn every_offer_is_refused_with_a_reason_or_is_the_entry(picks in arb_picks()) {
        verdict(&offer(&mut Picks(picks.into_iter())))?;
    }

    /// A valid entry answers its own key and no other.
    #[test]
    fn a_valid_entry_answers_only_its_key(picks in arb_picks()) {
        let mut p = Picks(picks.into_iter());
        let (key, other) = (p.key(), p.key());
        let summary = summary(&mut p);
        let entry = seal(&body_of(key, &summary));
        let accepted = cache::check(&entry, key).map(|s| body_of(key, &s));
        prop_assert_eq!(accepted, Ok(body_of(key, &summary)));
        if other != key {
            prop_assert_eq!(cache::check(&entry, other).err(), Some("key mismatch"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The same offers through `receive`: an accepted one is published
    /// verbatim, a refused one is quarantined for the same reason and
    /// leaves nothing under the live name.
    #[test]
    fn receive_publishes_exactly_what_check_accepts(picks in arb_picks()) {
        let dir = std::env::temp_dir().join(format!("dp-sweep-prop-recv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let offer = offer(&mut Picks(picks.into_iter()));
        let live = dir.join(format!("{:016x}.json", offer.key));
        let aside = dir.join(format!("{:016x}.corrupt", offer.key));
        match verdict(&offer)? {
            None => {
                prop_assert_eq!(
                    cache::receive(&dir, offer.key, &offer.text),
                    Ok(StoreOutcome::Stored)
                );
                prop_assert_eq!(std::fs::read_to_string(&live).ok(), Some(offer.text));
                prop_assert!(!aside.exists());
            }
            Some(reason) => {
                prop_assert_eq!(cache::receive(&dir, offer.key, &offer.text), Err(reason));
                prop_assert!(!live.exists(), "a refused offer under the live name");
                prop_assert_eq!(std::fs::read_to_string(&aside).ok(), Some(offer.text));
            }
        }
        prop_assert_eq!(std::fs::read_dir(&dir).expect("dir").count(), 1, "tmp leftover");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A length or version of up to twenty digits is a number to compare, never
/// a size to allocate: one that fits is a mismatch, one that does not is a
/// malformed footer.
#[test]
fn huge_footer_numbers_are_compared_not_allocated() {
    let body = "{}";
    let sum = fnv1a(body.as_bytes());
    let with =
        |version: &str, len: &str| format!("{body}{MARK}{version} len={len} fnv1a={sum:016x}\n");
    for (version, len, reason) in [
        ("2", "18446744073709551615", "length mismatch"),
        ("2", "18446744073709551616", "malformed footer"),
        ("2", "99999999999999999999", "malformed footer"),
        ("4294967295", "2", "stale format version"),
        ("4294967296", "2", "malformed footer"),
        ("99999999999999999999", "2", "malformed footer"),
    ] {
        assert_eq!(
            cache::check(&with(version, len), 7).err(),
            Some(reason),
            "v{version} len={len}"
        );
    }
}

/// A member `check` does not know is read through to the nesting cap:
/// 127 levels inside the body's own object are a body, 128 are not.
#[test]
fn an_unknown_member_is_read_to_the_nesting_cap() {
    let key = 7;
    let body = body_of(key, &summary(&mut Picks(Vec::new().into_iter())));
    for (depth, verdict) in [(127, Ok(body.clone())), (128, Err("undecodable body"))] {
        let deep = "[".repeat(depth) + &"]".repeat(depth);
        let entry = seal(&body.replacen('{', &format!("{{\"zz\":{deep},"), 1));
        assert_eq!(tree_check(&entry, key), verdict, "depth {depth}");
        assert_eq!(
            cache::check(&entry, key).map(|s| body_of(key, &s)),
            verdict,
            "depth {depth}"
        );
    }
}
