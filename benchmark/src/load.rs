//! Closed-loop load on a daemon: one connection with one tagged request in
//! flight, the next one sent only when the response comes back, so a slower
//! daemon receives less load. Latency is taken from just before the request
//! line is written to just after the response line with its id is read.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// When the load stops sending new requests.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this long; the request in flight is still awaited.
    After(Duration),
    /// When this many requests have been sent.
    Count(u64),
}

pub struct Load<'a> {
    pub addr: &'a str,
    pub stop: Stop,
    /// The request line (no newline) for sequence number `seq`, which is
    /// also its `id`. Sequence numbers start at `first_seq`.
    pub request: &'a dyn Fn(u64) -> String,
    pub first_seq: u64,
    /// Whether `response` is the right answer to request `seq`.
    pub check: &'a dyn Fn(u64, &str) -> Result<(), String>,
}

/// One answered request.
#[derive(Clone, Copy)]
pub struct Completion {
    /// The request's sequence number.
    pub seq: u64,
    /// Seconds from the start of the load to the response.
    pub at_s: f64,
    pub latency_us: f64,
}

#[derive(Default)]
pub struct LoadResult {
    /// In the order the requests were sent.
    pub completions: Vec<Completion>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
}

impl LoadResult {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }
}

/// The integer after `"id":` in a response line. Members are written in
/// key order, so `id` sits mid-line; quotes inside string members are
/// escaped (`\"id\":`), so the unescaped pattern occurs only as the member.
pub fn response_id(line: &str) -> Option<u64> {
    let rest = &line[line.find(r#""id":"#)? + 5..];
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    rest[..digits].parse().ok()
}

/// Runs the load to completion.
pub fn run(load: &Load<'_>) -> LoadResult {
    let mut result = LoadResult::default();
    if let Err(e) = drive(load, &mut result) {
        // The connection is gone, and with it the request in flight; one
        // that never came about counts as a failed request too.
        let answered = result.completions.len() as u64 + result.failed;
        result.attempted = result.attempted.max(answered + 1);
        result.fail(format!("connection: {e}"));
    }
    result
}

fn drive(load: &Load<'_>, result: &mut LoadResult) -> std::io::Result<()> {
    let started = Instant::now();
    let mut writer = TcpStream::connect(load.addr)?;
    writer.set_nodelay(true)?;
    writer.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut reader = BufReader::new(writer.try_clone()?);
    let mut response = String::new();
    for seq in load.first_seq.. {
        match load.stop {
            Stop::Count(n) if seq - load.first_seq >= n => break,
            Stop::After(limit) if started.elapsed() >= limit => break,
            _ => {}
        }
        let mut line = (load.request)(seq);
        line.push('\n');
        result.attempted += 1;
        let sent = Instant::now();
        writer.write_all(line.as_bytes())?;
        response.clear();
        if reader.read_line(&mut response)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let done = Instant::now();
        let checked = match response_id(&response) {
            Some(id) if id == seq => (load.check)(seq, &response),
            _ => Err(format!("the response is not this request's: {response}")),
        };
        match checked {
            Ok(()) => result.completions.push(Completion {
                seq,
                at_s: (done - started).as_secs_f64(),
                latency_us: (done - sent).as_secs_f64() * 1e6,
            }),
            Err(e) => result.fail(format!("request {seq}: {e}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_the_response_id() {
        let line = r#"{"device_launches":1,"id":4711,"ok":true,"outputs":[{"buffer":"d","ints":[0,1,2,3]}]}"#;
        assert_eq!(response_id(line), Some(4711));
        // A quoted "id": inside a string member is escaped on the wire.
        let tricky = r#"{"diagnostics":["say \"id\":9"],"id":12,"ok":true}"#;
        assert_eq!(response_id(tricky), Some(12));
        assert_eq!(response_id(r#"{"ok":true}"#), None);
        assert_eq!(response_id(r#"{"id":"abc","ok":true}"#), None);
    }

    /// A loop-back echo server that answers each line with the id it
    /// carried: the generator must count every request once and fail the
    /// ones whose check fails.
    #[test]
    fn closed_loop_counts_and_checks() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut out = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                let id = response_id(&line.unwrap()).unwrap();
                writeln!(out, r#"{{"id":{id},"ok":true}}"#).unwrap();
            }
        });
        let result = run(&Load {
            addr: &addr,
            stop: Stop::Count(100),
            request: &|seq| format!(r#"{{"id":{seq}}}"#),
            first_seq: 1000,
            check: &|seq, _| {
                if seq == 1050 {
                    Err("bad".into())
                } else {
                    Ok(())
                }
            },
        });
        server.join().unwrap();
        assert_eq!(result.attempted, 100);
        assert_eq!(result.failed, 1);
        assert_eq!(result.completions.len(), 99);
        assert_eq!(result.errors.len(), 1);
    }
}
