//! The client side: one connection, NDJSON round-trips, connect/read
//! timeouts with deterministic retry backoff, and the helpers behind
//! `dpopt --remote` (remote transform; remote sweeps are `dp_serve::shard`'s).
//!
//! Two tiers: [`Client`] is one raw connection — connect (optionally with
//! [`ClientOptions`] timeouts and a bounded, seeded-jitter retry loop),
//! then strictly in-order round-trips. [`ResilientClient`] wraps it for
//! the `--remote` helpers: a transport failure (connection refused, torn
//! response, mid-request disconnect) reconnects and **re-sends** the
//! request — sound because every non-`stats` op is a pure function of the
//! request bytes (the server's determinism contract), so a retry cannot
//! observe a different answer. Server-reported errors (`ok:false`) are
//! never retried. Backoff is deterministic: exponential steps plus jitter
//! drawn from a seeded [`rand::rngs::SmallRng`], so tests replay exactly.

use crate::proto::{self, Endpoint, Stream};
use dp_core::OptConfig;
use dp_obs::json::Json;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::BufReader;
use std::time::Duration;

/// Connection and retry policy for [`Client::connect_with`] and
/// [`ResilientClient`].
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// TCP connect timeout in milliseconds (`0` = the OS default). Unix
    /// sockets connect without a timeout (refusal is immediate).
    pub connect_timeout_ms: u64,
    /// Socket read timeout in milliseconds (`0` = block forever).
    pub read_timeout_ms: u64,
    /// Retries after the first failed attempt (so `retries + 1` attempts
    /// total).
    pub retries: u32,
    /// First backoff step in milliseconds; step `k` waits
    /// `base * 2^k + jitter(0..base)`.
    pub backoff_base_ms: u64,
    /// Seed for the backoff jitter — fixed, so schedules are reproducible.
    pub backoff_seed: u64,
    /// Token for token-protected servers: sent as a `hello` op right
    /// after every (re)connect. Defaults from `DPOPT_SERVE_TOKEN`.
    pub auth_token: Option<String>,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            connect_timeout_ms: 5_000,
            read_timeout_ms: 0,
            retries: 2,
            backoff_base_ms: 25,
            backoff_seed: 0xD90_513,
            auth_token: std::env::var("DPOPT_SERVE_TOKEN").ok(),
        }
    }
}

/// The deterministic wait-before-retry schedule for `opts`: one entry per
/// retry, exponential in the base with seeded jitter. Pure — the same
/// options always yield the same schedule.
pub(crate) fn backoff_schedule(opts: &ClientOptions) -> Vec<Duration> {
    let mut rng = SmallRng::seed_from_u64(opts.backoff_seed);
    (0..opts.retries)
        .map(|k| {
            let step = opts.backoff_base_ms.saturating_mul(1u64 << k.min(16));
            let jitter = if opts.backoff_base_ms > 0 {
                rng.gen_range(0..opts.backoff_base_ms)
            } else {
                0
            };
            Duration::from_millis(step.saturating_add(jitter))
        })
        .collect()
}

/// One connection attempt, honoring the connect timeout.
fn connect_once(endpoint: &Endpoint, opts: &ClientOptions) -> std::io::Result<Stream> {
    let stream = match endpoint {
        Endpoint::Tcp(addr) if opts.connect_timeout_ms > 0 => {
            use std::net::ToSocketAddrs;
            let timeout = Duration::from_millis(opts.connect_timeout_ms);
            let mut last: Option<std::io::Error> = None;
            let mut connected = None;
            for sock in addr.to_socket_addrs()? {
                match std::net::TcpStream::connect_timeout(&sock, timeout) {
                    Ok(s) => {
                        s.set_nodelay(true)?;
                        connected = Some(Stream::Tcp(s));
                        break;
                    }
                    Err(e) => last = Some(e),
                }
            }
            match connected {
                Some(s) => s,
                None => {
                    return Err(last.unwrap_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            format!("`{addr}` resolved to no addresses"),
                        )
                    }))
                }
            }
        }
        _ => endpoint.connect()?,
    };
    stream.set_read_timeout(
        (opts.read_timeout_ms > 0).then(|| Duration::from_millis(opts.read_timeout_ms)),
    )?;
    Ok(stream)
}

/// How a request failed: transport errors are retryable (the server never
/// saw or never answered the request — or the answer was torn), server
/// errors are authoritative.
#[derive(Debug)]
pub enum RequestError {
    /// The connection failed mid-request; safe to retry against this
    /// server (non-`stats` ops are deterministic).
    Transport(String),
    /// The server answered `ok:false` with this message.
    Server(String),
}

impl RequestError {
    /// The failure message, whichever side produced it.
    pub fn message(&self) -> &str {
        match self {
            RequestError::Transport(m) | RequestError::Server(m) => m,
        }
    }
}

/// A connected client. Requests and responses pair up strictly in order
/// (this client never pipelines; the server answers id-less requests
/// sequentially).
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl Client {
    /// Connects to a server.
    pub fn connect(endpoint: &Endpoint) -> std::io::Result<Client> {
        let stream = endpoint.connect()?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Connects with timeouts and the bounded retry/backoff loop of
    /// `opts` — rides out a server that is still binding or briefly
    /// refusing.
    pub fn connect_with(endpoint: &Endpoint, opts: &ClientOptions) -> std::io::Result<Client> {
        let schedule = backoff_schedule(opts);
        let mut attempt = 0usize;
        loop {
            match connect_once(endpoint, opts) {
                Ok(stream) => {
                    return Ok(Client {
                        reader: BufReader::new(stream.try_clone()?),
                        writer: stream,
                    })
                }
                Err(e) if attempt < schedule.len() => {
                    std::thread::sleep(schedule[attempt]);
                    attempt += 1;
                    let _ = e;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one raw request line and returns the raw response line
    /// (trailing newline included). `None` if the server closed first.
    pub fn roundtrip_line(&mut self, line: &str) -> std::io::Result<Option<String>> {
        self.writer.write_line_raw(line)?;
        proto::read_line(&mut self.reader)
    }

    /// The raw write half — for callers that pipeline several request
    /// lines before reading any response (the strict request-response
    /// methods above never do).
    pub fn writer_mut(&mut self) -> &mut Stream {
        &mut self.writer
    }

    /// Reads one raw response line without sending anything — the read
    /// half of a pipelined exchange via [`Client::writer_mut`]. `None` if
    /// the server closed.
    pub fn read_response_line(&mut self) -> std::io::Result<Option<String>> {
        proto::read_line(&mut self.reader)
    }

    /// Authenticates against a token-protected server with the `hello`
    /// op. A `kind:"auth"` rejection is authoritative (the server closes
    /// the session); transport failures are retryable as usual.
    pub fn authenticate(&mut self, token: &str) -> Result<(), RequestError> {
        self.try_request(&proto::hello_request(token)).map(|_| ())
    }

    /// Sends a request value, returning the parsed response. An `ok:false`
    /// response or a transport failure is an `Err` with the message.
    pub fn request(&mut self, request: &Json) -> Result<Json, String> {
        self.try_request(request)
            .map_err(|e| e.message().to_string())
    }

    /// Like [`Client::request`], but keeps transport failures (retryable)
    /// distinct from server-reported errors (authoritative). A response
    /// that does not parse as JSON counts as transport: it is a torn
    /// write, not an answer.
    pub(crate) fn try_request(&mut self, request: &Json) -> Result<Json, RequestError> {
        proto::write_line(&mut self.writer, request)
            .map_err(|e| RequestError::Transport(format!("send: {e}")))?;
        let line = proto::read_line(&mut self.reader)
            .map_err(|e| RequestError::Transport(format!("receive: {e}")))?
            .ok_or_else(|| RequestError::Transport("server closed the connection".to_string()))?;
        let response = dp_obs::json::parse(line.trim())
            .map_err(|e| RequestError::Transport(format!("torn response: {e}")))?;
        if response.get("ok") == Some(&Json::Bool(true)) {
            Ok(response)
        } else {
            Err(RequestError::Server(
                response
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown server error")
                    .to_string(),
            ))
        }
    }
}

/// A client that survives transport faults: on a connect or mid-request
/// transport failure it reconnects (fresh connection, same options) and
/// re-sends, up to `opts.retries` times with the deterministic
/// `backoff_schedule`. Only sound for the deterministic ops — which is
/// every op the `--remote` helpers send.
pub struct ResilientClient {
    endpoint: Endpoint,
    opts: ClientOptions,
    client: Option<Client>,
}

impl ResilientClient {
    /// A resilient client for `endpoint`. No connection is made until the
    /// first request.
    pub fn new(endpoint: &Endpoint, opts: ClientOptions) -> ResilientClient {
        ResilientClient {
            endpoint: endpoint.clone(),
            opts,
            client: None,
        }
    }

    /// Sends a request, reconnecting and re-sending on transport failure.
    /// Returns the server's error message for `ok:false` responses
    /// (never retried) or the last transport error once retries are spent.
    pub fn request(&mut self, request: &Json) -> Result<Json, String> {
        let schedule = backoff_schedule(&self.opts);
        let mut attempt = 0usize;
        loop {
            let outcome = match self.connected() {
                Ok(client) => client.try_request(request),
                Err(e) => Err(e),
            };
            match outcome {
                Ok(response) => return Ok(response),
                Err(RequestError::Server(message)) => return Err(message),
                Err(RequestError::Transport(message)) => {
                    // The connection is poisoned (unanswered or torn
                    // request in flight): drop it and start fresh.
                    self.client = None;
                    if attempt >= schedule.len() {
                        return Err(message);
                    }
                    std::thread::sleep(schedule[attempt]);
                    attempt += 1;
                }
            }
        }
    }

    /// The live session, connecting (and authenticating, when
    /// `opts.auth_token` is set) first if needed — for callers that
    /// pipeline raw lines through [`Client::writer_mut`] /
    /// [`Client::read_response_line`] instead of strict round-trips (the
    /// fleet scheduler, [`crate::shard`]). Such callers own their own retry
    /// loop: on a transport failure they call [`ResilientClient::reset`]
    /// and re-send everything still unacknowledged.
    pub(crate) fn session(&mut self) -> Result<&mut Client, RequestError> {
        self.connected()
    }

    /// Drops the current connection (poisoned: unanswered or torn
    /// requests in flight), so the next [`ResilientClient::session`] or
    /// [`ResilientClient::request`] reconnects — and re-authenticates —
    /// from scratch.
    pub(crate) fn reset(&mut self) {
        self.client = None;
    }

    fn connected(&mut self) -> Result<&mut Client, RequestError> {
        if self.client.is_none() {
            // Single attempt here: the request loop owns the retries.
            let single = ClientOptions {
                retries: 0,
                ..self.opts.clone()
            };
            let transport = |e: std::io::Error| {
                RequestError::Transport(format!("connect {}: {e}", self.endpoint))
            };
            let stream = connect_once(&self.endpoint, &single).map_err(transport)?;
            let mut client = Client {
                reader: BufReader::new(stream.try_clone().map_err(transport)?),
                writer: stream,
            };
            // A rejected token comes back as `RequestError::Server`, so
            // the request loop gives up instead of retrying a credential
            // that cannot start working.
            if let Some(token) = self.opts.auth_token.clone() {
                client.authenticate(&token)?;
            }
            self.client = Some(client);
        }
        Ok(self.client.as_mut().expect("client just connected"))
    }
}

impl Stream {
    fn write_line_raw(&mut self, line: &str) -> std::io::Result<()> {
        use std::io::Write;
        // One buffer, one write: the line and its newline must leave in
        // the same segment (split writes invite 40ms Nagle stalls).
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line.trim_end());
        framed.push('\n');
        self.write_all(framed.as_bytes())?;
        self.flush()
    }
}

/// Runs a `transform` remotely, returning the transformed source and the
/// pass diagnostics. Rides out transport faults via [`ResilientClient`].
pub fn remote_transform(
    endpoint: &Endpoint,
    source: &str,
    config: &OptConfig,
) -> Result<(String, Vec<String>), String> {
    let mut client = ResilientClient::new(endpoint, ClientOptions::default());
    let response = client.request(&proto::source_request("transform", source, config))?;
    let transformed = response
        .get("source")
        .and_then(Json::as_str)
        .ok_or("response missing `source`")?
        .to_string();
    let diagnostics = response
        .get("diagnostics")
        .and_then(Json::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    Ok((transformed, diagnostics))
}

/// Forwards raw NDJSON request lines and hands each response line to
/// `sink` — the one entry point behind `dpopt client FILE` and the CI
/// smoke scripts. With a token (`dpopt client --token`), the
/// `hello` handshake happens before the first line is forwarded and its
/// response never reaches `sink`, so forwarded output is unchanged by
/// authentication.
pub fn forward_lines_auth(
    endpoint: &Endpoint,
    token: Option<&str>,
    lines: impl Iterator<Item = String>,
    mut sink: impl FnMut(&str),
) -> Result<(), String> {
    let mut client = Client::connect(endpoint).map_err(|e| format!("connect {endpoint}: {e}"))?;
    if let Some(token) = token {
        client
            .authenticate(token)
            .map_err(|e| format!("authenticate: {}", e.message()))?;
    }
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let response = client
            .roundtrip_line(&line)
            .map_err(|e| format!("round-trip: {e}"))?
            .ok_or("server closed the connection")?;
        sink(response.trim_end());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let opts = ClientOptions {
            retries: 4,
            backoff_base_ms: 25,
            ..ClientOptions::default()
        };
        let a = backoff_schedule(&opts);
        let b = backoff_schedule(&opts);
        assert_eq!(a, b, "same options, same schedule");
        assert_eq!(a.len(), 4, "one wait per retry");
        for (k, wait) in a.iter().enumerate() {
            let step = 25u64 << k;
            let ms = wait.as_millis() as u64;
            assert!(
                (step..step + 25).contains(&ms),
                "step {k} = {ms}ms outside [{step}, {})",
                step + 25
            );
        }
    }

    #[test]
    fn backoff_schedule_respects_zero_retries_and_zero_base() {
        assert!(backoff_schedule(&ClientOptions {
            retries: 0,
            ..ClientOptions::default()
        })
        .is_empty());
        // A zero base means "retry immediately" and must not panic on the
        // empty jitter range.
        let waits = backoff_schedule(&ClientOptions {
            retries: 3,
            backoff_base_ms: 0,
            ..ClientOptions::default()
        });
        assert!(waits.iter().all(|w| w.as_millis() == 0));
    }

    #[test]
    fn different_seeds_jitter_differently() {
        let base = ClientOptions {
            retries: 8,
            ..ClientOptions::default()
        };
        let a = backoff_schedule(&base);
        let b = backoff_schedule(&ClientOptions {
            backoff_seed: base.backoff_seed + 1,
            ..base
        });
        assert_ne!(a, b, "seed must drive the jitter");
    }
}
