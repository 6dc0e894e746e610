//! A small blocking client for the serve protocol, with the retry
//! discipline an overload-safe server expects of its callers:
//! `overloaded` answers are retried a bounded number of times with
//! exponential backoff plus deterministic jitter (decorrelated clients
//! must not re-converge into synchronized retry waves), honoring the
//! server's `retry_after_ms` hint as the floor.

use crate::proto::{self, QueryMode, Reply};
use crate::telemetry::StatsFrame;
use coloc_ml::rng::{derive_seed, splitmix64};
use coloc_model::{ColocError, Scenario};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How a client retries `overloaded` responses.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Attempts beyond the first (0 = fail fast).
    pub retries: u32,
    /// First backoff; doubles per attempt.
    pub base_backoff_ms: u64,
    /// Backoff ceiling.
    pub max_backoff_ms: u64,
    /// Seed for the jitter stream (client identity).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            retries: 4,
            base_backoff_ms: 25,
            max_backoff_ms: 1_000,
            jitter_seed: 1,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (0-based), honoring the server's
    /// hint as a floor: `max(hint, base·2^attempt)` plus up to 50%
    /// deterministic jitter, capped at `max_backoff_ms`.
    pub fn backoff_ms(&self, attempt: u32, server_hint_ms: Option<u64>) -> u64 {
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.min(16))
            .max(server_hint_ms.unwrap_or(0));
        let jitter_range = exp / 2;
        let jitter = if jitter_range == 0 {
            0
        } else {
            splitmix64(derive_seed(self.jitter_seed, attempt as u64)) % (jitter_range + 1)
        };
        (exp + jitter).min(self.max_backoff_ms)
    }
}

/// One connection to a running server.
pub struct QueryClient {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl QueryClient {
    /// Connect over TCP, e.g. `127.0.0.1:7105`.
    pub fn connect_tcp(addr: &str) -> Result<QueryClient, ColocError> {
        let conn = TcpStream::connect(addr)
            .map_err(|e| ColocError::Machine(format!("connect {addr}: {e}")))?;
        // Request/response over small frames: Nagle + delayed ACK would
        // add tens of milliseconds to every round trip.
        conn.set_nodelay(true)
            .map_err(|e| ColocError::Machine(format!("nodelay: {e}")))?;
        conn.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| ColocError::Machine(format!("read timeout: {e}")))?;
        let writer = conn
            .try_clone()
            .map_err(|e| ColocError::Machine(format!("clone: {e}")))?;
        Ok(QueryClient {
            reader: BufReader::new(Box::new(conn)),
            writer: Box::new(writer),
        })
    }

    /// Connect over a Unix domain socket (Unix targets only).
    #[cfg(unix)]
    pub fn connect_unix(path: &std::path::Path) -> Result<QueryClient, ColocError> {
        let conn = std::os::unix::net::UnixStream::connect(path)
            .map_err(|e| ColocError::Machine(format!("connect {}: {e}", path.display())))?;
        conn.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| ColocError::Machine(format!("read timeout: {e}")))?;
        let writer = conn
            .try_clone()
            .map_err(|e| ColocError::Machine(format!("clone: {e}")))?;
        Ok(QueryClient {
            reader: BufReader::new(Box::new(conn)),
            writer: Box::new(writer),
        })
    }

    /// Send one raw request line and read one reply line. The line and
    /// its newline go out in one write, so in one segment.
    pub fn round_trip(&mut self, line: &str) -> Result<Reply, ColocError> {
        let mut frame = String::with_capacity(line.len() + 1);
        frame.push_str(line);
        frame.push('\n');
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| ColocError::Machine(format!("send: {e}")))?;
        self.writer
            .flush()
            .map_err(|e| ColocError::Machine(format!("flush: {e}")))?;
        let mut answer = String::new();
        let n = self
            .reader
            .read_line(&mut answer)
            .map_err(|e| ColocError::Machine(format!("recv: {e}")))?;
        if n == 0 {
            return Err(ColocError::Machine("server closed the connection".into()));
        }
        proto::parse_reply(answer.trim()).map_err(ColocError::Machine)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ColocError> {
        match self.round_trip(r#"{"op":"ping"}"#)? {
            Reply::Pong => Ok(()),
            other => Err(ColocError::Machine(format!("expected pong, got {other:?}"))),
        }
    }

    /// Fetch the server's current stats frame.
    pub fn stats(&mut self) -> Result<StatsFrame, ColocError> {
        match self.round_trip(r#"{"op":"stats"}"#)? {
            Reply::Stats(frame) => Ok(*frame),
            other => Err(ColocError::Machine(format!(
                "expected stats frame, got {other:?}"
            ))),
        }
    }

    /// Ask the server to hot-swap its model artifacts. Returns the new
    /// model epoch and the default machine's active artifact digest.
    pub fn reload(&mut self) -> Result<(u64, String), ColocError> {
        match self.round_trip(r#"{"op":"reload"}"#)? {
            Reply::Reloaded {
                model_epoch,
                model_digest,
            } => Ok((model_epoch, model_digest)),
            other => Err(ColocError::Machine(format!(
                "expected reload ack, got {other:?}"
            ))),
        }
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ColocError> {
        match self.round_trip(r#"{"op":"shutdown"}"#)? {
            Reply::Err {
                error: ColocError::ShuttingDown,
                ..
            } => Ok(()),
            other => Err(ColocError::Machine(format!(
                "expected shutting_down ack, got {other:?}"
            ))),
        }
    }

    fn query_line(
        scenario: &Scenario,
        mode: QueryMode,
        deadline_ms: Option<u64>,
        machine: Option<&str>,
        id: Option<&str>,
    ) -> String {
        use serde::{Map, Value};
        let mut m = Map::new();
        m.insert("op", Value::Str("query".into()));
        if let Some(id) = id {
            m.insert("id", Value::Str(id.to_string()));
        }
        m.insert("target", Value::Str(scenario.target.clone()));
        if !scenario.co_located.is_empty() {
            m.insert(
                "co",
                Value::Array(
                    scenario
                        .co_located
                        .iter()
                        .map(|(n, c)| {
                            Value::Array(vec![Value::Str(n.clone()), Value::UInt(*c as u64)])
                        })
                        .collect(),
                ),
            );
        }
        m.insert("pstate", Value::UInt(scenario.pstate as u64));
        m.insert("mode", Value::Str(mode.label().into()));
        if let Some(d) = deadline_ms {
            m.insert("deadline_ms", Value::UInt(d));
        }
        if let Some(mk) = machine {
            m.insert("machine", Value::Str(mk.to_string()));
        }
        serde_json::to_string(&Value::Object(m)).expect("query serialization is total")
    }

    /// One query, no retries. Service errors come back as their typed
    /// [`ColocError`] variants.
    pub fn query(
        &mut self,
        scenario: &Scenario,
        mode: QueryMode,
        deadline_ms: Option<u64>,
        machine: Option<&str>,
    ) -> Result<Reply, ColocError> {
        let line = Self::query_line(scenario, mode, deadline_ms, machine, None);
        self.round_trip(&line)
    }

    /// A query with the full retry discipline: `overloaded` responses
    /// back off (exponential + jitter, floored at the server's hint)
    /// and retry up to `policy.retries` times; any other answer —
    /// success, timeout, shutdown, bad request — returns immediately.
    /// The terminal `Overloaded` error is returned when retries run out.
    pub fn query_with_retry(
        &mut self,
        scenario: &Scenario,
        mode: QueryMode,
        deadline_ms: Option<u64>,
        machine: Option<&str>,
        policy: &RetryPolicy,
    ) -> Result<Reply, ColocError> {
        let mut attempt = 0u32;
        loop {
            match self.query(scenario, mode, deadline_ms, machine)? {
                Reply::Err {
                    error: ColocError::Overloaded { queue_depth },
                    retry_after_ms,
                    ..
                } => {
                    if attempt >= policy.retries {
                        return Err(ColocError::Overloaded { queue_depth });
                    }
                    std::thread::sleep(Duration::from_millis(
                        policy.backoff_ms(attempt, retry_after_ms),
                    ));
                    attempt += 1;
                }
                other => return Ok(other),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_respects_hint_and_cap() {
        let p = RetryPolicy {
            retries: 5,
            base_backoff_ms: 10,
            max_backoff_ms: 200,
            jitter_seed: 7,
        };
        let b0 = p.backoff_ms(0, None);
        let b1 = p.backoff_ms(1, None);
        let b2 = p.backoff_ms(2, None);
        assert!((10..=15).contains(&b0), "{b0}");
        assert!((20..=30).contains(&b1), "{b1}");
        assert!((40..=60).contains(&b2), "{b2}");
        // Server hint floors the exponential term.
        assert!(p.backoff_ms(0, Some(100)) >= 100);
        // Cap binds.
        assert_eq!(p.backoff_ms(10, None), 200);
        // Deterministic for a given seed and attempt.
        assert_eq!(p.backoff_ms(3, None), p.backoff_ms(3, None));
        // Different client identities de-correlate.
        let q = RetryPolicy {
            jitter_seed: 8,
            ..p
        };
        assert!(
            (0..6).any(|a| p.backoff_ms(a, None) != q.backoff_ms(a, None)),
            "jitter streams should differ somewhere"
        );
    }

    #[test]
    fn query_lines_are_valid_requests() {
        let sc = Scenario::homogeneous("canneal", "cg", 3, 2);
        let line = QueryClient::query_line(&sc, QueryMode::Measure, Some(500), Some("6core"), None);
        let req = crate::proto::parse_request(&line).unwrap();
        let crate::proto::Request::Query(q) = req else {
            panic!("expected query")
        };
        assert_eq!(q.scenario, sc);
        assert_eq!(q.deadline_ms, Some(500));
        assert_eq!(q.machine.as_deref(), Some("6core"));
    }
}
