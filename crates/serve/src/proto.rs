//! The service's wire protocol: line-delimited JSON, one frame per line.
//!
//! Requests (client → server), discriminated by `"op"`:
//!
//! ```json
//! {"op":"query","id":"q1","target":"canneal","co":[["cg",3]],"pstate":0,
//!  "mode":"measure","deadline_ms":500,"machine":"e5649"}
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"reload"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses (server → client), one line each:
//!
//! ```json
//! {"id":"q1","ok":true,"time_s":1.25,"slowdown":1.4,"source":"engine","degraded":false}
//! {"id":"q1","err":"overloaded","retry_after_ms":50,"queue_depth":128}
//! {"id":"q1","err":"timeout","deadline_ms":500}
//! {"err":"shutting_down"}
//! {"err":"too_many_connections","retry_after_ms":50,"open_connections":64}
//! {"ok":true,"pong":true}
//! {"ok":true,"reloaded":true,"model_epoch":3,"model_digest":"…"}
//! ```
//!
//! `time_s` travels through the float-exact JSON writer, so a served
//! `measure` answer is bit-identical to the same scenario run through
//! [`coloc_model::Lab::collect`] — the conformance suite pins this.
//!
//! Parsing is hand-rolled over the [`serde::Value`] tree rather than
//! derived: requests come from untrusted clients, and every field wants
//! a specific, human-readable rejection rather than a generic shape
//! error.

use coloc_model::{ColocError, Scenario};
use serde::{Deserialize as _, Map, Value};

/// How a query wants its answer produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryMode {
    /// Run (or replay from cache) the machine simulator: the exact
    /// measured time, bit-identical to `Lab::collect`.
    Measure,
    /// Evaluate the trained predictor on baseline-derived features: the
    /// paper's deployment mode — no simulation, approximate answer.
    Predict,
}

impl QueryMode {
    /// Wire name.
    pub fn label(self) -> &'static str {
        match self {
            QueryMode::Measure => "measure",
            QueryMode::Predict => "predict",
        }
    }
}

/// One parsed `query` request.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Option<String>,
    /// The scenario to answer for.
    pub scenario: Scenario,
    /// Measure (simulate) or predict (model evaluation).
    pub mode: QueryMode,
    /// Per-request deadline; the server sheds the query if it cannot
    /// dispatch it in time. `None` = the server's default deadline.
    pub deadline_ms: Option<u64>,
    /// Machine preset key; `None` = the server's default machine.
    pub machine: Option<String>,
}

/// Any request frame.
#[derive(Clone, Debug)]
pub enum Request {
    /// A prediction/measurement query.
    Query(QueryRequest),
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// Return the current stats frame; answered inline.
    Stats,
    /// Hot-swap the model artifacts (same path as SIGHUP): in-flight
    /// requests finish on the artifact they started with, new requests
    /// see the reloaded one. Answered inline with the new epoch+digest.
    Reload,
    /// Ask the server to drain and exit (same path as SIGTERM).
    Shutdown,
}

fn str_field(obj: &Map, key: &str) -> Result<Option<String>, String> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(format!("field `{key}` must be a string, got {other:?}")),
    }
}

fn uint_field(obj: &Map, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
        Some(Value::UInt(u)) => Ok(Some(*u)),
        Some(other) => Err(format!(
            "field `{key}` must be a non-negative integer, got {other:?}"
        )),
    }
}

fn co_field(obj: &Map) -> Result<Vec<(String, usize)>, String> {
    let mut out = Vec::new();
    match obj.get("co") {
        None | Some(Value::Null) => {}
        Some(Value::Array(items)) => {
            for item in items {
                let Value::Array(pair) = item else {
                    return Err("`co` entries must be [name, count] pairs".into());
                };
                let [Value::Str(name), count] = pair.as_slice() else {
                    return Err("`co` entries must be [name, count] pairs".into());
                };
                let n = match count {
                    Value::Int(i) if *i >= 0 => *i as u64,
                    Value::UInt(u) => *u,
                    _ => return Err("`co` counts must be non-negative integers".into()),
                };
                out.push((name.clone(), n as usize));
            }
        }
        Some(other) => return Err(format!("`co` must be an array, got {other:?}")),
    }
    Ok(out)
}

/// Parse one request line. Errors are human-readable strings, reported
/// back to the client as `{"err":"bad_request","detail":...}`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value =
        serde_json::value_from_slice(line.as_bytes()).map_err(|e| format!("invalid JSON: {e}"))?;
    let Value::Object(obj) = value else {
        return Err("request must be a JSON object".into());
    };
    let op = str_field(&obj, "op")?.ok_or("missing `op`")?;
    match op.as_str() {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "reload" => Ok(Request::Reload),
        "shutdown" => Ok(Request::Shutdown),
        "query" => {
            let target = str_field(&obj, "target")?.ok_or("query needs `target`")?;
            let mode = match str_field(&obj, "mode")?.as_deref() {
                None | Some("measure") => QueryMode::Measure,
                Some("predict") => QueryMode::Predict,
                Some(other) => return Err(format!("unknown mode `{other}`")),
            };
            Ok(Request::Query(QueryRequest {
                id: str_field(&obj, "id")?,
                scenario: Scenario {
                    target,
                    co_located: co_field(&obj)?,
                    pstate: uint_field(&obj, "pstate")?.unwrap_or(0) as usize,
                },
                mode,
                deadline_ms: uint_field(&obj, "deadline_ms")?,
                machine: str_field(&obj, "machine")?,
            }))
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

fn base_reply(id: Option<&str>) -> Map {
    let mut m = Map::new();
    if let Some(id) = id {
        m.insert("id", Value::Str(id.to_string()));
    }
    m
}

/// Build a successful query response line (no trailing newline). Every
/// answer goes out through here, so the fields are written straight into
/// one `String` instead of through a [`Map`], with the key order and the
/// token bytes that `Map` would serialize to.
pub fn ok_line(
    id: Option<&str>,
    time_s: f64,
    slowdown: Option<f64>,
    source: &str,
    degraded: bool,
) -> String {
    // Room for the keys and two floats of a typical answer.
    let mut out = String::with_capacity(128 + id.map_or(0, str::len) + source.len());
    out.push('{');
    if let Some(id) = id {
        out.push_str("\"id\":");
        serde_json::write_escaped(&mut out, id);
        out.push(',');
    }
    out.push_str("\"ok\":true,\"time_s\":");
    serde_json::write_f64(&mut out, time_s);
    if let Some(s) = slowdown {
        out.push_str(",\"slowdown\":");
        serde_json::write_f64(&mut out, s);
    }
    out.push_str(",\"source\":");
    serde_json::write_escaped(&mut out, source);
    out.push_str(if degraded {
        ",\"degraded\":true}"
    } else {
        ",\"degraded\":false}"
    });
    out
}

/// Build the `ping` response line.
pub fn pong_line() -> String {
    r#"{"ok":true,"pong":true}"#.to_string()
}

/// Build the `reload` response line: the epoch and active model digest
/// after the swap.
pub fn reload_line(model_epoch: u64, model_digest: &str) -> String {
    let mut m = Map::new();
    m.insert("ok", Value::Bool(true));
    m.insert("reloaded", Value::Bool(true));
    m.insert("model_epoch", Value::UInt(model_epoch));
    m.insert("model_digest", Value::Str(model_digest.to_string()));
    serde_json::to_string(&Value::Object(m)).expect("response serialization is total")
}

/// Build a `bad_request` response line.
pub fn bad_request_line(detail: &str) -> String {
    let mut m = Map::new();
    m.insert("err", Value::Str("bad_request".into()));
    m.insert("detail", Value::Str(detail.to_string()));
    serde_json::to_string(&Value::Object(m)).expect("response serialization is total")
}

/// Map a pipeline error to its wire line. The three service-level errors
/// get structured fields clients can act on (`retry_after_ms` backs off
/// retries; `deadline_ms` sizes the next attempt); everything else
/// flattens to `{"err":"error","detail":...}`.
pub fn err_line(id: Option<&str>, err: &ColocError, retry_after_ms: u64) -> String {
    let mut m = base_reply(id);
    match err {
        ColocError::Overloaded { queue_depth } => {
            m.insert("err", Value::Str("overloaded".into()));
            m.insert("retry_after_ms", Value::UInt(retry_after_ms));
            m.insert("queue_depth", Value::UInt(*queue_depth as u64));
        }
        ColocError::Timeout { deadline_ms } => {
            m.insert("err", Value::Str("timeout".into()));
            m.insert("deadline_ms", Value::UInt(*deadline_ms));
        }
        ColocError::ShuttingDown => {
            m.insert("err", Value::Str("shutting_down".into()));
        }
        ColocError::TooManyConnections { open } => {
            m.insert("err", Value::Str("too_many_connections".into()));
            m.insert("retry_after_ms", Value::UInt(retry_after_ms));
            m.insert("open_connections", Value::UInt(*open as u64));
        }
        other => {
            m.insert("err", Value::Str("error".into()));
            m.insert("detail", Value::Str(other.to_string()));
        }
    }
    serde_json::to_string(&Value::Object(m)).expect("response serialization is total")
}

/// A parsed server response, as seen by the client.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Successful query answer.
    Ok {
        /// Echoed correlation id.
        id: Option<String>,
        /// Predicted or measured co-located execution time, seconds.
        time_s: f64,
        /// Slowdown vs the solo baseline, when the server computed it.
        slowdown: Option<f64>,
        /// `"engine"`, `"cache"`, `"predictor"` or `"fallback"`.
        source: String,
        /// True when answered by the degradation ladder, not the path
        /// the client asked for.
        degraded: bool,
    },
    /// Liveness answer.
    Pong,
    /// A completed hot reload: the post-swap epoch and active digest.
    Reloaded {
        /// Monotonic model epoch after the swap.
        model_epoch: u64,
        /// Hex digest of the now-active default-machine artifact.
        model_digest: String,
    },
    /// A stats frame (`op":"stats"` answer or periodic frame).
    Stats(Box<crate::telemetry::StatsFrame>),
    /// Typed service error.
    Err {
        /// Echoed correlation id.
        id: Option<String>,
        /// The error, re-typed from the wire.
        error: ColocError,
        /// Backoff hint on `overloaded`.
        retry_after_ms: Option<u64>,
    },
}

/// Parse one response line (client side).
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let value =
        serde_json::value_from_slice(line.as_bytes()).map_err(|e| format!("invalid JSON: {e}"))?;
    let Value::Object(obj) = value else {
        return Err("response must be a JSON object".into());
    };
    if obj.get("pong").is_some() {
        return Ok(Reply::Pong);
    }
    if obj.get("reloaded").is_some() {
        return Ok(Reply::Reloaded {
            model_epoch: uint_field(&obj, "model_epoch")?.unwrap_or(0),
            model_digest: str_field(&obj, "model_digest")?.unwrap_or_default(),
        });
    }
    if obj.get("uptime_s").is_some() {
        let frame = crate::telemetry::StatsFrame::from_value(&Value::Object(obj))
            .map_err(|e| e.to_string())?;
        return Ok(Reply::Stats(Box::new(frame)));
    }
    let id = str_field(&obj, "id")?;
    if let Some(Value::Str(err)) = obj.get("err") {
        let error = match err.as_str() {
            "overloaded" => ColocError::Overloaded {
                queue_depth: uint_field(&obj, "queue_depth")?.unwrap_or(0) as usize,
            },
            "timeout" => ColocError::Timeout {
                deadline_ms: uint_field(&obj, "deadline_ms")?.unwrap_or(0),
            },
            "shutting_down" => ColocError::ShuttingDown,
            "too_many_connections" => ColocError::TooManyConnections {
                open: uint_field(&obj, "open_connections")?.unwrap_or(0) as usize,
            },
            _ => ColocError::Machine(str_field(&obj, "detail")?.unwrap_or_else(|| err.clone())),
        };
        return Ok(Reply::Err {
            id,
            error,
            retry_after_ms: uint_field(&obj, "retry_after_ms")?,
        });
    }
    let time_s = obj
        .get("time_s")
        .and_then(Value::as_f64)
        .ok_or("response missing `time_s`")?;
    Ok(Reply::Ok {
        id,
        time_s,
        slowdown: obj.get("slowdown").and_then(Value::as_f64),
        source: str_field(&obj, "source")?.unwrap_or_default(),
        degraded: matches!(obj.get("degraded"), Some(Value::Bool(true))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_round_trip() {
        let req = parse_request(
            r#"{"op":"query","id":"q7","target":"canneal","co":[["cg",3]],"pstate":2,
                "mode":"measure","deadline_ms":500}"#,
        )
        .unwrap();
        let Request::Query(q) = req else {
            panic!("expected query")
        };
        assert_eq!(q.id.as_deref(), Some("q7"));
        assert_eq!(q.scenario.label(), "canneal+3x cg @P2");
        assert_eq!(q.mode, QueryMode::Measure);
        assert_eq!(q.deadline_ms, Some(500));
        assert_eq!(q.machine, None);
    }

    #[test]
    fn defaults_are_solo_measure_p0() {
        let Request::Query(q) = parse_request(r#"{"op":"query","target":"ep"}"#).unwrap() else {
            panic!("expected query")
        };
        assert_eq!(q.scenario.label(), "ep solo @P0");
        assert_eq!(q.mode, QueryMode::Measure);
        assert_eq!(q.deadline_ms, None);
    }

    #[test]
    fn control_ops_parse() {
        assert!(matches!(
            parse_request(r#"{"op":"ping"}"#),
            Ok(Request::Ping)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#),
            Ok(Request::Stats)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"reload"}"#),
            Ok(Request::Reload)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#),
            Ok(Request::Shutdown)
        ));
    }

    #[test]
    fn reload_line_round_trips() {
        let line = reload_line(3, "deadbeef");
        let Reply::Reloaded {
            model_epoch,
            model_digest,
        } = parse_reply(&line).unwrap()
        else {
            panic!("expected reloaded, got {line}")
        };
        assert_eq!(model_epoch, 3);
        assert_eq!(model_digest, "deadbeef");
    }

    #[test]
    fn malformed_requests_are_described() {
        for (line, needle) in [
            ("not json", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"op":"warp"}"#, "unknown op"),
            (r#"{"op":"query"}"#, "needs `target`"),
            (
                r#"{"op":"query","target":"ep","mode":"guess"}"#,
                "unknown mode",
            ),
            (
                r#"{"op":"query","target":"ep","co":[["cg",-1]]}"#,
                "non-negative",
            ),
            (
                r#"{"op":"query","target":"ep","co":"cg"}"#,
                "must be an array",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line} → {err}");
        }
    }

    #[test]
    fn time_survives_the_wire_bit_exactly() {
        let t = 1.238_476_190_3e-1_f64.sqrt() * 3.7;
        let line = ok_line(Some("x"), t, Some(t * 2.0), "engine", false);
        let Reply::Ok {
            time_s, slowdown, ..
        } = parse_reply(&line).unwrap()
        else {
            panic!("expected ok")
        };
        assert_eq!(time_s.to_bits(), t.to_bits());
        assert_eq!(slowdown.unwrap().to_bits(), (t * 2.0).to_bits());
    }

    /// The `Map`/`Value` encoding `ok_line` used to build and serialize:
    /// the reference its bytes must equal.
    fn reference_ok_line(
        id: Option<&str>,
        time_s: f64,
        slowdown: Option<f64>,
        source: &str,
        degraded: bool,
    ) -> String {
        let mut m = base_reply(id);
        m.insert("ok", Value::Bool(true));
        m.insert("time_s", Value::Float(time_s));
        if let Some(s) = slowdown {
            m.insert("slowdown", Value::Float(s));
        }
        m.insert("source", Value::Str(source.to_string()));
        m.insert("degraded", Value::Bool(degraded));
        serde_json::to_string(&Value::Object(m)).unwrap()
    }

    #[test]
    fn ok_lines_equal_the_map_encoding_and_round_trip() {
        let ids = [
            None,
            Some(""),
            Some("q7"),
            Some("say \"hi\""),
            Some(r"C:\dir\"),
            Some("nul\u{0} bell\u{7} bs\u{8} tab\t nl\n ff\u{c} cr\r esc\u{1b} us\u{1f} del\u{7f}"),
            Some("é€😀 中"),
        ];
        let floats = [
            1.0,
            -3.0,
            2741.0,
            0.1,
            -0.0,
            1.238_476_190_3e-1_f64.sqrt() * 3.7,
            2.5e17,
            1e21,
            1e300,
            f64::MAX,
            1e-7,
            1e-300,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            5e-324,
        ];
        let sources = ["engine", "cache", "predictor", "fallback"];
        for (i, &time_s) in floats.iter().enumerate() {
            for slowdown in [None, Some(floats[(i + 5) % floats.len()])] {
                for id in ids {
                    for source in sources {
                        for degraded in [false, true] {
                            let line = ok_line(id, time_s, slowdown, source, degraded);
                            let want = reference_ok_line(id, time_s, slowdown, source, degraded);
                            assert_eq!(line, want);
                            let Reply::Ok {
                                id: got_id,
                                time_s: got_time,
                                slowdown: got_slowdown,
                                source: got_source,
                                degraded: got_degraded,
                            } = parse_reply(&line).unwrap()
                            else {
                                panic!("expected ok, got {line}")
                            };
                            assert_eq!(got_id.as_deref(), id, "{line}");
                            assert_eq!(got_time.to_bits(), time_s.to_bits(), "{line}");
                            assert_eq!(got_slowdown.map(f64::to_bits), slowdown.map(f64::to_bits));
                            assert_eq!((got_source.as_str(), got_degraded), (source, degraded));
                        }
                    }
                }
            }
        }
        // A non-finite time writes `null` either way; it cannot round-trip.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let line = ok_line(Some("q"), bad, Some(bad), "engine", false);
            assert_eq!(
                line,
                reference_ok_line(Some("q"), bad, Some(bad), "engine", false)
            );
        }
    }

    #[test]
    fn error_lines_carry_their_structure() {
        let line = err_line(
            Some("q1"),
            &coloc_model::ColocError::Overloaded { queue_depth: 42 },
            75,
        );
        let Reply::Err {
            id,
            error,
            retry_after_ms,
        } = parse_reply(&line).unwrap()
        else {
            panic!("expected err")
        };
        assert_eq!(id.as_deref(), Some("q1"));
        assert_eq!(
            error,
            coloc_model::ColocError::Overloaded { queue_depth: 42 }
        );
        assert_eq!(retry_after_ms, Some(75));

        let line = err_line(
            None,
            &coloc_model::ColocError::Timeout { deadline_ms: 250 },
            0,
        );
        assert!(matches!(
            parse_reply(&line).unwrap(),
            Reply::Err {
                error: coloc_model::ColocError::Timeout { deadline_ms: 250 },
                ..
            }
        ));
        let line = err_line(None, &coloc_model::ColocError::ShuttingDown, 0);
        assert!(line.contains("shutting_down"), "{line}");

        let refused = coloc_model::ColocError::TooManyConnections { open: 64 };
        let line = err_line(None, &refused, 50);
        assert_eq!(
            parse_reply(&line).unwrap(),
            Reply::Err {
                id: None,
                error: refused,
                retry_after_ms: Some(50),
            }
        );
    }

    #[test]
    fn pong_and_stats_parse_as_replies() {
        assert_eq!(parse_reply(&pong_line()).unwrap(), Reply::Pong);
        let counters = crate::telemetry::Counters::default();
        let hist = crate::telemetry::LatencyHistogram::new();
        let frame = crate::telemetry::StatsFrame::snapshot(
            0.5,
            0,
            &counters,
            &hist,
            (0, 0, 0),
            (0, String::new()),
        );
        let line = serde_json::to_string(&frame).unwrap();
        assert!(matches!(parse_reply(&line).unwrap(), Reply::Stats(_)));
    }
}
