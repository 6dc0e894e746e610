//! `serve`: `coloc serve` at its default configuration (engine threads
//! 0 = one per CPU), driven open-loop over one pipelined TCP connection.
//!
//! A sender thread writes each query at its seeded Poisson due time; a
//! receiver thread reads and parses replies. Latency runs from the due
//! time, so a stalled sender charges its delay to every query behind it.
//! Every batch the server dispatches pays admission, wire parsing,
//! featurize/predict and a `run_indexed` call while the engine does
//! little, the opposite profile to `sweep`.

use crate::inputs::{serve_inputs, Phase, QueryKind, ServeInputs};
use crate::layers::{add_cache_samples, add_layer_samples, stage_stats_cost_pct, Replay, Samples};
use crate::report::{json_str, Clocks, Report, Series};
use crate::stats::{quantile, Summary};
use crate::trace::{self, LayerTotals, Tracer};
use coloc_machine::presets;
use coloc_model::{
    ColocError, FeatureSet, Lab, ModelArtifact, ModelKind, ModelRegistry, Scenario, TrainPolicy,
    TrainRequest, TrainingPlan,
};
use coloc_serve::{
    parse_reply, parse_request, Reply, ServeConfig, Server, ServerHandle, StatsFrame,
};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server start-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Deadline every query carries; the server sheds it once expired.
const QUERY_DEADLINE_MS: u64 = 1_000;
/// A reply arriving later than this after its due time counts as failed.
const REPLY_DEADLINE: Duration = Duration::from_millis(1_500);
/// The ladder's latency limit on p99, milliseconds.
pub const SLO_P99_MS: f64 = 25.0;
/// Queries in flight in the tracing-overhead bursts.
const BURST_WINDOW: usize = 32;
/// Untraced and traced burst pairs per traced run.
const BURSTS: usize = 5;
/// Queries awaiting replies at which the sender waits: below the server's
/// admission capacity (256), so overload shows as latency, never as
/// shed queries.
const MAX_OUTSTANDING: usize = 192;
/// How often the receiver re-checks whether its sender has stopped.
const POLL: Duration = Duration::from_millis(20);

/// The server's configuration: `coloc serve`'s defaults, on an ephemeral
/// local port, without periodic stats frames on stdout.
fn config() -> ServeConfig {
    ServeConfig {
        quiet: true,
        ..ServeConfig::default()
    }
}

/// The registry request behind the server's self-trained model for its
/// default machine (a linear model on a compact Table V plan), so local
/// predictions come from the very same artifact.
fn model_request(lab: &Lab, seed: u64) -> TrainRequest {
    let spec = lab.machine().spec();
    TrainRequest {
        kind: ModelKind::Linear,
        set: FeatureSet::F,
        plan: TrainingPlan {
            pstates: vec![0, spec.num_pstates() - 1],
            targets: lab.suite().iter().map(|b| b.name.to_string()).collect(),
            co_runners: coloc_workloads::training_co_runners()
                .iter()
                .map(|b| b.name.to_string())
                .collect(),
            counts: vec![1, spec.cores - 1],
        },
        seed,
        policy: Some(TrainPolicy::default()),
    }
}

impl ServeInputs {
    /// The scenario a query of this kind names.
    fn scenario(&self, kind: QueryKind) -> &Scenario {
        match kind {
            QueryKind::Predict(i) => &self.predict[i],
            QueryKind::Measure(i) => &self.pool[i],
            QueryKind::FirstSeen(i) => &self.first_seen[i],
        }
    }
}

impl QueryKind {
    /// The wire `mode` of a query of this kind.
    fn mode(self) -> &'static str {
        match self {
            QueryKind::Predict(_) => "predict",
            QueryKind::Measure(_) | QueryKind::FirstSeen(_) => "measure",
        }
    }
}

fn query_line(id: u64, sc: &Scenario, mode: &str) -> String {
    let co: Vec<String> = sc
        .co_located
        .iter()
        .map(|(name, n)| format!("[{},{n}]", json_str(name)))
        .collect();
    format!(
        "{{\"op\":\"query\",\"id\":\"{id}\",\"target\":{},\"co\":[{}],\"pstate\":{},\"mode\":\"{mode}\",\"deadline_ms\":{QUERY_DEADLINE_MS}}}\n",
        json_str(&sc.target),
        co.join(","),
        sc.pstate
    )
}

fn io_err(e: std::io::Error) -> ColocError {
    ColocError::Machine(format!("benchmark connection: {e}"))
}

/// One client connection: a writer half and a buffered reader half.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(handle: &ServerHandle) -> Result<Conn, ColocError> {
        let addr = handle
            .local_addr()
            .ok_or_else(|| ColocError::Machine("server has no TCP address".into()))?;
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(io_err)?;
        Ok(Conn {
            writer: stream.try_clone().map_err(io_err)?,
            reader: BufReader::new(stream),
        })
    }

    /// Append to `buf` until it holds one whole reply line, giving up at
    /// `until` (a partial line stays in `buf` for the next call). The
    /// caller clears `buf` once it has used the line.
    fn read_line(
        reader: &mut BufReader<TcpStream>,
        buf: &mut Vec<u8>,
        until: Instant,
    ) -> Result<bool, ColocError> {
        loop {
            match reader.read_until(b'\n', buf) {
                Ok(0) => return Err(ColocError::Machine("server closed the connection".into())),
                Ok(_) if buf.ends_with(b"\n") => return Ok(true),
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io_err(e)),
            }
            if Instant::now() >= until {
                return Ok(false);
            }
        }
    }

    /// Send `line` and return the reply it gets (stale replies to
    /// earlier queries are skipped).
    fn ask(&mut self, line: &str, id: Option<&str>) -> Result<Reply, ColocError> {
        self.writer.write_all(line.as_bytes()).map_err(io_err)?;
        let until = Instant::now() + REPLY_DEADLINE;
        let mut buf = Vec::new();
        loop {
            if !Self::read_line(&mut self.reader, &mut buf, until)? {
                return Err(ColocError::Timeout {
                    deadline_ms: REPLY_DEADLINE.as_millis() as u64,
                });
            }
            let reply =
                parse_reply(String::from_utf8_lossy(&buf).trim()).map_err(ColocError::Machine)?;
            buf.clear();
            let matches = match (&reply, id) {
                (Reply::Ok { id: got, .. } | Reply::Err { id: got, .. }, Some(want)) => {
                    got.as_deref() == Some(want)
                }
                (Reply::Stats(_), None) => true,
                _ => false,
            };
            if matches {
                return Ok(reply);
            }
        }
    }

    fn stats(&mut self) -> Result<StatsFrame, ColocError> {
        match self.ask("{\"op\":\"stats\"}\n", None)? {
            Reply::Stats(frame) => Ok(*frame),
            other => Err(ColocError::Machine(format!(
                "expected stats, got {other:?}"
            ))),
        }
    }
}

/// Where the server says an answer came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    Engine,
    Cache,
    Predictor,
    Fallback,
    Unknown,
}

/// A parsed answer.
#[derive(Clone, Copy, Debug)]
enum Answer {
    Ok {
        time_s: f64,
        source: Source,
        degraded: bool,
    },
    Overloaded,
    Timeout,
    Other,
}

fn answer_of(reply: Reply) -> Answer {
    match reply {
        Reply::Ok {
            time_s,
            source,
            degraded,
            ..
        } => Answer::Ok {
            time_s,
            source: match source.as_str() {
                "engine" => Source::Engine,
                "cache" => Source::Cache,
                "predictor" => Source::Predictor,
                "fallback" => Source::Fallback,
                _ => Source::Unknown,
            },
            degraded,
        },
        Reply::Err {
            error: ColocError::Overloaded { .. },
            ..
        } => Answer::Overloaded,
        Reply::Err {
            error: ColocError::Timeout { .. },
            ..
        } => Answer::Timeout,
        _ => Answer::Other,
    }
}

/// A reply as the receiver saw it: arrival, parse interval, answer.
type Reception = (Instant, (Instant, Instant), Answer);

/// What happened to one query of a phase.
#[derive(Clone, Debug)]
struct Record {
    kind: QueryKind,
    due: Instant,
    sent: (Instant, Instant),
    received: Option<Instant>,
    parse: (Instant, Instant),
    answer: Option<Answer>,
}

impl Record {
    /// Answered successfully within the reply deadline.
    fn ok(&self) -> bool {
        matches!(self.answer, Some(Answer::Ok { .. }))
            && self
                .received
                .is_some_and(|r| r <= self.due + REPLY_DEADLINE)
    }

    /// Latency from the due time; a failed query counts as the deadline.
    fn latency_ms(&self) -> f64 {
        match self.received {
            Some(r) if self.ok() => (r - self.due).as_secs_f64() * 1e3,
            _ => REPLY_DEADLINE.as_secs_f64() * 1e3,
        }
    }
}

/// Send `phase` open-loop over `conn`; queries get ids from `first_id`.
/// Returns one record per query sent (all of them, unless the server
/// stopped answering).
fn run_phase(conn: &mut Conn, phase: &Phase, inputs: &ServeInputs, first_id: u64) -> Vec<Record> {
    let n = phase.queries.len();
    let start = Instant::now() + Duration::from_millis(2);
    let dues: Vec<Instant> = phase
        .queries
        .iter()
        .map(|q| start + Duration::from_secs_f64(q.due_s))
        .collect();
    let sent_count = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);
    let sender_done = AtomicBool::new(false);
    let Conn { writer, reader } = conn;
    let (sent, got) = std::thread::scope(|s| {
        let dues = &dues;
        let (sent_count, answered, sender_done) = (&sent_count, &answered, &sender_done);
        let sender = s.spawn(move || {
            let mut sent = Vec::with_capacity(n);
            'send: for (i, (q, &due)) in phase.queries.iter().zip(dues).enumerate() {
                let line = query_line(first_id + i as u64, inputs.scenario(q.kind), q.kind.mode());
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                // Never let the server's admission queue fill and shed:
                // with `MAX_OUTSTANDING` queries awaiting replies, wait (the
                // wait counts in their latency, which runs from the due
                // time). A server that stops answering ends the phase; the
                // rest of it is never sent.
                let waiting = Instant::now();
                while sent.len() - answered.load(Ordering::Acquire) >= MAX_OUTSTANDING {
                    if waiting.elapsed() > REPLY_DEADLINE {
                        break 'send;
                    }
                    std::thread::sleep(POLL / 100);
                }
                let t0 = Instant::now();
                // A failed write leaves the query unanswered, which the
                // phase then counts as failed.
                let _ = writer.write_all(line.as_bytes());
                sent.push((t0, Instant::now()));
                sent_count.store(sent.len(), Ordering::Release);
            }
            sender_done.store(true, Ordering::Release);
            sent
        });
        let receiver = s.spawn(move || {
            let mut got: Vec<Option<Reception>> = vec![None; n];
            let mut buf = Vec::new();
            loop {
                let done = sender_done.load(Ordering::Acquire);
                let sent = sent_count.load(Ordering::Acquire);
                if done && answered.load(Ordering::Acquire) >= sent {
                    break;
                }
                // Wait for replies until the last query sent so far, or
                // due, is past its reply deadline.
                let last = if done { sent } else { n };
                let deadline = dues[last.max(1) - 1] + REPLY_DEADLINE;
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                match Conn::read_line(reader, &mut buf, deadline.min(now + POLL)) {
                    Ok(true) => {}
                    Ok(false) => continue,
                    Err(_) => break,
                }
                let received = Instant::now();
                let reply = parse_reply(String::from_utf8_lossy(&buf).trim());
                let parsed = (received, Instant::now());
                buf.clear();
                let Ok(reply) = reply else { continue };
                let id = match &reply {
                    Reply::Ok { id, .. } | Reply::Err { id, .. } => {
                        id.as_deref().and_then(|s| s.parse::<u64>().ok())
                    }
                    _ => None,
                };
                let slot = id
                    .and_then(|id| id.checked_sub(first_id))
                    .map(|i| i as usize);
                if let Some(slot) = slot.filter(|&i| i < n && got[i].is_none()) {
                    got[slot] = Some((received, parsed, answer_of(reply)));
                    answered.fetch_add(1, Ordering::AcqRel);
                }
            }
            got
        });
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    phase
        .queries
        .iter()
        .zip(dues)
        .zip(sent)
        .zip(got)
        .map(|(((q, due), sent), got)| {
            let (received, parse, answer) = match got {
                Some((r, p, a)) => (Some(r), p, Some(a)),
                None => (None, (due, due), None),
            };
            Record {
                kind: q.kind,
                due,
                sent,
                received,
                parse,
                answer,
            }
        })
        .collect()
}

/// One phase's outcome.
struct PhaseSummary {
    name: String,
    rate: f64,
    sent: usize,
    succeeded: usize,
    shed: usize,
    timeout: usize,
    other: usize,
    unanswered: usize,
    p50_ms: f64,
    p99_ms: f64,
    late_p99_ms: f64,
    backlog: bool,
    /// Queries left unsent because the server stopped answering.
    unsent: usize,
}

impl PhaseSummary {
    fn of(phase: &Phase, records: &[Record]) -> PhaseSummary {
        let mut lat: Vec<f64> = records.iter().map(Record::latency_ms).collect();
        let quarter = (records.len() / 4).max(1);
        let p50 = |xs: &[f64]| Summary::of(xs).median;
        let backlog = records.len() >= 8
            && p50(&lat[lat.len() - quarter..]) > 2.0 * p50(&lat[..quarter]) + 1.0;
        let mut late: Vec<f64> = records
            .iter()
            .map(|r| r.sent.0.saturating_duration_since(r.due).as_secs_f64() * 1e3)
            .collect();
        late.sort_by(f64::total_cmp);
        lat.sort_by(f64::total_cmp);
        let count = |f: fn(&Answer) -> bool| {
            records
                .iter()
                .filter(|r| r.answer.as_ref().is_some_and(f))
                .count()
        };
        let succeeded = records.iter().filter(|r| r.ok()).count();
        PhaseSummary {
            name: phase.name.clone(),
            rate: phase.rate,
            sent: records.len(),
            succeeded,
            shed: count(|a| matches!(a, Answer::Overloaded)),
            timeout: count(|a| matches!(a, Answer::Timeout)),
            other: count(|a| matches!(a, Answer::Other)),
            unanswered: records.iter().filter(|r| r.answer.is_none()).count(),
            p50_ms: quantile(&lat, 0.5),
            p99_ms: quantile(&lat, 0.99),
            late_p99_ms: quantile(&late, 0.99),
            backlog,
            unsent: phase.queries.len() - records.len(),
        }
    }

    fn failed(&self) -> usize {
        self.sent - self.succeeded
    }

    fn meets_slo(&self) -> bool {
        self.failed() == 0 && self.p99_ms <= SLO_P99_MS && !self.backlog && self.unsent == 0
    }

    fn line(&self) -> String {
        format!(
            "{:<12} {:>6.0} qps  sent {:>6}  ok {:>6}  failed {:>4} (shed {}, timeout {}, other {}, unanswered {}, late {})  p50 {:.3} ms  p99 {:.3} ms  sender late p99 {:.3} ms{}{}",
            self.name,
            self.rate,
            self.sent,
            self.succeeded,
            self.failed(),
            self.shed,
            self.timeout,
            self.other,
            self.unanswered,
            self.failed() - self.shed - self.timeout - self.other - self.unanswered,
            self.p50_ms,
            self.p99_ms,
            self.late_p99_ms,
            if self.backlog { "  backlog grew" } else { "" },
            if self.unsent > 0 {
                format!("  stalled, {} unsent", self.unsent)
            } else {
                String::new()
            }
        )
    }
}

/// Local reference answers: the measured time of every scenario a query
/// names, from a lab seeded like the server's, and the prediction of
/// the same registry artifact the server resolves.
struct References {
    measured: HashMap<Scenario, f64>,
    predicted: HashMap<Scenario, f64>,
}

impl References {
    fn build(
        lab: &Lab,
        artifact: &ModelArtifact,
        inputs: &ServeInputs,
    ) -> Result<References, ColocError> {
        let mut measured = HashMap::new();
        let mut predicted = HashMap::new();
        for sc in inputs
            .pool
            .iter()
            .chain(&inputs.first_seen)
            .chain(&inputs.predict)
        {
            measured.insert(sc.clone(), lab.run_scenario(sc)?);
            predicted.insert(sc.clone(), artifact.predictor.predict(&lab.featurize(sc)?));
        }
        Ok(References {
            measured,
            predicted,
        })
    }

    /// Whether an `Ok` answer for `kind` is the exact answer the server
    /// owes: measured for `measure` (or the model's, when the degradation
    /// ladder answered from its fallback), the model's for `predict`.
    fn verify(
        &self,
        inputs: &ServeInputs,
        kind: QueryKind,
        time_s: f64,
        source: Source,
        degraded: bool,
    ) -> bool {
        let sc = inputs.scenario(kind);
        let expected = match (kind, source, degraded) {
            (QueryKind::Predict(_), Source::Predictor, false) => self.predicted.get(sc),
            (QueryKind::Predict(_), _, _) => None,
            (_, Source::Engine | Source::Cache, _) => self.measured.get(sc),
            (_, Source::Fallback, true) => self.predicted.get(sc),
            _ => None,
        };
        expected.is_some_and(|e| e.to_bits() == time_s.to_bits())
    }
}

fn spawn_and_answer(inputs: &ServeInputs) -> Result<(ServerHandle, Conn), ColocError> {
    let handle = Server::spawn(config())?;
    let mut conn = Conn::open(&handle)?;
    match conn.ask(&query_line(0, &inputs.predict[0], "predict"), Some("0"))? {
        Reply::Ok { .. } => Ok((handle, conn)),
        other => Err(ColocError::Machine(format!(
            "first answer failed: {other:?}"
        ))),
    }
}

fn stop(handle: ServerHandle, conn: Conn) -> StatsFrame {
    handle.shutdown();
    drop(conn);
    handle.join()
}

/// Closed-loop burst: every pool scenario as `measure`, `BURST_WINDOW`
/// queries in flight; spans per query when `tr` is given. Returns the
/// wall seconds and each pool scenario's answer.
fn burst(
    conn: &mut Conn,
    inputs: &ServeInputs,
    first_id: u64,
    mut tr: Option<&mut Tracer>,
) -> Result<(f64, Vec<(usize, Answer)>), ColocError> {
    let t0 = Instant::now();
    let mut buf = Vec::new();
    let mut answers = Vec::with_capacity(inputs.pool.len());
    for (w, chunk) in inputs.pool.chunks(BURST_WINDOW).enumerate() {
        let base = first_id + (w * BURST_WINDOW) as u64;
        let mut sends = Vec::with_capacity(chunk.len());
        for (i, sc) in chunk.iter().enumerate() {
            let line = query_line(base + i as u64, sc, "measure");
            let s0 = Instant::now();
            conn.writer.write_all(line.as_bytes()).map_err(io_err)?;
            sends.push((s0, Instant::now()));
        }
        for _ in chunk {
            if !Conn::read_line(&mut conn.reader, &mut buf, Instant::now() + REPLY_DEADLINE)? {
                return Err(ColocError::Machine("burst reply missing".into()));
            }
            let p0 = Instant::now();
            let reply =
                parse_reply(String::from_utf8_lossy(&buf).trim()).map_err(ColocError::Machine)?;
            let p1 = Instant::now();
            buf.clear();
            let id = match &reply {
                Reply::Ok { id, .. } | Reply::Err { id, .. } => {
                    id.as_deref().and_then(|s| s.parse::<u64>().ok())
                }
                _ => None,
            };
            let i = id
                .and_then(|id| id.checked_sub(base))
                .map(|i| i as usize)
                .filter(|&i| i < chunk.len())
                .ok_or_else(|| ColocError::Machine(format!("unexpected burst reply {reply:?}")))?;
            if let Some(tr) = tr.as_deref_mut() {
                let (s0, s1) = sends[i];
                let req = base + i as u64;
                let root = tr.record("serve.request", s0, p1, None, req);
                tr.record("client.send", s0, s1, Some(root), req);
                tr.record("proto.parse_reply", p0, p1, Some(root), req);
            }
            answers.push((w * BURST_WINDOW + i, answer_of(reply)));
        }
    }
    Ok((t0.elapsed().as_secs_f64(), answers))
}

/// What the traced pass needs from the untraced one.
struct Observed<'a> {
    inputs: &'a ServeInputs,
    /// Every phase query's kind, in the order sent.
    kinds: Vec<QueryKind>,
    fixed: &'a PhaseSummary,
    fixed_frame: &'a StatsFrame,
    final_frame: &'a StatsFrame,
    /// Summed nanoseconds and count of `parse_request` over every line.
    parse_request: (f64, usize),
}

/// Run the workload for `seconds`; `trace` selects the per-layer pass.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    nproc: usize,
    report: &mut Report,
) -> Result<(), ColocError> {
    let inputs = serve_inputs(seed, seconds);
    report.notes.push(format!(
        "inputs: {} pooled measure, {} predict, {} first-seen scenarios; fixed {:.0} qps then ladder, SLO p99 <= {SLO_P99_MS} ms; server engine threads {} (0 = one per CPU on {nproc})",
        inputs.pool.len(),
        inputs.predict.len(),
        inputs.first_seen.len(),
        inputs.phases[0].rate,
        config().engine_threads,
    ));

    // Reference answers first, so each phase is checked and dropped as it
    // ends and memory does not grow with the rungs the ladder reaches.
    let lab = Lab::new(
        presets::xeon_e5649(),
        coloc_workloads::standard(),
        config().seed,
    )?;
    let t0 = Instant::now();
    lab.baselines();
    let baselines_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let artifact: Arc<ModelArtifact> =
        ModelRegistry::new().resolve(&lab, &model_request(&lab, config().seed))?;
    let resolve_s = t0.elapsed().as_secs_f64();
    let refs = References::build(&lab, &artifact, &inputs)?;
    let mut wrong = Vec::new();
    let mut failed = 0u64;
    let mut verify = |kind: QueryKind, answer: Option<&Answer>| {
        if let Some(Answer::Ok {
            time_s,
            source,
            degraded,
        }) = answer
        {
            if !refs.verify(&inputs, kind, *time_s, *source, *degraded) {
                wrong.push(format!("{kind:?} answered {time_s} from {source:?}"));
            }
        }
    };

    // Set-up: server spawn through its first answer, several times.
    let mut setup = Series::default();
    let clocks = Clocks::start();
    let (mut handle, mut conn) = spawn_and_answer(&inputs)?;
    setup.push(clocks);
    for _ in 1..SETUP_REPEATS {
        stop(handle, conn);
        let clocks = Clocks::start();
        (handle, conn) = spawn_and_answer(&inputs)?;
        setup.push(clocks);
    }
    report.put("setup_s", "s", setup.cpu);
    report.put("setup_wall_s", "s", setup.wall);

    // Warm the measure pool one query at a time (cold engine runs).
    for (i, sc) in inputs.pool.iter().enumerate() {
        let id = (1 + i) as u64;
        let answer = answer_of(conn.ask(&query_line(id, sc, "measure"), Some(&id.to_string()))?);
        verify(QueryKind::Measure(i), Some(&answer));
        failed += u64::from(!matches!(answer, Answer::Ok { .. }));
    }
    report.attempted += inputs.pool.len() as u64;

    // Open-loop phases: the fixed rate, then the ladder up to its first
    // rung that misses the SLO.
    let mut next_id = 1 + inputs.pool.len() as u64;
    let mut tr = Tracer::new(Instant::now());
    let mut kinds = Vec::new();
    let mut parse_request = (0.0, 0);
    let mut predicted: BTreeMap<usize, f64> = BTreeMap::new();
    let mut measure_queries = 0;
    let mut fixed: Option<(PhaseSummary, StatsFrame)> = None;
    let mut repeat: Option<PhaseSummary> = None;
    let mut ladder: Vec<PhaseSummary> = Vec::new();
    for phase in &inputs.phases {
        if ladder.last().is_some_and(|s| !s.meets_slo()) {
            break;
        }
        let clocks = Clocks::start();
        let records = run_phase(&mut conn, phase, &inputs, next_id);
        let (_, cpu_s) = clocks.elapsed();
        let cpu_ms_per_query = cpu_s / records.len().max(1) as f64 * 1e3;
        next_id += records.len() as u64;
        let summary = PhaseSummary::of(phase, &records);
        report.attempted += summary.sent as u64;
        failed += summary.failed() as u64;
        for r in &records {
            verify(r.kind, r.answer.as_ref());
            match (r.kind, &r.answer) {
                (QueryKind::Predict(i), Some(Answer::Ok { time_s, .. })) => {
                    predicted.entry(i).or_insert(*time_s);
                }
                (QueryKind::Predict(_), _) => {}
                _ => measure_queries += 1,
            }
        }
        if trace {
            client_spans(&mut tr, &records, &mut parse_request, &inputs);
            kinds.extend(records.iter().map(|r| r.kind));
        }
        report.notes.push(summary.line());
        if fixed.is_none() {
            report.put1("serve.cpu_ms_per_query", "ms", cpu_ms_per_query);
            fixed = Some((summary, conn.stats()?));
        } else if repeat.is_none() {
            report.put1("serve.repeat_cpu_ms_per_query", "ms", cpu_ms_per_query);
            repeat = Some(summary);
        } else {
            ladder.push(summary);
        }
    }
    let (fixed, fixed_frame) = fixed.expect("the fixed phase always runs");
    let repeat = repeat.expect("the repeat phase always runs");

    // Tracing overhead: identical closed-loop bursts of the warmed pool,
    // untraced then traced.
    let mut overhead = Vec::new();
    for _ in 0..if trace { BURSTS } else { 0 } {
        let (plain, mut answers) = burst(&mut conn, &inputs, next_id, None)?;
        next_id += answers.len() as u64;
        let (traced, more) = burst(&mut conn, &inputs, next_id, Some(&mut tr))?;
        next_id += more.len() as u64;
        answers.extend(more);
        overhead.push((traced / plain - 1.0) * 100.0);
        for (i, answer) in &answers {
            verify(QueryKind::Measure(*i), Some(answer));
            failed += u64::from(!matches!(answer, Answer::Ok { .. }));
        }
        report.attempted += answers.len() as u64;
    }
    let final_frame = stop(handle, conn);

    report.failed += failed;
    report.check(
        "serve: every answer bit-equals the local lab or local predictor",
        wrong.is_empty(),
        match wrong.first() {
            Some(w) => format!("{} wrong, first: {w}", wrong.len()),
            None => format!("{} queries verified", report.attempted),
        },
    );
    report.put1("serve.p50_ms", "ms", fixed.p50_ms);
    report.put1("serve.p99_ms", "ms", fixed.p99_ms);
    report.put1("serve.repeat_p50_ms", "ms", repeat.p50_ms);
    let best = ladder
        .iter()
        .take_while(|s| s.meets_slo())
        .map(|s| s.rate)
        .fold(0.0, f64::max);
    report.put1("serve.max_qps_at_slo", "qps", best);
    let actual: Vec<f64> = predicted
        .keys()
        .map(|&i| refs.measured[&inputs.predict[i]])
        .collect();
    let answered: Vec<f64> = predicted.values().copied().collect();
    report.put1(
        "serve.predict_mpe_pct",
        "%",
        coloc_ml::metrics::mpe(&answered, &actual),
    );
    report.notes.push(format!(
        "first-seen measure queries: {} of {measure_queries} measure queries",
        inputs.first_seen.len(),
    ));

    if trace {
        let observed = Observed {
            inputs: &inputs,
            kinds,
            fixed: &fixed,
            fixed_frame: &fixed_frame,
            final_frame: &final_frame,
            parse_request,
        };
        traced_layers(&observed, &lab, &artifact, &refs, tr, report)?;
        report.put("trace.overhead_pct", "%", overhead);
        report.put1("perfmon.baselines_s", "s", baselines_s);
        report.put1("registry.resolve_s", "s", resolve_s);
    }
    Ok(())
}

/// Client-side spans of every query of a phase, from its timestamps, and
/// the server's request parser timed on every line the phase sent.
fn client_spans(
    tr: &mut Tracer,
    records: &[Record],
    parse_request_ns: &mut (f64, usize),
    inputs: &ServeInputs,
) {
    for (i, r) in records.iter().enumerate() {
        let end = r.received.map_or(r.due + REPLY_DEADLINE, |_| r.parse.1);
        let root = tr.record("serve.request", r.due, end, None, i as u64);
        tr.record("client.send", r.sent.0, r.sent.1, Some(root), i as u64);
        if r.received.is_some() {
            tr.record(
                "proto.parse_reply",
                r.parse.0,
                r.parse.1,
                Some(root),
                i as u64,
            );
        }
        let line = query_line(0, inputs.scenario(r.kind), r.kind.mode());
        let t0 = Instant::now();
        let parsed = parse_request(line.trim());
        parse_request_ns.0 += t0.elapsed().as_nanos() as f64;
        parse_request_ns.1 += 1;
        std::hint::black_box(parsed.is_ok());
    }
}

fn traced_layers(
    observed: &Observed<'_>,
    lab: &Lab,
    artifact: &ModelArtifact,
    refs: &References,
    mut tr: Tracer,
    report: &mut Report,
) -> Result<(), ColocError> {
    let Observed {
        inputs,
        fixed,
        fixed_frame,
        final_frame,
        ..
    } = observed;
    let mut acc = Samples::default();
    let client = trace::totals(tr.spans());
    let mean = |name: &str| client.get(name).map_or(0.0, LayerTotals::mean_ns);
    acc.add("proto.parse_reply_ns", "ns", mean("proto.parse_reply"));
    let (parse_ns, parses) = observed.parse_request;
    acc.add(
        "proto.parse_request_ns",
        "ns",
        parse_ns / parses.max(1) as f64,
    );

    // The server's own accounting.
    let batch_mean = final_frame.batched_queries as f64 / final_frame.batches.max(1) as f64;
    acc.add("server.batch_mean", "count", batch_mean);
    acc.add("server.p50_ms", "ms", fixed_frame.latency_p50_ms);
    acc.add("server.p99_ms", "ms", fixed_frame.latency_p99_ms);
    acc.add(
        "serve.wire_p50_ms",
        "ms",
        fixed.p50_ms - fixed_frame.latency_p50_ms,
    );
    acc.add("server.shed", "count", final_frame.shed_overload as f64);
    acc.add(
        "server.shed_deadline",
        "count",
        final_frame.shed_deadline as f64,
    );
    acc.add(
        "server.dropped",
        "count",
        final_frame.dropped_responses as f64,
    );
    acc.add(
        "server.degraded",
        "count",
        (final_frame.degraded_cache + final_frame.degraded_fallback) as f64,
    );
    let lookups = (final_frame.cache_hits + final_frame.cache_misses).max(1);
    acc.add(
        "server.cache_hit_ratio",
        "ratio",
        final_frame.cache_hits as f64 / lookups as f64,
    );
    acc.add("gen.late_p99_ms", "ms", fixed.late_p99_ms);
    acc.add("parallel.calls", "count", final_frame.batches as f64);
    // One `run_indexed` call at the server's thread count and the run's
    // mean batch size, with a trivial body.
    let n = batch_mean.round().max(1.0) as usize;
    let mut calls = Vec::new();
    for _ in 0..200 {
        let t0 = Instant::now();
        std::hint::black_box(coloc_ml::parallel::run_indexed(
            n,
            config().engine_threads,
            std::hint::black_box,
        ));
        calls.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    acc.add("parallel.call_us", "us", Summary::of(&calls).median);
    let client_ms = (mean("client.send") + mean("proto.parse_reply")) * 1e-6;
    acc.add(
        "path.unattributed_pct",
        "%",
        (fixed.p50_ms - fixed_frame.latency_p50_ms - client_ms) / fixed.p50_ms * 100.0,
    );

    // The server's per-query layer path, replayed from outside in query
    // order on a lab seeded like the server's: measure queries lower,
    // digest, probe and (first seen) run the engine; predict queries
    // featurize and predict. Every replayed answer must equal the
    // reference answer bit for bit.
    let mut replay = Replay::new(lab, Some(&artifact.predictor));
    let mut mismatched = 0;
    let warm = (0..inputs.pool.len()).map(QueryKind::Measure);
    for (id, kind) in warm.chain(observed.kinds.iter().copied()).enumerate() {
        let id = id as u64;
        let ok = tr.span("serve.query", id, |tr| -> Result<bool, ColocError> {
            Ok(match kind {
                QueryKind::Predict(i) => {
                    let sc = &inputs.predict[i];
                    let (_, p) = replay.features(tr, id, sc)?;
                    p.map(f64::to_bits) == refs.predicted.get(sc).map(|v| v.to_bits())
                }
                QueryKind::Measure(i) | QueryKind::FirstSeen(i) => {
                    let sc = match kind {
                        QueryKind::Measure(_) => &inputs.pool[i],
                        _ => &inputs.first_seen[i],
                    };
                    let t = replay.measure(tr, id, sc)?;
                    Some(t.to_bits()) == refs.measured.get(sc).map(|v| v.to_bits())
                }
            })
        })?;
        mismatched += usize::from(!ok);
    }
    report.check(
        "serve: replayed layer path reproduces every reference answer",
        mismatched == 0,
        format!("{mismatched} differ"),
    );
    let totals = trace::totals(tr.spans());
    add_layer_samples(&mut acc, &totals, std::slice::from_ref(&replay));
    add_cache_samples(&mut acc, [replay.cache_stats()]);
    let distinct: Vec<Scenario> = inputs
        .pool
        .iter()
        .chain(&inputs.first_seen)
        .chain(&inputs.predict)
        .cloned()
        .collect();
    acc.add(
        "engine.stage_stats_cost_pct",
        "%",
        stage_stats_cost_pct(lab.machine().spec(), config().seed, &distinct)?,
    );
    acc.into_report(report);
    report.spans = tr.spans().to_vec();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Query;

    #[test]
    fn unanswered_late_and_shed_queries_count_as_failed() {
        let due = Instant::now();
        let answered = |after_ms: u64, answer: Answer| Record {
            kind: QueryKind::Measure(0),
            due,
            sent: (due, due),
            received: Some(due + Duration::from_millis(after_ms)),
            parse: (due, due),
            answer: Some(answer),
        };
        let ok = Answer::Ok {
            time_s: 1.0,
            source: Source::Cache,
            degraded: false,
        };
        let records = vec![
            answered(1, ok),
            // Never answered: the reply was dropped or never sent.
            Record {
                received: None,
                answer: None,
                ..answered(1, ok)
            },
            // Answered, but after the reply deadline.
            answered(2_000, ok),
            answered(1, Answer::Overloaded),
        ];
        let phase = Phase {
            name: "test".into(),
            rate: 1.0,
            duration_s: 4.0,
            queries: (0..4)
                .map(|i| Query {
                    due_s: f64::from(i),
                    kind: QueryKind::Measure(0),
                })
                .collect(),
        };
        let s = PhaseSummary::of(&phase, &records);
        assert_eq!((s.sent, s.succeeded, s.failed()), (4, 1, 3));
        assert_eq!((s.unanswered, s.shed, s.unsent), (1, 1, 0));
        assert!(!s.meets_slo());
        // A failed query counts at the reply deadline in the quantiles.
        assert_eq!(s.p99_ms, REPLY_DEADLINE.as_secs_f64() * 1e3);
        assert_eq!(records[2].latency_ms(), s.p99_ms);
    }
}
