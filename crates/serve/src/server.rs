//! The `coloc serve` daemon: admission → batch → sweep → respond.
//!
//! One process, four kinds of threads:
//!
//! * the **accept loop** (the thread that called [`Server::run`]) hands
//!   each connection a reader and a writer thread, up to
//!   [`MAX_CONNECTIONS`] open at once, emits the periodic stats frame,
//!   and watches the drain latch;
//! * per-connection **readers** parse request lines and either answer
//!   inline (`ping`, `stats`) or push queries through the
//!   [`AdmissionQueue`] — which is where load shedding happens, before
//!   any work is done;
//! * per-connection **writers** drain a *bounded* response channel to
//!   the socket, each line together with every line waiting behind it
//!   in one write, so a slow or stalled client can never hold a lock or
//!   a worker: when its channel is full, responses are counted dropped
//!   and the engine moves on;
//! * the **dispatcher** pops admitted queries in batches and groups them
//!   by machine. It answers every query that needs no engine run itself
//!   (expired deadlines, predictions, cache hits, degraded rungs) and
//!   hands each group's cache misses to one work-stealing engine sweep
//!   on the worker pool; replies leave in arrival order.
//!
//! Degradation is a ladder, decided per batch from the queue depth at
//! dispatch time: below the watermark every `measure` query gets the
//! real engine (memoized runs are answered from the sharded cache and
//! labeled `"cache"`); above it the engine is considered saturated and
//! queries are answered from the cache when resident, else by the
//! linear fallback predictor — approximate, explicitly flagged
//! `degraded: true`, but O(µs) instead of O(ms) and immune to queue
//! collapse.
//!
//! Model artifacts are hot-swappable: SIGHUP or a `reload` frame
//! re-resolves every active slot through the [`ModelRegistry`] (the
//! configured artifact file is re-read; self-trained fallbacks are
//! re-resolved by digest) and swaps each slot atomically. Requests
//! in flight keep the `Arc` they grabbed at dispatch, so every answer
//! comes from exactly one model epoch — no drain, no blend.
//!
//! Shutdown (SIGTERM, SIGINT, or a `shutdown` frame) latches the drain:
//! the listener stops accepting, admission refuses with
//! `shutting_down`, the dispatcher finishes everything already
//! admitted, writers flush, and the final stats frame is emitted.

use crate::admission::AdmissionQueue;
use crate::proto::{self, QueryMode, QueryRequest, Request};
use crate::signals;
use crate::telemetry::{Counters, LatencyHistogram, StatsFrame};
use coloc_machine::presets;
use coloc_model::{
    ColocError, FeatureSet, Lab, ModelArtifact, ModelKind, ModelRegistry, TrainPolicy,
    TrainRequest, TrainingPlan,
};
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, RwLock};
use std::time::{Duration, Instant};

/// Where the server listens.
#[derive(Clone, Debug)]
pub enum BindAddr {
    /// TCP, e.g. `127.0.0.1:7105` (port 0 = ephemeral, see
    /// [`ServerHandle::local_addr`]).
    Tcp(String),
    /// A Unix domain socket path (Unix targets only).
    Unix(std::path::PathBuf),
}

/// Everything `coloc serve` can be configured with.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address.
    pub bind: BindAddr,
    /// Lab seed — served `measure` answers are bit-identical to a
    /// `Lab::collect` under the same seed.
    pub seed: u64,
    /// Machine preset answering queries that name no `machine`.
    pub default_machine: String,
    /// Admission-queue bound; beyond it queries shed with `overloaded`.
    pub admission_capacity: usize,
    /// Queue depth at which dispatch switches to the degraded ladder.
    pub degrade_watermark: usize,
    /// Most queries answered by one engine sweep.
    pub max_batch: usize,
    /// Threads running one dispatched batch's engine runs (0 = one per
    /// CPU). The dispatcher answers every query that needs no engine
    /// run itself, then hands the batch's cache misses to this many
    /// helpers of the process-wide worker pool
    /// ([`coloc_ml::parallel::run_indexed`]) and waits; a single miss
    /// runs on the dispatcher. Also the labs' sweep thread count, which
    /// training the fallback model uses in full: a batch's model is
    /// resolved on the dispatcher, never inside a pool task.
    pub engine_threads: usize,
    /// Deadline applied to queries that carry none.
    pub default_deadline_ms: u64,
    /// Backoff hint attached to `overloaded` responses.
    pub retry_hint_ms: u64,
    /// Cadence of the periodic stats frame.
    pub stats_interval: Duration,
    /// Suppress periodic frames on stdout (tests, benches).
    pub quiet: bool,
    /// Registry model artifact for the default machine (as written by
    /// `coloc train` / `ModelRegistry::save`); `None` trains the linear
    /// fallback at startup. Re-read on every hot reload (SIGHUP or the
    /// `reload` wire verb).
    pub model_path: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            bind: BindAddr::Tcp("127.0.0.1:0".into()),
            seed: 2015,
            default_machine: "e5649".into(),
            admission_capacity: 256,
            degrade_watermark: 128,
            max_batch: 32,
            engine_threads: 0,
            default_deadline_ms: 2_000,
            retry_hint_ms: 50,
            stats_interval: Duration::from_secs(10),
            quiet: false,
            model_path: None,
        }
    }
}

/// The presets the service answers for, in `labs` order: the paper's two
/// platforms.
const SERVED: [&presets::Preset; 2] = [&presets::PRESETS[0], &presets::PRESETS[1]];

/// The served lab a machine key names. Keys resolve through
/// [`presets::lookup`], as the CLI's do; a success allocates nothing.
fn machine_index(key: &str) -> Result<usize, String> {
    let preset = presets::lookup(key).ok_or_else(|| format!("unknown machine `{key}`"))?;
    SERVED
        .iter()
        .position(|p| p.key == preset.key)
        .ok_or_else(|| {
            format!(
                "machine `{key}` is not served (serve answers {} and {})",
                SERVED[0].key, SERVED[1].key
            )
        })
}

/// One admitted query waiting for dispatch.
struct Pending {
    req: QueryRequest,
    lab_idx: usize,
    reply: SyncSender<String>,
    enqueued: Instant,
    deadline: Instant,
}

/// State shared by every thread of one server instance.
struct Shared {
    cfg: ServeConfig,
    /// `labs` index of `cfg.default_machine`, resolved once at bind.
    default_idx: usize,
    labs: Vec<(&'static str, Lab)>,
    /// One hot-swappable model slot per lab. `None` until the first
    /// query (or warm-up) resolves it through the registry; swapped
    /// atomically by [`Shared::reload`]. Resolution *failures* are
    /// never stored, so a transient error (missing artifact file,
    /// truncated write) is retried on the next query instead of
    /// poisoning the slot for the life of the process.
    models: Vec<RwLock<Option<Arc<ModelArtifact>>>>,
    /// The digest-addressed artifact cache backing every slot.
    registry: ModelRegistry,
    /// Bumped once per successful [`Shared::reload`]; 0 at startup.
    /// Reported in every stats frame so clients can observe swaps.
    model_epoch: AtomicU64,
    queue: AdmissionQueue<Pending>,
    counters: Counters,
    latency: LatencyHistogram,
    drain: AtomicBool,
    started: Instant,
}

impl Shared {
    fn new(cfg: ServeConfig) -> Result<Shared, ColocError> {
        let default_idx = machine_index(&cfg.default_machine)
            .map_err(|e| ColocError::InvalidSpec(format!("default machine: {e}")))?;
        let suite = coloc_workloads::standard();
        let labs = SERVED
            .iter()
            .map(|p| {
                let lab = Lab::new((p.spec)(), suite.clone(), cfg.seed)?;
                Ok((p.key, lab.with_threads(cfg.engine_threads)))
            })
            .collect::<Result<Vec<_>, ColocError>>()?;
        let queue = AdmissionQueue::new(cfg.admission_capacity);
        Ok(Shared {
            models: (0..labs.len()).map(|_| RwLock::new(None)).collect(),
            default_idx,
            registry: ModelRegistry::new(),
            model_epoch: AtomicU64::new(0),
            labs,
            queue,
            counters: Counters::default(),
            latency: LatencyHistogram::new(),
            drain: AtomicBool::new(false),
            started: Instant::now(),
            cfg,
        })
    }

    fn should_drain(&self) -> bool {
        self.drain.load(Ordering::Acquire) || signals::termination_requested()
    }

    fn request_drain(&self) {
        self.drain.store(true, Ordering::Release);
        self.queue.start_drain();
    }

    /// A compact training plan for the self-trained fallback: every
    /// suite app × the four class representatives × the P-state and
    /// count extremes. Enough spread for a sane linear fit, cheap
    /// enough (~0.2k scenarios) to run at startup.
    fn fallback_plan(lab: &Lab) -> TrainingPlan {
        let spec = lab.machine().spec();
        TrainingPlan {
            pstates: vec![0, spec.num_pstates() - 1],
            targets: lab.suite().iter().map(|b| b.name.to_string()).collect(),
            co_runners: coloc_workloads::suite::training_co_runners()
                .iter()
                .map(|b| b.name.to_string())
                .collect(),
            counts: vec![1, spec.cores - 1],
        }
    }

    /// The registry [`TrainRequest`] behind the self-trained fallback
    /// model for `labs[idx]`: linear kind, full feature set, robust
    /// ladder — same request every time, so the registry memoizes it by
    /// digest and re-resolution after a reload is free.
    fn fallback_request(&self, idx: usize) -> TrainRequest {
        TrainRequest {
            kind: ModelKind::Linear,
            set: FeatureSet::F,
            plan: Self::fallback_plan(&self.labs[idx].1),
            seed: self.cfg.seed,
            policy: Some(TrainPolicy::default()),
        }
    }

    /// Resolve the model artifact for `labs[idx]` through the registry:
    /// load from `model_path` when one is configured and `idx` is the
    /// default machine, else train the fallback request. Errors are
    /// returned, never cached — the next call retries from scratch.
    fn resolve_model(&self, idx: usize) -> Result<Arc<ModelArtifact>, ColocError> {
        if let Some(path) = &self.cfg.model_path {
            if idx == self.default_idx {
                return self.registry.load(path);
            }
        }
        self.registry
            .resolve(&self.labs[idx].1, &self.fallback_request(idx))
    }

    /// The model artifact answering `predict` queries and fallback
    /// answers for `labs[idx]`. Fast path is a read lock on a filled
    /// slot; on the first call (or after a failed resolution) the slot
    /// is filled under the write lock, double-checked so concurrent
    /// first queries resolve once.
    fn model(&self, idx: usize) -> Result<Arc<ModelArtifact>, ColocError> {
        if let Some(artifact) = self.models[idx].read().expect("model slot").as_ref() {
            return Ok(Arc::clone(artifact));
        }
        let mut slot = self.models[idx].write().expect("model slot");
        if let Some(artifact) = slot.as_ref() {
            return Ok(Arc::clone(artifact));
        }
        let artifact = self.resolve_model(idx)?;
        *slot = Some(Arc::clone(&artifact));
        Ok(artifact)
    }

    /// Hot-swap every initialized model slot and bump the epoch — the
    /// `reload` wire verb and SIGHUP both land here. Each slot is
    /// re-resolved *before* its write lock is taken, so in-flight
    /// requests keep answering on the artifact `Arc` they already hold
    /// and the swap itself is a pointer store: no drain, no blend.
    /// Uninitialized slots stay lazy. Any failed resolution aborts the
    /// reload with every slot (and the epoch) untouched.
    fn reload(&self) -> Result<(u64, String), ColocError> {
        let mut fresh: Vec<(usize, Arc<ModelArtifact>)> = Vec::new();
        for idx in 0..self.labs.len() {
            let initialized = self.models[idx].read().expect("model slot").is_some();
            if initialized {
                fresh.push((idx, self.resolve_model(idx)?));
            }
        }
        for (idx, artifact) in fresh {
            *self.models[idx].write().expect("model slot") = Some(artifact);
        }
        let epoch = self.model_epoch.fetch_add(1, Ordering::AcqRel) + 1;
        Ok((epoch, self.active_model_digest()))
    }

    /// Digest of the default machine's active artifact (hex), or empty
    /// until its slot is first filled.
    fn active_model_digest(&self) -> String {
        self.models[self.default_idx]
            .read()
            .expect("model slot")
            .as_ref()
            .map(|a| a.digest_hex())
            .unwrap_or_default()
    }

    /// Run-cache traffic summed across labs.
    fn cache_traffic(&self) -> (u64, u64, u64) {
        self.labs.iter().fold((0, 0, 0), |acc, (_, lab)| {
            let s = lab.sweep_stats();
            (
                acc.0 + s.cache_hits,
                acc.1 + s.cache_misses,
                acc.2 + s.cache_evictions,
            )
        })
    }

    fn frame(&self) -> StatsFrame {
        StatsFrame::snapshot(
            self.started.elapsed().as_secs_f64(),
            self.queue.depth(),
            &self.counters,
            &self.latency,
            self.cache_traffic(),
            (
                self.model_epoch.load(Ordering::Acquire),
                self.active_model_digest(),
            ),
        )
    }

    fn bump(counter: &std::sync::atomic::AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Answer one admitted query. Returns the response line, or `None`
    /// when `run` is false and the answer needs an engine run (an
    /// undegraded `measure` query whose run is not cached). `model` is
    /// the lab's artifact as the dispatcher resolved it for this batch;
    /// with `None` the query resolves it itself if it needs one.
    fn answer(
        &self,
        p: &Pending,
        degraded: bool,
        model: Option<&Result<Arc<ModelArtifact>, ColocError>>,
        run: bool,
    ) -> Option<String> {
        let id = p.req.id.as_deref();
        if Instant::now() > p.deadline {
            Self::bump(&self.counters.shed_deadline);
            let deadline_ms = p.req.deadline_ms.unwrap_or(self.cfg.default_deadline_ms);
            return Some(proto::err_line(id, &ColocError::Timeout { deadline_ms }, 0));
        }
        let lab = &self.labs[p.lab_idx].1;
        let sc = &p.req.scenario;
        let base_time = lab
            .baselines()
            .get(&sc.target)
            .and_then(|b| b.time_at(sc.pstate));
        let reply = |time_s: f64, source: &str, is_degraded: bool| {
            let slowdown = base_time.map(|b| time_s / b);
            proto::ok_line(id, time_s, slowdown, source, is_degraded)
        };
        // The artifact Arc is grabbed once per batch: a reload mid-batch
        // swaps the slot, not this batch's model, so every answer comes
        // from exactly one epoch's artifact.
        let model = || model.cloned().unwrap_or_else(|| self.model(p.lab_idx));
        let line = match p.req.mode {
            QueryMode::Predict => match model() {
                Ok(model) => match lab.featurize(sc) {
                    Ok(features) => reply(model.predictor.predict(&features), "predictor", false),
                    Err(e) => proto::err_line(id, &e, 0),
                },
                Err(e) => proto::err_line(id, &e, 0),
            },
            QueryMode::Measure if !degraded => match lab.cached_run(sc) {
                Ok(Some(t)) => reply(t, "cache", false),
                Ok(None) if !run => return None,
                Ok(None) => match lab.run_scenario(sc) {
                    Ok(t) => reply(t, "engine", false),
                    Err(e) => proto::err_line(id, &e, 0),
                },
                Err(e) => proto::err_line(id, &e, 0),
            },
            QueryMode::Measure => match lab.cached_run(sc) {
                // Degraded rung 1: a memoized run is still exact.
                Ok(Some(t)) => {
                    Self::bump(&self.counters.degraded_cache);
                    reply(t, "cache", true)
                }
                // Degraded rung 2: approximate, never the engine.
                Ok(None) => match model() {
                    Ok(model) => match lab.featurize(sc) {
                        Ok(features) => {
                            Self::bump(&self.counters.degraded_fallback);
                            reply(model.predictor.predict(&features), "fallback", true)
                        }
                        Err(e) => proto::err_line(id, &e, 0),
                    },
                    Err(e) => proto::err_line(id, &e, 0),
                },
                Err(e) => proto::err_line(id, &e, 0),
            },
        };
        Some(line)
    }

    /// Deliver a response line without ever blocking on the client.
    fn send(&self, pending: &Pending, line: String) {
        match pending.reply.try_send(line) {
            Ok(()) => {
                Self::bump(&self.counters.completed);
                self.latency
                    .record_us(pending.enqueued.elapsed().as_micros() as u64);
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                Self::bump(&self.counters.dropped_responses);
            }
        }
    }

    /// The dispatcher: pops admitted batches until drained-and-empty.
    fn dispatch_loop(&self) {
        loop {
            if self.queue.drained() {
                return;
            }
            let depth = self.queue.depth();
            let batch = self
                .queue
                .pop_batch(self.cfg.max_batch, Duration::from_millis(20));
            if batch.is_empty() {
                continue;
            }
            let degraded = depth > self.cfg.degrade_watermark;
            // Group by machine, preserving arrival order within a group.
            // Each group's answers are made here, on the dispatcher,
            // except its cache misses, which run through one
            // `run_indexed` call: a pool hand-off costs more than an
            // answer that needs no engine run.
            let mut groups: Vec<(usize, Vec<Pending>)> = Vec::new();
            for p in batch {
                match groups.iter_mut().find(|(idx, _)| *idx == p.lab_idx) {
                    Some((_, g)) => g.push(p),
                    None => groups.push((p.lab_idx, vec![p])),
                }
            }
            for (lab_idx, group) in groups {
                Self::bump(&self.counters.batches);
                self.counters
                    .batched_queries
                    .fetch_add(group.len() as u64, Ordering::Relaxed);
                // Resolve the model here, before the fan-out: a first
                // resolution may train the fallback, itself a
                // `run_indexed` sweep, which inside a pool task would get
                // only the helpers that happen to be idle.
                let needs_model =
                    degraded || group.iter().any(|p| p.req.mode == QueryMode::Predict);
                let model = needs_model.then(|| self.model(lab_idx));
                let mut lines: Vec<Option<String>> = group
                    .iter()
                    .map(|p| self.answer(p, degraded, model.as_ref(), false))
                    .collect();
                let misses: Vec<usize> = (0..group.len()).filter(|&i| lines[i].is_none()).collect();
                // A miss task answers its query from the top: its deadline
                // is checked again, and a scenario an earlier task of the
                // batch just ran is answered from the cache.
                let runs =
                    coloc_ml::parallel::run_indexed(misses.len(), self.cfg.engine_threads, |k| {
                        self.answer(&group[misses[k]], degraded, model.as_ref(), true)
                    });
                for (&i, line) in misses.iter().zip(runs) {
                    lines[i] = line;
                }
                // Replies leave in arrival order, misses in their place.
                for (pending, line) in group.iter().zip(lines) {
                    if let Some(line) = line {
                        self.send(pending, line);
                    }
                }
            }
        }
    }
}

/// Maximum accepted request-line length; longer lines are a protocol
/// violation and close the connection (bounds per-connection memory).
pub const MAX_LINE: usize = 1 << 20;

/// How long one `accept` waits for a connection before the accept loop
/// checks the drain latch, SIGHUP and the stats frame. A connection is
/// accepted as soon as it arrives; the wait only bounds how often an idle
/// loop wakes.
const ACCEPT_WAIT: Duration = Duration::from_millis(50);

/// `accept` waits at most [`ACCEPT_WAIT`]: Linux bounds a blocking
/// `accept` by the listener's `SO_RCVTIMEO` and then fails it with
/// `EAGAIN`. The option is set through `setsockopt` declared here, as
/// [`signals`] declares its two C functions, for the targets whose
/// `SO_RCVTIMEO` and `struct timeval` layout it spells out.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod accept_wait {
    use std::io;
    use std::os::fd::AsRawFd;

    /// Whether `accept` returns on its own when no client connects.
    pub const BOUNDED: bool = true;

    const SOL_SOCKET: i32 = 1;
    const SO_RCVTIMEO: i32 = 20;

    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }

    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }

    /// Bound every `accept` on the fresh, blocking `listener` to
    /// [`super::ACCEPT_WAIT`].
    pub fn bound(listener: &super::Listener) -> io::Result<()> {
        let fd = match listener {
            super::Listener::Tcp(l) => l.as_raw_fd(),
            super::Listener::Unix(l, _) => l.as_raw_fd(),
        };
        let wait = super::ACCEPT_WAIT;
        let tv = Timeval {
            tv_sec: wait.as_secs() as i64,
            tv_usec: i64::from(wait.subsec_micros()),
        };
        // SAFETY: `fd` is an open socket for the whole call, and `value`
        // points at a live `struct timeval` of exactly `len` bytes, which
        // the kernel only reads.
        let rc = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                SO_RCVTIMEO,
                (&tv as *const Timeval).cast(),
                std::mem::size_of::<Timeval>() as u32,
            )
        };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }
}

/// Elsewhere the listener is nonblocking and the accept loop sleeps
/// between polls.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod accept_wait {
    /// Whether `accept` returns on its own when no client connects.
    pub const BOUNDED: bool = false;

    /// Make the fresh `listener` nonblocking.
    pub fn bound(listener: &super::Listener) -> std::io::Result<()> {
        match listener {
            super::Listener::Tcp(l) => l.set_nonblocking(true),
            #[cfg(unix)]
            super::Listener::Unix(l, _) => l.set_nonblocking(true),
        }
    }
}

/// One bound listen socket, TCP or Unix, behind a common accept that
/// never blocks past [`ACCEPT_WAIT`]. Accepted connections come back as
/// boxed read/write halves so the reader/writer threads are
/// transport-agnostic.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener, std::path::PathBuf),
}

impl Listener {
    fn accept(&self) -> io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        match self {
            Listener::Tcp(l) => {
                let (conn, _peer) = l.accept()?;
                conn.set_nonblocking(false)?;
                // Answers are small frames; Nagle + delayed ACK would put
                // tens of milliseconds on every response.
                conn.set_nodelay(true)?;
                conn.set_read_timeout(Some(Duration::from_millis(100)))?;
                let writer = conn.try_clone()?;
                writer.set_write_timeout(Some(Duration::from_secs(2)))?;
                Ok((Box::new(conn), Box::new(writer)))
            }
            #[cfg(unix)]
            Listener::Unix(l, _) => {
                let (conn, _peer) = l.accept()?;
                conn.set_nonblocking(false)?;
                conn.set_read_timeout(Some(Duration::from_millis(100)))?;
                let writer = conn.try_clone()?;
                writer.set_write_timeout(Some(Duration::from_secs(2)))?;
                Ok((Box::new(conn), Box::new(writer)))
            }
        }
    }

    fn local_addr(&self) -> Option<std::net::SocketAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Listener::Unix(..) => None,
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Read side of one connection.
fn reader_loop(shared: &Shared, mut conn: Box<dyn Read + Send>, reply: SyncSender<String>) {
    let mut pending = Vec::new();
    // Bytes at the front of `pending` already searched for a newline.
    let mut scanned = 0;
    let mut chunk = [0u8; 4096];
    loop {
        if shared.should_drain() {
            return;
        }
        let n = match conn.read(&mut chunk) {
            Ok(0) => return, // EOF
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        pending.extend_from_slice(&chunk[..n]);
        if pending.len() > MAX_LINE {
            Shared::bump(&shared.counters.bad_requests);
            let _ = reply.try_send(proto::bad_request_line("request line exceeds 1 MiB"));
            return;
        }
        while let Some(at) = pending[scanned..].iter().position(|&b| b == b'\n') {
            let nl = scanned + at;
            scanned = 0;
            let line: Vec<u8> = pending.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line[..nl]);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            handle_line(shared, line, &reply);
        }
        scanned = pending.len();
    }
}

/// Parse and route one request line from a reader thread.
fn handle_line(shared: &Shared, line: &str, reply: &SyncSender<String>) {
    match proto::parse_request(line) {
        Err(detail) => {
            Shared::bump(&shared.counters.bad_requests);
            let _ = reply.try_send(proto::bad_request_line(&detail));
        }
        Ok(Request::Ping) => {
            Shared::bump(&shared.counters.pings);
            let _ = reply.try_send(proto::pong_line());
        }
        Ok(Request::Stats) => {
            let frame = shared.frame();
            let line = serde_json::to_string(&frame).expect("stats frame serializes");
            let _ = reply.try_send(line);
        }
        Ok(Request::Reload) => match shared.reload() {
            Ok((epoch, digest)) => {
                let _ = reply.try_send(proto::reload_line(epoch, &digest));
            }
            Err(e) => {
                let _ = reply.try_send(proto::err_line(None, &e, 0));
            }
        },
        Ok(Request::Shutdown) => {
            shared.request_drain();
            let _ = reply.try_send(proto::err_line(None, &ColocError::ShuttingDown, 0));
        }
        Ok(Request::Query(req)) => {
            let id = req.id.clone();
            let lab_idx = match &req.machine {
                None => shared.default_idx,
                Some(key) => match machine_index(key) {
                    Ok(idx) => idx,
                    Err(e) => {
                        Shared::bump(&shared.counters.bad_requests);
                        let _ = reply.try_send(proto::bad_request_line(&e));
                        return;
                    }
                },
            };
            let now = Instant::now();
            let deadline_ms = req.deadline_ms.unwrap_or(shared.cfg.default_deadline_ms);
            let entry = Pending {
                req,
                lab_idx,
                reply: reply.clone(),
                enqueued: now,
                deadline: now + Duration::from_millis(deadline_ms),
            };
            match shared.queue.try_admit(entry) {
                Ok(()) => Shared::bump(&shared.counters.admitted),
                Err(e) => {
                    match e {
                        ColocError::Overloaded { .. } => {
                            Shared::bump(&shared.counters.shed_overload)
                        }
                        _ => Shared::bump(&shared.counters.rejected_shutdown),
                    }
                    let _ = reply.try_send(proto::err_line(
                        id.as_deref(),
                        &e,
                        shared.cfg.retry_hint_ms,
                    ));
                }
            }
        }
    }
}

/// Write side of one connection: drains the bounded channel until every
/// sender (reader + pending queries) is gone, then closes. Each line goes
/// out with its newline and every line already waiting behind it, in one
/// write. After a write failure the channel keeps draining into the void
/// so no sender can ever block on a dead client.
fn writer_loop(mut conn: Box<dyn Write + Send>, rx: Receiver<String>) {
    let mut dead = false;
    let mut out = String::new();
    while let Ok(line) = rx.recv() {
        if dead {
            continue;
        }
        out.clear();
        for line in std::iter::once(line).chain(rx.try_iter().take(REPLY_CHANNEL_BOUND)) {
            out.push_str(&line);
            out.push('\n');
        }
        if conn.write_all(out.as_bytes()).is_err() {
            dead = true;
        }
    }
    let _ = conn.flush();
}

/// Per-connection response-channel bound: when a slow reader lets this
/// many lines pile up, further responses are dropped (and counted)
/// rather than blocking the engine.
const REPLY_CHANNEL_BOUND: usize = 256;

/// Most connections open at once, each holding a reader and a writer
/// thread. The accept loop answers a connection past the bound itself,
/// with one `too_many_connections` line carrying the retry hint, closes
/// it, spawns nothing for it and counts it in the stats frame. A
/// connection stays open until both of its threads have exited.
pub const MAX_CONNECTIONS: usize = 64;

/// A running server, as seen by the thread that spawned it.
pub struct ServerHandle {
    addr: Option<std::net::SocketAddr>,
    shared: Arc<Shared>,
    join: std::thread::JoinHandle<StatsFrame>,
}

impl ServerHandle {
    /// The actually-bound TCP address (resolves ephemeral ports);
    /// `None` for Unix-socket servers, whose path is in the config.
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.addr
    }

    /// Request a graceful drain, exactly like SIGTERM.
    pub fn shutdown(&self) {
        self.shared.request_drain();
    }

    /// Hot-swap model artifacts, exactly like SIGHUP or the `reload`
    /// wire verb. Returns the new epoch and the default machine's
    /// active artifact digest.
    pub fn reload(&self) -> Result<(u64, String), ColocError> {
        self.shared.reload()
    }

    /// Snapshot the live stats frame.
    pub fn stats(&self) -> StatsFrame {
        self.shared.frame()
    }

    /// Wait for the drain to complete and return the final stats frame.
    pub fn join(self) -> StatsFrame {
        self.join.join().expect("server thread panicked")
    }
}

/// The server. Construct with a config, then either [`Server::run`] on
/// the current thread (the CLI daemon path) or [`Server::spawn`] for a
/// background instance (tests, benches).
pub struct Server;

impl Server {
    /// Run to completion on the calling thread: binds, serves until a
    /// drain is requested (signal, `shutdown` frame, or
    /// [`ServerHandle::shutdown`]), drains, and returns the final frame.
    pub fn run(cfg: ServeConfig) -> Result<StatsFrame, ColocError> {
        let (listener, shared) = Self::bind(cfg)?;
        Ok(Self::serve(listener, shared))
    }

    /// Bind and serve on a background thread.
    pub fn spawn(cfg: ServeConfig) -> Result<ServerHandle, ColocError> {
        let (listener, shared) = Self::bind(cfg)?;
        let addr = listener.local_addr();
        let thread_shared = Arc::clone(&shared);
        let join = std::thread::spawn(move || Self::serve(listener, thread_shared));
        Ok(ServerHandle { addr, shared, join })
    }

    fn bind(cfg: ServeConfig) -> Result<(Listener, Arc<Shared>), ColocError> {
        // Refuses an unknown or unserved default machine before binding.
        let shared = Arc::new(Shared::new(cfg)?);
        let listener = match &shared.cfg.bind {
            BindAddr::Tcp(addr) => Listener::Tcp(
                TcpListener::bind(addr)
                    .map_err(|e| ColocError::Machine(format!("bind {addr}: {e}")))?,
            ),
            #[cfg(unix)]
            BindAddr::Unix(path) => {
                let _ = std::fs::remove_file(path); // stale socket from a crash
                let l = std::os::unix::net::UnixListener::bind(path)
                    .map_err(|e| ColocError::Machine(format!("bind {}: {e}", path.display())))?;
                Listener::Unix(l, path.clone())
            }
            #[cfg(not(unix))]
            BindAddr::Unix(_) => {
                return Err(ColocError::InvalidSpec(
                    "unix sockets are not supported on this platform".into(),
                ))
            }
        };
        accept_wait::bound(&listener)
            .map_err(|e| ColocError::Machine(format!("accept wait: {e}")))?;
        // Warm the default machine before accepting: baselines + the
        // fallback predictor, so the degraded ladder never trains under
        // pressure and first-query latency is honest.
        shared.labs[shared.default_idx].1.baselines();
        let _ = shared.model(shared.default_idx);
        Ok((listener, shared))
    }

    fn serve(listener: Listener, shared: Arc<Shared>) -> StatsFrame {
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || shared.dispatch_loop())
        };
        // Each open connection's reader and writer.
        let mut conns: Vec<[std::thread::JoinHandle<()>; 2]> = Vec::new();
        let mut last_frame = Instant::now();
        loop {
            if shared.should_drain() {
                break;
            }
            // SIGHUP latched since the last lap: hot-swap models. A
            // failed reload (e.g. the artifact file is mid-rewrite) is
            // logged and the old models keep serving.
            if signals::take_reload_request() {
                match shared.reload() {
                    Ok((epoch, digest)) => {
                        if !shared.cfg.quiet {
                            println!("{}", proto::reload_line(epoch, &digest));
                        }
                    }
                    Err(e) => eprintln!("reload failed (keeping current models): {e}"),
                }
            }
            // Join the threads of closed connections now, not at drain:
            // an unjoined thread keeps its stack mapped, and a joined
            // connection frees its place under the bound.
            for conn in conns.extract_if(.., |c| c.iter().all(|h| h.is_finished())) {
                for h in conn {
                    let _ = h.join();
                }
            }
            match listener.accept() {
                Ok((_, mut write_half)) if conns.len() >= MAX_CONNECTIONS => {
                    Shared::bump(&shared.counters.refused_connections);
                    let refused = ColocError::TooManyConnections { open: conns.len() };
                    let line = proto::err_line(None, &refused, shared.cfg.retry_hint_ms);
                    let _ = write_half.write_all(format!("{line}\n").as_bytes());
                }
                Ok((read_half, write_half)) => {
                    let (tx, rx) = mpsc::sync_channel::<String>(REPLY_CHANNEL_BOUND);
                    let reader_shared = Arc::clone(&shared);
                    conns.push([
                        std::thread::spawn(move || reader_loop(&reader_shared, read_half, tx)),
                        std::thread::spawn(move || writer_loop(write_half, rx)),
                    ]);
                }
                // No client within the wait (or, unbounded, right now).
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if !accept_wait::BOUNDED {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
            if !shared.cfg.quiet && last_frame.elapsed() >= shared.cfg.stats_interval {
                last_frame = Instant::now();
                if let Ok(line) = serde_json::to_string(&shared.frame()) {
                    println!("{line}");
                }
            }
        }
        // Drain: refuse new admissions, let the dispatcher finish what
        // was admitted, then give every open connection's threads their
        // exit.
        shared.request_drain();
        dispatcher.join().expect("dispatcher panicked");
        for h in conns.into_iter().flatten() {
            let _ = h.join();
        }
        let frame = shared.frame();
        if !shared.cfg.quiet {
            if let Ok(line) = serde_json::to_string(&frame) {
                println!("{line}");
            }
        }
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    fn test_config() -> ServeConfig {
        ServeConfig {
            quiet: true,
            engine_threads: 1,
            ..ServeConfig::default()
        }
    }

    fn connect(handle: &ServerHandle) -> (BufReader<TcpStream>, TcpStream) {
        let conn = TcpStream::connect(handle.local_addr().unwrap()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        (BufReader::new(conn.try_clone().unwrap()), conn)
    }

    fn ask(reader: &mut BufReader<TcpStream>, conn: &mut TcpStream, line: &str) -> String {
        writeln!(conn, "{line}").unwrap();
        let mut out = String::new();
        reader.read_line(&mut out).unwrap();
        out.trim().to_string()
    }

    #[test]
    fn ping_query_stats_shutdown_lifecycle() {
        let handle = Server::spawn(test_config()).unwrap();
        let (mut reader, mut conn) = connect(&handle);

        let pong = ask(&mut reader, &mut conn, r#"{"op":"ping"}"#);
        assert!(pong.contains("pong"), "{pong}");

        let ans = ask(
            &mut reader,
            &mut conn,
            r#"{"op":"query","id":"q1","target":"cg","co":[["ep",2]],"pstate":1}"#,
        );
        let proto::Reply::Ok {
            id,
            time_s,
            slowdown,
            source,
            degraded,
        } = proto::parse_reply(&ans).unwrap()
        else {
            panic!("expected ok, got {ans}")
        };
        assert_eq!(id.as_deref(), Some("q1"));
        assert!(time_s > 0.0);
        assert!(slowdown.unwrap() >= 1.0, "co-location slows down");
        assert_eq!(source, "engine");
        assert!(!degraded);

        // Same query again: answered from the sharded cache, bit-equal.
        let again = ask(
            &mut reader,
            &mut conn,
            r#"{"op":"query","id":"q2","target":"cg","co":[["ep",2]],"pstate":1}"#,
        );
        let proto::Reply::Ok {
            time_s: t2, source, ..
        } = proto::parse_reply(&again).unwrap()
        else {
            panic!("expected ok, got {again}")
        };
        assert_eq!(t2.to_bits(), time_s.to_bits());
        assert_eq!(source, "cache");

        let stats = ask(&mut reader, &mut conn, r#"{"op":"stats"}"#);
        let proto::Reply::Stats(frame) = proto::parse_reply(&stats).unwrap() else {
            panic!("expected stats, got {stats}")
        };
        assert_eq!(frame.admitted, 2);
        assert_eq!(frame.completed, 2);
        assert_eq!(frame.pings, 1);

        let bye = ask(&mut reader, &mut conn, r#"{"op":"shutdown"}"#);
        assert!(bye.contains("shutting_down"), "{bye}");
        let final_frame = handle.join();
        assert_eq!(final_frame.completed, 2);
        assert_eq!(final_frame.queue_depth, 0);
    }

    #[test]
    fn a_batch_mixing_misses_and_inline_answers_replies_in_arrival_order() {
        let handle = Server::spawn(ServeConfig {
            engine_threads: 2,
            ..test_config()
        })
        .unwrap();
        let (mut reader, mut conn) = connect(&handle);
        // P2 is outside the fallback model's training plan, so nothing
        // at P2 is cached before the warm-up query runs.
        let warm = r#"{"op":"query","id":"w","target":"cg","co":[["ep",1]],"pstate":2}"#;
        assert!(ask(&mut reader, &mut conn, warm).contains(r#""source":"engine""#));
        // Misses, cache hits and predictions, written in one piece so
        // they reach the dispatcher together.
        let kinds = [
            "miss", "predict", "hit", "miss", "hit", "predict", "miss", "hit",
        ];
        let mut burst = String::new();
        for (i, kind) in kinds.iter().enumerate() {
            let (count, mode) = match *kind {
                "miss" => (2 + i / 3, "measure"),
                "hit" => (1, "measure"),
                _ => (3, "predict"),
            };
            burst.push_str(&format!(
                r#"{{"op":"query","id":"q{i}","target":"cg","co":[["ep",{count}]],"pstate":2,"mode":"{mode}"}}"#
            ));
            burst.push('\n');
        }
        conn.write_all(burst.as_bytes()).unwrap();
        for (i, kind) in kinds.iter().enumerate() {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let proto::Reply::Ok { id, source, .. } = proto::parse_reply(line.trim()).unwrap()
            else {
                panic!("expected ok, got {line}")
            };
            assert_eq!(id, Some(format!("q{i}")), "{line}");
            let want = match *kind {
                "miss" => "engine",
                "hit" => "cache",
                _ => "predictor",
            };
            assert_eq!(source, want, "{line}");
        }
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn predict_mode_answers_without_the_engine() {
        let handle = Server::spawn(test_config()).unwrap();
        let (mut reader, mut conn) = connect(&handle);
        let before = handle.stats();
        let ans = ask(
            &mut reader,
            &mut conn,
            r#"{"op":"query","target":"canneal","co":[["cg",3]],"mode":"predict"}"#,
        );
        let proto::Reply::Ok {
            time_s,
            source,
            degraded,
            ..
        } = proto::parse_reply(&ans).unwrap()
        else {
            panic!("expected ok, got {ans}")
        };
        assert!(time_s.is_finite() && time_s > 0.0);
        assert_eq!(source, "predictor");
        assert!(!degraded);
        let after = handle.stats();
        assert_eq!(
            after.cache_misses, before.cache_misses,
            "predict must not touch the engine"
        );
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn machine_keys_resolve_through_the_preset_table() {
        for p in presets::PRESETS {
            let served = SERVED.iter().position(|s| s.key == p.key);
            for key in std::iter::once(p.key).chain(p.aliases.iter().copied()) {
                for k in [
                    key.to_string(),
                    key.to_ascii_uppercase(),
                    key.replace('_', "-"),
                ] {
                    match (machine_index(&k), served) {
                        (Ok(idx), Some(want)) => assert_eq!(idx, want, "`{k}`"),
                        (Err(e), None) => assert!(e.contains("not served"), "`{k}`: {e}"),
                        (got, want) => panic!("`{k}`: {got:?}, want {want:?}"),
                    }
                }
            }
        }
        assert!(machine_index("cray")
            .unwrap_err()
            .contains("unknown machine"));
        // The CLI's `--machine 8core` reaches bind and is refused there.
        let cfg = ServeConfig {
            default_machine: "8core".into(),
            ..test_config()
        };
        let err = Server::spawn(cfg).err().expect("8core is not served");
        assert!(err.to_string().contains("not served"), "{err}");
    }

    #[test]
    fn bad_requests_are_answered_not_fatal() {
        let handle = Server::spawn(test_config()).unwrap();
        let (mut reader, mut conn) = connect(&handle);
        let ans = ask(&mut reader, &mut conn, "this is not json");
        assert!(ans.contains("bad_request"), "{ans}");
        let ans = ask(&mut reader, &mut conn, r#"{"op":"query","target":"doom"}"#);
        assert!(ans.contains("unknown application"), "{ans}");
        let ans = ask(
            &mut reader,
            &mut conn,
            r#"{"op":"query","target":"cg","machine":"cray"}"#,
        );
        assert!(ans.contains("unknown machine"), "{ans}");
        // The connection is still healthy.
        let pong = ask(&mut reader, &mut conn, r#"{"op":"ping"}"#);
        assert!(pong.contains("pong"), "{pong}");
        let frame = handle.stats();
        assert_eq!(frame.bad_requests, 2);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn second_machine_is_served_on_demand() {
        let handle = Server::spawn(test_config()).unwrap();
        let (mut reader, mut conn) = connect(&handle);
        let ans = ask(
            &mut reader,
            &mut conn,
            r#"{"op":"query","target":"ep","machine":"12core","pstate":0}"#,
        );
        let proto::Reply::Ok { time_s, .. } = proto::parse_reply(&ans).unwrap() else {
            panic!("expected ok, got {ans}")
        };
        assert!(time_s > 0.0);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn first_predict_batch_on_the_second_machine_trains_its_model() {
        let handle = Server::spawn(ServeConfig {
            engine_threads: 2,
            ..test_config()
        })
        .unwrap();
        let (mut reader, mut conn) = connect(&handle);
        let query = |id: usize, target: &str| {
            format!(
                r#"{{"op":"query","id":"q{id}","target":"{target}","co":[["cg",3]],"machine":"12core","mode":"predict"}}"#
            )
        };
        let targets = ["canneal", "cg", "ep", "ft", "bodytrack"];
        // Written back to back, so predicts reach the 12-core lab, likely
        // several in one batch, while its model is still untrained.
        for (id, target) in targets.iter().enumerate() {
            writeln!(conn, "{}", query(id, target)).unwrap();
        }
        let mut first = vec![0.0; targets.len()];
        for _ in &targets {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let proto::Reply::Ok {
                id, time_s, source, ..
            } = proto::parse_reply(line.trim()).unwrap()
            else {
                panic!("expected ok, got {line}")
            };
            assert_eq!(source, "predictor");
            let id: usize = id.unwrap()[1..].parse().unwrap();
            first[id] = time_s;
        }
        // Every answer is the 12-core lab's own fallback model, resolved
        // here directly, and stays so once that model is trained.
        let reference = Shared::new(test_config()).unwrap();
        let model = reference.resolve_model(1).unwrap();
        for (id, target) in targets.iter().enumerate() {
            let Ok(Request::Query(q)) = proto::parse_request(&query(id, target)) else {
                panic!("bad query line")
            };
            let features = reference.labs[1].1.featurize(&q.scenario).unwrap();
            let expected = model.predictor.predict(&features);
            assert_eq!(first[id].to_bits(), expected.to_bits(), "{target}");
            let ans = ask(&mut reader, &mut conn, &query(id, target));
            let proto::Reply::Ok { time_s, .. } = proto::parse_reply(&ans).unwrap() else {
                panic!("expected ok, got {ans}")
            };
            assert_eq!(time_s.to_bits(), expected.to_bits(), "{target}");
        }
        handle.shutdown();
        handle.join();
    }
}
