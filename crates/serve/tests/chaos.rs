//! Chaos harness for `coloc serve`: drive the server past its admission
//! limit with clients that misbehave (floods, slow readers), then kill
//! it mid-flight with a real SIGTERM and check the drain contract —
//! sheds are reported (never hangs, never unbounded growth), admitted
//! in-flight queries complete, and the final stats frame accounts for
//! every request.

use coloc_model::ColocError;
use coloc_serve::proto::QueryMode;
use coloc_serve::server::{BindAddr, ServeConfig, Server};
use coloc_serve::{signals, QueryClient, Reply, RetryPolicy};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The SIGTERM latch is process-global, so a raised signal would drain
/// every server spawned by a concurrently running test. Chaos tests
/// serialize on this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn chaos_config() -> ServeConfig {
    ServeConfig {
        bind: BindAddr::Tcp("127.0.0.1:0".into()),
        quiet: true,
        engine_threads: 1,
        // Tiny bounds so overload is reachable without heavy traffic.
        admission_capacity: 8,
        degrade_watermark: 4,
        max_batch: 4,
        default_deadline_ms: 10_000,
        ..ServeConfig::default()
    }
}

fn solo(target: &str, pstate: usize) -> coloc_model::Scenario {
    coloc_model::Scenario::solo(target, pstate)
}

/// Flood the server with 4× its admission capacity from a client that
/// never reads: the server must shed with `overloaded` (visible in the
/// stats frame), never block, and stay healthy for well-behaved
/// clients.
#[test]
fn overload_sheds_and_stays_responsive() {
    let _guard = serial();
    signals::reset();
    let handle = Server::spawn(chaos_config()).unwrap();
    let addr = handle.local_addr().unwrap();

    // The slow reader: write 32 distinct queries (4× capacity 8) in one
    // burst without ever reading a byte back.
    let mut flood = TcpStream::connect(addr).unwrap();
    for i in 0..32 {
        // Distinct scenarios so the cache cannot absorb the flood.
        writeln!(
            flood,
            r#"{{"op":"query","id":"f{i}","target":"cg","co":[["ep",{}]],"pstate":{}}}"#,
            1 + i % 5,
            i % 6,
        )
        .unwrap();
    }
    flood.flush().unwrap();

    // The server must keep answering a well-behaved client promptly
    // while digesting the flood.
    let mut probe = QueryClient::connect_tcp(&addr.to_string()).unwrap();
    let t0 = Instant::now();
    probe.ping().unwrap();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "ping stalled behind the flood: {:?}",
        t0.elapsed()
    );

    // Give the dispatcher time to chew through what was admitted.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = probe.stats().unwrap();
        if stats.admitted > 0 && stats.completed + stats.dropped_responses >= stats.admitted {
            // Every admitted query was answered (or its response was
            // dropped on the never-reading client); sheds were explicit.
            assert!(
                stats.admitted + stats.shed_overload >= 32,
                "all 32 flood queries accounted for: {stats:?}"
            );
            // Admission is orders of magnitude faster than an engine
            // batch, so a 4×-capacity burst must have shed explicitly.
            assert!(
                stats.shed_overload > 0,
                "no sheds under 4× flood: {stats:?}"
            );
            assert!(stats.queue_depth <= 8, "queue bound held: {stats:?}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server never drained the flood: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    handle.shutdown();
    let frame = handle.join();
    assert_eq!(frame.queue_depth, 0, "drain leaves nothing queued");
}

/// Saturate past the watermark and verify the degradation ladder kicks
/// in: answers keep flowing, some explicitly degraded, none hung.
#[test]
fn saturation_degrades_instead_of_collapsing() {
    let _guard = serial();
    signals::reset();
    let mut cfg = chaos_config();
    cfg.degrade_watermark = 1; // degrade almost immediately
    cfg.admission_capacity = 64;
    let handle = Server::spawn(cfg).unwrap();
    let addr = handle.local_addr().unwrap().to_string();

    // Burst 24 queries through one pipelined connection, then read all
    // the answers back.
    let mut client = QueryClient::connect_tcp(&addr).unwrap();
    let mut burst = TcpStream::connect(handle.local_addr().unwrap()).unwrap();
    for i in 0..24 {
        writeln!(
            burst,
            r#"{{"op":"query","id":"s{i}","target":"canneal","co":[["cg",{}]],"pstate":0}}"#,
            1 + i % 4,
        )
        .unwrap();
    }
    burst.flush().unwrap();

    let deadline = Instant::now() + Duration::from_secs(60);
    let stats = loop {
        let stats = client.stats().unwrap();
        if stats.completed + stats.dropped_responses + stats.shed_overload + stats.shed_deadline
            >= 24
        {
            break stats;
        }
        assert!(Instant::now() < deadline, "saturation hung: {stats:?}");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        stats.degraded_cache + stats.degraded_fallback > 0,
        "the ladder should have degraded some answers: {stats:?}"
    );
    // A fresh, exact query still works after the storm.
    let reply = client
        .query_with_retry(
            &solo("ep", 0),
            QueryMode::Measure,
            None,
            None,
            &RetryPolicy::default(),
        )
        .unwrap();
    let Reply::Ok { time_s, .. } = reply else {
        panic!("expected ok after saturation, got {reply:?}")
    };
    assert!(time_s > 0.0);
    handle.shutdown();
    handle.join();
}

/// The SIGTERM drain contract, exercised through the real signal path:
/// in-flight (admitted) queries complete with answers, new work is
/// refused with `shutting_down`, and the final frame flushes with an
/// empty queue.
#[test]
fn sigterm_drains_without_losing_inflight_responses() {
    let _guard = serial();
    signals::install();
    signals::reset();
    let mut cfg = chaos_config();
    cfg.admission_capacity = 64;
    cfg.degrade_watermark = 64; // exact answers only: drain must not cheat
    let handle = Server::spawn(cfg).unwrap();
    let addr = handle.local_addr().unwrap().to_string();

    let mut client = QueryClient::connect_tcp(&addr).unwrap();
    // Pipeline a dozen distinct queries, then SIGTERM before reading.
    let mut burst = TcpStream::connect(handle.local_addr().unwrap()).unwrap();
    let mut reader = std::io::BufReader::new(burst.try_clone().unwrap());
    for i in 0..12 {
        writeln!(
            burst,
            r#"{{"op":"query","id":"d{i}","target":"ep","co":[["cg",{}]],"pstate":{}}}"#,
            1 + i % 5,
            i % 3,
        )
        .unwrap();
    }
    burst.flush().unwrap();
    // Wait until everything is admitted (or answered) so "in-flight"
    // means admitted work, then deliver a genuine SIGTERM.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = client.stats().unwrap();
        if s.admitted + s.shed_overload >= 12 {
            break;
        }
        assert!(Instant::now() < deadline, "admission stalled: {s:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    signals::raise_signal(signals::SIGTERM);

    // The drain must complete and flush a final frame.
    let frame = handle.join();
    assert_eq!(frame.queue_depth, 0, "queue drained: {frame:?}");
    assert!(
        frame.completed + frame.dropped_responses >= frame.admitted,
        "every admitted query resolved: {frame:?}"
    );

    // Every pipelined response the client was owed is readable: count
    // answer lines until EOF (the server closed after flushing).
    use std::io::BufRead;
    burst
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut answers = 0u64;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if !line.trim().is_empty() => answers += 1,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    assert_eq!(
        answers,
        frame.admitted.min(12),
        "zero in-flight responses lost (frame: {frame:?})"
    );
    signals::reset();
}

/// After a drain begins, new queries are refused with the typed
/// shutdown error rather than silently dropped.
#[test]
fn draining_server_refuses_new_work_with_typed_error() {
    let _guard = serial();
    signals::reset();
    let handle = Server::spawn(chaos_config()).unwrap();
    let addr = handle.local_addr().unwrap().to_string();
    let mut client = QueryClient::connect_tcp(&addr).unwrap();
    client.ping().unwrap();
    handle.shutdown();
    // The reader threads poll the drain latch every ≤100ms; queries that
    // still reach admission must get `shutting_down`. The connection may
    // also already be closed — both are clean refusals, never a hang.
    match client.query(&solo("ep", 0), QueryMode::Measure, None, None) {
        Ok(Reply::Err {
            error: ColocError::ShuttingDown,
            ..
        }) => {}
        Ok(other) => panic!("expected shutting_down, got {other:?}"),
        Err(ColocError::Machine(msg)) => {
            assert!(
                msg.contains("closed") || msg.contains("send") || msg.contains("recv"),
                "unexpected transport error: {msg}"
            );
        }
        Err(other) => panic!("unexpected error: {other}"),
    }
    handle.join();
}

/// Co-runner counts whose sum overflows the core count get a typed
/// error in both modes, and the dispatcher keeps answering: a wrapped
/// count must reach neither the engine's stages (a panic there is
/// re-raised on the dispatcher thread) nor the featurizer (it would
/// answer a meaningless slowdown).
#[test]
fn overflowing_co_runner_counts_get_typed_errors() {
    let _guard = serial();
    signals::reset();
    let handle = Server::spawn(chaos_config()).unwrap();
    let addr = handle.local_addr().unwrap().to_string();
    let mut client = QueryClient::connect_tcp(&addr).unwrap();
    let half = 1u64 << 63;
    let mixes = [
        format!(r#"[["ep",{}]]"#, u64::MAX),
        format!(r#"[["ep",{half}],["cg",{half}]]"#),
    ];
    // The wire carries these as `"err":"error"` with the typed error's
    // text as the detail: the engine's `NotEnoughCores` when measuring,
    // the featurizer's `InvalidSpec` when predicting.
    for (mode, detail) in [("measure", "cores"), ("predict", "invalid spec")] {
        for co in &mixes {
            let line =
                format!(r#"{{"op":"query","id":"o","target":"cg","co":{co},"mode":"{mode}"}}"#);
            match client.round_trip(&line).unwrap() {
                Reply::Err {
                    error: ColocError::Machine(msg),
                    ..
                } => assert!(msg.contains(detail), "{mode} {co}: {msg}"),
                other => panic!("{mode} {co}: expected an error reply, got {other:?}"),
            }
        }
    }
    // The dispatcher survived: a valid query after them is answered.
    match client.query(&solo("ep", 0), QueryMode::Measure, None, None) {
        Ok(Reply::Ok { time_s, .. }) => assert!(time_s > 0.0),
        other => panic!("valid query after the overflow: {other:?}"),
    }
    handle.shutdown();
    handle.join();
}

/// The pinned query pool: every suite target against the four training
/// co-runners at counts {1, 3} and P-states {0, 3}.
fn query_pool() -> Vec<coloc_model::Scenario> {
    let mut pool = Vec::new();
    for target in coloc_workloads::standard() {
        for co in coloc_workloads::training_co_runners() {
            for count in [1usize, 3] {
                for pstate in [0usize, 3] {
                    pool.push(coloc_model::Scenario {
                        target: target.name.to_string(),
                        co_located: vec![(co.name.to_string(), count)],
                        pstate,
                    });
                }
            }
        }
    }
    pool
}

/// The service-level gate at the default config: after one warm-up pass
/// over the pool, closed-loop clients get an answer to every `measure`
/// query, client p99 stays within bound, and nothing is shed (the
/// clients keep at most 4 queries in flight against an admission bound
/// of 256).
#[test]
fn closed_loop_clients_are_answered_within_the_latency_bound() {
    const CLIENTS: usize = 4;
    const QUERIES_PER_CLIENT: usize = 250;
    const MAX_P99_MS: f64 = 250.0;
    let _guard = serial();
    signals::reset();
    let handle = Server::spawn(ServeConfig {
        bind: BindAddr::Tcp("127.0.0.1:0".into()),
        seed: 2015,
        quiet: true,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr().unwrap().to_string();
    let pool = query_pool();
    let labels: std::collections::BTreeSet<String> = pool.iter().map(|s| s.label()).collect();
    assert_eq!((pool.len(), labels.len()), (176, 176), "pinned, distinct");

    // One client's run from `offset`: the exact latency of each round
    // trip, in milliseconds.
    let drive = |offset: usize, queries: usize| -> Vec<f64> {
        let mut client = QueryClient::connect_tcp(&addr).unwrap();
        (0..queries)
            .map(|i| {
                let scenario = &pool[(offset + i) % pool.len()];
                let t0 = Instant::now();
                let reply = client.query(scenario, QueryMode::Measure, None, None);
                assert!(matches!(reply, Ok(Reply::Ok { .. })), "{reply:?}");
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    };
    drive(0, pool.len());
    let stride = pool.len() / CLIENTS;
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let drive = &drive;
                scope.spawn(move || drive(c * stride, QUERIES_PER_CLIENT))
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect()
    });
    latencies.sort_by(f64::total_cmp);
    // Ceil-rank quantile: the smallest latency at or above 99% of them.
    let rank = (0.99 * latencies.len() as f64).ceil() as usize;
    let p99 = latencies[rank - 1];
    assert!(p99 <= MAX_P99_MS, "client p99 {p99:.3} ms");

    handle.shutdown();
    let frame = handle.join();
    assert_eq!(frame.queue_depth, 0, "drain leaves nothing queued");
    assert_eq!(frame.shed_overload, 0, "closed-loop load sheds nothing");
}

/// Deterministic synthetic training set for the reload storm: the
/// `scale` knob bends the target times so two sets fit two *different*
/// linear models (→ different artifact digests, different predictions).
fn reload_samples(scale: f64) -> Vec<coloc_model::Sample> {
    (0..80)
        .map(|i| coloc_model::Sample {
            scenario: coloc_model::Scenario::homogeneous("t", "c", i % 5, 0),
            features: [
                100.0 + i as f64,
                (i % 5) as f64,
                (i % 5) as f64 * 0.01,
                1e-3,
                (i % 5) as f64 * 0.3,
                (i % 5) as f64 * 0.02,
                0.1,
                0.02,
            ],
            actual_time_s: (100.0 + i as f64) * (1.0 + (i % 5) as f64 * 0.05 * scale),
        })
        .collect()
}

/// The hot-reload contract under a predict storm: overwrite the model
/// artifact on disk and swap it in (wire `reload` verb, then the SIGHUP
/// path) while clients hammer the server. Every answer must be
/// bit-identical to exactly one epoch's model — never a blend, never a
/// drop — the stats frame's `model_epoch` must be monotonic with the
/// matching digest, and no request is ever refused as shutting down.
#[test]
fn hot_reload_under_storm_swaps_without_a_drain() {
    use coloc_model::{FeatureSet, Lab, ModelKind, ModelRegistry};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let _guard = serial();
    signals::reset();

    // Two artifacts with different provenance → different digests and
    // (measurably) different predictions.
    let registry = ModelRegistry::new();
    let a = registry
        .train_from_samples(
            &reload_samples(1.0),
            ModelKind::Linear,
            FeatureSet::F,
            0,
            None,
        )
        .unwrap()
        .artifact;
    let b = registry
        .train_from_samples(
            &reload_samples(3.0),
            ModelKind::Linear,
            FeatureSet::F,
            0,
            None,
        )
        .unwrap()
        .artifact;
    assert_ne!(a.digest(), b.digest(), "the two artifacts must differ");

    let dir = std::env::temp_dir().join(format!("coloc-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.json");
    registry.save(&a, &model_path).unwrap();

    let mut cfg = chaos_config();
    cfg.admission_capacity = 256;
    cfg.degrade_watermark = 256;
    cfg.model_path = Some(model_path.clone());
    let seed = cfg.seed;
    let handle = Server::spawn(cfg).unwrap();
    let addr = handle.local_addr().unwrap().to_string();

    // The server featurizes on its e5649 lab; an identical local lab
    // gives us the exact bits every answer must equal under model A or
    // model B. No third value is legal.
    let lab = Lab::new(
        coloc_machine::presets::xeon_e5649(),
        coloc_workloads::standard(),
        seed,
    )
    .unwrap()
    .with_threads(1);
    let scenarios: Vec<coloc_model::Scenario> = (0..6)
        .map(|i| {
            coloc_model::Scenario::homogeneous(["cg", "canneal", "ep"][i % 3], "ft", 1 + i % 4, 0)
        })
        .collect();
    let expected: Vec<(u64, u64)> = scenarios
        .iter()
        .map(|sc| {
            let f = lab.featurize(sc).unwrap();
            (
                a.predictor.predict(&f).to_bits(),
                b.predictor.predict(&f).to_bits(),
            )
        })
        .collect();
    assert!(
        expected.iter().any(|(ea, eb)| ea != eb),
        "models A and B must disagree somewhere, or the swap is unobservable"
    );

    // The storm: four clients cycling predict queries, each answer
    // classified as bit-exact A, bit-exact B, or a failure.
    let stop = Arc::new(AtomicBool::new(false));
    let mut stormers = Vec::new();
    for t in 0..4usize {
        let stop = Arc::clone(&stop);
        let addr = addr.clone();
        let scenarios = scenarios.clone();
        let expected = expected.clone();
        stormers.push(std::thread::spawn(move || -> (u64, u64) {
            let mut client = QueryClient::connect_tcp(&addr).unwrap();
            let (mut hits_a, mut hits_b) = (0u64, 0u64);
            let mut i = t; // stagger the per-thread cycle
            while !stop.load(Ordering::Acquire) {
                let sc = &scenarios[i % scenarios.len()];
                let (ea, eb) = expected[i % scenarios.len()];
                match client.query(sc, QueryMode::Predict, None, None) {
                    Ok(Reply::Ok { time_s, .. }) => {
                        let bits = time_s.to_bits();
                        if bits == ea {
                            hits_a += 1;
                        } else if bits == eb {
                            hits_b += 1;
                        } else {
                            panic!(
                                "blended/foreign answer for {sc:?}: {time_s} is \
                                 neither model A nor model B"
                            );
                        }
                    }
                    Ok(other) => panic!("storm query refused mid-reload: {other:?}"),
                    Err(e) => panic!("storm transport error: {e}"),
                }
                i += 1;
            }
            (hits_a, hits_b)
        }));
    }

    // A stats monitor proves the epoch is monotonic and its digest
    // always names a real artifact (A before the swap, B after).
    let monitor = {
        let stop = Arc::clone(&stop);
        let addr = addr.clone();
        let (hex_a, hex_b) = (a.digest_hex(), b.digest_hex());
        std::thread::spawn(move || -> u64 {
            let mut client = QueryClient::connect_tcp(&addr).unwrap();
            let mut last_epoch = 0u64;
            while !stop.load(Ordering::Acquire) {
                let s = client.stats().unwrap();
                assert!(
                    s.model_epoch >= last_epoch,
                    "model_epoch went backwards: {} -> {}",
                    last_epoch,
                    s.model_epoch
                );
                last_epoch = s.model_epoch;
                let want = if s.model_epoch == 0 { &hex_a } else { &hex_b };
                assert_eq!(
                    &s.model_digest, want,
                    "epoch {} must serve its own digest",
                    s.model_epoch
                );
                assert_eq!(s.rejected_shutdown, 0, "reload must not drain");
                std::thread::sleep(Duration::from_millis(2));
            }
            last_epoch
        })
    };

    // Let the storm land some model-A answers, then swap: overwrite the
    // artifact (atomic rename, as `coloc train` writes it) and issue the
    // wire `reload` verb.
    std::thread::sleep(Duration::from_millis(300));
    registry.save(&b, &model_path).unwrap();
    let mut admin = QueryClient::connect_tcp(&addr).unwrap();
    let (epoch, digest) = admin.reload().unwrap();
    assert_eq!(epoch, 1, "first reload bumps the epoch to 1");
    assert_eq!(digest, b.digest_hex(), "reload ack names the new artifact");

    // From this reply onward the server answers with model B.
    let f = lab.featurize(&scenarios[0]).unwrap();
    match admin
        .query(&scenarios[0], QueryMode::Predict, None, None)
        .unwrap()
    {
        Reply::Ok { time_s, .. } => assert_eq!(
            time_s.to_bits(),
            b.predictor.predict(&f).to_bits(),
            "post-reload answers come from model B, bit for bit"
        ),
        other => panic!("expected ok, got {other:?}"),
    }

    // The SIGHUP path drives the same swap from the accept loop.
    signals::request_reload();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = admin.stats().unwrap();
        if s.model_epoch >= 2 {
            assert_eq!(s.model_digest, b.digest_hex());
            break;
        }
        assert!(
            Instant::now() < deadline,
            "SIGHUP reload never landed: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(200));

    stop.store(true, Ordering::Release);
    let mut total_a = 0u64;
    let mut total_b = 0u64;
    for h in stormers {
        let (ha, hb) = h.join().expect("storm thread never panics");
        total_a += ha;
        total_b += hb;
    }
    let last_epoch = monitor.join().expect("monitor thread never panics");
    assert!(last_epoch >= 2, "monitor saw both reloads");
    assert!(
        total_a > 0,
        "some answers served by model A before the swap"
    );
    assert!(total_b > 0, "some answers served by model B after the swap");

    handle.shutdown();
    let frame = handle.join();
    assert_eq!(frame.model_epoch, 2);
    assert_eq!(frame.model_digest, b.digest_hex());
    // Nothing was dropped or refused across two live swaps under storm.
    assert_eq!(frame.rejected_shutdown, 0);
    assert_eq!(frame.dropped_responses, 0);
    let _ = std::fs::remove_dir_all(&dir);
    signals::reset();
}

/// `json` with the last linear coefficient removed: a well-formed
/// artifact whose predictor would panic on its first prediction.
fn drop_last_coeff(json: &str) -> String {
    let open = json.find("\"coeffs\": [").expect("linear artifact") + "\"coeffs\": [".len();
    let close = open + json[open..].find(']').expect("array closes");
    let cut = json[open..close]
        .rfind(',')
        .expect("two or more coefficients");
    format!("{}{}", &json[..open + cut], &json[close..])
}

/// A `--model` artifact that would panic on first use is refused when it
/// is loaded: predict queries get a typed error naming the file, the
/// dispatcher keeps answering, and a repaired file is picked up by the
/// next query.
#[test]
fn corrupt_model_at_startup_is_a_typed_error_not_a_panic() {
    use coloc_model::{FeatureSet, ModelKind, ModelRegistry};

    let _guard = serial();
    signals::reset();
    let registry = ModelRegistry::new();
    let model = registry
        .train_from_samples(
            &reload_samples(1.0),
            ModelKind::Linear,
            FeatureSet::F,
            0,
            None,
        )
        .unwrap()
        .artifact;
    let dir = std::env::temp_dir().join(format!("coloc-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.json");
    registry.save(&model, &model_path).unwrap();
    let intact = std::fs::read_to_string(&model_path).unwrap();
    std::fs::write(&model_path, drop_last_coeff(&intact)).unwrap();

    let mut cfg = chaos_config();
    cfg.model_path = Some(model_path.clone());
    let handle = Server::spawn(cfg).unwrap();
    let mut client = QueryClient::connect_tcp(&handle.local_addr().unwrap().to_string()).unwrap();
    let sc = coloc_model::Scenario::homogeneous("cg", "ft", 2, 0);
    match client.query(&sc, QueryMode::Predict, None, None).unwrap() {
        Reply::Err { error, .. } => {
            let detail = error.to_string();
            assert!(detail.contains("corrupt artifact"), "{detail}");
            assert!(detail.contains("model.json"), "{detail}");
        }
        other => panic!("expected a typed error, got {other:?}"),
    }
    match client.query(&sc, QueryMode::Measure, None, None).unwrap() {
        Reply::Ok { source, .. } => assert_eq!(source, "engine"),
        other => panic!("the dispatcher must keep answering: {other:?}"),
    }
    std::fs::write(&model_path, &intact).unwrap();
    match client.query(&sc, QueryMode::Predict, None, None).unwrap() {
        Reply::Ok { source, .. } => assert_eq!(source, "predictor"),
        other => panic!("a repaired artifact must load: {other:?}"),
    }
    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reload that finds a corrupt artifact fails with a typed error and
/// keeps the serving model, its digest and the epoch.
#[test]
fn hot_reload_of_a_corrupt_artifact_keeps_the_old_model() {
    use coloc_model::{FeatureSet, Lab, ModelKind, ModelRegistry};

    let _guard = serial();
    signals::reset();
    let registry = ModelRegistry::new();
    let model = registry
        .train_from_samples(
            &reload_samples(1.0),
            ModelKind::Linear,
            FeatureSet::F,
            0,
            None,
        )
        .unwrap()
        .artifact;
    let dir = std::env::temp_dir().join(format!("coloc-bad-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.json");
    registry.save(&model, &model_path).unwrap();

    let mut cfg = chaos_config();
    cfg.model_path = Some(model_path.clone());
    let seed = cfg.seed;
    let handle = Server::spawn(cfg).unwrap();
    let mut client = QueryClient::connect_tcp(&handle.local_addr().unwrap().to_string()).unwrap();
    let lab = Lab::new(
        coloc_machine::presets::xeon_e5649(),
        coloc_workloads::standard(),
        seed,
    )
    .unwrap()
    .with_threads(1);
    let sc = coloc_model::Scenario::homogeneous("cg", "ft", 2, 0);
    let want = model
        .predictor
        .predict(&lab.featurize(&sc).unwrap())
        .to_bits();
    let predicted =
        |client: &mut QueryClient| match client.query(&sc, QueryMode::Predict, None, None).unwrap()
        {
            Reply::Ok { time_s, .. } => time_s.to_bits(),
            other => panic!("expected a prediction, got {other:?}"),
        };
    assert_eq!(predicted(&mut client), want);

    let intact = std::fs::read_to_string(&model_path).unwrap();
    std::fs::write(&model_path, drop_last_coeff(&intact)).unwrap();
    match handle.reload() {
        Err(ColocError::CorruptArtifact { path, .. }) => {
            assert_eq!(path, model_path.display().to_string());
        }
        other => panic!("expected CorruptArtifact, got {other:?}"),
    }
    assert!(client.reload().is_err(), "the wire verb fails the same way");
    let s = client.stats().unwrap();
    assert_eq!(s.model_epoch, 0, "a failed reload leaves the epoch");
    assert_eq!(s.model_digest, model.digest_hex());
    assert_eq!(predicted(&mut client), want, "the old model keeps serving");

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
