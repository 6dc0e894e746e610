//! A closed connection's reader and writer threads are joined while the
//! server runs, not only at drain. A thread that is never joined keeps
//! its stack mapped, so opening and closing connections one at a time
//! must leave the process's memory-map count where it started.
//!
//! A test binary of its own: the map count is process-wide, so no other
//! test may spawn threads beside it.

#[cfg(target_os = "linux")]
#[test]
fn closed_connections_leave_no_thread_stacks_behind() {
    use coloc_serve::server::{ServeConfig, Server};
    use coloc_serve::QueryClient;
    use std::time::{Duration, Instant};

    fn maps() -> usize {
        std::fs::read_to_string("/proc/self/maps")
            .expect("procfs is mounted")
            .lines()
            .count()
    }

    let handle = Server::spawn(ServeConfig {
        quiet: true,
        engine_threads: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr().unwrap().to_string();
    let ping_and_close = || QueryClient::connect_tcp(&addr).unwrap().ping().unwrap();

    // The first connections settle the allocator's per-thread arenas.
    for _ in 0..8 {
        ping_and_close();
    }
    let start = maps();
    for _ in 0..300 {
        ping_and_close();
    }
    // The last connection's threads exit after its client hangs up, and
    // the accept loop joins them within a lap or two.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut end = maps();
    while end > start + 16 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        end = maps();
    }
    handle.shutdown();
    handle.join();
    assert!(
        end <= start + 16,
        "300 closed connections left {} memory maps behind ({start} → {end})",
        end - start
    );
}
