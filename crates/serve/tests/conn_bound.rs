//! The server keeps at most `MAX_CONNECTIONS` connections open. One past
//! the bound gets a single typed `too_many_connections` line with the
//! retry hint and then EOF, and is counted in the stats frame; once a
//! held connection closes, a new one is served again.
//!
//! The bound's worth of connections holds two server threads each (128
//! at a bound of 64); the test never opens more than one past it.

use coloc_model::ColocError;
use coloc_serve::server::{ServeConfig, Server, MAX_CONNECTIONS};
use coloc_serve::{parse_reply, QueryClient, Reply};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[test]
fn one_connection_past_the_bound_is_refused_with_a_typed_line() {
    let handle = Server::spawn(ServeConfig {
        quiet: true,
        engine_threads: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr().unwrap().to_string();

    // Each held connection has answered a ping, so its threads run.
    let mut held: Vec<QueryClient> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let mut client = QueryClient::connect_tcp(&addr).unwrap();
            client.ping().unwrap();
            client
        })
        .collect();

    // One past the bound: one typed line, then EOF. The client sends
    // nothing, so the server closes with nothing left unread.
    let conn = TcpStream::connect(&addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(
        parse_reply(line.trim()).unwrap(),
        Reply::Err {
            id: None,
            error: ColocError::TooManyConnections {
                open: MAX_CONNECTIONS
            },
            retry_after_ms: Some(ServeConfig::default().retry_hint_ms),
        },
        "{line}"
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "EOF, got {line}");
    assert_eq!(handle.stats().refused_connections, 1);

    // The held connections are still served.
    held[0].ping().unwrap();

    // Close one; the accept loop frees its place once both of its
    // threads have exited, so a new connection is served within the
    // deadline (attempts refused meanwhile are counted, not served).
    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut served = false;
    while !served && Instant::now() < deadline {
        let mut client = QueryClient::connect_tcp(&addr).unwrap();
        match client.ping() {
            Ok(()) => {
                served = true;
                held.push(client);
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    assert!(served, "no connection served within 10 s of one closing");
    let refused = handle.stats().refused_connections;
    drop(held);
    handle.shutdown();
    let frame = handle.join();
    assert_eq!(frame.refused_connections, refused);
    assert!(frame.pings >= MAX_CONNECTIONS as u64 + 2);
}
