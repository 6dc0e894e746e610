//! Fuzz the wire parser. Every request line a client sends goes through
//! `parse_request`, after the reader thread decodes it as lossy UTF-8,
//! so every byte string must parse as a request or come back as an
//! `Err` with a detail string, within a deadline, and never panic.
//! Inputs: arbitrary bytes, JSON-alphabet soup, and truncations and
//! byte flips of valid request lines.

use coloc_serve::parse_request;
use proptest::prelude::*;
use std::sync::mpsc;
use std::time::Duration;

/// Valid request lines, one of each verb and every query field.
const VALID: [&str; 8] = [
    r#"{"op":"query","id":"q1","target":"canneal","co":[["cg",3]],"pstate":0,"mode":"measure","deadline_ms":500,"machine":"e5649"}"#,
    r#"{"op":"query","target":"ep"}"#,
    r#"{"op":"query","id":"q2","target":"ft","co":[["cg",1],["sp",2],["ep",0]],"pstate":5,"mode":"predict"}"#,
    r#"{"op":"query","target":"bodytrack","co":[["ua",11]],"machine":"xeon_e5_2697v2","deadline_ms":1}"#,
    r#"{"op":"ping"}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"reload"}"#,
    r#"{"op":"shutdown"}"#,
];

const JSON_ALPHABET: &[u8] = b"{}[]\":,0123456789.-+eE \ntruefalsnul\\uabcopqy_";

/// Parse `bytes` as the reader thread does, on a thread of its own: the
/// parse must return within the deadline. Which result it gives is not
/// the property.
fn parse_within_deadline(bytes: Vec<u8>) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let line = String::from_utf8_lossy(&bytes);
        let _ = tx.send(parse_request(line.trim()).map(|_| ()));
    });
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(Ok(())) | Ok(Err(_)) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("parse_request hung"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("parse_request panicked"),
    }
}

#[test]
fn valid_lines_parse() {
    for line in VALID {
        assert!(parse_request(line).is_ok(), "{line}");
    }
}

#[test]
fn deep_nesting_is_an_error() {
    for deep in [
        "[".repeat(10_000),
        r#"{"op":"#.repeat(10_000),
        format!(
            r#"{{"op":"query","target":"ep","co":{}}}"#,
            "[".repeat(5_000)
        ),
    ] {
        assert!(parse_request(&deep).is_err());
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(
        raw in prop::collection::vec(0u16..256, 0..256),
        soup in prop::collection::vec(0usize..JSON_ALPHABET.len(), 0..256),
    ) {
        parse_within_deadline(raw.into_iter().map(|b| b as u8).collect());
        parse_within_deadline(soup.into_iter().map(|i| JSON_ALPHABET[i]).collect());
    }

    #[test]
    fn truncated_requests_never_panic(line in 0usize..VALID.len(), cut in 0.0f64..1.0) {
        let bytes = VALID[line].as_bytes();
        let cut = (cut * bytes.len() as f64) as usize;
        parse_within_deadline(bytes[..cut].to_vec());
    }

    #[test]
    fn flipped_requests_never_panic(
        line in 0usize..VALID.len(),
        flips in prop::collection::vec((0.0f64..1.0, 0u16..256, 0usize..JSON_ALPHABET.len()), 1..8),
    ) {
        let mut bytes = VALID[line].as_bytes().to_vec();
        for (at, raw, alpha) in flips {
            let at = (at * bytes.len() as f64) as usize;
            // Half the flips stay in the JSON alphabet, so more of them
            // reach the field checks past the JSON parser.
            bytes[at] = if raw % 2 == 0 { raw as u8 } else { JSON_ALPHABET[alpha] };
        }
        parse_within_deadline(bytes);
    }
}
