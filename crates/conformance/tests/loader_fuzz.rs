//! Fuzz the one case loader. `coloc verify --corpus <dir>` reads user
//! files through `load_case`, so every byte string must load as a case
//! or come back as an `Err`, for both case types, and never panic.
//! Inputs: arbitrary bytes, JSON-alphabet soup, truncations, byte flips
//! and value splices of every checked-in case file, and nesting far past
//! the JSON parser's 128-level bound.

use coloc_conformance::{
    default_corpus_dir, load_case, load_dir, placement_corpus_dir, CorpusCase, PlacementCase,
};
use proptest::prelude::*;
use std::path::PathBuf;

/// Every checked-in case file, engine and placement, as bytes.
fn case_files() -> Vec<Vec<u8>> {
    let root = default_corpus_dir();
    let mut paths: Vec<PathBuf> = load_dir::<CorpusCase>(&root)
        .unwrap()
        .into_iter()
        .map(|(path, _)| path)
        .collect();
    let placement = load_dir::<PlacementCase>(&placement_corpus_dir(&root)).unwrap();
    paths.extend(placement.into_iter().map(|(path, _)| path));
    assert!(paths.len() >= 28, "corpus went missing");
    paths.iter().map(|p| std::fs::read(p).unwrap()).collect()
}

/// Load `bytes` from a file as both case types. Returning at all is the
/// property; which result each load gives is not.
fn load_both(test: &str, bytes: &[u8]) -> (bool, bool) {
    let path = std::env::temp_dir().join(format!(
        "coloc-loader-fuzz-{test}-{}.json",
        std::process::id()
    ));
    std::fs::write(&path, bytes).unwrap();
    let loaded = (
        load_case::<CorpusCase>(&path).is_ok(),
        load_case::<PlacementCase>(&path).is_ok(),
    );
    let _ = std::fs::remove_file(&path);
    loaded
}

const JSON_ALPHABET: &[u8] = b"{}[]\":,0123456789.-+eE \ntruefalsnul\\uabc";

/// Values spliced in for a field's own: out-of-range and wrong-typed
/// numbers, the other JSON kinds, and strings no key resolves.
const SPLICES: [&str; 16] = [
    "-1",
    "0",
    "1e309",
    "-1e309",
    "18446744073709551616",
    "-9223372036854775809",
    "1.5",
    "-0.0",
    "null",
    "true",
    "\"\"",
    "\"cray-1\"",
    "[]",
    "{}",
    "[1, 2, 3, 4, 5]",
    "{\"Noop\": {\"seed\": -1}}",
];

#[test]
fn checked_in_files_load_as_their_own_type_only() {
    let root = default_corpus_dir();
    for (path, _) in load_dir::<CorpusCase>(&root).unwrap() {
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(load_both("own-type", &bytes), (true, false), "{path:?}");
    }
    for (path, _) in load_dir::<PlacementCase>(&placement_corpus_dir(&root)).unwrap() {
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(load_both("own-type", &bytes), (false, true), "{path:?}");
    }
}

#[test]
fn deep_nesting_is_an_error() {
    for deep in [
        "[".repeat(10_000),
        r#"{"a":"#.repeat(10_000),
        format!(r#"{{"name":{}1{}}}"#, "[".repeat(200), "]".repeat(200)),
        format!(r#"{{"co":{}}}"#, r#"[{"app":"#.repeat(5_000)),
    ] {
        assert_eq!(load_both("deep", deep.as_bytes()), (false, false));
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(
        raw in prop::collection::vec(0u16..256, 0..256),
        soup in prop::collection::vec(0usize..JSON_ALPHABET.len(), 0..256),
    ) {
        let raw: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        load_both("raw", &raw);
        let soup: Vec<u8> = soup.into_iter().map(|i| JSON_ALPHABET[i]).collect();
        load_both("soup", &soup);
    }

    #[test]
    fn truncated_case_files_never_panic(file in 0usize..1024, cut in 0.0f64..1.0) {
        let files = case_files();
        let bytes = &files[file % files.len()];
        let cut = (cut * bytes.len() as f64) as usize;
        load_both("truncated", &bytes[..cut]);
    }

    #[test]
    fn flipped_case_files_never_panic(
        file in 0usize..1024,
        flips in prop::collection::vec((0.0f64..1.0, 0u16..256, 0usize..JSON_ALPHABET.len()), 1..8),
    ) {
        let files = case_files();
        let mut bytes = files[file % files.len()].clone();
        for (at, raw, alpha) in flips {
            let at = (at * bytes.len() as f64) as usize;
            // Half the flips stay inside the JSON alphabet, so the damage
            // often still parses and reaches the typed decoding.
            bytes[at] = if raw % 2 == 0 { raw as u8 } else { JSON_ALPHABET[alpha] };
        }
        load_both("flipped", &bytes);
    }

    #[test]
    fn spliced_case_files_never_panic(
        file in 0usize..1024,
        splices in prop::collection::vec((0.0f64..1.0, 0usize..SPLICES.len()), 1..4),
    ) {
        // Replace the rest of a `"key": value` line with another value, so
        // the file still parses and the typed decoding meets the damage.
        let files = case_files();
        let mut text = String::from_utf8(files[file % files.len()].clone()).unwrap();
        for (at, value) in splices {
            let colons: Vec<usize> = text.match_indices(": ").map(|(i, _)| i + 2).collect();
            let start = colons[(at * colons.len() as f64) as usize];
            let end = start + text[start..].find([',', '\n']).unwrap_or(text.len() - start);
            text.replace_range(start..end, SPLICES[value]);
        }
        load_both("spliced", text.as_bytes());
    }
}
