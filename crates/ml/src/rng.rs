//! Deterministic seed derivation.
//!
//! Every stochastic component in the workspace (noise injection, network
//! initialization, bootstrap partitions, workload streams) derives its RNG
//! from a single experiment seed through [`derive_seed`], so independent
//! components never share a stream and every experiment replays
//! bit-identically.

/// SplitMix64 finalizer — a high-quality 64-bit mixing function.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Derive an independent stream seed from a base seed and a stream label.
///
/// Different `stream` values yield statistically independent seeds; the
/// same pair always yields the same seed.
#[inline]
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    splitmix64(base ^ splitmix64(stream.wrapping_mul(0xA24BAED4963EE407)))
}

/// Derive a seed from a base seed and a string label (e.g. an application
/// name), for call sites where numeric stream ids would be error-prone.
pub fn derive_seed_str(base: u64, label: &str) -> u64 {
    // FNV-1a over the label, then mix with the base.
    let mut h = Fnv64::default();
    h.absorb(label);
    derive_seed(base, h.0)
}

/// [`derive_seed_str`] of `label`'s `Display` text, hashed as it is
/// written, so no string is built: the seed of a value whose label is
/// only ever formatted to derive it.
pub fn derive_seed_fmt(base: u64, label: impl std::fmt::Display) -> u64 {
    use std::fmt::Write as _;
    let mut h = Fnv64::default();
    write!(h, "{label}").expect("hashing a label cannot fail");
    derive_seed(base, h.0)
}

/// FNV-1a/64 over every byte absorbed, as a `fmt::Write` sink.
struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(0xcbf29ce484222325)
    }
}

impl Fnv64 {
    fn absorb(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

impl std::fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.absorb(s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        assert_eq!(
            derive_seed_str(42, "canneal"),
            derive_seed_str(42, "canneal")
        );
    }

    #[test]
    fn streams_differ() {
        assert_ne!(derive_seed(42, 0), derive_seed(42, 1));
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0));
        assert_ne!(derive_seed_str(42, "cg"), derive_seed_str(42, "ep"));
    }

    #[test]
    fn splitmix_avalanche() {
        // Flipping one input bit should flip roughly half the output bits.
        let a = splitmix64(0x1234_5678);
        let b = splitmix64(0x1234_5679);
        let flipped = (a ^ b).count_ones();
        assert!((16..=48).contains(&flipped), "only {flipped} bits flipped");
    }

    #[test]
    fn formatted_labels_seed_like_their_text() {
        for (base, label) in [(42, "canneal+3x cg @P2"), (0, "")] {
            assert_eq!(derive_seed_fmt(base, label), derive_seed_str(base, label));
        }
        // Written in pieces, hashed like the whole text.
        assert_eq!(
            derive_seed_fmt(7, format_args!("{}+{}x {} @P{}", "ft", 2, "cg", 1)),
            derive_seed_str(7, "ft+2x cg @P1")
        );
    }

    #[test]
    fn zero_label_not_degenerate() {
        assert_ne!(derive_seed(0, 0), 0);
        assert_ne!(derive_seed_str(0, ""), 0);
    }
}
