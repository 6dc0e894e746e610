//! Machine presets: the paper's two validation platforms (Table IV) plus
//! two fleet-expansion parts for datacenter-scale placement studies, and
//! [`PRESETS`], the table every caller resolves a preset key through.

use crate::spec::MachineSpec;
use coloc_memsys::DramSpec;

/// Intel Xeon E5649 (Westmere-EP): 6 cores, 12 MB L3, 1.60–2.53 GHz.
///
/// The six P-state frequencies are evenly spread across the range the
/// paper reports, matching its "six selected P-states" (Table V).
pub fn xeon_e5649() -> MachineSpec {
    MachineSpec {
        name: "Xeon E5649".to_string(),
        cores: 6,
        llc_bytes: 12 << 20,
        llc_ways: 16,
        pstates_ghz: vec![2.53, 2.35, 2.16, 1.97, 1.78, 1.60],
        dram: DramSpec::ddr3_1333_triple_channel(),
    }
}

/// Intel Xeon E5-2697 v2 (Ivy Bridge-EP): 12 cores, 30 MB L3,
/// 1.20–2.70 GHz.
pub fn xeon_e5_2697v2() -> MachineSpec {
    MachineSpec {
        name: "Xeon E5-2697v2".to_string(),
        cores: 12,
        llc_bytes: 30 << 20,
        llc_ways: 20,
        pstates_ghz: vec![2.70, 2.40, 2.10, 1.80, 1.50, 1.20],
        dram: DramSpec::ddr3_1866_quad_channel(),
    }
}

/// Intel Xeon E5-2630 v3 (Haswell-EP): 8 cores, 20 MB L3, 1.20–2.40 GHz.
///
/// A fleet-expansion part for placement studies: quad-channel DDR4-1866
/// (peak = 4 × 14.933 GB/s) with Haswell-generation idle latency.
pub fn xeon_e5_2630v3() -> MachineSpec {
    MachineSpec {
        name: "Xeon E5-2630v3".to_string(),
        cores: 8,
        llc_bytes: 20 << 20,
        llc_ways: 20,
        pstates_ghz: vec![2.40, 2.16, 1.92, 1.68, 1.44, 1.20],
        dram: DramSpec {
            peak_bw_bytes_per_sec: 59.7e9,
            idle_latency_ns: 66.0,
            queue_latency_ns: 12.0,
            max_queue_ns: 300.0,
            bank_penalty_ns: 8.0,
            banks: 32,
        },
    }
}

/// Intel Xeon Platinum 8153 (Skylake-SP): 16 cores, 22 MB L3,
/// 1.00–2.00 GHz.
///
/// The high-core-count fleet part: hex-channel DDR4-2666
/// (peak = 6 × 21.333 GB/s), shallow non-inclusive L3 relative to its
/// core count, so co-location pressure per byte of LLC is the worst of
/// the four presets.
pub fn xeon_platinum_8153() -> MachineSpec {
    MachineSpec {
        name: "Xeon Platinum 8153".to_string(),
        cores: 16,
        llc_bytes: 22 << 20,
        llc_ways: 11,
        pstates_ghz: vec![2.00, 1.80, 1.60, 1.40, 1.20, 1.00],
        dram: DramSpec {
            peak_bw_bytes_per_sec: 128.0e9,
            idle_latency_ns: 70.0,
            queue_latency_ns: 11.0,
            max_queue_ns: 280.0,
            bank_penalty_ns: 7.0,
            banks: 48,
        },
    }
}

/// One preset and the keys that name it on the command line, in the
/// service's requests and in conformance cases.
#[derive(Clone, Copy, Debug)]
pub struct Preset {
    /// The canonical key, as `coloc machines` lists it.
    pub key: &'static str,
    /// Other keys that name the same preset.
    pub aliases: &'static [&'static str],
    /// Builds the preset's spec.
    pub spec: fn() -> MachineSpec,
}

/// Every preset: the two paper platforms first (paper order), then the
/// fleet-expansion parts in core-count order. The one table that maps
/// keys to presets.
pub const PRESETS: [Preset; 4] = [
    Preset {
        key: "e5649",
        aliases: &["xeon_e5649", "6core"],
        spec: xeon_e5649,
    },
    Preset {
        key: "e5_2697v2",
        aliases: &["xeon_e5_2697v2", "12core"],
        spec: xeon_e5_2697v2,
    },
    Preset {
        key: "e5_2630v3",
        aliases: &["xeon_e5_2630v3", "8core"],
        spec: xeon_e5_2630v3,
    },
    Preset {
        key: "platinum_8153",
        aliases: &["xeon_platinum_8153", "16core"],
        spec: xeon_platinum_8153,
    },
];

/// The preset `key` names: its canonical key or an alias, in any ASCII
/// case, with `-` read as `_` (`E5-2697V2` names `e5_2697v2`). Allocates
/// nothing.
pub fn lookup(key: &str) -> Option<&'static Preset> {
    let names = |k: &str| {
        k.len() == key.len()
            && key.bytes().zip(k.bytes()).all(|(given, name)| {
                let given = if given == b'-' { b'_' } else { given };
                given.to_ascii_lowercase() == name
            })
    };
    PRESETS
        .iter()
        .find(|p| names(p.key) || p.aliases.iter().any(|a| names(a)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> Vec<MachineSpec> {
        PRESETS.iter().map(|p| (p.spec)()).collect()
    }

    #[test]
    fn all_returns_every_platform() {
        let machines = all();
        assert_eq!(machines.len(), 4);
        assert_eq!(machines[0].name, "Xeon E5649");
        assert_eq!(machines[1].name, "Xeon E5-2697v2");
        assert_eq!(machines[2].name, "Xeon E5-2630v3");
        assert_eq!(machines[3].name, "Xeon Platinum 8153");
    }

    #[test]
    fn every_preset_validates_and_is_distinct() {
        let machines = all();
        for m in &machines {
            m.validate().unwrap_or_else(|e| panic!("{}: {e}", m.name));
        }
        for (i, a) in machines.iter().enumerate() {
            for b in &machines[i + 1..] {
                assert_ne!(a.name, b.name);
                assert!(
                    a.cores != b.cores || a.llc_bytes != b.llc_bytes,
                    "{} and {} are indistinguishable",
                    a.name,
                    b.name
                );
            }
        }
    }

    #[test]
    fn every_key_and_alias_names_its_preset_in_any_spelling() {
        for p in PRESETS {
            for key in std::iter::once(p.key).chain(p.aliases.iter().copied()) {
                for k in [
                    key.to_string(),
                    key.to_ascii_uppercase(),
                    key.replace('_', "-"),
                ] {
                    let found = lookup(&k).unwrap_or_else(|| panic!("`{k}` names no preset"));
                    assert_eq!(found.key, p.key, "`{k}`");
                }
            }
        }
        // Every key the CLI, the service or the corpus accepted before
        // they shared this table keeps naming the same preset.
        for (k, want) in [
            ("6core", "e5649"),
            ("xeon_e5649", "e5649"),
            ("e5-2697v2", "e5_2697v2"),
            ("12core", "e5_2697v2"),
            ("xeon_e5_2697v2", "e5_2697v2"),
            ("e5-2630v3", "e5_2630v3"),
            ("8core", "e5_2630v3"),
            ("platinum-8153", "platinum_8153"),
            ("16core", "platinum_8153"),
        ] {
            assert_eq!(lookup(k).map(|p| p.key), Some(want), "`{k}`");
        }
        for k in ["", "e5", "e5649x", "cray", "xeon", "e5_2697v3", "4core"] {
            assert!(lookup(k).is_none(), "`{k}` must name no preset");
        }
    }
}
