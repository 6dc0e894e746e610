//! Architecture-independent counter presets.
//!
//! PAPI defines >100 standard presets; the IPPS'15 methodology needs only
//! the four below (§IV-A3), but the enum is non-exhaustive by design so a
//! richer backend can extend it.

/// A portable hardware-event name, PAPI-style.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Preset {
    /// Instructions retired (PAPI_TOT_INS).
    TotIns,
    /// Core cycles (PAPI_TOT_CYC).
    TotCyc,
    /// Last-level cache accesses (PAPI_L3_TCA / PAPI_L2_TCA depending on
    /// architecture — "last-level" is resolved by the backend, paper
    /// §IV-A3).
    LlcTca,
    /// Last-level cache misses (PAPI_L3_TCM / PAPI_L2_TCM).
    LlcTcm,
}

impl Preset {
    /// The four presets the co-location methodology measures.
    pub const METHODOLOGY_SET: [Preset; 4] = [
        Preset::TotIns,
        Preset::TotCyc,
        Preset::LlcTca,
        Preset::LlcTcm,
    ];

    /// PAPI-style symbolic name.
    pub fn papi_name(&self) -> &'static str {
        match self {
            Preset::TotIns => "PAPI_TOT_INS",
            Preset::TotCyc => "PAPI_TOT_CYC",
            Preset::LlcTca => "PAPI_LLC_TCA",
            Preset::LlcTcm => "PAPI_LLC_TCM",
        }
    }
}

impl std::fmt::Display for Preset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.papi_name())
    }
}
