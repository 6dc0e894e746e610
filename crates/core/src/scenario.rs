//! Co-location scenarios: what runs with what, at which P-state.

/// A co-location scenario: one target application plus co-located
/// applications on the same multicore processor at a given P-state.
///
/// The training data uses homogeneous co-location (all co-runners
/// identical, §IV-B3), but scenarios are general: heterogeneous mixes are
/// expressed with multiple `(name, count)` entries, and the prediction
/// features (sums over co-apps) are well-defined either way.
#[derive(Clone, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Scenario {
    /// Name of the target application (the one whose time we predict).
    pub target: String,
    /// Co-located applications: `(app name, copies)`.
    pub co_located: Vec<(String, usize)>,
    /// P-state index (0 = fastest).
    pub pstate: usize,
}

impl Scenario {
    /// A solo (baseline) scenario.
    pub fn solo(target: impl Into<String>, pstate: usize) -> Scenario {
        Scenario {
            target: target.into(),
            co_located: vec![],
            pstate,
        }
    }

    /// The paper's training shape: `count` copies of a single co-runner.
    pub fn homogeneous(
        target: impl Into<String>,
        co_app: impl Into<String>,
        count: usize,
        pstate: usize,
    ) -> Scenario {
        Scenario {
            target: target.into(),
            co_located: vec![(co_app.into(), count)],
            pstate,
        }
    }

    /// Total number of co-located application instances.
    pub fn num_co_located(&self) -> usize {
        self.co_located.iter().map(|(_, c)| c).sum()
    }

    /// Total cores the scenario occupies (target + co-runners).
    pub fn cores_needed(&self) -> usize {
        1 + self.num_co_located()
    }

    /// Iterate over co-located instances as `(name, copies)` with zero
    /// counts dropped.
    pub fn co_groups(&self) -> impl Iterator<Item = (&str, usize)> {
        self.co_located
            .iter()
            .filter(|(_, c)| *c > 0)
            .map(|(n, c)| (n.as_str(), *c))
    }

    /// A human-readable label, e.g. `canneal+3x cg @P2`: the scenario's
    /// `Display` text.
    pub fn label(&self) -> String {
        self.to_string()
    }
}

/// Writes the label: `<target> solo @P<p>` with no co-runner entries,
/// else `<target>+` then the nonzero co-groups as `<count>x <name>`
/// joined by `+`, then ` @P<p>`. The lab derives each scenario's seed
/// from these bytes, so they are pinned by tests.
impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.target)?;
        if self.co_located.is_empty() {
            return write!(f, " solo @P{}", self.pstate);
        }
        f.write_str("+")?;
        for (i, (name, count)) in self.co_groups().enumerate() {
            if i > 0 {
                f.write_str("+")?;
            }
            write!(f, "{count}x {name}")?;
        }
        write!(f, " @P{}", self.pstate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting() {
        let s = Scenario::homogeneous("canneal", "cg", 3, 2);
        assert_eq!(s.num_co_located(), 3);
        assert_eq!(s.cores_needed(), 4);
        assert_eq!(s.label(), "canneal+3x cg @P2");
        // The label is the byte string every lab seed is derived from:
        // solo, two co-groups, and co-runner entries that are all zero
        // (no group is written, but the `+` is).
        let mix = |co: &[(&str, usize)], pstate| Scenario {
            target: "ft".into(),
            co_located: co.iter().map(|&(n, c)| (n.to_string(), c)).collect(),
            pstate,
        };
        for (s, label) in [
            (Scenario::solo("ep", 5), "ep solo @P5"),
            (mix(&[("cg", 2), ("sp", 1)], 0), "ft+2x cg+1x sp @P0"),
            (mix(&[("ep", 0)], 3), "ft+ @P3"),
            (mix(&[("ep", 0), ("cg", 0)], 1), "ft+ @P1"),
            (mix(&[("ep", 0), ("cg", 4)], 1), "ft+4x cg @P1"),
        ] {
            assert_eq!(s.label(), label);
            assert_eq!(format!("{s}"), label);
        }
    }

    #[test]
    fn solo_scenario() {
        let s = Scenario::solo("ep", 0);
        assert_eq!(s.num_co_located(), 0);
        assert_eq!(s.cores_needed(), 1);
        assert_eq!(s.label(), "ep solo @P0");
    }

    #[test]
    fn heterogeneous_mix() {
        let s = Scenario {
            target: "ft".into(),
            co_located: vec![("cg".into(), 2), ("ep".into(), 0), ("sp".into(), 1)],
            pstate: 1,
        };
        assert_eq!(s.num_co_located(), 3);
        // Zero-count groups are skipped.
        let groups: Vec<_> = s.co_groups().collect();
        assert_eq!(groups, vec![("cg", 2), ("sp", 1)]);
        assert_eq!(s.label(), "ft+2x cg+1x sp @P1");
    }
}
