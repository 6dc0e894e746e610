//! Baseline measurements: the single solo profiling pass per application.
//!
//! The methodology's efficiency claim (paper §I, §II): unlike approaches
//! that continuously monitor counters, it needs each application's
//! performance-counter information exactly **once** — one solo run per
//! P-state for execution time, one counter sample for the cache ratios.

use crate::{ColocError, Result};
use std::collections::BTreeMap;

/// Baseline record for one application.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AppBaseline {
    /// Application name.
    pub name: String,
    /// Solo execution time at each P-state index, seconds.
    pub exec_time_s: Vec<f64>,
    /// Baseline memory intensity (LLC misses / instructions).
    pub memory_intensity: f64,
    /// Baseline CM/CA (LLC misses / LLC accesses).
    pub cm_ca: f64,
    /// Baseline CA/INS (LLC accesses / instructions).
    pub ca_ins: f64,
}

impl AppBaseline {
    /// Baseline execution time at a P-state, if measured.
    pub fn time_at(&self, pstate: usize) -> Option<f64> {
        self.exec_time_s.get(pstate).copied()
    }
}

/// Baselines for a whole suite on one machine.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BaselineDb {
    apps: BTreeMap<String, AppBaseline>,
}

impl BaselineDb {
    /// An empty database.
    pub fn new() -> BaselineDb {
        BaselineDb::default()
    }

    /// Insert (or replace) one application's baseline.
    pub fn insert(&mut self, baseline: AppBaseline) {
        self.apps.insert(baseline.name.clone(), baseline);
    }

    /// Look up an application.
    pub fn get(&self, name: &str) -> Option<&AppBaseline> {
        self.apps.get(name)
    }

    /// An application's solo time at a P-state: the feature row's
    /// `baseExTime`. [`ColocError::UnknownApp`] if it was not profiled, a
    /// machine error if not at that P-state.
    pub(crate) fn time_at(&self, app: &str, pstate: usize) -> Result<f64> {
        self.row(app)?
            .time_at(pstate)
            .ok_or_else(|| ColocError::Machine(format!("no baseline at P-state {pstate}")))
    }

    /// An application's solo memory intensity, CM/CA and CA/INS, the
    /// values the feature row reads from each app.
    pub(crate) fn ratios(&self, app: &str) -> Result<[f64; 3]> {
        let b = self.row(app)?;
        Ok([b.memory_intensity, b.cm_ca, b.ca_ins])
    }

    fn row(&self, app: &str) -> Result<&AppBaseline> {
        self.get(app)
            .ok_or_else(|| ColocError::UnknownApp(app.to_string()))
    }

    /// Number of applications recorded.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// True when no baselines are recorded.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// Iterate over baselines in name order.
    pub fn iter(&self) -> impl Iterator<Item = &AppBaseline> {
        self.apps.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(name: &str, mi: f64) -> AppBaseline {
        AppBaseline {
            name: name.into(),
            exec_time_s: vec![100.0, 120.0],
            memory_intensity: mi,
            cm_ca: 0.3,
            ca_ins: 0.02,
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut db = BaselineDb::new();
        assert!(db.is_empty());
        db.insert(b("cg", 1e-2));
        db.insert(b("ep", 1e-6));
        assert_eq!(db.len(), 2);
        assert_eq!(db.get("cg").unwrap().memory_intensity, 1e-2);
        assert!(db.get("nope").is_none());
    }

    #[test]
    fn replace_on_reinsert() {
        let mut db = BaselineDb::new();
        db.insert(b("cg", 1e-2));
        db.insert(b("cg", 2e-2));
        assert_eq!(db.len(), 1);
        assert_eq!(db.get("cg").unwrap().memory_intensity, 2e-2);
    }

    #[test]
    fn time_lookup_bounds() {
        let base = b("cg", 1e-2);
        assert_eq!(base.time_at(0), Some(100.0));
        assert_eq!(base.time_at(1), Some(120.0));
        assert_eq!(base.time_at(2), None);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut db = BaselineDb::new();
        db.insert(b("sp", 1e-3));
        db.insert(b("cg", 1e-2));
        let names: Vec<_> = db.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["cg", "sp"]);
    }
}
