//! Reusable per-run buffers for the segment solver.

use super::GroupRef;
use coloc_cachesim::MrcCursor;

/// Reusable per-run buffers for the segment solver, in struct-of-arrays
/// form with one entry per workload group. The instances of a group
/// start every segment from the same share and see the same rates, so
/// they hold bit-identical state through the whole solve; the solver
/// keeps that state once per group and weights it by [`Self::count`]
/// where the model sums over instances
/// ([`coloc_cachesim::occupancy_step_rates`]). Built once per era; the
/// hot loop allocates nothing and iterates flat slices. Miss-rate curves
/// are *not* stored here — stages read them straight from the per-run
/// [`super::SegmentEnv::mrcs`] table via each group's current phase, so
/// a phase change costs an index update instead of a curve clone.
pub(crate) struct RunScratch {
    /// Instances per group: the workload's counts.
    pub(crate) count: Vec<usize>,
    /// LLC occupancy of each of a group's instances, bytes; refilled to
    /// the equal split at the start of each segment.
    pub(crate) occ: Vec<f64>,
    /// Per-instance insertion rate of each group for the occupancy step
    /// (access rate × miss rate at the current share).
    pub(crate) ins: Vec<f64>,
    /// Per-group incremental-MRC cursor for
    /// [`coloc_cachesim::MissRateCurve::miss_rate_hinted`]: its memo lets
    /// one iteration's closing probe answer the next iteration's opening
    /// probe. Reset every segment, since a phase change switches the
    /// group's curve.
    pub(crate) cursor: Vec<MrcCursor>,
    /// Current phase index and end boundary per group.
    pub(crate) phase_info: Vec<(usize, f64)>,
    /// Per-group stationary rates for the segment being solved.
    pub(crate) ips: Vec<f64>,
    pub(crate) miss_rate: Vec<f64>,
    pub(crate) access_rate: Vec<f64>,
    /// Per-group effective frequency for the current segment: the chip's
    /// P-state frequency times the group's clock ratio (per-core DVFS).
    /// Filled by the `pstate` stage; `freq_hz × 1.0` is bit-identical to
    /// `freq_hz`, so default schedules reproduce the lockstep numerics.
    pub(crate) freq: Vec<f64>,
    /// Bit patterns of each group's `(cpi, occ)` at the solve's last
    /// snapshot iteration: the reference the cycle skip compares later
    /// iterations against.
    pub(crate) snapshot: Vec<(u64, u64)>,
}

impl RunScratch {
    pub(crate) fn new(workload: &[GroupRef<'_>]) -> RunScratch {
        let n_groups = workload.len();
        RunScratch {
            count: workload.iter().map(|g| g.count).collect(),
            occ: vec![0.0; n_groups],
            ins: vec![0.0; n_groups],
            cursor: vec![MrcCursor::default(); n_groups],
            phase_info: vec![(0, 0.0); n_groups],
            ips: vec![0.0; n_groups],
            miss_rate: vec![0.0; n_groups],
            access_rate: vec![0.0; n_groups],
            freq: vec![0.0; n_groups],
            snapshot: vec![(0, 0); n_groups],
        }
    }

    /// Total core-resident instances.
    pub(crate) fn n_instances(&self) -> usize {
        self.count.iter().sum()
    }
}
