//! Metamorphic laws for the fleet-placement simulation.
//!
//! The engine laws in [`crate::laws`] pin the *simulator*; these pin the
//! *placement layer* built on top of it (`crates/placement`). Each law is
//! a relation the placement model makes exact by construction, so the
//! checks compare outcome digests bit-for-bit (or against zero exactly)
//! rather than within tolerances:
//!
//! 1. **Job-permutation invariance**: within a wave, jobs are placed in
//!    canonical (app, index) order, so a single-wave stream's scored
//!    outcome is a pure function of its job *multiset* — any permutation
//!    of the stream yields a bit-identical outcome.
//! 2. **Solo regret is exactly zero**: with at most one job per socket,
//!    least-interference spreads every job solo (an empty socket's
//!    predicted delta is exactly 1.0 and ties break toward fewer
//!    occupants); predicted and measured slowdowns are both exactly 1.0,
//!    so regret, unfairness and QoS violations are all exactly zero.
//! 3. **An empty machine never hurts**: growing a single-spec fleet by
//!    one socket leaves pack-first-fit's single-wave outcome bit-identical
//!    (first-fit never reaches the new socket) and never worsens the
//!    interference-aware policies' oracle mean slowdown (one more empty
//!    socket only widens their choice of solo placements).
//!
//! A [`PlacementCase`] describes a fleet and a stream, not one scenario,
//! so it is its own case type. It implements the same [`Case`] interface
//! as the engine's `CorpusCase`, and the laws here are
//! [`Law<PlacementCase>`](crate::Law)s: one shrinker, one loader, one
//! check-shrink-persist routine and one replay serve both. Its corpus
//! files live in the `corpus/placement/` subdirectory.

use crate::case::machine_spec;
use crate::corpus::Case;
use crate::laws::Law;
use coloc_placement::{
    ClassMix, FleetSpec, JobStream, PlacePolicy, PlacementSim, PolicyOutcome, SimConfig,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom as _;
use rand::Rng as _;
use rand::SeedableRng as _;
use serde::{Deserialize, Serialize};

/// A self-contained placement scenario: single-spec fleet, seeded
/// stream, one policy, and the law that owns it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlacementCase {
    /// Stream / sim seed.
    pub seed: u64,
    /// Machine preset key (accepted by [`machine_spec`]).
    pub machine: String,
    /// Sockets in the (single-group) fleet.
    pub sockets: usize,
    /// Class-mix weights.
    pub mix: [f64; 4],
    /// Jobs in the stream.
    pub jobs: usize,
    /// Policy name (accepted by [`PlacePolicy::by_name`]).
    pub policy: String,
    /// Which placement law this case belongs to (tags corpus replays).
    pub law: Option<String>,
}

impl Case for PlacementCase {
    fn seed(&self) -> u64 {
        self.seed
    }

    fn law(&self) -> Option<&str> {
        self.law.as_deref()
    }

    fn set_law(&mut self, law: Option<&str>) {
        self.law = law.map(str::to_string);
    }

    fn describe(&self) -> String {
        format!(
            "seed={:#x} machine={} sockets={} jobs={} policy={} mix={:?}",
            self.seed, self.machine, self.sockets, self.jobs, self.policy, self.mix
        )
    }

    /// Fewer jobs (halved, then one less), one socket less, the uniform
    /// mix, the smallest machine.
    fn simplifications(&self) -> Vec<PlacementCase> {
        let mut candidates = Vec::new();
        let mut push = |edit: &dyn Fn(&mut PlacementCase)| {
            let mut c = self.clone();
            edit(&mut c);
            candidates.push(c);
        };
        if self.jobs > 1 {
            push(&|c| c.jobs /= 2);
            push(&|c| c.jobs -= 1);
        }
        if self.sockets > 1 {
            push(&|c| c.sockets -= 1);
        }
        if self.mix != ClassMix::uniform().weights {
            push(&|c| c.mix = ClassMix::uniform().weights);
        }
        if self.machine != "e5649" {
            push(&|c| c.machine = "e5649".to_string());
        }
        candidates
    }
}

impl PlacementCase {
    fn fleet(&self) -> Result<FleetSpec, String> {
        Ok(FleetSpec::single(
            machine_spec(&self.machine)?,
            self.sockets,
        ))
    }

    fn sim(&self) -> Result<PlacementSim, String> {
        self.sim_with_sockets(self.sockets)
    }

    fn sim_with_sockets(&self, sockets: usize) -> Result<PlacementSim, String> {
        let cfg = SimConfig {
            fleet: FleetSpec::single(machine_spec(&self.machine)?, sockets),
            jobs: self.jobs,
            mix: ClassMix { weights: self.mix },
            seed: self.seed,
            pstate: 0,
            qos_threshold: 1.5,
            noise_sigma: None,
            threads: 1,
        };
        PlacementSim::new(cfg).map_err(|e| format!("sim construction failed: {e}"))
    }

    fn policy(&self) -> Result<PlacePolicy, String> {
        PlacePolicy::by_name(&self.policy)
    }

    fn stream(&self) -> Result<Vec<u8>, String> {
        let suite = coloc_workloads::standard();
        Ok(JobStream::new(self.seed, ClassMix { weights: self.mix }, &suite)?.take_jobs(self.jobs))
    }
}

fn gen_base(seed: u64, law: &'static str) -> (StdRng, PlacementCase) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E3779B97F4A7C15);
    let machines = ["e5649", "e5_2697v2", "e5_2630v3", "platinum_8153"];
    let machine = machines[rng.gen_range(0..machines.len())].to_string();
    let sockets = rng.gen_range(2..=4usize);
    let mix = match rng.gen_range(0..3u8) {
        0 => ClassMix::uniform(),
        1 => ClassMix::memory_heavy(),
        _ => ClassMix::compute_heavy(),
    };
    let case = PlacementCase {
        seed,
        machine,
        sockets,
        mix: mix.weights,
        jobs: 0, // per-law
        policy: String::new(),
        law: Some(law.to_string()),
    };
    (rng, case)
}

fn outcome_bits(o: &PolicyOutcome) -> (u64, u64) {
    (o.digest(), o.determinism_digest)
}

/// Law 1: single-wave streams are permutation-invariant.
pub struct JobPermutationInvariance;

impl Law<PlacementCase> for JobPermutationInvariance {
    fn name(&self) -> &'static str {
        "placement-permutation"
    }

    fn provenance(&self) -> &'static str {
        "canonical within-wave ordering makes a wave's outcome a pure function of its job multiset"
    }

    fn cases_per_run(&self) -> usize {
        3
    }

    fn case_for_seed(&self, seed: u64) -> Option<PlacementCase> {
        let (mut rng, mut case) = gen_base(seed, self.name());
        let spec = machine_spec(&case.machine).expect("generator uses valid keys");
        let capacity = spec.cores * case.sockets;
        case.jobs = rng.gen_range(2..=capacity);
        case.policy = ["pack-first-fit", "least-interference", "regret-batched"]
            [rng.gen_range(0..3usize)]
        .to_string();
        Some(case)
    }

    fn check_case(&self, case: &PlacementCase) -> Result<(), String> {
        let fleet = case.fleet()?;
        if case.jobs < 2 || case.jobs > fleet.total_cores() {
            return Ok(()); // out of the single-wave domain
        }
        let policy = case.policy()?;
        let jobs = case.stream()?;
        let mut permuted = jobs.clone();
        permuted.shuffle(&mut StdRng::seed_from_u64(case.seed.wrapping_add(1)));

        let mut sim = case.sim()?;
        let (base, _) = sim
            .run_policy_on_jobs(policy, jobs)
            .map_err(|e| format!("base run failed: {e}"))?;
        let (shuffled, _) = sim
            .run_policy_on_jobs(policy, permuted)
            .map_err(|e| format!("permuted run failed: {e}"))?;
        if outcome_bits(&base) != outcome_bits(&shuffled) {
            return Err(format!(
                "permuting a single-wave stream moved the outcome: \
                 regret {} vs {}, oracle mean {} vs {}, digest {:#x} vs {:#x}",
                base.regret_mean,
                shuffled.regret_mean,
                base.oracle_mean_slowdown,
                shuffled.oracle_mean_slowdown,
                base.determinism_digest,
                shuffled.determinism_digest
            ));
        }
        Ok(())
    }
}

/// Law 2: with one job per socket, regret is exactly zero.
pub struct SoloRegretZero;

impl Law<PlacementCase> for SoloRegretZero {
    fn name(&self) -> &'static str {
        "placement-solo-regret"
    }

    fn provenance(&self) -> &'static str {
        "ratio-normalized slowdowns are exactly 1.0 solo, so all-solo placements have zero regret"
    }

    fn cases_per_run(&self) -> usize {
        3
    }

    fn case_for_seed(&self, seed: u64) -> Option<PlacementCase> {
        let (mut rng, mut case) = gen_base(seed, self.name());
        case.jobs = rng.gen_range(1..=case.sockets);
        case.policy = "least-interference".to_string();
        Some(case)
    }

    fn check_case(&self, case: &PlacementCase) -> Result<(), String> {
        if case.jobs == 0 || case.jobs > case.sockets {
            return Ok(()); // not an all-solo placement
        }
        let mut sim = case.sim()?;
        let out = sim
            .run_policy(PlacePolicy::LeastInterference)
            .map_err(|e| format!("run failed: {e}"))?;
        if out.regret_mean != 0.0
            || out.regret_max != 0.0
            || out.oracle_mean_slowdown != 1.0
            || out.unfairness != 1.0
            || out.qos_violations != 0
        {
            return Err(format!(
                "all-solo placement must score exactly clean: regret mean {} max {}, \
                 oracle mean {}, unfairness {}, QoS violations {}",
                out.regret_mean,
                out.regret_max,
                out.oracle_mean_slowdown,
                out.unfairness,
                out.qos_violations
            ));
        }
        if out.sockets_used != case.jobs {
            return Err(format!(
                "least-interference must spread {} jobs solo, used {} sockets",
                case.jobs, out.sockets_used
            ));
        }
        Ok(())
    }
}

/// Law 3: adding an empty socket never worsens the outcome.
pub struct EmptyMachineNeverHurts;

impl Law<PlacementCase> for EmptyMachineNeverHurts {
    fn name(&self) -> &'static str {
        "placement-empty-machine"
    }

    fn provenance(&self) -> &'static str {
        "capacity is monotone: first-fit ignores the new socket, spreaders only gain options"
    }

    fn cases_per_run(&self) -> usize {
        3
    }

    fn case_for_seed(&self, seed: u64) -> Option<PlacementCase> {
        let (mut rng, mut case) = gen_base(seed, self.name());
        let spec = machine_spec(&case.machine).expect("generator uses valid keys");
        case.jobs = rng.gen_range(2..=spec.cores * case.sockets);
        case.policy =
            ["pack-first-fit", "least-interference"][rng.gen_range(0..2usize)].to_string();
        Some(case)
    }

    fn check_case(&self, case: &PlacementCase) -> Result<(), String> {
        let fleet = case.fleet()?;
        if case.jobs < 2 || case.jobs > fleet.total_cores() {
            return Ok(()); // out of the single-wave domain
        }
        let policy = case.policy()?;
        let jobs = case.stream()?;
        let mut small = case.sim()?;
        let mut grown = case.sim_with_sockets(case.sockets + 1)?;
        let (base, _) = small
            .run_policy_on_jobs(policy, jobs.clone())
            .map_err(|e| format!("base fleet run failed: {e}"))?;
        let (wide, _) = grown
            .run_policy_on_jobs(policy, jobs)
            .map_err(|e| format!("grown fleet run failed: {e}"))?;
        match policy {
            PlacePolicy::PackFirstFit => {
                // First-fit fills in socket-id order and the stream fits
                // the original fleet, so the extra socket is unreachable:
                // bit-identical outcome.
                if outcome_bits(&base) != outcome_bits(&wide) {
                    return Err(format!(
                        "an unreachable socket moved first-fit's outcome: \
                         digest {:#x} vs {:#x}, oracle mean {} vs {}",
                        base.determinism_digest,
                        wide.determinism_digest,
                        base.oracle_mean_slowdown,
                        wide.oracle_mean_slowdown
                    ));
                }
            }
            _ => {
                // Interference-aware policies may only improve (or tie)
                // on the oracle objective.
                if wide.oracle_mean_slowdown > base.oracle_mean_slowdown + 1e-9 {
                    return Err(format!(
                        "adding an empty socket worsened {}: oracle mean {} -> {}",
                        case.policy, base.oracle_mean_slowdown, wide.oracle_mean_slowdown
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Every placement law, in corpus order.
pub fn placement_laws() -> Vec<Box<dyn Law<PlacementCase>>> {
    vec![
        Box::new(JobPermutationInvariance),
        Box::new(SoloRegretZero),
        Box::new(EmptyMachineNeverHurts),
    ]
}
