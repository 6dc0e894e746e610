//! Interference-aware consolidation — the use case the paper's
//! introduction motivates.
//!
//! A batch of mixed jobs must be consolidated onto two sockets. A naive
//! packer fills the first socket and then the second; least-interference
//! placement spreads memory-hungry jobs so they do not fight for the same
//! LLC and memory bus. The simulator then measures every job on its
//! final socket, so each job's expected slowdown prints beside the
//! measured one.
//!
//! Run with: `cargo run --release --example scheduler`

use coloc::machine::presets;
use coloc::placement::{FleetSpec, PlacePolicy, PlacementSim, SimConfig};
use coloc::workloads::standard;

fn main() {
    // The batch: four memory hogs, four moderate, four compute-bound.
    let batch = [
        "cg",
        "cg",
        "streamcluster",
        "mg",
        "canneal",
        "sp",
        "ft",
        "ua",
        "ep",
        "ep",
        "blackscholes",
        "blackscholes",
    ];
    let suite = standard();
    let jobs: Vec<u8> = batch
        .iter()
        .map(|name| {
            suite
                .iter()
                .position(|b| b.name == *name)
                .expect("suite app") as u8
        })
        .collect();

    // Two E5649 sockets; the simulator trains its linear estimator on
    // the registry's plan before placing anything.
    let cfg = SimConfig {
        fleet: FleetSpec::single(presets::xeon_e5649(), 2),
        seed: 11,
        ..SimConfig::smoke(jobs.len())
    };
    let mut sim = PlacementSim::new(cfg).expect("valid fleet");
    for policy in [PlacePolicy::PackFirstFit, PlacePolicy::LeastInterference] {
        let (outcome, placed) = sim
            .run_policy_on_jobs(policy, jobs.clone())
            .expect("placement fits");
        println!("\n--- {policy} ---");
        for socket in 0..2 {
            let line: Vec<String> = placed
                .iter()
                .filter(|a| a.socket == socket)
                .map(|a| {
                    let name = suite[a.app as usize].name;
                    format!("{name} {:.3}/{:.3}", a.expected, a.oracle)
                })
                .collect();
            println!("socket {socket} (expected/measured): {}", line.join(", "));
        }
        println!(
            "expected slowdown: mean {:.3}",
            outcome.expected_mean_slowdown
        );
        println!(
            "measured slowdown: mean {:.3}, worst {:.3}, unfairness {:.3}",
            outcome.oracle_mean_slowdown, outcome.oracle_max_slowdown, outcome.unfairness
        );
    }
}
