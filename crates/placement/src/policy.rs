//! Fleet-scale placement policies.

/// How the simulation places each wave of jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PlacePolicy {
    /// Fill sockets in id order, each to capacity, interference-blind —
    /// maximum consolidation, the naive baseline (`coloc schedule
    /// --naive`).
    PackFirstFit,
    /// Greedy: each job goes to the candidate socket with the smallest
    /// predicted marginal slowdown (ties: fewer occupants, lower group,
    /// lower contents key). Pure predictor, no oracle at decision time.
    LeastInterference,
    /// Regret-bounded batched greedy: the predictor screens each job's
    /// candidates down to `top_k`, the oracle (through the batched
    /// `RunCache` path, warmed `batch` jobs at a time) measures the
    /// survivors, and the job takes the measured-best socket. Decision
    /// regret is bounded by the predictor's ranking quality over the
    /// screened set rather than its absolute accuracy.
    RegretBatched {
        /// Jobs per oracle warm-up batch.
        batch: usize,
        /// Predictor-screened candidates measured per job.
        top_k: usize,
    },
}

impl PlacePolicy {
    /// The three benchmark policies at their standard parameters.
    pub fn benchmark_set() -> Vec<PlacePolicy> {
        vec![
            PlacePolicy::PackFirstFit,
            PlacePolicy::LeastInterference,
            PlacePolicy::RegretBatched {
                batch: 256,
                top_k: 3,
            },
        ]
    }

    /// Stable identifier for reports and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            PlacePolicy::PackFirstFit => "pack-first-fit",
            PlacePolicy::LeastInterference => "least-interference",
            PlacePolicy::RegretBatched { .. } => "regret-batched",
        }
    }

    /// Parse a CLI policy name (standard parameters for `regret-batched`).
    pub fn by_name(name: &str) -> Result<PlacePolicy, String> {
        match name {
            "pack-first-fit" | "pack" | "first-fit" => Ok(PlacePolicy::PackFirstFit),
            "least-interference" | "li" | "greedy" => Ok(PlacePolicy::LeastInterference),
            "regret-batched" | "rb" => Ok(PlacePolicy::RegretBatched {
                batch: 256,
                top_k: 3,
            }),
            other => Err(format!(
                "unknown policy {other:?} (pack-first-fit|least-interference|regret-batched)"
            )),
        }
    }
}

impl std::fmt::Display for PlacePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacePolicy::RegretBatched { batch, top_k } => {
                write!(f, "regret-batched(batch={batch},top_k={top_k})")
            }
            other => f.write_str(other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in PlacePolicy::benchmark_set() {
            assert_eq!(PlacePolicy::by_name(p.name()).unwrap().name(), p.name());
        }
        assert!(PlacePolicy::by_name("random").is_err());
        assert_eq!(
            format!(
                "{}",
                PlacePolicy::RegretBatched {
                    batch: 64,
                    top_k: 2
                }
            ),
            "regret-batched(batch=64,top_k=2)"
        );
    }
}
