//! The replayable corpus, and the harness every case type shares.
//!
//! `crates/conformance/corpus/` holds checked-in JSON cases: engine
//! [`CorpusCase`]s at the top, placement [`PlacementCase`]s under
//! `placement/`. The files are the only copy of each case;
//! `corpus/README.md` says which axis each seed file pins and how to add
//! one. A failing suite run persists its shrunk counterexample beside
//! them. Replay is cheap — `coloc verify` and the root package's
//! `differential` suite both call [`verify_dir`] — so every future change
//! re-litigates old failures for free.
//!
//! A case type implements [`Case`]: its seed, its law tag, a description
//! and its one-step simplifications. One [`shrink`], one loader and
//! writer, one [`crate::laws::check_law`] and one [`verify_dir`] then
//! serve every case type, so a new check is one more
//! [`Law`] over an existing case type.

use crate::case::CorpusCase;
use crate::diff;
use crate::laws::{all_laws, law_by_name, Law};
use crate::placement_laws::{placement_laws, PlacementCase};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::path::{Path, PathBuf};

/// What the harness needs of a case type.
pub trait Case: Clone + Serialize + DeserializeOwned + Sync {
    /// The seed that names the case's counterexample file.
    fn seed(&self) -> u64;

    /// The law this case replays through; `None` for an engine case that
    /// replays through the differential oracle.
    fn law(&self) -> Option<&str>;

    /// Tag the case with a law, or clear its tag.
    fn set_law(&mut self, law: Option<&str>);

    /// One-line human description.
    fn describe(&self) -> String;

    /// Every case one simplifying step away, the preferred simplification
    /// first: [`shrink`] takes the first that still fails.
    fn simplifications(&self) -> Vec<Self>;
}

/// Deterministically shrink a failing case: repeatedly take the first
/// simplification under which `still_fails` holds, until none does.
pub fn shrink<C: Case>(case: &C, still_fails: impl Fn(&C) -> bool) -> C {
    let mut current = case.clone();
    while let Some(next) = current
        .simplifications()
        .into_iter()
        .find(|c| still_fails(c))
    {
        current = next;
    }
    current
}

/// The checked-in corpus directory (compile-time anchored to this crate,
/// so replay works from any working directory).
pub fn default_corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// The placement corpus subdirectory under a corpus root.
pub fn placement_corpus_dir(root: &Path) -> PathBuf {
    root.join("placement")
}

/// Save a case as pretty JSON (trailing newline, diff-friendly).
pub fn save_case<C: Case>(path: &Path, case: &C) -> Result<(), String> {
    let mut bytes = serde_json::to_vec_pretty(case).map_err(|e| e.to_string())?;
    bytes.push(b'\n');
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Load one case.
pub fn load_case<C: Case>(path: &Path) -> Result<C, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_slice(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Load every `.json` case in a directory (not its subdirectories),
/// sorted by file name for a stable replay order. A missing directory is
/// an empty corpus.
pub fn load_dir<C: Case>(dir: &Path) -> Result<Vec<(PathBuf, C)>, String> {
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    };
    paths.sort();
    paths
        .into_iter()
        .map(|p| load_case(&p).map(|c| (p, c)))
        .collect()
}

/// Persist a shrunk counterexample; returns the path written. The file
/// name embeds the law (or `differential`) and the case seed, so repeat
/// failures overwrite rather than accumulate.
pub fn write_counterexample<C: Case>(
    dir: &Path,
    law: Option<&str>,
    case: &C,
) -> Result<PathBuf, String> {
    let mut case = case.clone();
    case.set_law(law);
    let tag = law.unwrap_or("differential");
    let path = dir.join(format!("counterexample-{tag}-{:016x}.json", case.seed()));
    save_case(&path, &case)?;
    Ok(path)
}

/// Result of replaying a corpus directory.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Engine cases replayed through the differential oracle.
    pub differential: usize,
    /// Engine cases replayed through their named law.
    pub law_checks: usize,
    /// Placement cases replayed through their named law.
    pub placement: usize,
    /// Failures, as `path: detail` strings, in replay order.
    pub failures: Vec<String>,
}

impl VerifyReport {
    /// True when every case replayed clean.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Total cases replayed.
    pub fn total(&self) -> usize {
        self.differential + self.law_checks + self.placement
    }
}

/// Replay one case: through its tagged law when it has one, else through
/// `untagged`. An unknown tag is a failure, so a typo cannot turn a
/// counterexample into a no-op.
fn replay<C: Case>(
    case: &C,
    laws: &[Box<dyn Law<C>>],
    untagged: impl Fn(&C) -> Result<(), String>,
) -> Result<(), String> {
    match case.law() {
        Some(name) => match law_by_name(laws, name) {
            Some(law) => law.check_case(case),
            None => Err(format!("unknown law {name:?}")),
        },
        None => untagged(case),
    }
}

/// Replay the engine corpus in `dir` and the placement corpus in its
/// `placement/` subdirectory across `threads` workers (0 = one per core,
/// capped at the case count). Law-tagged cases re-check their law; an
/// untagged engine case goes through the differential oracle, and an
/// untagged placement case is a failure (a placement case means nothing
/// without its law). Results aggregate in file-name order, engine cases
/// first, so the report is the same at any thread count.
pub fn verify_dir(dir: &Path, threads: usize) -> Result<VerifyReport, String> {
    let engine: Vec<(PathBuf, CorpusCase)> = load_dir(dir)?;
    let placement: Vec<(PathBuf, PlacementCase)> = load_dir(&placement_corpus_dir(dir))?;
    let (engine_laws, placement_laws) = (all_laws(), placement_laws());
    let n = engine.len() + placement.len();
    let failures = coloc_ml::parallel::run_indexed(n, threads, |i| {
        let (path, result) = match engine.get(i) {
            Some((path, case)) => (
                path,
                replay(case, &engine_laws, |c| diff::check_case(c).map(drop)),
            ),
            None => {
                let (path, case) = &placement[i - engine.len()];
                let untagged = |_: &PlacementCase| Err("untagged placement case".to_string());
                (path, replay(case, &placement_laws, untagged))
            }
        };
        result
            .err()
            .map(|detail| format!("{}: {detail}", path.display()))
    });
    let laws = engine.iter().filter(|(_, c)| c.law.is_some()).count();
    Ok(VerifyReport {
        differential: engine.len() - laws,
        law_checks: laws,
        placement: placement.len(),
        failures: failures.into_iter().flatten().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::CoGroup;
    use coloc_machine::GroupRef;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("coloc_conformance_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_round_trip() {
        let dir = tmp_dir("roundtrip");
        let case = crate::case::gen_case(3, &crate::case::GenConstraints::default());
        let path = dir.join("case.json");
        save_case(&path, &case).unwrap();
        assert_eq!(load_case::<CorpusCase>(&path).unwrap(), case);
        let loaded = load_dir::<CorpusCase>(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].1, case);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_is_empty_corpus() {
        let dir = std::env::temp_dir().join("coloc_conformance_definitely_missing");
        assert!(load_dir::<CorpusCase>(&dir).unwrap().is_empty());
        assert_eq!(verify_dir(&dir, 1).unwrap().total(), 0);
    }

    #[test]
    fn counterexample_files_carry_their_law() {
        let dir = tmp_dir("counterexample");
        let case = crate::case::gen_case(4, &crate::case::GenConstraints::default());
        let path = write_counterexample(&dir, Some("solo-unity"), &case).unwrap();
        let loaded: CorpusCase = load_case(&path).unwrap();
        assert_eq!(loaded.law.as_deref(), Some("solo-unity"));
        assert!(path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("counterexample-solo-unity-"));
        let diff_path = write_counterexample(&dir, None, &case).unwrap();
        assert!(diff_path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("counterexample-differential-"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seed_files_cover_the_feature_axes() {
        let dir = default_corpus_dir();
        let seeds: Vec<CorpusCase> = load_dir::<CorpusCase>(&dir)
            .unwrap()
            .into_iter()
            .filter(|(path, _)| {
                path.file_name()
                    .unwrap()
                    .to_string_lossy()
                    .starts_with("seed-")
            })
            .map(|(_, case)| case)
            .collect();
        assert!(seeds.len() >= 18, "corpus should cover the feature axes");
        assert!(
            seeds
                .iter()
                .filter(|c| c.co.iter().any(CoGroup::has_schedule))
                .count()
                >= 10,
            "corpus should cover the event families"
        );
        let mut names: Vec<_> = seeds.iter().map(|c| c.name.clone()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate corpus case names");
        for case in &seeds {
            let ir = case.to_ir().expect("seed case lowers");
            // Capacity is over *peak* concurrency: disjoint residency
            // windows legally oversubscribe the static sum.
            let refs: Vec<GroupRef> = ir.workload.iter().map(GroupRef::from_group).collect();
            let occupied = coloc_machine::event::cores_needed(&refs, ir.schedules.as_deref());
            assert!(occupied <= ir.machine.cores, "{}", case.describe());
        }

        // Every placement law has a seed case.
        let placement = load_dir::<PlacementCase>(&placement_corpus_dir(&dir)).unwrap();
        for law in placement_laws() {
            assert!(
                placement
                    .iter()
                    .any(|(_, case)| case.law() == Some(law.name())),
                "no placement seed case for `{}`",
                law.name()
            );
        }
    }

    #[test]
    fn verify_flags_unknown_laws_and_untagged_placement_cases() {
        let dir = tmp_dir("unknown_law");
        let mut case = crate::case::gen_case(5, &crate::case::GenConstraints::default());
        case.law = Some("not-a-law".into());
        save_case(&dir.join("bad.json"), &case).unwrap();
        let report = verify_dir(&dir, 1).unwrap();
        assert_eq!((report.law_checks, report.failures.len()), (1, 1));
        assert!(report.failures[0].contains("unknown law"));

        // A placement case with no tag, or an unknown one, fails too.
        let placement = placement_corpus_dir(&dir);
        let laws = placement_laws();
        let solo = law_by_name(&laws, "placement-solo-regret").unwrap();
        let mut untagged = solo.case_for_seed(3).unwrap();
        untagged.law = None;
        save_case(&placement.join("untagged.json"), &untagged).unwrap();
        let mut unknown = solo.case_for_seed(4).unwrap();
        unknown.law = Some("placement-unknown-law".into());
        save_case(&placement.join("unknown.json"), &unknown).unwrap();
        let report = verify_dir(&dir, 2).unwrap();
        assert_eq!((report.placement, report.failures.len()), (2, 3));
        assert!(report.failures[1].contains("unknown law"));
        assert!(report.failures[2].contains("untagged placement case"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
