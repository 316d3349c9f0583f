//! Shared harness for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation section and accepts a `--quick` flag that scales the corpus
//! and model budgets down to CI size. Without the flag, a laptop-scale
//! "full" run is performed — larger than `--quick`, still far below the
//! paper's GPU cluster budget, so its results compare with the paper's by
//! *shape*, not by absolute value.

pub mod json;

use phishinghook::prelude::*;
use phishinghook::ScalabilityStudy;

/// Run scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// CI-sized: small corpus, small models, 2–3 folds.
    Quick,
    /// Laptop-sized: the default.
    Full,
}

impl RunScale {
    /// Parses `--quick` from the process arguments.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            RunScale::Quick
        } else {
            RunScale::Full
        }
    }

    /// The evaluation profile for this scale.
    pub fn profile(&self) -> EvalProfile {
        match self {
            RunScale::Quick => EvalProfile::quick(),
            RunScale::Full => EvalProfile::full(),
        }
    }

    /// Unique contracts per class for the main corpus.
    pub fn corpus_size(&self) -> usize {
        match self {
            RunScale::Quick => 150,
            RunScale::Full => 900,
        }
    }

    /// Cross-validation folds.
    pub fn folds(&self) -> usize {
        match self {
            RunScale::Quick => 3,
            RunScale::Full => 10,
        }
    }

    /// Repeated CV runs.
    pub fn runs(&self) -> usize {
        match self {
            RunScale::Quick => 1,
            RunScale::Full => 3,
        }
    }
}

/// Builds the main balanced dataset (the 7,000-sample analogue).
pub fn main_dataset(scale: RunScale, seed: u64) -> Dataset {
    let n = scale.corpus_size();
    let corpus = generate_corpus(&CorpusConfig {
        unique_phishing: n,
        unique_benign: n,
        ..CorpusConfig::small(seed)
    });
    let chain = SimulatedChain::from_corpus(&corpus);
    extract_dataset(&chain, &BemConfig::default()).0
}

/// Builds the temporally-matched dataset used by Fig. 8.
pub fn temporal_dataset(scale: RunScale, seed: u64) -> Dataset {
    let n = scale.corpus_size();
    let corpus = generate_corpus(&CorpusConfig {
        unique_phishing: n,
        unique_benign: n,
        benign_temporal_match: true,
        clone_factor: 1.5,
        ..CorpusConfig::small(seed)
    });
    let chain = SimulatedChain::from_corpus(&corpus);
    extract_dataset(
        &chain,
        &BemConfig {
            balance: false,
            ..Default::default()
        },
    )
    .0
}

/// Loads the scalability study persisted by the `fig5` binary, if present
/// and parseable (the table2-style load-or-run pattern for fig6/fig7).
pub fn load_scalability_study() -> Option<ScalabilityStudy> {
    let text = std::fs::read_to_string("fig5_study.json").ok()?;
    let study = json::scalability_from_json(&text)?;
    println!("(loaded scalability study from fig5_study.json)\n");
    Some(study)
}

/// Formats a p-value the way the paper prints Table III.
pub fn fmt_p(p: f64) -> String {
    if p < 1e-3 {
        format!("{p:.2e}")
    } else {
        format!("{p:.4}")
    }
}

/// Prints a standard header for a regeneration binary.
pub fn banner(artifact: &str, scale: RunScale) {
    println!("== PhishingHook reproduction :: {artifact} ==");
    println!("scale: {:?} (pass --quick for the CI-sized run)\n", scale);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_profile_is_smaller() {
        let q = RunScale::Quick;
        let f = RunScale::Full;
        assert!(q.corpus_size() < f.corpus_size());
        assert!(q.folds() < f.folds());
        assert!(q.profile().n_trees < f.profile().n_trees);
    }

    #[test]
    fn datasets_are_buildable_at_quick_scale() {
        let d = main_dataset(RunScale::Quick, 1);
        assert!(d.len() > 100);
        let t = temporal_dataset(RunScale::Quick, 1);
        assert!(t.len() > 100);
    }

    #[test]
    fn p_formatting() {
        assert_eq!(fmt_p(0.25), "0.2500");
        assert!(fmt_p(1e-9).contains('e'));
    }
}
