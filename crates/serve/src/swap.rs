//! The one served model and its hot-swap seam.
//!
//! A [`ServedModel`] is whatever the serving tier fronts: a flat
//! [`Detector`] or a screen→confirm [`CascadeDetector`], each behind one
//! `Arc`. It owns every fact that depends on which of the two it is —
//! the artifact sniff ([`ServedModel::from_artifact`]), batched scoring
//! into one [`ServedVerdict`] shape, the reply's `"model"` id and the
//! cascade-only `/healthz` fields — so the server, the queue and the
//! reload loop each keep a single path.
//!
//! A [`ModelSlot`] holds the live model plus its artifact generation
//! behind one lock. Queue workers score through the slot's [`CodeScorer`]
//! impl, which **snapshots the model once per batch**: a concurrent
//! [`ModelSlot::install`] swaps the live model for subsequent batches
//! while every in-flight batch finishes on the model it started with — no
//! torn batches, no dropped requests, and bit-parity with solo scoring
//! within each generation. Both cascade stages live behind the one `Arc`,
//! so an install replaces screen and confirmer together: no request can
//! pair a stage-1 from one generation with a stage-2 from another.
//!
//! An install may replace the model but never its kind (flat vs.
//! cascade), because that would change the shape of every reply; the one
//! check is [`ModelSlot::try_install`].
//!
//! The rolling-retrain loop in `phishinghook-ingest` and the artifact
//! watch loop drive this seam: republish the artifact atomically on disk,
//! decode it, then [`Server::install`](crate::Server::install) the new
//! generation here.

use phishinghook::json::Value;
use phishinghook::{CascadeDetector, CascadeVerdict, CodeScorer, Detector, ModelKind};
use phishinghook_artifact::{ArtifactError, OwnedArtifact};
use phishinghook_evm::Bytecode;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The reply `"model"` id of a cascade.
const CASCADE_ID: &str = "cascade";

/// The model a server fronts.
#[derive(Clone)]
pub enum ServedModel {
    /// A flat single-model detector.
    Flat(Arc<Detector>),
    /// A two-stage cascade: calibrated screen, uncertainty band, deep
    /// confirmer.
    Cascade(Arc<CascadeDetector>),
}

impl From<Arc<Detector>> for ServedModel {
    fn from(detector: Arc<Detector>) -> Self {
        ServedModel::Flat(detector)
    }
}

impl From<Arc<CascadeDetector>> for ServedModel {
    fn from(cascade: Arc<CascadeDetector>) -> Self {
        ServedModel::Cascade(cascade)
    }
}

impl ServedModel {
    /// Decodes an artifact into the model it holds: a container with a
    /// `cascade` section is a cascade, anything else a flat detector.
    ///
    /// # Errors
    ///
    /// Whatever the matching decoder rejects.
    pub fn from_artifact(artifact: &OwnedArtifact) -> Result<ServedModel, ArtifactError> {
        Ok(if artifact.section("cascade").is_ok() {
            Arc::new(CascadeDetector::from_artifact(artifact)?).into()
        } else {
            Arc::new(Detector::from_artifact(artifact)?).into()
        })
    }

    /// The `"model"` id replies and `/healthz` report: the detector's
    /// kind id, or `"cascade"`.
    pub(crate) fn id(&self) -> &'static str {
        match self {
            ServedModel::Flat(detector) => detector.kind().id(),
            ServedModel::Cascade(_) => CASCADE_ID,
        }
    }

    /// `"flat"` or `"cascade"`: the kind an install must preserve.
    fn kind(&self) -> &'static str {
        match self {
            ServedModel::Flat(_) => "flat",
            ServedModel::Cascade(_) => CASCADE_ID,
        }
    }

    /// The extra `/healthz` fields, given the server's routing counters
    /// (contracts screened, and escalated to the confirmer): the stage ids
    /// and the routing counters for a cascade, nothing for a flat model.
    pub(crate) fn health_fields(&self, screened: u64, escalated: u64) -> Vec<(String, Value)> {
        let ServedModel::Cascade(cascade) = self else {
            return Vec::new();
        };
        let rate = if screened == 0 {
            0.0
        } else {
            escalated as f64 / screened as f64
        };
        vec![
            (
                "screen_model".into(),
                Value::Str(cascade.screen().kind().id().into()),
            ),
            (
                "confirm_model".into(),
                Value::Str(cascade.confirm().kind().id().into()),
            ),
            ("cascade_screened".into(), Value::Num(screened as f64)),
            ("cascade_escalated".into(), Value::Num(escalated as f64)),
            ("cascade_escalation_rate".into(), Value::Num(rate)),
        ]
    }
}

/// The daemon banner's description of the model.
impl fmt::Display for ServedModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServedModel::Flat(detector) => {
                write!(f, "{} ({})", detector.kind().name(), detector.kind().id())
            }
            ServedModel::Cascade(cascade) => write!(
                f,
                "cascade {} → {} (band [{:.3}, {:.3}], budget {:.0}%)",
                cascade.screen().kind().id(),
                cascade.confirm().kind().id(),
                cascade.band().0,
                cascade.band().1,
                cascade.escalate_budget() * 100.0
            ),
        }
    }
}

impl CodeScorer for ServedModel {
    type Output = ServedVerdict;

    fn score_many(&self, codes: &[Bytecode]) -> Vec<ServedVerdict> {
        match self {
            ServedModel::Flat(detector) => {
                let model = detector.kind();
                detector
                    .score_codes(codes)
                    .into_iter()
                    .map(|probability| ServedVerdict::Flat { model, probability })
                    .collect()
            }
            ServedModel::Cascade(cascade) => cascade
                .score_codes(codes)
                .into_iter()
                .map(ServedVerdict::Cascade)
                .collect(),
        }
    }
}

/// A served model's call on one contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServedVerdict {
    /// A flat detector's probability, with the kind of model that scored it.
    Flat {
        /// The scoring model.
        model: ModelKind,
        /// The phishing probability.
        probability: f32,
    },
    /// A cascade's verdict, with full per-stage provenance.
    Cascade(CascadeVerdict),
}

impl ServedVerdict {
    /// The `"model"` id of the model that scored this contract.
    pub(crate) fn model_id(&self) -> &'static str {
        match self {
            ServedVerdict::Flat { model, .. } => model.id(),
            ServedVerdict::Cascade(_) => CASCADE_ID,
        }
    }

    /// The reported phishing probability.
    pub(crate) fn probability(&self) -> f32 {
        match self {
            ServedVerdict::Flat { probability, .. } => *probability,
            ServedVerdict::Cascade(v) => v.probability,
        }
    }

    /// Whether a cascade escalated this contract to its confirmer; `None`
    /// for a flat model, which has no second stage.
    pub(crate) fn escalated(&self) -> Option<bool> {
        match self {
            ServedVerdict::Flat { .. } => None,
            ServedVerdict::Cascade(v) => Some(v.escalated),
        }
    }

    /// `true` when the probability crosses
    /// [`PHISHING_THRESHOLD`](phishinghook::PHISHING_THRESHOLD).
    pub(crate) fn is_phishing(&self) -> bool {
        self.probability() >= phishinghook::PHISHING_THRESHOLD
    }
}

/// A swappable, generation-counted model slot shared by the serving
/// queue and the retrain or reload loop.
pub struct ModelSlot {
    /// The live model and its generation, swapped together so a reader
    /// never pairs a new model with an old generation number.
    live: Mutex<(ServedModel, u64)>,
    started: Instant,
}

impl ModelSlot {
    /// A slot serving `model` as artifact generation `generation` (use 0
    /// for a model loaded outside any publish directory).
    pub fn new(model: impl Into<ServedModel>, generation: u64) -> Self {
        ModelSlot {
            live: Mutex::new((model.into(), generation)),
            started: Instant::now(),
        }
    }

    /// One consistent `(model, generation)` snapshot. The returned model
    /// stays alive for as long as the caller scores with it, regardless of
    /// later installs.
    pub fn snapshot(&self) -> (ServedModel, u64) {
        self.live.lock().unwrap().clone()
    }

    /// The live artifact generation.
    pub fn generation(&self) -> u64 {
        self.live.lock().unwrap().1
    }

    /// Swaps in a new model generation and returns the generation it
    /// replaced. Takes effect for every batch that snapshots after this
    /// call; batches already scoring finish on the old model.
    ///
    /// # Errors
    ///
    /// A model of the other kind (flat vs. cascade) is refused, naming
    /// the mismatch; the live model stays.
    pub fn try_install(
        &self,
        model: impl Into<ServedModel>,
        generation: u64,
    ) -> Result<u64, String> {
        let model = model.into();
        let mut live = self.live.lock().unwrap();
        if model.kind() != live.0.kind() {
            return Err(format!(
                "{} model offered to a {} server",
                model.kind(),
                live.0.kind()
            ));
        }
        let previous = live.1;
        *live = (model, generation);
        Ok(previous)
    }

    /// [`ModelSlot::try_install`] for a caller that treats a kind change
    /// as a bug.
    ///
    /// # Panics
    ///
    /// Panics on a kind change.
    pub fn install(&self, model: impl Into<ServedModel>, generation: u64) -> u64 {
        self.try_install(model, generation)
            .unwrap_or_else(|mismatch| panic!("{mismatch}"))
    }

    /// Time since the slot (and hence the server around it) was created.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }
}

impl CodeScorer for ModelSlot {
    type Output = ServedVerdict;

    /// Scores one batch against a single snapshot of the live model: the
    /// swap seam's whole contract is that the model is read exactly once
    /// per batch.
    fn score_many(&self, codes: &[Bytecode]) -> Vec<ServedVerdict> {
        self.snapshot().0.score_many(codes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook::prelude::*;
    use phishinghook::EvalProfile;
    use phishinghook_synth::{generate_corpus, CorpusConfig};

    fn trained(kind: ModelKind, seed: u64) -> Arc<Detector> {
        let corpus = generate_corpus(&CorpusConfig::small(seed));
        let chain = SimulatedChain::from_corpus(&corpus);
        let (dataset, _) = extract_dataset(&chain, &BemConfig::default());
        let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
        Arc::new(Detector::train(&ctx, kind, 7))
    }

    #[test]
    fn install_swaps_model_and_generation_together() {
        let first = trained(ModelKind::LogisticRegression, 42);
        let second = trained(ModelKind::RandomForest, 42);
        let slot = ModelSlot::new(Arc::clone(&first), 1);
        assert_eq!(slot.generation(), 1);
        assert_eq!(slot.snapshot().0.id(), first.kind().id());

        let old = slot.install(Arc::clone(&second), 2);
        assert_eq!(old, 1);
        let (live, generation) = slot.snapshot();
        assert_eq!(generation, 2);
        assert_eq!(live.id(), ModelKind::RandomForest.id());
        // The pre-swap snapshot semantics: an Arc taken before install
        // still scores on the old model.
        assert_eq!(first.kind(), ModelKind::LogisticRegression);
    }

    #[test]
    fn slot_scoring_is_bit_identical_to_the_detector_within_a_generation() {
        let detector = trained(ModelKind::LogisticRegression, 7);
        let slot = ModelSlot::new(Arc::clone(&detector), 1);
        let corpus = generate_corpus(&CorpusConfig::small(9));
        let chain = SimulatedChain::from_corpus(&corpus);
        let codes: Vec<Bytecode> = chain
            .records()
            .iter()
            .take(16)
            .map(|r| r.bytecode.clone())
            .collect();
        let served: Vec<f32> = slot
            .score_many(&codes)
            .iter()
            .map(ServedVerdict::probability)
            .collect();
        assert_eq!(served, detector.score_many(&codes));
    }
}
