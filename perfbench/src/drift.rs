//! The drift workload's CodeLog plan. `phishinghook-ingestd tail`
//! retrains when the rolling Brier score of its live model degrades past
//! the baseline it captured after its last retrain. A plan alternates
//! calm segments (long enough for a fresh baseline) with shifted bursts,
//! and sizes each burst by replaying the same records through the same
//! `OnlinePipeline` in-process: a burst ends with the record that trips
//! the retrain. The daemon sees only the records; the replay tells the
//! benchmark which generation each burst must bring live.

use crate::gen::{LogRecord, RecordSource};
use phishinghook::drift::DriftConfig;
use phishinghook::{Dataset, Detector, EvalContext, Sample};
use phishinghook_artifact::publish::ArtifactPublisher;
use phishinghook_ingest::{IngestConfig, OnlinePipeline, DEFAULT_BOOTSTRAP_MIN};
use phishinghook_synth::{ContractClass, Month};
use std::path::Path;
use std::sync::Arc;

/// Calm records per segment: a full drift window (64) for the
/// post-retrain baseline plus headroom.
pub const CALM: usize = 272;
/// Longest run of one shift direction in a burst.
pub const MAX_BURST: usize = 64;

/// One calm → shifted cycle.
#[derive(Debug, Clone)]
pub struct Cycle {
    pub burst: Vec<LogRecord>,
    pub calm: Vec<LogRecord>,
    /// Live generation once the burst is consumed; equal to the previous
    /// cycle's `after_calm` when the burst tripped nothing.
    pub after_burst: u64,
    /// Live generation once the calm segment is consumed.
    pub after_calm: u64,
}

#[derive(Debug, Clone)]
pub struct DriftPlan {
    /// Labeled records the trainer bootstraps its baseline from.
    pub bootstrap: Vec<LogRecord>,
    /// Calm records before the first burst.
    pub lead_in: Vec<LogRecord>,
    /// Generation live after the lead-in.
    pub after_lead_in: u64,
    pub cycles: Vec<Cycle>,
    /// Retrains across lead-in and cycles.
    pub retrains: usize,
}

/// The trainer configuration `phishinghook-ingestd tail <log> <dir> <seed>`
/// runs with.
pub fn ingest_config(model_seed: u64) -> IngestConfig {
    IngestConfig {
        drift: DriftConfig {
            window: 64,
            brier_margin: 0.15,
        },
        seed: model_seed,
        ..IngestConfig::default()
    }
}

pub fn sample(r: &LogRecord) -> Sample {
    Sample {
        bytecode: r.code.clone(),
        label: r.label,
        month: Month(r.month.min(u16::from(Month::LAST.0)) as u8),
    }
}

/// Labeled records until the trainer's bootstrap condition holds: at
/// least `DEFAULT_BOOTSTRAP_MIN`, both classes present.
pub fn bootstrap_records(src: &mut RecordSource) -> Vec<LogRecord> {
    let mut out: Vec<LogRecord> = Vec::new();
    loop {
        out.push(src.calm());
        let positives = out.iter().filter(|r| r.label == 1).count();
        if out.len() >= DEFAULT_BOOTSTRAP_MIN && positives > 0 && positives < out.len() {
            return out;
        }
    }
}

/// The trainer's baseline on the bootstrap records.
pub fn baseline(bootstrap: &[LogRecord], config: &IngestConfig) -> Detector {
    let dataset = Dataset::new(bootstrap.iter().map(sample).collect());
    let ctx = EvalContext::new(&dataset, &config.profile);
    Detector::train(&ctx, config.kind, config.seed)
}

/// The in-process trainer the plan is replayed through.
struct Trainer {
    pipeline: OnlinePipeline,
    publisher: ArtifactPublisher,
    generation: u64,
    retrains: usize,
}

impl Trainer {
    /// Feeds one record, following any retrain it trips.
    fn feed(&mut self, r: &LogRecord) -> Result<(), String> {
        let event = self
            .pipeline
            .observe(sample(r), &mut self.publisher)
            .map_err(|e| format!("drift replay: {e}"))?;
        if let Some(event) = event {
            self.generation = event.published.generation;
            self.retrains += 1;
        }
        Ok(())
    }
}

/// Builds a plan of up to `cycles` cycles, replaying it in-process with
/// `scratch` as the replay's publish directory. The plan stops early at a
/// burst that trips no retrain in either direction.
pub fn plan(
    seed: u64,
    model_seed: u64,
    cycles: usize,
    scratch: &Path,
) -> Result<DriftPlan, String> {
    let err = |e: phishinghook::ArtifactError| format!("drift replay: {e}");
    let config = ingest_config(model_seed);
    let mut src = RecordSource::new(seed);
    let bootstrap = bootstrap_records(&mut src);
    let mut publisher = ArtifactPublisher::open(scratch).map_err(err)?;
    let base = baseline(&bootstrap, &config);
    let generation = publisher.publish(base.to_bytes()).map_err(err)?.generation;
    let mut trainer = Trainer {
        pipeline: OnlinePipeline::new(Arc::new(base), config),
        publisher,
        generation,
        retrains: 0,
    };

    let lead_in: Vec<LogRecord> = (0..CALM).map(|_| src.calm()).collect();
    for r in &lead_in {
        trainer.feed(r)?;
    }
    let after_lead_in = trainer.generation;
    let mut out = Vec::with_capacity(cycles);
    for cycle in 0..cycles {
        // The shift alternates direction between cycles; a burst whose
        // direction trips nothing within `MAX_BURST` records turns to the
        // other direction once.
        let mut burst = Vec::new();
        'burst: for attempt in 0..2 {
            let class = if (cycle + attempt) % 2 == 0 {
                ContractClass::Benign
            } else {
                ContractClass::Phishing
            };
            for _ in 0..MAX_BURST {
                let r = src.shifted(class);
                let before = trainer.generation;
                trainer.feed(&r)?;
                burst.push(r);
                if trainer.generation > before {
                    break 'burst;
                }
            }
        }
        let after_burst = trainer.generation;
        if after_burst == out.last().map_or(after_lead_in, |c: &Cycle| c.after_calm) {
            // Neither direction trips: a retrain has left a model whose
            // post-retrain baseline no later record can degrade past, and
            // the trainer will not retrain again. The plan ends here.
            break;
        }
        let calm: Vec<LogRecord> = (0..CALM).map(|_| src.calm()).collect();
        for r in &calm {
            trainer.feed(r)?;
        }
        out.push(Cycle {
            burst,
            calm,
            after_burst,
            after_calm: trainer.generation,
        });
    }
    let _ = std::fs::remove_dir_all(scratch);
    Ok(DriftPlan {
        bootstrap,
        lead_in,
        after_lead_in,
        cycles: out,
        retrains: trainer.retrains,
    })
}
