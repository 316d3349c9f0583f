//! The traced run: replays the workload's generated inputs in-process
//! through each layer's public functions, one span per call, and reduces
//! the spans to the per-layer metrics.

use crate::drift::{self, DriftPlan};
use crate::gen::LogRecord;
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::{self, Env, Inputs, Workload, BATCH};
use phishinghook::json::{self, Value};
use phishinghook::par::parallel_map;
use phishinghook::{
    CascadeDetector, CascadeVerdict, CodeScorer, Dataset, Detector, EvalContext, EvalProfile,
};
use phishinghook_artifact::publish::ArtifactPublisher;
use phishinghook_artifact::watch::{ArtifactWatcher, WatchConfig, WatchOutcome};
use phishinghook_evm::{
    Bytecode, CodeLogTailer, CodeLogWriter, DisasmCache, TailConfig, TailEvent,
};
use phishinghook_features::FittedEncoders;
use phishinghook_ingest::OnlinePipeline;
use phishinghook_serve::http::{read_request, write_response};
use phishinghook_serve::{Limits, MicroBatcher, QueueConfig, Server, ServerConfig};
use std::collections::VecDeque;
use std::io::Cursor;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Requests replayed through the layer chain: this many, or as many as
/// fit in `REPLAY_BUDGET`.
const REPLAY: usize = 200;
const REPLAY_BUDGET: Duration = Duration::from_secs(4);
/// Wall time of the queue probe.
const QUEUE_PROBE: Duration = Duration::from_millis(1500);
/// Publish → validate → decode → install rounds.
const SWAPS: usize = 10;
/// The GPT-2 confirmer's serving GEMM: a 64-contract batch of 32-token
/// contexts through a 16 → 64 projection.
const GEMM_SHAPE: (usize, usize, usize) = (BATCH * 32, 16, 64);

/// One per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// A model stage of the replay: its detector and the encoders it was
/// trained under.
struct Stage<'a> {
    name: &'static str,
    detector: &'a Detector,
    encoders: &'a FittedEncoders,
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        stats::median(v)
    }
}

fn flat_reply(model: &str, probs: &[f32], single: bool) -> Value {
    let num = |p: f32| Value::Num(f64::from(p));
    let flag = |p: f32| Value::Bool(p >= phishinghook::PHISHING_THRESHOLD);
    if single {
        Value::Obj(vec![
            ("model".into(), Value::Str(model.into())),
            ("probability".into(), num(probs[0])),
            ("phishing".into(), flag(probs[0])),
        ])
    } else {
        Value::Obj(vec![
            ("model".into(), Value::Str(model.into())),
            (
                "probabilities".into(),
                Value::Arr(probs.iter().map(|&p| num(p)).collect()),
            ),
            (
                "phishing".into(),
                Value::Arr(probs.iter().map(|&p| flag(p)).collect()),
            ),
        ])
    }
}

fn cascade_reply(verdicts: &[CascadeVerdict], single: bool) -> Value {
    let num = |p: f32| Value::Num(f64::from(p));
    if single {
        let v = &verdicts[0];
        Value::Obj(vec![
            ("model".into(), Value::Str("cascade".into())),
            ("probability".into(), num(v.probability)),
            ("escalated".into(), Value::Bool(v.escalated)),
            ("phishing".into(), Value::Bool(v.is_phishing())),
        ])
    } else {
        Value::Obj(vec![
            ("model".into(), Value::Str("cascade".into())),
            (
                "probabilities".into(),
                Value::Arr(verdicts.iter().map(|v| num(v.probability)).collect()),
            ),
            (
                "escalated".into(),
                Value::Arr(verdicts.iter().map(|v| Value::Bool(v.escalated)).collect()),
            ),
            (
                "phishing".into(),
                Value::Arr(
                    verdicts
                        .iter()
                        .map(|v| Value::Bool(v.is_phishing()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Times one stage on decoded contracts: per-contract encode (µs) and the
/// forward pass (`score_batch` minus the same encode fan-out). Returns the
/// scores and the `score_batch` time in ns.
fn stage_pass(
    t: &mut Tracer,
    stage: &Stage,
    caches: &[DisasmCache],
    parent: u64,
    req: u64,
) -> (Vec<f32>, u64) {
    let enc = stage.detector.encoding();
    let (probs, total) = t.time(
        format!("models.score_batch.{}", stage.name),
        Some(parent),
        req,
        || stage.detector.score_batch(caches),
    );
    let (_, encode) = t.time(
        format!("features.encode.{}", stage.name),
        Some(parent),
        req,
        || parallel_map(caches, |c| stage.encoders.encode(c, enc)),
    );
    let forward = t.span(total).end - t.span(total).start;
    let encoded = t.span(encode).end - t.span(encode).start;
    let start = t.now();
    t.record(
        format!("models.forward.{}", stage.name),
        Some(parent),
        req,
        start,
        start + forward.saturating_sub(encoded).max(1),
    );
    (probs, forward)
}

struct Replay {
    /// Sum over layers of the median per-request time (µs) on the served
    /// path.
    served_path_us: f64,
    /// The cascade's time beyond its two stages run standalone (µs, per
    /// request); negative when its stage-1 row reuse saves more than the
    /// routing costs.
    route_us: Vec<f64>,
    escalated: usize,
    contracts: usize,
    requests: usize,
}

fn replay_requests(
    t: &mut Tracer,
    inputs: &Inputs,
    flat: &Stage,
    cascade: &CascadeDetector,
    cascade_encoders: &FittedEncoders,
    serves_cascade: bool,
) -> Replay {
    let screen = Stage {
        name: "screen",
        detector: cascade.screen(),
        encoders: cascade_encoders,
    };
    let confirm = Stage {
        name: "confirm",
        detector: cascade.confirm(),
        encoders: cascade_encoders,
    };
    let mut served_model = Vec::new();
    let mut route_us = Vec::new();
    let (mut escalated, mut contracts) = (0, 0);
    let limits = Limits::default();
    let reqs: Vec<usize> = inputs
        .plan
        .iter()
        .flatten()
        .map(|&(_, r)| r)
        .chain(inputs.order.iter().copied())
        .take(REPLAY)
        .collect();
    let began = Instant::now();
    for (n, &r) in reqs.iter().enumerate() {
        if began.elapsed() > REPLAY_BUDGET {
            break;
        }
        let id = n as u64 + 1;
        let root = t.open("request", None, id);
        let raw = &inputs.requests[r];
        let (parsed, _) = t.time("serve.http.read", Some(root), id, || {
            read_request(&mut Cursor::new(raw.as_slice()), &limits)
                .expect("replayed request parses")
        });
        let text = std::str::from_utf8(&parsed.body).expect("UTF-8 body");
        let (doc, _) = t.time("core.json.parse", Some(root), id, || {
            json::parse(text).expect("JSON body")
        });
        let single = parsed.target == "/predict";
        let hexes: Vec<&str> = if single {
            vec![doc
                .get("bytecode")
                .and_then(Value::as_str)
                .expect("bytecode field")]
        } else {
            doc.get("contracts")
                .and_then(Value::as_arr)
                .expect("contracts field")
                .iter()
                .map(|v| v.as_str().expect("hex string"))
                .collect()
        };
        let (codes, _) = t.time("evm.bytecode.from_hex", Some(root), id, || {
            hexes
                .iter()
                .map(|h| Bytecode::from_hex(h).expect("valid hex"))
                .collect::<Vec<_>>()
        });
        let (caches, _) = t.time("evm.cache.build", Some(root), id, || {
            parallel_map(&codes, DisasmCache::build)
        });

        let (flat_probs, flat_ns) = stage_pass(t, flat, &caches, root, id);
        let (verdicts, total) = t.time("core.cascade.score_batch", Some(root), id, || {
            cascade.score_batch(&caches)
        });
        let (_, screen_ns) = stage_pass(t, &screen, &caches, root, id);
        stage_pass(t, &confirm, &caches, root, id);
        let up: Vec<DisasmCache> = verdicts
            .iter()
            .zip(&caches)
            .filter(|(v, _)| v.escalated)
            .map(|(_, c)| c.clone())
            .collect();
        let (_, sub) = t.time("models.score_batch.escalated", Some(root), id, || {
            confirm.detector.score_batch(&up)
        });
        let dur = |t: &Tracer, s: u64| t.span(s).end - t.span(s).start;
        let route_ns = dur(t, total) as f64 - screen_ns as f64 - dur(t, sub) as f64;
        let start = t.now();
        t.record(
            "core.cascade.route",
            Some(root),
            id,
            start,
            start + route_ns.max(0.0) as u64,
        );
        route_us.push(route_ns / 1e3);
        escalated += up.len();
        contracts += caches.len();

        let body = if serves_cascade {
            served_model.push(dur(t, total) as f64 / 1e3);
            let (b, _) = t.time("core.json.render", Some(root), id, || {
                cascade_reply(&verdicts, single).render()
            });
            b
        } else {
            served_model.push(flat_ns as f64 / 1e3);
            let (b, _) = t.time("core.json.render", Some(root), id, || {
                flat_reply(flat.detector.kind().id(), &flat_probs, single).render()
            });
            b
        };
        t.time("serve.http.write", Some(root), id, || {
            let mut sink = Vec::with_capacity(body.len() + 128);
            write_response(&mut sink, 200, "OK", &[], body.as_bytes(), false)
                .expect("in-memory write");
            sink
        });
        t.close(root);
    }
    let served_path_us = [
        "serve.http.read",
        "core.json.parse",
        "evm.bytecode.from_hex",
        "evm.cache.build",
        "core.json.render",
        "serve.http.write",
    ]
    .iter()
    .map(|name| median(&t.micros_of(name)))
    .sum::<f64>()
        + median(&served_model);
    Replay {
        served_path_us,
        route_us,
        escalated,
        contracts,
        requests: served_model.len(),
    }
}

/// A scorer wrapper that logs each `score_many` call: start and end (ns
/// since the probe began) and the content hashes of the batch.
struct Timed<S> {
    inner: S,
    origin: Instant,
    calls: Mutex<Vec<(u64, u64, Vec<u64>)>>,
}

impl<S: CodeScorer> CodeScorer for Timed<S> {
    type Output = S::Output;

    fn score_many(&self, codes: &[Bytecode]) -> Vec<S::Output> {
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = self.inner.score_many(codes);
        let end = self.origin.elapsed().as_nanos() as u64;
        let hashes = codes.iter().map(Bytecode::content_hash).collect();
        self.calls
            .lock()
            .expect("probe log")
            .push((start, end, hashes));
        out
    }
}

/// Closed-loop submits through a `MicroBatcher` from `conns` threads.
/// Returns (queue wait µs per job, mean jobs per batch, busy ratio).
fn queue_probe<S: CodeScorer + 'static>(
    t: &mut Tracer,
    scorer: S,
    inputs: &Inputs,
    conns: usize,
    batch: bool,
) -> (Vec<f64>, f64, f64) {
    let cfg = QueueConfig::from_env();
    let origin = Instant::now();
    let queue = MicroBatcher::start(
        Timed {
            inner: scorer,
            origin,
            calls: Mutex::new(Vec::new()),
        },
        cfg,
    );
    let jobs: Vec<Vec<Bytecode>> = inputs
        .carries
        .iter()
        .map(|c| c.iter().map(|&i| inputs.pool[i].clone()).collect())
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let submits: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let (queue, jobs, next) = (&queue, &jobs, &next);
                s.spawn(move || {
                    let mut log = Vec::new();
                    while origin.elapsed() < QUEUE_PROBE {
                        let i =
                            next.fetch_add(1, std::sync::atomic::Ordering::Relaxed) % jobs.len();
                        let codes = jobs[i].clone();
                        let hash = codes[0].content_hash();
                        let start = origin.elapsed().as_nanos() as u64;
                        let ok = if batch {
                            queue.submit_many(codes).is_ok()
                        } else {
                            queue
                                .submit(codes.into_iter().next().expect("one code"))
                                .is_ok()
                        };
                        let end = origin.elapsed().as_nanos() as u64;
                        if ok {
                            log.push((start, end, hash));
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("probe thread"))
            .collect()
    });
    let wall = origin.elapsed().as_nanos() as f64;
    let stats = queue.stats();
    let calls = queue.scorer().calls.lock().expect("probe log").clone();
    queue.shutdown();

    let base = t.now().saturating_sub(wall as u64);
    let mut waits = Vec::with_capacity(submits.len());
    for (n, &(start, end, hash)) in submits.iter().enumerate() {
        // The job's batch: the first call at or after its submit that
        // scored its contract.
        let Some(&(b0, b1, _)) = calls
            .iter()
            .filter(|(b0, b1, hs)| *b0 >= start && *b1 <= end && hs.contains(&hash))
            .min_by_key(|(b0, _, _)| *b0)
        else {
            continue;
        };
        let req = 1_000_000 + n as u64;
        t.record("serve.queue.wait", None, req, base + start, base + b0);
        t.record("serve.queue.score_many", None, req, base + b0, base + b1);
        waits.push((b0 - start) as f64 / 1e3);
    }
    let busy: u64 = calls.iter().map(|(a, b, _)| b - a).sum();
    let jobs_per_batch = stats.scored as f64 / stats.batches.max(1) as f64;
    (
        waits,
        jobs_per_batch,
        busy as f64 / (wall * cfg.workers as f64),
    )
}

/// `json::parse` cost per body byte at a body of `n` contracts.
fn parse_sweep(t: &mut Tracer, pool: &[Bytecode], n: usize, reps: usize) -> f64 {
    let hexes: Vec<String> = pool.iter().cycle().take(n).map(Bytecode::to_hex).collect();
    let body = String::from_utf8(crate::client::batch_body(hexes.iter().map(String::as_str)))
        .expect("ASCII body");
    let name = format!("core.json.parse.sweep.{n}");
    for _ in 0..reps {
        t.time(name.as_str(), None, 0, || {
            std::hint::black_box(
                json::parse(std::hint::black_box(&body)).expect("sweep body parses"),
            )
        });
    }
    median(&t.micros_of(&name)) * 1e3 / body.len() as f64
}

fn gemm_gflops(t: &mut Tracer) -> f64 {
    let (m, k, n) = GEMM_SHAPE;
    let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 * 0.1).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 * 0.2).collect();
    let mut out = vec![0.0f32; m * n];
    for _ in 0..200 {
        t.time("linalg.gemm.matmul_into", None, 0, || {
            phishinghook_linalg::gemm::matmul_into(m, k, n, &a, &b, std::hint::black_box(&mut out))
        });
    }
    2.0 * (m * k * n) as f64 / (median(&t.micros_of("linalg.gemm.matmul_into")) * 1e3)
}

struct IngestTimes {
    tail_us: f64,
    observe_us: f64,
    retrain_ms: f64,
    retrains: usize,
}

/// Replays the drift plan's journal through `CodeLogTailer` and the
/// trainer's `OnlinePipeline`, timing each retrain's train step apart.
fn ingest_probe(t: &mut Tracer, env: &Env, plan: &DriftPlan) -> Result<IngestTimes, String> {
    let records: Vec<&LogRecord> = plan
        .bootstrap
        .iter()
        .chain(&plan.lead_in)
        .chain(
            plan.cycles
                .iter()
                .flat_map(|c| c.burst.iter().chain(&c.calm)),
        )
        .collect();
    let log = env.work.join("trace.codelog");
    let mut writer = CodeLogWriter::create(&log).map_err(|e| e.to_string())?;
    for r in &records {
        writer
            .append_labeled(&r.code, r.label, r.month)
            .map_err(|e| e.to_string())?;
    }
    writer.sync().map_err(|e| e.to_string())?;
    let mut tailer = CodeLogTailer::new(&log, TailConfig::default());
    let mut tailed = Vec::with_capacity(records.len());
    for _ in 0..records.len() {
        let (event, _) = t.time("evm.codelog.tail", None, 0, || tailer.next_event());
        match event.map_err(|e| e.to_string())? {
            TailEvent::Record(entry) => tailed.push(entry),
            other => return Err(format!("unexpected tail event {other:?}")),
        }
    }

    let config = drift::ingest_config(env.model_seed());
    let boot = plan.bootstrap.len();
    let base = drift::baseline(&plan.bootstrap, &config);
    let mut publisher =
        ArtifactPublisher::open(env.work.join("trace-ingest")).map_err(|e| e.to_string())?;
    let mut pipeline = OnlinePipeline::new(Arc::new(base), config.clone());
    let mut window: VecDeque<phishinghook::Sample> = VecDeque::new();
    let mut retrains = 0;
    for (entry, r) in tailed.iter().zip(&records).skip(boot) {
        let meta = entry.meta.as_ref().ok_or("unlabeled record in the plan")?;
        debug_assert_eq!((meta.label, meta.month), (r.label, r.month));
        let sample = drift::sample(r);
        if window.len() == config.retrain_window {
            window.pop_front();
        }
        window.push_back(sample.clone());
        let (event, _) = t.time("ingest.observe", None, 0, || {
            pipeline.observe(sample, &mut publisher)
        });
        if event.map_err(|e| e.to_string())?.is_some() {
            retrains += 1;
            let data = Dataset::new(window.iter().cloned().collect());
            t.time("ingest.retrain", None, 0, || {
                let ctx = EvalContext::new(&data, &config.profile);
                Detector::train(&ctx, config.kind, config.seed)
            });
        }
    }
    // Observe calls that retrained are retrain cost, not observe cost.
    let retrain_calls: Vec<f64> = t.micros_of("ingest.retrain");
    let mut observes = t.micros_of("ingest.observe");
    observes.sort_by(f64::total_cmp);
    observes.truncate(observes.len().saturating_sub(retrains));
    Ok(IngestTimes {
        tail_us: median(&t.micros_of("evm.codelog.tail")),
        observe_us: median(&observes),
        retrain_ms: median(&retrain_calls) / 1e3,
        retrains,
    })
}

enum Served {
    Flat(Arc<Detector>),
    Cascade(Arc<CascadeDetector>),
}

/// Publish → validate → decode → install, `SWAPS` times.
fn swap_probe(t: &mut Tracer, env: &Env, inputs: &Inputs, served: Served) -> Result<(), String> {
    let dir = env.work.join("trace-swap");
    let mut publisher = ArtifactPublisher::open(&dir).map_err(|e| e.to_string())?;
    let mut watcher = ArtifactWatcher::new(&dir, WatchConfig::default());
    let server = match &served {
        Served::Flat(d) => Server::start(Arc::clone(d), "127.0.0.1:0", ServerConfig::default()),
        Served::Cascade(c) => {
            Server::start_cascade(Arc::clone(c), "127.0.0.1:0", ServerConfig::default())
        }
    }
    .map_err(|e| e.to_string())?;
    for _ in 0..SWAPS {
        let (published, _) = t.time("artifact.publish", None, 0, || {
            publisher.publish(inputs.artifact.clone())
        });
        let generation = published.map_err(|e| e.to_string())?.generation;
        let (outcome, _) = t.time("artifact.validate", None, 0, || watcher.poll_once());
        let WatchOutcome::Installed(valid) = outcome else {
            return Err(format!("generation {generation} did not validate"));
        };
        match &served {
            Served::Flat(_) => {
                let (d, _) = t.time("artifact.decode", None, 0, || {
                    Detector::from_artifact(&valid.artifact)
                });
                let d = Arc::new(d.map_err(|e| e.to_string())?);
                t.time("serve.swap.install", None, 0, || {
                    server.install(d, generation)
                });
            }
            Served::Cascade(_) => {
                let (c, _) = t.time("artifact.decode", None, 0, || {
                    CascadeDetector::from_artifact(&valid.artifact)
                });
                let c = Arc::new(c.map_err(|e| e.to_string())?);
                t.time("serve.swap.install", None, 0, || {
                    server.install_cascade(c, generation)
                });
            }
        }
    }
    server.shutdown();
    Ok(())
}

/// Runs every probe and returns the per-layer metrics, plus any
/// correctness problem found on the way.
pub fn run(
    w: Workload,
    env: &Env,
    inputs: &Inputs,
    e2e: &workloads::E2e,
    t: &mut Tracer,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let mut problems = Vec::new();
    let training_ctx = EvalContext::new(&inputs.training, &EvalProfile::quick());
    // Trained here when the workload does not serve a cascade itself.
    let own_cascade;
    let cascade = match &inputs.cascade {
        Some(c) => c,
        None => {
            own_cascade = workloads::train_cascade(&inputs.training, env.model_seed());
            &own_cascade
        }
    };
    let plan_holder;
    let plan = match &inputs.drift {
        Some(p) => p,
        None => {
            plan_holder = drift::plan(
                env.seed,
                env.model_seed(),
                workloads::DRIFT_CYCLES,
                &env.work.join("trace-replay"),
            )?;
            &plan_holder
        }
    };
    let flat_ctx = match w {
        Workload::DriftSwap => EvalContext::new(
            &Dataset::new(plan.bootstrap.iter().map(drift::sample).collect()),
            &EvalProfile::quick(),
        ),
        _ => EvalContext::new(&inputs.training, &EvalProfile::quick()),
    };
    let flat_detector = inputs.flat.as_ref().unwrap_or_else(|| cascade.screen());
    let flat = Stage {
        name: "flat",
        detector: flat_detector,
        encoders: flat_ctx.store().encoders(),
    };

    let serves_cascade = w == Workload::ScanBatch;
    let replay = replay_requests(
        t,
        inputs,
        &flat,
        cascade,
        training_ctx.store().encoders(),
        serves_cascade,
    );
    let batch = w == Workload::ScanBatch;
    let (waits, batch_jobs, busy) = if serves_cascade {
        let c = CascadeDetector::from_bytes(&inputs.artifact).map_err(|e| e.to_string())?;
        queue_probe(t, c, inputs, env.conns, batch)
    } else {
        let d = Detector::from_bytes(&inputs.artifact).map_err(|e| e.to_string())?;
        queue_probe(t, d, inputs, env.conns, batch)
    };
    let sweep: Vec<(usize, f64)> = [(1, 200), (8, 40), (BATCH, 5)]
        .iter()
        .map(|&(n, reps)| (n, parse_sweep(t, &inputs.pool, n, reps)))
        .collect();
    let gflops = gemm_gflops(t);
    let ingest = ingest_probe(t, env, plan)?;
    if ingest.retrains != plan.retrains {
        problems.push(format!(
            "ingest replay retrained {} times, the plan {}",
            ingest.retrains, plan.retrains
        ));
    }
    let served = if serves_cascade {
        Served::Cascade(Arc::new(
            CascadeDetector::from_bytes(&inputs.artifact).map_err(|e| e.to_string())?,
        ))
    } else {
        Served::Flat(Arc::new(
            Detector::from_bytes(&inputs.artifact).map_err(|e| e.to_string())?,
        ))
    };
    swap_probe(t, env, inputs, served)?;

    let per_contract = |name: &str| {
        let n = replay.contracts as f64 / replay.requests.max(1) as f64;
        median(&t.micros_of(name)) / n
    };
    let med = |name: &str| median(&t.micros_of(name));
    let queue_wait = median(&waits);
    let p50 = e2e.p50_ms;
    let late = stats::sorted(e2e.lateness_ms.clone());
    let mut m: Vec<Metric> = vec![
        ("serve.http.read_us".into(), med("serve.http.read"), "us"),
        ("serve.http.write_us".into(), med("serve.http.write"), "us"),
        ("serve.queue.wait_us".into(), queue_wait, "us"),
        ("serve.queue.batch_jobs".into(), batch_jobs, "count"),
        ("serve.queue.busy_ratio".into(), busy, "ratio"),
        ("core.json.parse_us".into(), med("core.json.parse"), "us"),
    ];
    for (n, ns) in &sweep {
        m.push((format!("core.json.parse_ns_per_byte.{n}"), *ns, "ns/B"));
    }
    m.extend([
        ("core.json.render_us".into(), med("core.json.render"), "us"),
        (
            "evm.bytecode.from_hex_us".into(),
            per_contract("evm.bytecode.from_hex"),
            "us",
        ),
        (
            "evm.cache.build_us".into(),
            per_contract("evm.cache.build"),
            "us",
        ),
    ]);
    for stage in ["flat", "screen", "confirm"] {
        m.push((
            format!("features.encode_us.{stage}"),
            per_contract(&format!("features.encode.{stage}")),
            "us",
        ));
    }
    for stage in ["flat", "screen", "confirm"] {
        m.push((
            format!("models.forward_us.{stage}"),
            med(&format!("models.forward.{stage}")),
            "us",
        ));
    }
    m.extend([
        (
            "core.cascade.escalation_ratio".into(),
            replay.escalated as f64 / replay.contracts.max(1) as f64,
            "ratio",
        ),
        (
            "core.cascade.route_us".into(),
            median(&replay.route_us),
            "us",
        ),
        ("linalg.gemm.gflops".into(), gflops, "GFLOP/s"),
        ("evm.codelog.tail_us".into(), ingest.tail_us, "us"),
        ("ingest.observe_us".into(), ingest.observe_us, "us"),
        ("ingest.retrain_ms".into(), ingest.retrain_ms, "ms"),
        ("ingest.retrains".into(), ingest.retrains as f64, "count"),
        (
            "artifact.publish_ms".into(),
            med("artifact.publish") / 1e3,
            "ms",
        ),
        (
            "artifact.validate_ms".into(),
            med("artifact.validate") / 1e3,
            "ms",
        ),
        (
            "artifact.decode_ms".into(),
            med("artifact.decode") / 1e3,
            "ms",
        ),
        (
            "serve.swap.install_us".into(),
            med("serve.swap.install"),
            "us",
        ),
        (
            "loadgen.late_p99_ms".into(),
            if late.is_empty() {
                0.0
            } else {
                stats::quantile(&late, 0.99)
            },
            "ms",
        ),
        (
            "trace.coverage_ratio".into(),
            (replay.served_path_us + queue_wait) / (p50 * 1e3),
            "ratio",
        ),
    ]);
    Ok((m, problems))
}
