//! The three end-to-end workloads, each driving the release daemons over
//! real TCP from this one process.

use crate::client::{self, Conn};
use crate::daemon::{Daemon, LAUNCH_TIMEOUT};
use crate::drift::{self, DriftPlan};
use crate::gen::{self, stream, sub_seed};
use crate::load::{self, Outcome, Phase};
use crate::parity::{self, Expected};
use phishinghook::{
    CascadeConfig, CascadeDetector, Dataset, Detector, EvalContext, EvalProfile, ModelKind,
};
use phishinghook_artifact::publish::ArtifactPublisher;
use phishinghook_evm::{Bytecode, CodeLogWriter};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Open-loop `/predict` rate on `predict_open`: about half the saturated
/// rate of a 2-core host.
pub const OPEN_RATE: f64 = 600.0;
/// Popular contracts that about half of the `predict_open` requests repeat.
pub const POPULAR: usize = 240;
pub const REPEAT_SHARE: f64 = 0.5;
/// Cap on closed-loop `/predict` requests per phase (the phase ends early
/// if a fast server exhausts it).
pub const SAT_REQUESTS: usize = 20_000;
/// Contracts per `/predict_batch` request (= the queue's default max batch).
pub const BATCH: usize = 64;
/// Distinct batches available to `scan_batch`; no contract repeats.
pub const SCAN_BATCHES: usize = 256;
/// Fixed `/predict` rate against the drift replica.
pub const DRIFT_RATE: f64 = 300.0;
/// Drift cycles planned per run.
pub const DRIFT_CYCLES: usize = 96;
/// Goodput latency limits.
pub const LIMIT_SINGLE_MS: f64 = 50.0;
pub const LIMIT_BATCH_MS: f64 = 2000.0;
/// Daemon launches per run whose median is `setup_s`.
pub const LAUNCHES: usize = 41;
pub const DRIFT_LAUNCHES: usize = 15;
/// Publish-directory poll cadence of the watching replicas.
pub const WATCH_POLL_MS: u64 = 5;
/// `/healthz` poll cadence while waiting for a generation.
const HEALTH_POLL: Duration = Duration::from_millis(1);
/// Quiet time after each drift cycle, so retrains overlap about a
/// quarter of the reads.
const CYCLE_GAP: Duration = Duration::from_millis(100);
/// Longest wait for one generation to go live.
const GENERATION_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PredictOpen,
    ScanBatch,
    DriftSwap,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PredictOpen,
        Workload::ScanBatch,
        Workload::DriftSwap,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PredictOpen => "predict_open",
            Workload::ScanBatch => "scan_batch",
            Workload::DriftSwap => "drift_swap",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Where a run finds the daemons and keeps its files.
pub struct Env {
    pub bin_dir: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub conns: usize,
}

impl Env {
    fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    pub fn model_seed(&self) -> u64 {
        sub_seed(self.seed, stream::MODEL) % 1_000_000
    }
}

/// One phase's request accounting.
#[derive(Debug, Clone)]
pub struct PhaseCount {
    pub name: &'static str,
    pub sent: usize,
    pub succeeded: usize,
}

/// The end-to-end measurements of one run.
#[derive(Debug, Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    /// Ascending latencies (ms) of the latency phase.
    pub latencies: Vec<f64>,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub goodput_rps: f64,
    pub throughput_cps: f64,
    pub sat_rps: f64,
    pub adapt_ms: Vec<f64>,
    pub server_rss_mb: f64,
    pub lateness_ms: Vec<f64>,
    pub phases: Vec<PhaseCount>,
    pub parity_errors: Vec<String>,
    pub notes: Vec<String>,
}

impl E2e {
    fn count(&mut self, name: &'static str, phase: &Phase) {
        self.phases.push(PhaseCount {
            name,
            sent: phase.sent(),
            succeeded: phase.succeeded(),
        });
    }

    pub fn attempted(&self) -> usize {
        self.phases.iter().map(|p| p.sent).sum()
    }

    pub fn failed(&self) -> usize {
        self.phases.iter().map(|p| p.sent - p.succeeded).sum()
    }
}

/// Everything a workload generates from its seed, shared by the
/// end-to-end run and the traced replay.
pub struct Inputs {
    pub training: Dataset,
    /// The served artifact.
    pub artifact: Vec<u8>,
    pub artifact_path: PathBuf,
    /// The flat detector (`predict_open`: the served forest; `drift_swap`:
    /// the trainer's bootstrap baseline).
    pub flat: Option<Detector>,
    /// The served cascade (`scan_batch`).
    pub cascade: Option<CascadeDetector>,
    /// Requested contracts.
    pub pool: Vec<Bytecode>,
    /// Pre-rendered HTTP requests and the pool indices each carries.
    pub requests: Vec<Vec<u8>>,
    pub carries: Vec<Vec<usize>>,
    /// Request order per phase: open-loop plan and closed-loop order.
    pub plan: Vec<Vec<(f64, usize)>>,
    pub order: Vec<usize>,
    pub repeats: usize,
    pub drift: Option<DriftPlan>,
    /// A contract outside the measured set, for readiness probes.
    pub probe: Vec<u8>,
}

fn train_context(training: &Dataset) -> EvalContext {
    EvalContext::new(training, &EvalProfile::quick())
}

/// Trains the seed's cascade: forest screen → GPT-2 confirm.
pub fn train_cascade(training: &Dataset, model_seed: u64) -> CascadeDetector {
    CascadeDetector::train(
        &train_context(training),
        ModelKind::RandomForest,
        ModelKind::Gpt2Alpha,
        &CascadeConfig::default(),
        model_seed,
    )
}

fn single_requests(pool: &[Bytecode]) -> (Vec<Vec<u8>>, Vec<Vec<usize>>) {
    pool.iter()
        .enumerate()
        .map(|(i, c)| {
            (
                client::post("/predict", &client::predict_body(&c.to_hex())),
                vec![i],
            )
        })
        .unzip()
}

/// Splits `picks` over per-connection Poisson schedules, in order.
fn assign(
    schedule: Vec<Vec<f64>>,
    picks: &mut impl Iterator<Item = usize>,
) -> Vec<Vec<(f64, usize)>> {
    schedule
        .into_iter()
        .map(|times| {
            times
                .into_iter()
                .map(|t| (t, picks.next().expect("enough picks")))
                .collect()
        })
        .collect()
}

pub fn prepare(w: Workload, env: &Env) -> Result<Inputs, String> {
    let seed = env.seed;
    let training = gen::training_set(seed);
    let probe = client::post(
        "/predict",
        &client::predict_body(&training.samples[0].bytecode.to_hex()),
    );
    let artifact_path = env.path("served.phk");
    let mut inputs = Inputs {
        training,
        artifact: Vec::new(),
        artifact_path,
        flat: None,
        cascade: None,
        pool: Vec::new(),
        requests: Vec::new(),
        carries: Vec::new(),
        plan: Vec::new(),
        order: Vec::new(),
        repeats: 0,
        drift: None,
        probe,
    };
    match w {
        Workload::PredictOpen => {
            let rf = Detector::train(
                &train_context(&inputs.training),
                ModelKind::RandomForest,
                env.model_seed(),
            );
            inputs.artifact = rf.to_bytes();
            inputs.flat = Some(rf);
            let schedule = gen::poisson_schedule(seed, OPEN_RATE, open_span(env), env.conns);
            let n_open: usize = schedule.iter().map(Vec::len).sum();
            let (picks, repeats) =
                gen::popular_mix(seed, n_open + SAT_REQUESTS, POPULAR, REPEAT_SHARE);
            inputs.repeats = repeats;
            let pool_len = picks.iter().max().map_or(0, |m| m + 1);
            inputs.pool = gen::unique_contracts(seed, pool_len);
            (inputs.requests, inputs.carries) = single_requests(&inputs.pool);
            let mut it = picks.iter().copied();
            inputs.plan = assign(schedule, &mut it);
            inputs.order = it.collect();
        }
        Workload::ScanBatch => {
            let cascade = train_cascade(&inputs.training, env.model_seed());
            inputs.artifact = cascade.to_bytes();
            inputs.cascade = Some(cascade);
            inputs.pool = gen::unique_contracts(seed, SCAN_BATCHES * BATCH);
            for (b, chunk) in inputs.pool.chunks(BATCH).enumerate() {
                let hexes: Vec<String> = chunk.iter().map(Bytecode::to_hex).collect();
                let body = client::batch_body(hexes.iter().map(String::as_str));
                inputs.requests.push(client::post("/predict_batch", &body));
                inputs
                    .carries
                    .push((b * BATCH..b * BATCH + chunk.len()).collect());
            }
            inputs.order = (0..SCAN_BATCHES).collect();
        }
        Workload::DriftSwap => {
            let plan = drift::plan(seed, env.model_seed(), DRIFT_CYCLES, &env.path("replay"))?;
            let base = drift::baseline(&plan.bootstrap, &drift::ingest_config(env.model_seed()));
            inputs.artifact = base.to_bytes();
            inputs.flat = Some(base);
            inputs.drift = Some(plan);
            let schedule = gen::poisson_schedule(seed, DRIFT_RATE, drift_span(env), 1);
            let n_open: usize = schedule.iter().map(Vec::len).sum();
            inputs.pool = gen::unique_contracts(seed, n_open + SAT_REQUESTS);
            (inputs.requests, inputs.carries) = single_requests(&inputs.pool);
            let mut it = 0..inputs.pool.len();
            inputs.plan = assign(schedule, &mut it);
            inputs.order = it.collect();
        }
    }
    std::fs::write(&inputs.artifact_path, &inputs.artifact)
        .map_err(|e| format!("{}: {e}", inputs.artifact_path.display()))?;
    Ok(inputs)
}

fn open_span(env: &Env) -> f64 {
    0.55 * env.seconds
}

fn drift_span(env: &Env) -> f64 {
    0.8 * env.seconds
}

/// Launches `served <artifact> 127.0.0.1:0` and waits for its first 200.
fn launch_static(
    env: &Env,
    inputs: &Inputs,
    i: usize,
) -> Result<(Daemon, SocketAddr, f64), String> {
    let start = Instant::now();
    let deadline = start + LAUNCH_TIMEOUT;
    let mut d = Daemon::spawn(
        &env.bin("phishinghook-served"),
        &[
            inputs.artifact_path.display().to_string(),
            "127.0.0.1:0".into(),
        ],
        &[],
        env.path(&format!("served-{i}.log")),
    )?;
    let addr = d.wait_addr(deadline)?;
    d.wait_ok(addr, &inputs.probe, deadline)?;
    Ok((d, addr, start.elapsed().as_secs_f64()))
}

fn watch_env() -> Vec<(&'static str, String)> {
    vec![
        ("PHISHINGHOOK_WATCH_POLL_MS", WATCH_POLL_MS.to_string()),
        ("PHISHINGHOOK_BOOT_TIMEOUT_MS", "60000".into()),
    ]
}

/// `GET /healthz` until the replica reports `generation ≥ target`.
fn await_generation(conn: &mut Conn, target: u64, live: &AtomicU64) -> Result<(), String> {
    let request = client::get("/healthz");
    let deadline = Instant::now() + GENERATION_TIMEOUT;
    loop {
        if let Ok((200, body)) = conn.exchange(&request) {
            if let Some(g) = client::generation_of(&body) {
                live.fetch_max(g, Ordering::AcqRel);
                if g >= target {
                    return Ok(());
                }
            }
        }
        if Instant::now() > deadline {
            return Err(format!("generation {target} never went live"));
        }
        std::thread::sleep(HEALTH_POLL);
    }
}

/// Rollout phase: a watching replica of the same artifact; each cycle
/// publishes the artifact as a new generation and times publish → live.
fn rollout(env: &Env, inputs: &Inputs, span: f64, out: &mut E2e) -> Result<(), String> {
    let dir = env.path("rollout");
    let err = |e: phishinghook::ArtifactError| format!("rollout publish: {e}");
    let mut publisher = ArtifactPublisher::open(&dir).map_err(err)?;
    publisher.publish(inputs.artifact.clone()).map_err(err)?;
    let deadline = Instant::now() + LAUNCH_TIMEOUT;
    let mut d = Daemon::spawn(
        &env.bin("phishinghook-served"),
        &[
            "--watch".into(),
            dir.display().to_string(),
            "127.0.0.1:0".into(),
        ],
        &watch_env(),
        env.path("rollout.log"),
    )?;
    let addr = d.wait_addr(deadline)?;
    d.wait_ok(addr, &inputs.probe, deadline)?;
    let mut conn = Conn::new(addr);
    let live = AtomicU64::new(1);
    let (windows, host) = load::sampled(|start| {
        let mut windows = Vec::new();
        while start.elapsed().as_secs_f64() < span {
            let a = start.elapsed().as_secs_f64();
            let published = publisher.publish(inputs.artifact.clone()).map_err(err)?;
            await_generation(&mut conn, published.generation, &live)?;
            let b = start.elapsed().as_secs_f64();
            windows.push((a, b, (b - a) * 1e3));
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok::<_, String>(windows)
    });
    let windows = windows?;
    out.adapt_ms = load::quiet_values(&host, &windows);
    out.phases.push(PhaseCount {
        name: "rollout",
        sent: windows.len(),
        succeeded: windows.len(),
    });
    Ok(())
}

/// Launches `LAUNCHES` static replicas, keeping the last one running.
fn setup_static(env: &Env, inputs: &Inputs, out: &mut E2e) -> Result<(Daemon, SocketAddr), String> {
    let (launched, host) = load::sampled(|start| {
        let mut windows = Vec::new();
        let mut last = None;
        for i in 0..LAUNCHES {
            let a = start.elapsed().as_secs_f64();
            let (d, addr, s) = launch_static(env, inputs, i)?;
            windows.push((a, a + s, s));
            last = Some((d, addr));
        }
        Ok::<_, String>((last.expect("at least one launch"), windows))
    });
    let (last, windows) = launched?;
    out.setup_s = load::quiet_values(&host, &windows);
    Ok(last)
}

pub fn run(w: Workload, env: &Env, inputs: &Inputs) -> Result<E2e, String> {
    let mut out = E2e::default();
    match w {
        Workload::PredictOpen => predict_open(env, inputs, &mut out)?,
        Workload::ScanBatch => scan_batch(env, inputs, &mut out)?,
        Workload::DriftSwap => drift_swap(env, inputs, &mut out)?,
    }
    Ok(out)
}

fn predict_open(env: &Env, inputs: &Inputs, out: &mut E2e) -> Result<(), String> {
    let (daemon, addr) = setup_static(env, inputs, out)?;
    let never = AtomicBool::new(false);
    let open = load::open_loop(
        addr,
        &inputs.requests,
        &inputs.plan,
        &AtomicU64::new(0),
        &never,
    );
    out.count("open", &open);
    let sat = load::closed_loop(
        addr,
        &inputs.requests,
        &inputs.order,
        env.conns,
        0.25 * env.seconds,
        0,
    );
    out.count("saturate", &sat);
    out.server_rss_mb = daemon.peak_rss_mb().unwrap_or(0.0);
    drop(daemon);
    rollout(env, inputs, 0.2 * env.seconds, out)?;

    out.latencies = open.latencies_ms();
    out.p50_ms = open.quiet_latency(0.5);
    out.p90_ms = open.quiet_latency(0.9);
    out.lateness_ms = open.lateness_ms.clone();
    out.goodput_rps = open.goodput(LIMIT_SINGLE_MS, open_span(env));
    out.sat_rps = sat.quiet_rate(None);
    out.throughput_cps = out.sat_rps;
    out.notes.push(format!(
        "steal share: open {:.3}, saturate {:.3}",
        open.steal(),
        sat.steal()
    ));
    let n: usize = inputs.plan.iter().map(Vec::len).sum::<usize>() + inputs.order.len();
    out.notes.push(format!(
        "repeat share {:.3} ({} of {n} planned requests hit {POPULAR} popular contracts)",
        inputs.repeats as f64 / n as f64,
        inputs.repeats
    ));

    let served = Detector::load(&inputs.artifact_path).map_err(|e| e.to_string())?;
    let expected: Vec<Expected> = served
        .score_codes(&inputs.pool)
        .into_iter()
        .map(Expected::flat)
        .collect();
    for o in open.outcomes.iter().chain(&sat.outcomes).filter(|o| o.ok()) {
        if let Err(e) = parity::check_single(&o.body, &expected[o.req]) {
            out.parity_errors.push(format!("request {}: {e}", o.req));
        }
    }
    Ok(())
}

fn scan_batch(env: &Env, inputs: &Inputs, out: &mut E2e) -> Result<(), String> {
    let (daemon, addr) = setup_static(env, inputs, out)?;
    let span = 0.75 * env.seconds;
    let scan = load::closed_loop(addr, &inputs.requests, &inputs.order, env.conns, span, 0);
    out.count("scan", &scan);
    out.server_rss_mb = daemon.peak_rss_mb().unwrap_or(0.0);
    drop(daemon);
    rollout(env, inputs, 0.25 * env.seconds, out)?;

    out.latencies = scan.latencies_ms();
    out.p50_ms = scan.quiet_latency(0.5);
    out.p90_ms = scan.quiet_latency(0.9);
    out.lateness_ms = scan.lateness_ms.clone();
    out.goodput_rps = scan.quiet_rate(Some(LIMIT_BATCH_MS));
    out.sat_rps = scan.quiet_rate(None);
    out.throughput_cps = out.sat_rps * BATCH as f64;

    let served = CascadeDetector::load(&inputs.artifact_path).map_err(|e| e.to_string())?;
    let mut escalated = 0usize;
    let mut scored = 0usize;
    for o in scan.outcomes.iter().filter(|o| o.ok()) {
        let codes: Vec<Bytecode> = inputs.carries[o.req]
            .iter()
            .map(|&i| inputs.pool[i].clone())
            .collect();
        let verdicts = served.score_codes(&codes);
        escalated += verdicts.iter().filter(|v| v.escalated).count();
        scored += verdicts.len();
        let want: Vec<Expected> = verdicts.iter().map(Expected::cascade).collect();
        if let Err(e) = parity::check_batch(&o.body, &want) {
            out.parity_errors.push(format!("batch {}: {e}", o.req));
        }
    }
    out.notes.push(format!(
        "escalated {escalated} of {scored} scanned contracts ({:.3}); steal share {:.3}",
        escalated as f64 / scored.max(1) as f64,
        scan.steal()
    ));
    Ok(())
}

/// A trainer + watching replica pair over a fresh journal holding the
/// bootstrap records.
struct Fleet {
    replica: Daemon,
    _trainer: Daemon,
    addr: SocketAddr,
    journal: CodeLogWriter,
    publish_dir: PathBuf,
}

fn write_records(journal: &mut CodeLogWriter, records: &[gen::LogRecord]) -> Result<(), String> {
    for r in records {
        journal
            .append_labeled(&r.code, r.label, r.month)
            .map_err(|e| format!("journal: {e}"))?;
    }
    journal.sync().map_err(|e| format!("journal: {e}"))
}

fn launch_fleet(
    env: &Env,
    inputs: &Inputs,
    plan: &DriftPlan,
    i: usize,
) -> Result<(Fleet, f64), String> {
    let dir = env.path(&format!("fleet-{i}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let log = dir.join("scan.codelog");
    let publish_dir = dir.join("artifacts");
    let mut journal = CodeLogWriter::create(&log).map_err(|e| format!("journal: {e}"))?;
    write_records(&mut journal, &plan.bootstrap)?;

    let start = Instant::now();
    let deadline = start + LAUNCH_TIMEOUT;
    let trainer = Daemon::spawn(
        &env.bin("phishinghook-ingestd"),
        &[
            "tail".into(),
            log.display().to_string(),
            publish_dir.display().to_string(),
            env.model_seed().to_string(),
        ],
        &[
            ("PHISHINGHOOK_TAIL_POLL_MS", "1".into()),
            ("PHISHINGHOOK_TAIL_MAX_POLL_MS", "2".into()),
            ("PHISHINGHOOK_TAIL_IDLE_MS", "0".into()),
        ],
        dir.join("ingestd.log"),
    )?;
    let mut replica = Daemon::spawn(
        &env.bin("phishinghook-served"),
        &[
            "--watch".into(),
            publish_dir.display().to_string(),
            "127.0.0.1:0".into(),
        ],
        &watch_env(),
        dir.join("served.log"),
    )?;
    let addr = replica.wait_addr(deadline)?;
    replica.wait_ok(addr, &inputs.probe, deadline)?;
    let setup = start.elapsed().as_secs_f64();
    Ok((
        Fleet {
            replica,
            _trainer: trainer,
            addr,
            journal,
            publish_dir,
        },
        setup,
    ))
}

fn drift_swap(env: &Env, inputs: &Inputs, out: &mut E2e) -> Result<(), String> {
    let plan = inputs.drift.as_ref().expect("drift inputs carry a plan");
    let (launched, host) = load::sampled(|start| {
        let mut windows = Vec::new();
        let mut fleet = None;
        for i in 0..DRIFT_LAUNCHES {
            drop(fleet.take()); // stop the previous pair before the next launch
            let a = start.elapsed().as_secs_f64();
            let (f, s) = launch_fleet(env, inputs, plan, i)?;
            windows.push((a, a + s, s));
            fleet = Some(f);
        }
        Ok::<_, String>((fleet.expect("at least one launch"), windows))
    });
    let (mut fleet, windows) = launched?;
    out.setup_s = load::quiet_values(&host, &windows);
    let addr = fleet.addr;
    let mut health = Conn::new(addr);
    let live = AtomicU64::new(1);
    let stop = AtomicBool::new(false);
    let span = drift_span(env);

    write_records(&mut fleet.journal, &plan.lead_in)?;
    await_generation(&mut health, plan.after_lead_in, &live)?;
    std::thread::sleep(Duration::from_millis(30));
    let mut missed = 0;
    // (start, end) of each adaptation in seconds from the phase start, and
    // its duration in ms.
    let mut windows: Vec<(f64, f64, f64)> = Vec::new();
    let (reads, cycles) = std::thread::scope(|s| {
        let reads = s.spawn(|| load::open_loop(addr, &inputs.requests, &inputs.plan, &live, &stop));
        let start = Instant::now();
        let mut cycles = Ok(0usize);
        for cycle in &plan.cycles {
            if start.elapsed().as_secs_f64() >= span {
                break;
            }
            let t0 = Instant::now();
            let step = (|| {
                write_records(&mut fleet.journal, &cycle.burst)?;
                let before = live.load(Ordering::Acquire);
                if cycle.after_burst > before {
                    await_generation(&mut health, cycle.after_burst, &live)?;
                    let begin = t0.duration_since(start).as_secs_f64();
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    windows.push((begin, begin + ms / 1e3, ms));
                } else {
                    missed += 1;
                }
                write_records(&mut fleet.journal, &cycle.calm)?;
                await_generation(&mut health, cycle.after_calm, &live)?;
                std::thread::sleep(CYCLE_GAP);
                Ok::<_, String>(())
            })();
            match step {
                Ok(()) => cycles = cycles.map(|c| c + 1),
                Err(e) => {
                    cycles = Err(e);
                    break;
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        (reads.join().expect("read thread panicked"), cycles)
    });
    let cycles = cycles?;
    out.count("reads", &reads);
    out.adapt_ms = load::quiet_values(&reads.host, &windows);
    let sat_span = 0.2 * env.seconds;
    let generation = live.load(Ordering::Acquire);
    let sat = load::closed_loop(
        addr,
        &inputs.requests,
        &inputs.order,
        env.conns,
        sat_span,
        generation,
    );
    out.count("saturate", &sat);
    out.server_rss_mb = fleet.replica.peak_rss_mb().unwrap_or(0.0);
    let publish_dir = fleet.publish_dir.clone();
    drop(fleet);

    out.latencies = reads.latencies_ms();
    out.p50_ms = reads.quiet_latency(0.5);
    out.p90_ms = reads.quiet_latency(0.9);
    out.lateness_ms = reads.lateness_ms.clone();
    out.goodput_rps = reads.goodput(LIMIT_SINGLE_MS, reads.elapsed);
    out.sat_rps = sat.quiet_rate(None);
    out.throughput_cps = out.sat_rps;
    out.notes.push(format!(
        "{cycles} drift cycles, {} adapted, {missed} bursts tripped no retrain; live generation {generation}; planned retrains {}; steal share: reads {:.3}, saturate {:.3}",
        out.adapt_ms.len(),
        plan.retrains,
        reads.steal(),
        sat.steal()
    ));

    // Parity: each reply must bit-match a published generation no older
    // than the one known live when the request was sent.
    let mut models: HashMap<u64, Detector> = HashMap::new();
    let mut scores: HashMap<(u64, usize), f32> = HashMap::new();
    for o in reads
        .outcomes
        .iter()
        .chain(&sat.outcomes)
        .filter(|o| o.ok())
    {
        if let Err(e) = match_any_generation(
            o,
            generation,
            &publish_dir,
            inputs,
            &mut models,
            &mut scores,
        ) {
            out.parity_errors.push(format!("request {}: {e}", o.req));
        }
    }
    Ok(())
}

fn match_any_generation(
    o: &Outcome,
    newest: u64,
    dir: &Path,
    inputs: &Inputs,
    models: &mut HashMap<u64, Detector>,
    scores: &mut HashMap<(u64, usize), f32>,
) -> Result<(), String> {
    let mut first_err = None;
    for g in o.generation.max(1)..=newest {
        let model = match models.entry(g) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let path = dir.join(format!("gen-{g}.phk"));
                e.insert(Detector::load(&path).map_err(|e| format!("{}: {e}", path.display()))?)
            }
        };
        let p = *scores
            .entry((g, o.req))
            .or_insert_with(|| model.score_code(&inputs.pool[o.req]));
        match parity::check_single(&o.body, &Expected::flat(p)) {
            Ok(()) => return Ok(()),
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    Err(first_err.unwrap_or_else(|| "no generation to compare".into()))
}
