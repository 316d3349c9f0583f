//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!  --bin-dir <dir> --work-dir <dir>`
//!
//! Runs one workload against the release daemons in `--bin-dir`, prints a
//! report (every metric by name and unit, per-phase request counts, the
//! seed and a host fingerprint) and, as the last stdout line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 1` the metrics are the per-layer ones of the traced replay,
//! and the spans are written to `<work-dir>/spans-<workload>-<seed>.json`.

use phishinghook::json::Value;
use phishinghook_perfbench::spans::Tracer;
use phishinghook_perfbench::workloads::{self, Env, Workload};
use phishinghook_perfbench::{layers, stats};
use std::path::PathBuf;
use std::process::ExitCode;

/// Generator lateness (p99, ms) past which a run is declared invalid
/// rather than reported as a slow server.
const LATE_LIMIT_MS: f64 = 20.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let (mut bin_dir, mut work_dir) = (None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value != "0",
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload
            .ok_or("--workload is required (predict_open, scan_batch, drift_swap)")?,
        seed,
        seconds,
        trace,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn fingerprint(conns: usize) -> String {
    format!(
        "host: nproc={conns} simd={} PHISHINGHOOK_THREADS={} rev={}",
        phishinghook_linalg::gemm::active_simd_name(),
        std::env::var("PHISHINGHOOK_THREADS").unwrap_or_else(|_| "unset".into()),
        git_revision()
    )
}

fn metric_line(name: &str, value: f64, unit: &str) {
    println!("metric {name} = {value:.6} {unit}");
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = args.work_dir.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let env = Env {
        bin_dir: args.bin_dir.clone(),
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        conns,
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", fingerprint(conns));

    let result = (|| {
        let inputs = workloads::prepare(args.workload, &env)?;
        let e2e = workloads::run(args.workload, &env, &inputs)?;
        let layers = if args.trace {
            let mut tracer = Tracer::default();
            let out = layers::run(args.workload, &env, &inputs, &e2e, &mut tracer)?;
            let path =
                args.work_dir
                    .join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
            std::fs::write(&path, tracer.to_json())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("spans: {} written to {}", tracer.len(), path.display());
            Some(out)
        } else {
            None
        };
        Ok::<_, String>((e2e, layers))
    })();
    let _ = std::fs::remove_dir_all(&work);
    let (e2e, layers) = result?;

    for p in &e2e.phases {
        println!(
            "phase {}: sent {} succeeded {} failed {}",
            p.name,
            p.sent,
            p.succeeded,
            p.sent - p.succeeded
        );
    }
    for note in &e2e.notes {
        println!("note: {note}");
    }
    let p99 = stats::reportable(&e2e.latencies, 0.99);
    let late = stats::sorted(e2e.lateness_ms.clone());
    let late_p99 = if late.is_empty() {
        0.0
    } else {
        stats::quantile(&late, 0.99)
    };
    let attempted = e2e.attempted();
    let failed = e2e.failed();
    let e2e_metrics: Vec<(&str, f64, &str)> = vec![
        ("setup_s", stats::median(&e2e.setup_s), "s"),
        ("p50_ms", e2e.p50_ms, "ms"),
        ("goodput_rps", e2e.goodput_rps, "1/s"),
        ("throughput_cps", e2e.throughput_cps, "1/s"),
        (
            "adapt_ms",
            if e2e.adapt_ms.is_empty() {
                0.0
            } else {
                stats::median(&e2e.adapt_ms)
            },
            "ms",
        ),
        ("server_rss_mb", e2e.server_rss_mb, "MiB"),
    ];
    for (name, value, unit) in &e2e_metrics {
        metric_line(name, *value, unit);
    }
    metric_line("p90_ms", e2e.p90_ms, "ms");
    match p99 {
        Some(v) => metric_line("p99_ms", v, "ms"),
        None => println!(
            "metric p99_ms = n/a ({} samples: fewer than {} beyond p99)",
            e2e.latencies.len(),
            stats::MIN_BEYOND
        ),
    }
    metric_line("sat_rps", e2e.sat_rps, "1/s");
    metric_line(
        "error_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    metric_line("loadgen.late_p99_ms", late_p99, "ms");
    println!(
        "latency samples {} | setup launches {:?} | adapt samples {}",
        e2e.latencies.len(),
        e2e.setup_s,
        e2e.adapt_ms.len()
    );

    let mut problems: Vec<String> = e2e.parity_errors.iter().take(5).cloned().collect();
    if !e2e.parity_errors.is_empty() {
        println!("verdict parity: {} mismatches", e2e.parity_errors.len());
    } else {
        println!("verdict parity: every served verdict bit-matches in-process score_codes");
    }
    let metrics: Vec<(String, f64, &str)> = match layers {
        Some((m, layer_problems)) => {
            problems.extend(layer_problems);
            for (name, value, unit) in &m {
                metric_line(name, *value, unit);
            }
            m
        }
        None => e2e_metrics
            .iter()
            .map(|&(n, v, u)| (n.to_string(), v, u))
            .collect(),
    };
    for p in &problems {
        println!("problem: {p}");
    }
    if late_p99 > LATE_LIMIT_MS {
        eprintln!("run invalid: the load generator ran {late_p99:.1} ms behind schedule at p99");
        return Ok(ExitCode::from(3));
    }
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a number"));
    }
    let json = Value::Obj(vec![
        ("correct".into(), Value::Bool(problems.is_empty())),
        ("attempted".into(), Value::Num(attempted as f64)),
        ("failed".into(), Value::Num(failed as f64)),
        (
            "metrics".into(),
            Value::Obj(
                metrics
                    .into_iter()
                    .map(|(n, v, u)| {
                        (
                            n,
                            Value::Obj(vec![
                                ("value".into(), Value::Num(v)),
                                ("unit".into(), Value::Str(u.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", json.render());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
