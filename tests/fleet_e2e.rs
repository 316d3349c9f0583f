//! The fault-tolerant fleet, end to end across REAL processes:
//!
//! ```text
//! phishinghook-scannerd ──append──► scan.codelog          (killed mid-append)
//! phishinghook-ingestd tail ──tail+train──► artifacts/    (killed mid-publish)
//! phishinghook-served --watch ×2 ──poll+swap──► :ephemeral (one killed -9)
//! ```
//!
//! Every failure in the seeded plan is injected deterministically through
//! the `PHISHINGHOOK_FAULT_*` crash points (an injected abort is a moral
//! `kill -9`: no destructors, no flushes) plus one literal `SIGKILL` of a
//! serving replica, and the fleet must ride all of them out:
//!
//! * the scanner dies mid-append → torn journal tail → a resumed scanner
//!   heals it and the tailing trainer never sees a corrupt record;
//! * the trainer dies between its artifact rename and the `CURRENT` swing
//!   → replicas keep waiting, a restarted trainer republishes monotonically;
//! * a corrupt publish lands → both replicas flip `/healthz` to
//!   `"degraded"` and keep serving the last good generation bit-for-bit,
//!   then recover FORWARD onto the next valid generation;
//! * a replica killed -9 and restarted catches up to the live generation;
//! * a client hammering one replica throughout loses ZERO accepted
//!   requests, and at the end every replica's verdicts are bit-identical
//!   to decoding the published artifact locally.

#![cfg(unix)]

use phishinghook::json::Value;
use phishinghook::Detector;
use phishinghook_evm::Bytecode;
use phishinghook_synth::{generate_contract, Difficulty, Family, Month};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(60);

/// A child process that is killed (SIGKILL) if the test panics, with its
/// stdout drained into memory by a background thread.
struct Proc {
    name: &'static str,
    child: Child,
    lines: Arc<Mutex<Vec<String>>>,
}

impl Proc {
    fn spawn(name: &'static str, bin: &str, args: &[&str], envs: &[(&str, &str)]) -> Proc {
        let mut cmd = Command::new(bin_path(bin));
        cmd.args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {name} ({bin}): {e}"));
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&lines);
        let stdout = child.stdout.take().expect("piped stdout");
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                sink.lock().unwrap().push(line);
            }
        });
        Proc { name, child, lines }
    }

    /// A line of this process's stdout satisfying `pick`, waiting for it.
    fn await_line<T>(&self, what: &str, pick: impl Fn(&str) -> Option<T>) -> T {
        let start = Instant::now();
        loop {
            if let Some(v) = self.lines.lock().unwrap().iter().find_map(|l| pick(l)) {
                return v;
            }
            assert!(
                start.elapsed() < DEADLINE,
                "{}: no \"{what}\" in stdout: {:?}",
                self.name,
                self.lines.lock().unwrap()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Waits for exit, returning whether it was clean.
    fn wait(mut self) -> bool {
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status.success();
            }
            assert!(
                start.elapsed() < DEADLINE,
                "{} did not exit: {:?}",
                self.name,
                self.lines.lock().unwrap()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// SIGKILL, the real thing.
    fn kill9(mut self) {
        self.child.kill().expect("kill -9");
        self.child.wait().expect("reap");
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The path of one fleet daemon binary. The first call builds
/// `phishinghook-{served,scannerd,ingestd}` through the cargo that runs
/// this test (same profile, same target dir), so a fresh checkout needs
/// no prebuilt binaries and a stale one is never picked up; the paths
/// come from cargo's own build report, not from a guessed layout.
fn bin_path(name: &str) -> PathBuf {
    static BINS: OnceLock<Vec<(String, PathBuf)>> = OnceLock::new();
    let bins = BINS.get_or_init(|| {
        let mut cargo = Command::new(env!("CARGO"));
        cargo
            .args(["build", "--quiet", "--message-format=json", "--bins"])
            .args(["-p", "phishinghook-serve", "-p", "phishinghook-ingest"])
            .arg("--manifest-path")
            .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"))
            .stderr(Stdio::inherit());
        if !cfg!(debug_assertions) {
            cargo.arg("--release");
        }
        let out = cargo
            .output()
            .expect("run cargo build for the fleet daemons");
        assert!(out.status.success(), "building the fleet daemons failed");
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(phishinghook::json::parse)
            .filter_map(|msg| {
                let exe = msg.get("executable")?.as_str()?;
                let bin = msg.get("target")?.get("name")?.as_str()?;
                Some((bin.to_string(), PathBuf::from(exe)))
            })
            .collect()
    });
    bins.iter()
        .find(|(bin, _)| bin == name)
        .map(|(_, exe)| exe.clone())
        .unwrap_or_else(|| panic!("cargo built no {name} binary (built: {bins:?})"))
}

fn read_response(r: &mut impl BufRead) -> std::io::Result<(u16, String)> {
    let mut line = String::new();
    r.read_line(&mut line)?;
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        r.read_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

fn send(addr: SocketAddr, raw: &[u8]) -> std::io::Result<(u16, String)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    let mut writer = stream.try_clone()?;
    writer.write_all(raw)?;
    read_response(&mut BufReader::new(stream))
}

fn predict_raw(addr: SocketAddr, code: &Bytecode) -> std::io::Result<(u16, String)> {
    let body = format!("{{\"bytecode\":\"{}\"}}", code.to_hex());
    send(
        addr,
        format!(
            "POST /predict HTTP/1.1\r\nHost: fleet\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn predict(addr: SocketAddr, code: &Bytecode) -> f32 {
    let (status, body) = predict_raw(addr, code).expect("predict transport");
    assert_eq!(status, 200, "predict: {body}");
    phishinghook::json::parse(&body)
        .expect("predict JSON")
        .get("probability")
        .and_then(Value::as_f64)
        .expect("probability") as f32
}

fn healthz(addr: SocketAddr) -> Value {
    let (status, body) =
        send(addr, b"GET /healthz HTTP/1.1\r\nHost: fleet\r\n\r\n").expect("healthz transport");
    assert_eq!(status, 200, "healthz: {body}");
    phishinghook::json::parse(&body).expect("healthz JSON")
}

fn status_of(doc: &Value) -> String {
    doc.get("status")
        .and_then(Value::as_str)
        .unwrap_or("?")
        .to_string()
}

fn generation_of(doc: &Value) -> u64 {
    doc.get("generation").and_then(Value::as_f64).unwrap_or(0.0) as u64
}

/// Polls `/healthz` until `want` holds — asserting along the way that the
/// served generation NEVER decreases (no rollback, ever).
fn await_health(
    addr: SocketAddr,
    what: &str,
    floor: &mut u64,
    want: impl Fn(&Value) -> bool,
) -> Value {
    let start = Instant::now();
    loop {
        let doc = healthz(addr);
        let generation = generation_of(&doc);
        assert!(
            generation >= *floor,
            "generation rolled back: {generation} < {floor} ({doc:?})"
        );
        *floor = generation;
        if want(&doc) {
            return doc;
        }
        assert!(
            start.elapsed() < DEADLINE,
            "healthz never reached \"{what}\": {doc:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The generation `CURRENT` names, and the artifact bytes it points to.
fn current_artifact(publish: &Path) -> (u64, Vec<u8>) {
    let name = std::fs::read_to_string(publish.join("CURRENT")).expect("CURRENT");
    let name = name.trim();
    let generation: u64 = name
        .strip_prefix("gen-")
        .and_then(|s| s.strip_suffix(".phk"))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("CURRENT names {name:?}"));
    (
        generation,
        std::fs::read(publish.join(name)).expect("read artifact"),
    )
}

#[test]
fn fleet_survives_seeded_faults_with_bit_exact_parity() {
    let work = std::env::temp_dir().join(format!("phk-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();
    let codelog = work.join("scan.codelog");
    let codelog_s = codelog.to_str().unwrap();
    let publish = work.join("artifacts");
    let publish_s = publish.to_str().unwrap().to_string();

    // ───────────────────────────────────────────────── scanner, killed mid-append
    // The 40th append aborts half-written: a torn tail, exactly what a
    // kill -9 mid-write leaves.
    let torn = Proc::spawn(
        "scanner(torn)",
        "phishinghook-scannerd",
        &[codelog_s, "42"],
        &[("PHISHINGHOOK_FAULT_CODELOG_TORN_APPEND", "40")],
    );
    assert!(!torn.wait(), "the armed crash point must abort the scanner");
    assert!(codelog.is_file(), "the torn journal survives");

    // A resumed scanner truncates the torn record and deterministically
    // re-appends the rest, throttled so the trainer tails a LIVE journal.
    let scanner = Proc::spawn(
        "scanner(resume)",
        "phishinghook-scannerd",
        &[codelog_s, "42", "--resume"],
        &[("PHISHINGHOOK_SCAN_THROTTLE_US", "1500")],
    );

    // ─────────────────────────────────────── trainer, killed between renames
    // This trainer tails the journal, bootstraps, and dies INSIDE its
    // first publish: after gen-1.phk lands, before CURRENT exists.
    let fast_tail: [(&str, &str); 3] = [
        ("PHISHINGHOOK_TAIL_POLL_MS", "10"),
        ("PHISHINGHOOK_TAIL_IDLE_MS", "5000"),
        ("PHISHINGHOOK_BOOTSTRAP_MIN", "64"),
    ];
    let doomed = Proc::spawn(
        "ingestd(doomed)",
        "phishinghook-ingestd",
        &["tail", codelog_s, &publish_s, "42"],
        &[
            fast_tail[0],
            fast_tail[1],
            fast_tail[2],
            ("PHISHINGHOOK_FAULT_PUBLISH_GEN_RENAMED", "1"),
        ],
    );
    assert!(
        !doomed.wait(),
        "the publish crash point must abort the trainer"
    );
    assert!(
        publish.join("gen-1.phk").is_file() && !publish.join("CURRENT").exists(),
        "death window: artifact renamed, pointer never swung"
    );

    // ───────────────────────────────────────────── two watching replicas
    // Booted while NOTHING valid is published: they must wait, not die.
    let replica_env: [(&str, &str); 5] = [
        ("PHISHINGHOOK_WATCH_POLL_MS", "20"),
        ("PHISHINGHOOK_RELOAD_BACKOFF_MS", "10"),
        ("PHISHINGHOOK_RELOAD_RETRIES", "3"),
        ("PHISHINGHOOK_BREAKER_THRESHOLD", "2"),
        ("PHISHINGHOOK_SERVE_WORKERS", "2"),
    ];
    let spawn_replica = |name: &'static str| {
        Proc::spawn(
            name,
            "phishinghook-served",
            &["--watch", &publish_s, "127.0.0.1:0"],
            &replica_env,
        )
    };
    let pick_addr = |line: &str| -> Option<SocketAddr> {
        line.split("listening on http://")
            .nth(1)?
            .trim()
            .parse()
            .ok()
    };
    let replica_a = spawn_replica("replica-a");
    let replica_b = spawn_replica("replica-b");

    // A restarted trainer resumes the generation counter PAST the orphan
    // gen-1 file and republishes; the replicas come up on its artifact.
    let trainer = Proc::spawn(
        "ingestd",
        "phishinghook-ingestd",
        &["tail", codelog_s, &publish_s, "42"],
        &fast_tail,
    );
    let addr_a = replica_a.await_line("listening", pick_addr);
    let addr_b = replica_b.await_line("listening", pick_addr);
    let mut floor_a = 0u64;
    let mut floor_b = 0u64;
    let boot = await_health(addr_a, "ok", &mut floor_a, |d| status_of(d) == "ok");
    assert!(
        generation_of(&boot) >= 2,
        "the restarted trainer publishes past the orphaned generation 1: {boot:?}"
    );

    // ───────────────────────── client hammer: zero accepted requests dropped
    let mut rng = StdRng::seed_from_u64(0xF1EE7);
    let probes: Vec<Bytecode> = (0..4)
        .map(|i| {
            generate_contract(
                Family::ALL[i % Family::ALL.len()],
                Month(6),
                &Difficulty::default(),
                &mut rng,
            )
        })
        .collect();
    let hammer_stop = Arc::new(AtomicBool::new(false));
    let hammer = {
        let stop = Arc::clone(&hammer_stop);
        let probe = probes[0].clone();
        std::thread::spawn(move || {
            let (mut sent, mut ok) = (0u64, 0u64);
            while !stop.load(Ordering::SeqCst) {
                sent += 1;
                match predict_raw(addr_a, &probe) {
                    Ok((200, body)) => {
                        assert!(
                            phishinghook::json::parse(&body)
                                .and_then(|d| d.get("probability").and_then(Value::as_f64))
                                .is_some(),
                            "accepted request answered garbage: {body}"
                        );
                        ok += 1;
                    }
                    Ok((status, body)) => {
                        panic!("accepted request failed mid-fault: {status} {body}")
                    }
                    Err(e) => panic!("request dropped on the floor: {e}"),
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            (sent, ok)
        })
    };

    // Let the trainer finish: the scanner drains, the journal goes idle,
    // and the trainer exits cleanly with its generations published.
    assert!(scanner.wait(), "resumed scanner completes");
    assert!(trainer.wait(), "trainer exits cleanly on journal idle");
    let (live_gen, good_bytes) = current_artifact(&publish);
    assert!(live_gen >= 2);
    await_health(addr_a, "caught up", &mut floor_a, |d| {
        generation_of(d) == live_gen && status_of(d) == "ok"
    });
    await_health(addr_b, "caught up", &mut floor_b, |d| {
        generation_of(d) == live_gen && status_of(d) == "ok"
    });

    // ────────────────────────────────────── replica killed -9 and restarted
    replica_b.kill9();
    let replica_b = spawn_replica("replica-b2");
    let addr_b = replica_b.await_line("listening", pick_addr);
    let mut floor_b = 0u64;
    await_health(addr_b, "restarted replica catches up", &mut floor_b, |d| {
        generation_of(d) == live_gen && status_of(d) == "ok"
    });

    // Bit-exact parity: both replicas == decoding the published bytes here.
    let local = Detector::from_bytes(&good_bytes).expect("decode published artifact");
    for probe in &probes {
        let want = local.score_code(probe);
        assert_eq!(predict(addr_a, probe), want, "replica A diverges");
        assert_eq!(predict(addr_b, probe), want, "replica B diverges");
    }

    // ─────────────────────────────── corrupt publish: degrade, serve, recover
    // A bad generation lands: valid-looking name, bit-flipped payload,
    // pointer swung. Neither replica may install it, roll back, or die.
    let mut bad = good_bytes.clone();
    let n = bad.len();
    bad[n - 16] ^= 0x20;
    let bad_gen = live_gen + 1;
    std::fs::write(publish.join(format!("gen-{bad_gen}.phk")), &bad).unwrap();
    std::fs::write(publish.join("CURRENT"), format!("gen-{bad_gen}.phk")).unwrap();

    for (name, addr, floor) in [("A", addr_a, &mut floor_a), ("B", addr_b, &mut floor_b)] {
        let doc = await_health(addr, "degraded", floor, |d| status_of(d) == "degraded");
        assert_eq!(
            generation_of(&doc),
            live_gen,
            "replica {name} must stay on the last good generation"
        );
        let err = doc.get("last_error").and_then(Value::as_str).unwrap_or("");
        assert!(
            err.contains(&format!("generation {bad_gen}")),
            "replica {name} names the bad publish: {err:?}"
        );
    }
    for probe in &probes {
        assert_eq!(
            predict(addr_a, probe),
            local.score_code(probe),
            "degraded replica serves the last good model bit-for-bit"
        );
    }

    // Recovery is forward: republishing valid bytes lands PAST the bad
    // generation and both replicas converge onto it.
    let heal = Proc::spawn(
        "scanner(heal-publish)",
        "phishinghook-ingestd",
        &["tail", codelog_s, &publish_s, "42"],
        &fast_tail,
    );
    assert!(heal.wait(), "republishing trainer exits cleanly");
    let (healed_gen, healed_bytes) = current_artifact(&publish);
    assert!(healed_gen > bad_gen, "recovery never reuses the bad slot");
    for (addr, floor) in [(addr_a, &mut floor_a), (addr_b, &mut floor_b)] {
        let doc = await_health(addr, "recovered", floor, |d| {
            status_of(d) == "ok" && generation_of(d) == healed_gen
        });
        assert!(
            doc.get("recoveries").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0,
            "recovery is counted: {doc:?}"
        );
    }
    let healed = Detector::from_bytes(&healed_bytes).expect("decode healed artifact");
    for probe in &probes {
        let want = healed.score_code(probe);
        assert_eq!(predict(addr_a, probe), want);
        assert_eq!(predict(addr_b, probe), want);
    }

    // The hammer saw every single accepted request answered.
    hammer_stop.store(true, Ordering::SeqCst);
    let (sent, ok) = hammer.join().expect("hammer thread");
    assert!(
        sent > 0 && ok == sent,
        "dropped {} of {sent} requests",
        sent - ok
    );

    drop(replica_a);
    drop(replica_b);
    let _ = std::fs::remove_dir_all(&work);
}
