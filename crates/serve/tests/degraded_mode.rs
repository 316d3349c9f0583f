//! Degraded-mode serving, end to end in one process: a replica following
//! a publish directory through [`ArtifactWatchLoop`] rides out a corrupt
//! publish on its last good generation (bit-identical scores, `/healthz`
//! flipped to `"degraded"` with the failure recorded) and recovers —
//! forward, never a rollback — when a newer valid generation lands. A
//! valid publish of the other model kind (flat vs. cascade) is a reload
//! failure too, never an install.

use phishinghook::json::Value;
use phishinghook::prelude::*;
use phishinghook::retry::RetryPolicy;
use phishinghook_artifact::watch::WatchConfig;
use phishinghook_artifact::{ArtifactPublisher, OwnedArtifact};
use phishinghook_evm::Bytecode;
use phishinghook_serve::{ArtifactWatchLoop, ReloadConfig, ServedModel, Server, ServerConfig};
use phishinghook_synth::{generate_contract, Difficulty, Family};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn read_response(r: &mut impl BufRead) -> (u16, String) {
    let mut line = String::new();
    r.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        r.read_line(&mut header).expect("header line");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content-length value");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

fn send(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(raw).expect("send request");
    read_response(&mut BufReader::new(stream))
}

fn healthz(addr: SocketAddr) -> Value {
    let (status, body) = send(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200, "healthz: {body}");
    phishinghook::json::parse(&body).expect("healthz JSON")
}

fn predict(addr: SocketAddr, code: &Bytecode) -> f32 {
    let body = format!("{{\"bytecode\":\"{}\"}}", code.to_hex());
    let req = format!(
        "POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let (status, reply) = send(addr, req.as_bytes());
    assert_eq!(status, 200, "predict during fault: {reply}");
    let doc = phishinghook::json::parse(&reply).expect("predict JSON");
    doc.get("probability")
        .and_then(Value::as_f64)
        .expect("probability") as f32
}

/// Polls `/healthz` until `want(snapshot)` holds, or panics after 30 s.
fn await_health(addr: SocketAddr, what: &str, want: impl Fn(&Value) -> bool) -> Value {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let doc = healthz(addr);
        if want(&doc) {
            return doc;
        }
        assert!(
            Instant::now() < deadline,
            "healthz never reached \"{what}\": {doc:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn failures_of(doc: &Value) -> f64 {
    doc.get("reload_failures")
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

fn status_of(doc: &Value) -> &str {
    doc.get("status").and_then(Value::as_str).unwrap_or("?")
}

fn generation_of(doc: &Value) -> u64 {
    doc.get("generation")
        .and_then(Value::as_f64)
        .unwrap_or(-1.0) as u64
}

#[test]
fn corrupt_publish_degrades_then_recovers_without_rollback() {
    // A tight breaker so two bad reload rounds trip it. Set before the
    // server (HealthState::from_env) starts; this test owns the process.
    std::env::set_var("PHISHINGHOOK_BREAKER_THRESHOLD", "2");

    let dir = std::env::temp_dir().join(format!("phk-degraded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Train once and publish generation 1.
    let corpus = generate_corpus(&CorpusConfig::small(91));
    let chain = SimulatedChain::from_corpus(&corpus);
    let (dataset, _) = extract_dataset(&chain, &BemConfig::default());
    let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
    let trained = Detector::train(&ctx, ModelKind::Svm, 7);
    let artifact_path = dir.join("seed.phk");
    std::fs::create_dir_all(&dir).unwrap();
    trained.save(&artifact_path).expect("save artifact");
    let good_bytes = std::fs::read(&artifact_path).expect("read artifact bytes");

    let mut publisher = ArtifactPublisher::open(&dir).expect("open publish dir");
    let gen1 = publisher
        .publish(good_bytes.clone())
        .expect("publish gen 1");
    assert_eq!(gen1.generation, 1);

    // Boot the replica on generation 1 and attach the watch loop with a
    // fast cadence and a small retry bound.
    let artifact = OwnedArtifact::open(&gen1.path).expect("open gen 1");
    let detector = Arc::new(Detector::from_artifact(&artifact).expect("decode gen 1"));
    let server = Server::start_with_generation(
        Arc::clone(&detector),
        1,
        "127.0.0.1:0",
        ServerConfig::from_env(),
    )
    .expect("start server");
    let addr = server.local_addr();
    let reload = ReloadConfig {
        watch: WatchConfig {
            poll: Duration::from_millis(20),
            backoff: RetryPolicy::new(Duration::from_millis(10), Duration::from_millis(80)),
            seed: 0xDE6,
        },
        max_retries: 3,
    };
    let watch_loop = ArtifactWatchLoop::spawn(&server, &dir, reload).expect("spawn watch loop");

    let probe = {
        let mut rng = StdRng::seed_from_u64(0xDE6);
        generate_contract(Family::ALL[0], Month(4), &Difficulty::default(), &mut rng)
    };
    let want = detector.score_code(&probe);
    assert_eq!(predict(addr, &probe), want);
    let doc = healthz(addr);
    assert_eq!((status_of(&doc), generation_of(&doc)), ("ok", 1));

    // A corrupt publish lands behind the publisher's back: generation 2
    // with a bit flipped inside checksummed payload, pointer swung to it.
    let mut bad = good_bytes.clone();
    let n = bad.len();
    bad[n - 16] ^= 0x40;
    std::fs::write(dir.join("gen-2.phk"), &bad).unwrap();
    std::fs::write(dir.join("CURRENT"), b"gen-2.phk").unwrap();

    // The watch loop must reject it repeatedly, trip the breaker, and
    // keep the replica on generation 1 — serving bit-identical scores.
    let doc = await_health(addr, "degraded", |d| status_of(d) == "degraded");
    assert_eq!(generation_of(&doc), 1, "no partial install, no rollback");
    let err = doc
        .get("last_error")
        .and_then(Value::as_str)
        .expect("degraded healthz carries last_error");
    assert!(
        err.contains("generation 2"),
        "last_error names the bad publish: {err}"
    );
    assert!(
        doc.get("reload_failures")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            >= 2.0,
        "failures are counted: {doc:?}"
    );
    assert_eq!(
        predict(addr, &probe),
        want,
        "degraded replica serves the last good generation bit-identically"
    );

    // Recovery is FORWARD: the next valid publish (generation 3 — a
    // reopened publisher resumes past the junk gen-2 file) re-arms the
    // breaker.
    drop(publisher);
    let mut publisher = ArtifactPublisher::open(&dir).expect("reopen publish dir");
    let gen3 = publisher.publish(good_bytes).expect("publish gen 3");
    assert_eq!(gen3.generation, 3);
    let doc = await_health(addr, "recovered", |d| {
        status_of(d) == "ok" && generation_of(d) == 3
    });
    assert!(
        doc.get("recoveries").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0,
        "recovery is counted: {doc:?}"
    );
    assert_eq!(
        predict(addr, &probe),
        want,
        "same artifact bytes, same scores after the swap"
    );

    watch_loop.stop();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A replica booted on `served` (generation 1) is offered two valid
/// publishes of the other model kind, `offered`. Each is a reload failure
/// whose `last_error` names the generation and the `mismatch`; the first
/// leaves the replica `"ok"`, the second reaches the breaker threshold (2)
/// and turns it `"degraded"`. Throughout, it serves generation 1's score
/// `want` for `probe` bit-exactly.
fn kind_change_is_refused(
    tag: &str,
    served: Vec<u8>,
    offered: Vec<u8>,
    probe: &Bytecode,
    want: f32,
    mismatch: &str,
) {
    let dir = std::env::temp_dir().join(format!("phk-kind-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut publisher = ArtifactPublisher::open(&dir).expect("open publish dir");
    let gen1 = publisher.publish(served).expect("publish gen 1");
    let artifact = OwnedArtifact::open(&gen1.path).expect("open gen 1");
    let model = ServedModel::from_artifact(&artifact).expect("decode gen 1");
    let server = Server::start_with_generation(model, 1, "127.0.0.1:0", ServerConfig::from_env())
        .expect("start server");
    let addr = server.local_addr();
    let reload = ReloadConfig {
        watch: WatchConfig {
            poll: Duration::from_millis(20),
            backoff: RetryPolicy::new(Duration::from_millis(10), Duration::from_millis(80)),
            seed: 0xC1D,
        },
        max_retries: 3,
    };
    let watch_loop = ArtifactWatchLoop::spawn(&server, &dir, reload).expect("spawn watch loop");
    assert_eq!(predict(addr, probe), want);

    for (generation, (status, failures)) in [(2u64, ("ok", 1.0)), (3, ("degraded", 2.0))] {
        let published = publisher.publish(offered.clone()).expect("publish");
        assert_eq!(published.generation, generation);
        let doc = await_health(addr, status, |d| failures_of(d) >= failures);
        assert_eq!(status_of(&doc), status, "{tag}: breaker state: {doc:?}");
        assert_eq!(
            failures_of(&doc),
            failures,
            "{tag}: one failure per publish"
        );
        assert_eq!(
            generation_of(&doc),
            1,
            "{tag}: the other kind never installs"
        );
        let err = doc
            .get("last_error")
            .and_then(Value::as_str)
            .expect("a failed reload sets last_error");
        assert!(
            err.contains(&format!("generation {generation}")) && err.contains(mismatch),
            "{tag}: last_error names the publish and the mismatch: {err}"
        );
        assert_eq!(
            predict(addr, probe),
            want,
            "{tag}: the last good generation keeps serving bit-exactly"
        );
    }

    watch_loop.stop();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kind_changing_publish_is_a_reload_failure() {
    // The same tight breaker as the corrupt-publish case (set before any
    // server reads it).
    std::env::set_var("PHISHINGHOOK_BREAKER_THRESHOLD", "2");

    let corpus = generate_corpus(&CorpusConfig::small(93));
    let chain = SimulatedChain::from_corpus(&corpus);
    let (dataset, _) = extract_dataset(&chain, &BemConfig::default());
    let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
    let flat = Detector::train(&ctx, ModelKind::LogisticRegression, 7);
    let cascade = CascadeDetector::train(
        &ctx,
        ModelKind::RandomForest,
        ModelKind::LogisticRegression,
        &CascadeConfig::default(),
        7,
    );
    let probe = {
        let mut rng = StdRng::seed_from_u64(0xC1D);
        generate_contract(Family::ALL[1], Month(4), &Difficulty::default(), &mut rng)
    };

    // A flat replica offered a cascade publish.
    kind_change_is_refused(
        "flat",
        flat.to_bytes(),
        cascade.to_bytes(),
        &probe,
        flat.score_code(&probe),
        "cascade model offered to a flat server",
    );
    // A cascade replica behind a flat-retraining trainer offered a flat
    // publish.
    kind_change_is_refused(
        "cascade",
        cascade.to_bytes(),
        flat.to_bytes(),
        &probe,
        cascade.score_code(&probe).probability,
        "flat model offered to a cascade server",
    );
}
