//! Acceptance tests for the two-stage cascade serving path: band routing
//! bit-matches the standalone stages, batch composition never changes a
//! verdict, escalation rate tracks the configured budget across random
//! corpora, the hot-swap seam never pairs stages from different
//! generations, and the HTTP front serves cascade verdicts + routing
//! counters end to end.

use phishinghook::json::Value;
use phishinghook::prelude::*;
use phishinghook::{CascadeVerdict, EvalProfile};
use phishinghook_evm::Bytecode;
use phishinghook_serve::{
    MicroBatcher, ModelSlot, QueueConfig, ServedVerdict, Server, ServerConfig,
};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn context(seed: u64) -> EvalContext {
    let corpus = generate_corpus(&CorpusConfig::small(seed));
    let chain = SimulatedChain::from_corpus(&corpus);
    let (dataset, _) = extract_dataset(&chain, &BemConfig::default());
    EvalContext::new(&dataset, &EvalProfile::quick())
}

/// Fresh bytecodes the cascade has never seen (different corpus seed).
fn fresh_codes(seed: u64, n: usize) -> Vec<Bytecode> {
    let corpus = generate_corpus(&CorpusConfig::small(seed));
    let chain = SimulatedChain::from_corpus(&corpus);
    chain
        .records()
        .iter()
        .take(n)
        .map(|r| r.bytecode.clone())
        .collect()
}

fn forest_logreg_cascade(ctx: &EvalContext, seed: u64) -> CascadeDetector {
    CascadeDetector::train(
        ctx,
        ModelKind::RandomForest,
        ModelKind::LogisticRegression,
        &CascadeConfig::default(),
        seed,
    )
}

#[test]
fn outside_band_is_the_screens_word_inside_band_is_the_confirmers() {
    let ctx = context(42);
    let cascade = forest_logreg_cascade(&ctx, 7);
    let codes = fresh_codes(77, 32);
    let verdicts = cascade.score_codes(&codes);
    let (lo, hi) = cascade.band();

    let mut escalations = 0;
    for (code, v) in codes.iter().zip(&verdicts) {
        // Stage-1 raw score bit-matches the standalone screen detector
        // scoring the same contract solo.
        assert_eq!(
            v.screen.raw.to_bits(),
            cascade.screen().score_code(code).to_bits(),
            "screen raw diverged from the standalone stage"
        );
        let inside = lo <= v.screen.calibrated && v.screen.calibrated <= hi;
        assert_eq!(v.escalated, inside, "routing disagrees with the band");
        if let Some(c) = v.confirm {
            escalations += 1;
            // Inside the band, the deep confirmer's raw score bit-matches
            // its standalone solo score — even though the cascade fed it a
            // reused row from a coalesced sub-batch.
            assert_eq!(
                c.raw.to_bits(),
                cascade.confirm().score_code(code).to_bits(),
                "confirm raw diverged from the standalone stage"
            );
            assert_eq!(v.probability.to_bits(), c.calibrated.to_bits());
        } else {
            assert!(!v.escalated);
            assert_eq!(v.probability.to_bits(), v.screen.calibrated.to_bits());
        }
    }
    assert!(escalations > 0, "band admitted nothing; test is vacuous");
    assert!(
        escalations < codes.len(),
        "everything escalated; test is vacuous"
    );
}

#[test]
fn different_encoding_confirmer_still_bit_matches_standalone_stages() {
    let ctx = context(42);
    // Forest screens on histograms; ESCORT confirms on its own encoding —
    // the cascade path that re-encodes (but never re-decodes) escalations.
    let cascade = CascadeDetector::train(
        &ctx,
        ModelKind::RandomForest,
        ModelKind::Escort,
        &CascadeConfig::default(),
        7,
    );
    assert_ne!(
        cascade.screen().encoding(),
        cascade.confirm().encoding(),
        "fixture must exercise the cross-encoding path"
    );
    let codes = fresh_codes(78, 24);
    let verdicts = cascade.score_codes(&codes);
    let mut escalations = 0;
    for (code, v) in codes.iter().zip(&verdicts) {
        assert_eq!(
            v.screen.raw.to_bits(),
            cascade.screen().score_code(code).to_bits()
        );
        if let Some(c) = v.confirm {
            escalations += 1;
            assert_eq!(
                c.raw.to_bits(),
                cascade.confirm().score_code(code).to_bits()
            );
        }
    }
    assert!(escalations > 0, "band admitted nothing; test is vacuous");
}

#[test]
fn batch_composition_never_changes_a_verdict() {
    let ctx = context(42);
    let cascade = forest_logreg_cascade(&ctx, 7);
    let codes = fresh_codes(79, 12);

    // Every contract scored solo equals its verdict inside the full batch.
    let batched = cascade.score_many(&codes);
    for (i, code) in codes.iter().enumerate() {
        let solo = cascade.score_many(std::slice::from_ref(code));
        assert_eq!(solo.len(), 1);
        assert_eq!(
            solo[0], batched[i],
            "contract {i}: batch-mates changed the verdict"
        );
    }
    // The ISSUE's literal pair-vs-solo shape.
    let pair = cascade.score_many(&codes[..2]);
    assert_eq!(pair[0], cascade.score_many(&codes[..1])[0]);
    // Order permutation: reversing the batch reverses the verdicts.
    let reversed_input: Vec<Bytecode> = codes.iter().rev().cloned().collect();
    let reversed = cascade.score_many(&reversed_input);
    let mut expect = batched.clone();
    expect.reverse();
    assert_eq!(reversed, expect);
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(6))]

    /// Satellite: across random corpora and budgets, the live escalation
    /// rate tracks the configured budget. Linear stages keep the scores
    /// near-continuous, so the band quantile transfers from the holdout to
    /// the full corpus within a binomial-noise tolerance.
    #[test]
    fn escalation_rate_tracks_the_budget_on_random_corpora(
        seed in 0u64..1000,
        budget_pct in 10u32..45,
    ) {
        let budget = budget_pct as f32 / 100.0;
        let ctx = context(seed);
        let cascade = CascadeDetector::train(
            &ctx,
            ModelKind::LogisticRegression,
            ModelKind::Svm,
            &CascadeConfig { escalate_budget: budget, ..CascadeConfig::default() },
            seed,
        );
        let verdicts = cascade.score_batch(ctx.caches().as_slice());
        let rate = verdicts.iter().filter(|v| v.escalated).count() as f32
            / verdicts.len() as f32;
        // Binomial noise at n≈100 plus quantile-transfer slack.
        let tol = 0.12 + (budget * (1.0 - budget) / verdicts.len() as f32).sqrt() * 3.0;
        prop_assert!(
            (rate - budget).abs() <= tol,
            "rate {rate:.3} vs budget {budget:.2} (tol {tol:.3}, n {})",
            verdicts.len()
        );
    }
}

#[test]
fn hot_swap_hammer_never_serves_a_mixed_generation_pair() {
    let ctx = context(42);
    // Two generations with *swapped* stage kinds: any cross-generation
    // stage pairing would produce a verdict matching neither table.
    let gen_a = Arc::new(forest_logreg_cascade(&ctx, 7));
    let gen_b = Arc::new(CascadeDetector::train(
        &ctx,
        ModelKind::LogisticRegression,
        ModelKind::RandomForest,
        &CascadeConfig::default(),
        11,
    ));
    let codes = fresh_codes(80, 16);
    // The slot replies in the served shape, which carries each cascade
    // verdict whole (full per-stage provenance).
    let served = |verdicts: Vec<CascadeVerdict>| -> Vec<ServedVerdict> {
        verdicts.into_iter().map(ServedVerdict::Cascade).collect()
    };
    let table_a = served(gen_a.score_codes(&codes));
    let table_b = served(gen_b.score_codes(&codes));
    for (a, b) in table_a.iter().zip(&table_b) {
        assert_ne!(a, b, "generations must be distinguishable per contract");
    }

    let slot = Arc::new(ModelSlot::new(Arc::clone(&gen_a), 1));
    let queue = Arc::new(MicroBatcher::start(
        Arc::clone(&slot),
        QueueConfig {
            max_batch: 8,
            workers: 2,
            ..QueueConfig::default()
        },
    ));

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 40;
    let progress = Arc::new(AtomicUsize::new(0));
    let from_a = Arc::new(AtomicUsize::new(0));
    let from_b = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let queue = Arc::clone(&queue);
            let codes = codes.clone();
            let table_a = table_a.clone();
            let table_b = table_b.clone();
            let progress = Arc::clone(&progress);
            let from_a = Arc::clone(&from_a);
            let from_b = Arc::clone(&from_b);
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    // Mix single submits and micro-batches of 3.
                    let start = (client * 5 + round) % codes.len();
                    let picks: Vec<usize> = if round % 2 == 0 {
                        vec![start]
                    } else {
                        (0..3).map(|k| (start + k) % codes.len()).collect()
                    };
                    let batch: Vec<Bytecode> = picks.iter().map(|&i| codes[i].clone()).collect();
                    let replies = queue.submit_many(batch).expect("queue rejected work");
                    for (&i, v) in picks.iter().zip(&replies) {
                        if *v == table_a[i] {
                            from_a.fetch_add(1, Ordering::Relaxed);
                        } else if *v == table_b[i] {
                            from_b.fetch_add(1, Ordering::Relaxed);
                        } else {
                            panic!(
                                "contract {i} verdict {v:?} matches neither generation \
                                 (a mixed stage-1/stage-2 pair?)"
                            );
                        }
                    }
                    progress.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Swap mid-hammer: wait until the clients are warm, then install.
    while progress.load(Ordering::Relaxed) < CLIENTS * ROUNDS / 2 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let replaced = slot.install(Arc::clone(&gen_b), 2);
    assert_eq!(replaced, 1);
    for h in handles {
        h.join().expect("client panicked");
    }
    assert_eq!(slot.generation(), 2);
    // The hammer straddled the swap: both generations actually served.
    assert!(from_a.load(Ordering::Relaxed) > 0, "gen A never observed");
    assert!(from_b.load(Ordering::Relaxed) > 0, "gen B never observed");
}

// ---------------------------------------------------------------------------
// HTTP front
// ---------------------------------------------------------------------------

/// Reads one HTTP response off `r`: status code and body text.
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

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    send(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: cascade-e2e\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    send(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: cascade-e2e\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn parse_json(body: &str) -> Value {
    phishinghook::json::parse(body).unwrap_or_else(|| panic!("bad JSON body: {body}"))
}

fn json_num(doc: &Value, field: &str) -> f64 {
    doc.get(field)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing number {field:?}"))
}

fn json_bool(doc: &Value, field: &str) -> bool {
    match doc.get(field) {
        Some(Value::Bool(b)) => *b,
        other => panic!("missing bool {field:?}: {other:?}"),
    }
}

fn json_str(doc: &Value, field: &str) -> String {
    doc.get(field)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string {field:?}"))
        .to_string()
}

#[test]
fn cascade_http_server_serves_verdicts_and_routing_counters() {
    let ctx = context(42);
    let gen_a = Arc::new(forest_logreg_cascade(&ctx, 7));
    let server =
        Server::start_cascade(Arc::clone(&gen_a), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let codes = fresh_codes(81, 8);
    let expected: Vec<CascadeVerdict> = gen_a.score_codes(&codes);

    // Fresh server: counters at zero, cascade identity visible.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let health = parse_json(&body);
    assert_eq!(json_str(&health, "model"), "cascade");
    assert_eq!(json_str(&health, "screen_model"), "random_forest");
    assert_eq!(json_str(&health, "confirm_model"), "logistic_regression");
    assert_eq!(json_num(&health, "cascade_screened"), 0.0);
    assert_eq!(json_num(&health, "cascade_escalated"), 0.0);
    assert_eq!(json_num(&health, "cascade_escalation_rate"), 0.0);

    // Single predict: probability + escalated flag bit-match the solo
    // cascade across the TCP boundary.
    let (status, body) = post(
        addr,
        "/predict",
        &format!("{{\"bytecode\":\"{}\"}}", codes[0].to_hex()),
    );
    assert_eq!(status, 200);
    let reply = parse_json(&body);
    assert_eq!(json_str(&reply, "model"), "cascade");
    assert_eq!(
        (json_num(&reply, "probability") as f32).to_bits(),
        expected[0].probability.to_bits()
    );
    assert_eq!(json_bool(&reply, "escalated"), expected[0].escalated);
    assert_eq!(json_bool(&reply, "phishing"), expected[0].is_phishing());

    // Batch predict: arrays line up index-for-index.
    let contracts: Vec<String> = codes
        .iter()
        .map(|c| format!("\"{}\"", c.to_hex()))
        .collect();
    let (status, body) = post(
        addr,
        "/predict_batch",
        &format!("{{\"contracts\":[{}]}}", contracts.join(",")),
    );
    assert_eq!(status, 200);
    let reply = parse_json(&body);
    let probs = reply.get("probabilities").and_then(Value::as_arr).unwrap();
    let escalated = reply.get("escalated").and_then(Value::as_arr).unwrap();
    assert_eq!(probs.len(), codes.len());
    for (i, want) in expected.iter().enumerate() {
        assert_eq!(
            (probs[i].as_f64().unwrap() as f32).to_bits(),
            want.probability.to_bits()
        );
        assert_eq!(escalated[i], Value::Bool(want.escalated));
    }

    // Counters: 1 (single) + 8 (batch) screened; escalations counted off
    // the same verdicts the clients saw.
    let expected_up =
        u64::from(expected[0].escalated) + expected.iter().filter(|v| v.escalated).count() as u64;
    let (screened, escalated) = server.cascade_counters();
    assert_eq!(screened, 1 + codes.len() as u64);
    assert_eq!(escalated, expected_up);
    let (_, body) = get(addr, "/healthz");
    let health = parse_json(&body);
    assert_eq!(json_num(&health, "cascade_screened"), screened as f64);
    assert_eq!(json_num(&health, "cascade_escalated"), escalated as f64);
    assert_eq!(
        json_num(&health, "cascade_escalation_rate"),
        escalated as f64 / screened as f64
    );

    // Hot swap over the live server: the whole cascade (screen + confirm
    // + calibrators + band) moves in one generation; served verdicts flip
    // to the new pair, and the counters keep accumulating across it.
    let gen_b = Arc::new(CascadeDetector::train(
        &ctx,
        ModelKind::LogisticRegression,
        ModelKind::RandomForest,
        &CascadeConfig::default(),
        11,
    ));
    let expected_b = gen_b.score_code(&codes[0]);
    assert_eq!(server.install_cascade(Arc::clone(&gen_b), 2), 0);
    assert_eq!(server.generation(), 2);
    let (status, body) = post(
        addr,
        "/predict",
        &format!("{{\"bytecode\":\"{}\"}}", codes[0].to_hex()),
    );
    assert_eq!(status, 200);
    let reply = parse_json(&body);
    assert_eq!(
        (json_num(&reply, "probability") as f32).to_bits(),
        expected_b.probability.to_bits()
    );
    let (screened_after, _) = server.cascade_counters();
    assert_eq!(screened_after, screened + 1, "counters must survive swaps");
    let (_, body) = get(addr, "/healthz");
    let health = parse_json(&body);
    assert_eq!(json_str(&health, "screen_model"), "logistic_regression");
    assert_eq!(json_str(&health, "confirm_model"), "random_forest");
    assert_eq!(json_num(&health, "generation"), 2.0);

    server.shutdown();
}

/// The top-level keys of a JSON object reply, in wire order.
fn keys_of(body: &str) -> Vec<String> {
    match parse_json(body) {
        Value::Obj(fields) => fields.into_iter().map(|(k, _)| k).collect(),
        other => panic!("reply is not a JSON object: {other:?}"),
    }
}

/// Golden reply shapes of a cascade server: exact key order and key set
/// of `/predict`, `/predict_batch` and `/healthz` (the flat keys plus the
/// stage ids and routing counters, appended last), and the exact reply
/// bytes of both predict routes.
#[test]
fn cascade_reply_shapes_are_pinned() {
    let ctx = context(42);
    let cascade = Arc::new(forest_logreg_cascade(&ctx, 7));
    let server =
        Server::start_cascade(Arc::clone(&cascade), "127.0.0.1:0", ServerConfig::default())
            .unwrap();
    let addr = server.local_addr();
    let codes = fresh_codes(82, 4);
    let verdicts: Vec<CascadeVerdict> = cascade.score_codes(&codes);

    let (status, body) = post(
        addr,
        "/predict",
        &format!("{{\"bytecode\":\"{}\"}}", codes[0].to_hex()),
    );
    assert_eq!(status, 200, "predict: {body}");
    assert_eq!(
        keys_of(&body),
        ["model", "probability", "escalated", "phishing"]
    );
    let want = Value::Obj(vec![
        ("model".into(), Value::Str("cascade".into())),
        (
            "probability".into(),
            Value::Num(verdicts[0].probability as f64),
        ),
        ("escalated".into(), Value::Bool(verdicts[0].escalated)),
        ("phishing".into(), Value::Bool(verdicts[0].is_phishing())),
    ]);
    assert_eq!(body, want.render(), "cascade /predict reply bytes");

    let contracts: Vec<String> = codes
        .iter()
        .map(|c| format!("\"{}\"", c.to_hex()))
        .collect();
    let (status, body) = post(
        addr,
        "/predict_batch",
        &format!("{{\"contracts\":[{}]}}", contracts.join(",")),
    );
    assert_eq!(status, 200, "predict_batch: {body}");
    assert_eq!(
        keys_of(&body),
        ["model", "probabilities", "escalated", "phishing"]
    );
    let want = Value::Obj(vec![
        ("model".into(), Value::Str("cascade".into())),
        (
            "probabilities".into(),
            Value::Arr(
                verdicts
                    .iter()
                    .map(|v| Value::Num(v.probability as f64))
                    .collect(),
            ),
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
    ]);
    assert_eq!(body, want.render(), "cascade /predict_batch reply bytes");

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "healthz: {body}");
    assert_eq!(
        keys_of(&body),
        [
            "status",
            "model",
            "generation",
            "uptime_seconds",
            "queue_depth",
            "max_batch",
            "workers",
            "last_error",
            "reload_attempts",
            "reload_failures",
            "worker_panics",
            "recoveries",
            "drift_signals",
            "retrains",
            "screen_model",
            "confirm_model",
            "cascade_screened",
            "cascade_escalated",
            "cascade_escalation_rate",
        ],
        "cascade /healthz keys: {body}"
    );

    server.shutdown();
}
