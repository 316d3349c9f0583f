//! The HTTP front: `std::net` acceptor + connection handlers feeding the
//! micro-batching queue.
//!
//! Endpoints (all JSON over HTTP/1.1, keep-alive):
//!
//! * `POST /predict` — `{"bytecode":"0x…"}` → one phishing probability.
//!   The request rides the queue, so concurrent callers are coalesced
//!   into one batched model call without ever waiting more than the
//!   configured `batch_wait`.
//! * `POST /predict_batch` — `{"contracts":["0x…", …]}` → probabilities
//!   in input order, admitted to the queue atomically.
//! * `GET /healthz` — liveness plus the live queue knobs.
//!
//! Failure semantics are part of the API: a full queue answers `429 Too
//! Many Requests` with a `Retry-After` hint (never a hang, never a
//! dropped connection), malformed requests get 4xxs from the length-capped
//! parser, and [`Server::shutdown`] stops accepting, finishes in-flight
//! exchanges, and drains every queued job before returning.

use crate::health::HealthState;
use crate::http::{read_request, write_response, Limits};
use crate::queue::{MicroBatcher, QueueConfig, QueueHooks, SubmitError};
use crate::swap::{ModelSlot, ServedModel, ServedVerdict};
use phishinghook::json::Value;
use phishinghook::CascadeDetector;
use phishinghook_evm::Bytecode;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Everything the server needs beyond the queue knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Micro-batching queue configuration.
    pub queue: QueueConfig,
    /// HTTP parser caps.
    pub limits: Limits,
    /// Per-connection read timeout; an idle keep-alive connection is
    /// closed after this long, which also bounds how long shutdown waits.
    pub read_timeout: Duration,
    /// Most contracts accepted in one `/predict_batch` request.
    pub max_request_contracts: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue: QueueConfig::default(),
            limits: Limits::default(),
            read_timeout: Duration::from_secs(10),
            max_request_contracts: 256,
        }
    }
}

impl ServerConfig {
    /// Defaults with the `PHISHINGHOOK_*` queue knobs applied.
    pub fn from_env() -> Self {
        ServerConfig {
            queue: QueueConfig::from_env(),
            ..ServerConfig::default()
        }
    }
}

struct Inner {
    slot: Arc<ModelSlot>,
    queue: MicroBatcher<Arc<ModelSlot>>,
    /// Cascade routing counters: contracts screened, and how many of
    /// those escalated to the confirmer. They belong to the server, not
    /// any one generation, so they survive hot swaps.
    screened: AtomicU64,
    escalated: AtomicU64,
    health: Arc<HealthState>,
    limits: Limits,
    read_timeout: Duration,
    max_request_contracts: usize,
    stop: AtomicBool,
}

impl Inner {
    /// Folds a batch of verdicts into the routing counters (a flat
    /// model's verdicts carry no routing and leave them alone).
    fn tally(&self, verdicts: &[ServedVerdict]) {
        let (mut screened, mut escalated) = (0, 0);
        for up in verdicts.iter().filter_map(ServedVerdict::escalated) {
            screened += 1;
            escalated += u64::from(up);
        }
        if screened > 0 {
            self.screened.fetch_add(screened, Ordering::Relaxed);
        }
        if escalated > 0 {
            self.escalated.fetch_add(escalated, Ordering::Relaxed);
        }
    }
}

/// The queue observers that feed the crash-loop breaker: absorbed scorer
/// panics extend the panic streak, cleanly scored batches re-arm it.
fn health_hooks(health: &Arc<HealthState>) -> QueueHooks {
    let on_panic = {
        let health = Arc::clone(health);
        Arc::new(move |msg: &str| health.record_worker_panic(msg))
            as Arc<dyn Fn(&str) + Send + Sync>
    };
    let on_batch = {
        let health = Arc::clone(health);
        Arc::new(move || health.record_batch_success()) as Arc<dyn Fn() + Send + Sync>
    };
    QueueHooks {
        on_panic: Some(on_panic),
        on_batch: Some(on_batch),
    }
}

/// A running serving tier: acceptor thread, connection handlers, and the
/// warm worker pool behind one shared model.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `model` — a flat `Arc<Detector>` or a two-stage
    /// `Arc<CascadeDetector>` — behind the micro-batching queue as
    /// artifact generation 0. The model rides a hot-swappable
    /// [`ModelSlot`]: every queue worker and every request scores through
    /// the slot's live model, which [`Server::install`] can replace
    /// without a restart.
    ///
    /// # Errors
    ///
    /// Socket bind/configuration failures.
    pub fn start(
        model: impl Into<ServedModel>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        Server::start_with_generation(model, 0, addr, cfg)
    }

    /// [`Server::start`], declaring the initial artifact generation (as
    /// assigned by the publish directory the model was loaded from).
    ///
    /// # Errors
    ///
    /// Socket bind/configuration failures.
    pub fn start_with_generation(
        model: impl Into<ServedModel>,
        generation: u64,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let health = Arc::new(HealthState::from_env());
        let slot = Arc::new(ModelSlot::new(model, generation));
        let queue =
            MicroBatcher::start_with_hooks(Arc::clone(&slot), cfg.queue, health_hooks(&health));
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let inner = Arc::new(Inner {
            slot,
            queue,
            screened: AtomicU64::new(0),
            escalated: AtomicU64::new(0),
            health,
            limits: cfg.limits,
            read_timeout: cfg.read_timeout,
            max_request_contracts: cfg.max_request_contracts,
            stop: AtomicBool::new(false),
        });
        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let inner = Arc::clone(&inner);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("phk-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if inner.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let inner = Arc::clone(&inner);
                        let handle = std::thread::Builder::new()
                            .name("phk-conn".into())
                            .spawn(move || handle_connection(stream, &inner));
                        if let Ok(handle) = handle {
                            let mut held = conns.lock().unwrap();
                            // Reap finished handlers so a long-lived server
                            // doesn't accumulate join handles.
                            held.retain(|h| !h.is_finished());
                            held.push(handle);
                        }
                    }
                })?
        };
        Ok(Server {
            inner,
            addr: local,
            acceptor: Some(acceptor),
            conns,
        })
    }

    /// [`Server::start`] for a cascade; kept as a named entry point for
    /// callers that hold an `Arc<CascadeDetector>`.
    ///
    /// # Errors
    ///
    /// Socket bind/configuration failures.
    pub fn start_cascade(
        cascade: Arc<CascadeDetector>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        Server::start(cascade, addr, cfg)
    }

    /// The bound address (the ephemeral port when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live queue statistics (see
    /// [`QueueStats`](crate::queue::QueueStats)).
    pub fn queue_stats(&self) -> crate::queue::QueueStats {
        self.inner.queue.stats()
    }

    /// Hot-swaps the served model: every batch that starts after this
    /// call scores on `model`; batches already in flight finish on the
    /// previous model and no request is dropped. A cascade moves whole —
    /// both stages, their calibrators and the band in one install.
    /// Returns the generation that was replaced.
    ///
    /// # Panics
    ///
    /// Panics when `model` is not of the served kind (a flat detector
    /// offered to a cascade server or the reverse); see
    /// [`ModelSlot::try_install`].
    pub fn install(&self, model: impl Into<ServedModel>, generation: u64) -> u64 {
        self.inner.slot.install(model, generation)
    }

    /// [`Server::install`] for a cascade; kept as a named entry point for
    /// callers that hold an `Arc<CascadeDetector>`.
    ///
    /// # Panics
    ///
    /// As [`Server::install`].
    pub fn install_cascade(&self, cascade: Arc<CascadeDetector>, generation: u64) -> u64 {
        self.install(cascade, generation)
    }

    /// The live artifact generation (also reported by `GET /healthz`).
    pub fn generation(&self) -> u64 {
        self.inner.slot.generation()
    }

    /// The crash-loop breaker and health counters this server reports on
    /// `/healthz`. Shared: a co-located reload or ingest loop records its
    /// attempts/failures/drift/retrains here.
    pub fn health(&self) -> Arc<HealthState> {
        Arc::clone(&self.inner.health)
    }

    /// The slot a background reload loop installs into.
    pub(crate) fn slot(&self) -> Arc<ModelSlot> {
        Arc::clone(&self.inner.slot)
    }

    /// Cumulative cascade routing counters `(screened, escalated)`:
    /// contracts scored through the cascade since the server started, and
    /// how many of those were routed to the deep confirmer. Counters
    /// survive hot swaps. Zeros on a flat server.
    pub fn cascade_counters(&self) -> (u64, u64) {
        (
            self.inner.screened.load(Ordering::Relaxed),
            self.inner.escalated.load(Ordering::Relaxed),
        )
    }

    /// Stops accepting connections, lets in-flight exchanges finish, and
    /// drains every queued job before returning.
    pub fn shutdown(mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        // Poke the blocking accept() so the acceptor observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Connection handlers exit at their next request boundary (or
        // read timeout); their queued jobs are still scored because the
        // queue drains on drop below.
        let handles: Vec<_> = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        // Dropping the last strong queue holder closes it and joins the
        // workers after the drain (MicroBatcher::drop).
    }
}

/// JSON error body.
fn err_body(msg: &str) -> Vec<u8> {
    Value::Obj(vec![("error".into(), Value::Str(msg.into()))])
        .render()
        .into_bytes()
}

/// One response, ready to write.
struct Reply {
    status: u16,
    reason: &'static str,
    extra: Vec<(&'static str, String)>,
    body: Vec<u8>,
}

impl Reply {
    fn ok(body: Vec<u8>) -> Reply {
        Reply {
            status: 200,
            reason: "OK",
            extra: Vec::new(),
            body,
        }
    }

    fn error(status: u16, reason: &'static str, msg: &str) -> Reply {
        Reply {
            status,
            reason,
            extra: Vec::new(),
            body: err_body(msg),
        }
    }
}

fn submit_error_reply(e: SubmitError) -> Reply {
    match e {
        SubmitError::QueueFull { capacity } => {
            let mut reply = Reply::error(
                429,
                "Too Many Requests",
                &format!("scoring queue full ({capacity} jobs queued); retry shortly"),
            );
            // The queue turns over within a batch_wait or two; 1 s is the
            // coarsest honest hint HTTP's integer Retry-After can carry.
            reply.extra.push(("Retry-After", "1".to_string()));
            reply
        }
        SubmitError::Closed => Reply::error(503, "Service Unavailable", "server is shutting down"),
        SubmitError::WorkerLost => {
            Reply::error(500, "Internal Server Error", "scoring worker lost")
        }
    }
}

/// Pulls `"0x…"` hex strings out of a JSON array field.
fn parse_contracts(v: &Value, field: &str, cap: usize) -> Result<Vec<Bytecode>, Reply> {
    let arr = v
        .get(field)
        .and_then(Value::as_arr)
        .ok_or_else(|| Reply::error(400, "Bad Request", &format!("missing {field:?} array")))?;
    if arr.is_empty() {
        return Err(Reply::error(400, "Bad Request", "empty contract list"));
    }
    if arr.len() > cap {
        return Err(Reply::error(
            413,
            "Payload Too Large",
            &format!("at most {cap} contracts per request"),
        ));
    }
    arr.iter()
        .enumerate()
        .map(|(i, entry)| {
            let hex = entry.as_str().ok_or_else(|| {
                Reply::error(400, "Bad Request", &format!("contract {i} is not a string"))
            })?;
            Bytecode::from_hex(hex)
                .map_err(|e| Reply::error(400, "Bad Request", &format!("contract {i}: {e}")))
        })
        .collect()
}

/// The reply to a scored `/predict` (`single`) or `/predict_batch`:
/// `model`, the probability (or per-contract array), a cascade's
/// `escalated` flag(s), and the thresholded `phishing` call(s).
fn verdict_reply(verdicts: &[ServedVerdict], single: bool) -> Reply {
    let column = |field: fn(&ServedVerdict) -> Value| {
        if single {
            field(&verdicts[0])
        } else {
            Value::Arr(verdicts.iter().map(field).collect())
        }
    };
    let probability = if single {
        "probability"
    } else {
        "probabilities"
    };
    let mut fields = Vec::with_capacity(4);
    fields.push(("model".into(), Value::Str(verdicts[0].model_id().into())));
    fields.push((
        probability.into(),
        column(|v| Value::Num(v.probability() as f64)),
    ));
    if verdicts[0].escalated().is_some() {
        fields.push((
            "escalated".into(),
            column(|v| Value::Bool(v.escalated() == Some(true))),
        ));
    }
    fields.push(("phishing".into(), column(|v| Value::Bool(v.is_phishing()))));
    Reply::ok(Value::Obj(fields).render().into_bytes())
}

fn route(inner: &Inner, method: &str, target: &str, body: &[u8]) -> Reply {
    match (method, target) {
        ("GET", "/healthz") => {
            let cfg = inner.queue.config();
            let health = inner.health.snapshot();
            let (model, generation) = inner.slot.snapshot();
            let mut fields = vec![
                (
                    "status".into(),
                    Value::Str(if health.degraded { "degraded" } else { "ok" }.into()),
                ),
                ("model".into(), Value::Str(model.id().into())),
                ("generation".into(), Value::Num(generation as f64)),
                (
                    "uptime_seconds".into(),
                    Value::Num(inner.slot.uptime().as_secs_f64()),
                ),
                ("queue_depth".into(), Value::Num(inner.queue.depth() as f64)),
                ("max_batch".into(), Value::Num(cfg.max_batch as f64)),
                ("workers".into(), Value::Num(cfg.workers as f64)),
                (
                    "last_error".into(),
                    health
                        .last_error
                        .as_deref()
                        .map_or(Value::Null, |e| Value::Str(e.into())),
                ),
                (
                    "reload_attempts".into(),
                    Value::Num(health.reload_attempts as f64),
                ),
                (
                    "reload_failures".into(),
                    Value::Num(health.reload_failures as f64),
                ),
                (
                    "worker_panics".into(),
                    Value::Num(health.worker_panics as f64),
                ),
                ("recoveries".into(), Value::Num(health.recoveries as f64)),
                (
                    "drift_signals".into(),
                    Value::Num(health.drift_signals as f64),
                ),
                ("retrains".into(), Value::Num(health.retrains as f64)),
            ];
            let (screened, escalated) = (
                inner.screened.load(Ordering::Relaxed),
                inner.escalated.load(Ordering::Relaxed),
            );
            fields.extend(model.health_fields(screened, escalated));
            Reply::ok(Value::Obj(fields).render().into_bytes())
        }
        ("POST", "/predict") | ("POST", "/predict_batch") => {
            let Ok(text) = std::str::from_utf8(body) else {
                return Reply::error(400, "Bad Request", "body is not UTF-8");
            };
            let Some(doc) = phishinghook::json::parse(text) else {
                return Reply::error(400, "Bad Request", "body is not valid JSON");
            };
            let single = target == "/predict";
            let codes = if single {
                let Some(hex) = doc.get("bytecode").and_then(Value::as_str) else {
                    return Reply::error(400, "Bad Request", "missing \"bytecode\" field");
                };
                match Bytecode::from_hex(hex) {
                    Ok(code) => vec![code],
                    Err(e) => return Reply::error(400, "Bad Request", &format!("bytecode: {e}")),
                }
            } else {
                match parse_contracts(&doc, "contracts", inner.max_request_contracts) {
                    Ok(codes) => codes,
                    Err(reply) => return reply,
                }
            };
            match inner.queue.submit_many(codes) {
                Ok(verdicts) => {
                    inner.tally(&verdicts);
                    verdict_reply(&verdicts, single)
                }
                Err(e) => submit_error_reply(e),
            }
        }
        (_, "/predict") | (_, "/predict_batch") | (_, "/healthz") => {
            Reply::error(405, "Method Not Allowed", "unsupported method")
        }
        _ => Reply::error(404, "Not Found", "unknown endpoint"),
    }
}

fn handle_connection(stream: TcpStream, inner: &Inner) {
    let _ = stream.set_read_timeout(Some(inner.read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut write_half = stream;
    loop {
        match read_request(&mut reader, &inner.limits) {
            Ok(request) => {
                let reply = route(inner, &request.method, &request.target, &request.body);
                let close = request.wants_close() || inner.stop.load(Ordering::SeqCst);
                if write_response(
                    &mut write_half,
                    reply.status,
                    reply.reason,
                    &reply.extra,
                    &reply.body,
                    close,
                )
                .is_err()
                    || close
                {
                    return;
                }
            }
            Err(e) => {
                // Parse failures get their mapped status (then the
                // connection closes — framing is unreliable after a bad
                // request); a clean EOF or timeout just closes.
                if let Some((status, reason)) = e.status() {
                    let _ = write_response(
                        &mut write_half,
                        status,
                        reason,
                        &[],
                        &err_body(e.detail()),
                        true,
                    );
                }
                return;
            }
        }
    }
}
