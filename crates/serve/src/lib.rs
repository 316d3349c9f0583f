//! # phishinghook-serve — the zero-copy serving tier
//!
//! Turns a saved `.phk` artifact into a network service without adding a
//! single dependency: the HTTP/1.1 front is `std::net`, the JSON codec is
//! [`phishinghook::json`], and the hot path is a **dynamic micro-batching
//! queue** ([`queue::MicroBatcher`]) that coalesces concurrent requests
//! into one batched model call.
//!
//! The pipeline, end to end:
//!
//! ```text
//!  TCP conns ──► http::read_request (length-capped parse)
//!                      │ Bytecode
//!                      ▼
//!             queue::MicroBatcher (bounded; full ⇒ 429 + Retry-After)
//!                      │ up to PHISHINGHOOK_MAX_BATCH jobs / wake,
//!                      │ time-boxed by PHISHINGHOOK_BATCH_WAIT_US
//!                      ▼
//!         warm worker pool ──► swap::ModelSlot (one batched call on one
//!                      │       snapshot of the live swap::ServedModel)
//!                      ▼
//!             per-request reply slots ──► http::write_response
//! ```
//!
//! Because the core models' batched inference is bit-identical to their
//! row-wise inference (an invariant the test suite pins down), the
//! coalescing is *invisible* in the scores — only in the throughput.
//!
//! Knobs (all env-overridable, see [`queue::QueueConfig::from_env`]):
//! `PHISHINGHOOK_MAX_BATCH`, `PHISHINGHOOK_BATCH_WAIT_US`,
//! `PHISHINGHOOK_QUEUE_CAP`, `PHISHINGHOOK_SERVE_WORKERS`.
//!
//! The server fronts one [`ServedModel`]: a flat
//! [`Detector`](phishinghook::Detector) or a two-stage
//! [`CascadeDetector`](phishinghook::CascadeDetector) (cheap calibrated
//! screen, uncertainty-band routing, deep confirmer). That one type owns
//! the artifact sniff, batched scoring into one [`ServedVerdict`] shape,
//! the reply's `"model"` id and the cascade's extra `/healthz` fields, so
//! the server keeps one slot, one queue and one reply path for both:
//! replies from a cascade add the `escalated` flag, and `GET /healthz`
//! adds the stage ids and screened/escalated routing counters. A hot swap
//! ([`swap::ModelSlot`]) replaces the whole model atomically — no request
//! can pair cascade stages from different generations — and refuses a
//! model of the other kind.
//!
//! The `phishinghook-served` binary wraps [`server::Server`] around an
//! artifact path or a watched publish directory;
//! [`server::Server::start`] is the embeddable form used by the tests,
//! benches, and the `serve_and_query` example.

pub mod health;
pub mod http;
pub mod queue;
pub mod reload;
pub mod server;
pub mod swap;

pub use health::{HealthSnapshot, HealthState, DEFAULT_BREAKER_THRESHOLD};
pub use http::{Limits, Request};
pub use queue::{MicroBatcher, QueueConfig, QueueHooks, QueueStats, SubmitError};
pub use reload::{ArtifactWatchLoop, ReloadConfig, DEFAULT_RELOAD_RETRIES};
pub use server::{Server, ServerConfig};
pub use swap::{ModelSlot, ServedModel, ServedVerdict};
