//! The background artifact reload loop: the piece that turns a running
//! [`Server`] into a *watching replica* of a publish directory.
//!
//! [`ArtifactWatchLoop::spawn`] starts one thread that polls the
//! directory through [`ArtifactWatcher`] (full checksum validation before
//! any swap), decodes each validated generation through the one artifact
//! sniff ([`ServedModel::from_artifact`]), and hot-swaps it into the live
//! slot (a model of the other kind than the one served — flat vs.
//! cascade — is a reload failure, never a panic). Every attempt, failure
//! and success is recorded on the server's
//! [`HealthState`](crate::HealthState): a streak of failed reloads trips
//! the breaker and `/healthz` goes `"degraded"` while the replica keeps
//! serving its last good generation; a later clean install recovers it.
//!
//! Retries against a persistently invalid publish are bounded
//! (`PHISHINGHOOK_RELOAD_RETRIES`, default 5): past the bound the loop
//! stops counting new failures against the same generation and settles
//! into capped-backoff polling, waiting for a *newer* generation to
//! appear — it never rolls back, never gives up the watch, and never
//! takes the replica down.

use crate::server::Server;
use crate::swap::{ModelSlot, ServedModel};
use phishinghook_artifact::watch::{ArtifactWatcher, ValidArtifact, WatchConfig, WatchOutcome};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default bound on consecutive reload attempts against one bad
/// generation (`PHISHINGHOOK_RELOAD_RETRIES`).
pub const DEFAULT_RELOAD_RETRIES: u32 = 5;

/// Tuning for an [`ArtifactWatchLoop`].
#[derive(Debug, Clone)]
pub struct ReloadConfig {
    /// The underlying directory-watch tuning (poll interval, backoff).
    pub watch: WatchConfig,
    /// Consecutive failures counted against one bad generation before the
    /// loop settles into quiet capped-backoff polling.
    pub max_retries: u32,
}

impl Default for ReloadConfig {
    fn default() -> Self {
        ReloadConfig {
            watch: WatchConfig::default(),
            max_retries: DEFAULT_RELOAD_RETRIES,
        }
    }
}

impl ReloadConfig {
    /// Defaults with every environment override applied:
    /// `PHISHINGHOOK_WATCH_POLL_MS`, `PHISHINGHOOK_RELOAD_BACKOFF_MS`,
    /// `PHISHINGHOOK_RELOAD_RETRIES`.
    pub fn from_env() -> Self {
        let max_retries = std::env::var("PHISHINGHOOK_RELOAD_RETRIES")
            .ok()
            .and_then(|v| v.trim().parse::<u32>().ok())
            .filter(|&v| v > 0)
            .unwrap_or(DEFAULT_RELOAD_RETRIES);
        ReloadConfig {
            watch: WatchConfig::from_env(),
            max_retries,
        }
    }
}

/// Decodes a validated artifact and swaps it into the slot. Any decode
/// error — and a model of the other kind than the one served — is a
/// reload failure, and a panicking decoder is absorbed, not fatal.
fn apply(slot: &ModelSlot, valid: &ValidArtifact) -> Result<(), String> {
    let model = std::panic::catch_unwind(|| ServedModel::from_artifact(&valid.artifact))
        .map_err(|_| "artifact decoder panicked".to_string())?
        .map_err(|e| e.to_string())?;
    slot.try_install(model, valid.generation).map(drop)
}

/// A running background reload loop; stopping (or dropping) it joins the
/// watcher thread. The served model stays live either way.
pub struct ArtifactWatchLoop {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ArtifactWatchLoop {
    /// Spawns the watch thread against `dir` for `server`, seeded with
    /// the server's current generation (so an artifact the server already
    /// loaded out-of-band is not re-installed).
    ///
    /// # Errors
    ///
    /// Thread spawn failure.
    pub fn spawn(
        server: &Server,
        dir: impl AsRef<Path>,
        config: ReloadConfig,
    ) -> std::io::Result<ArtifactWatchLoop> {
        let dir = dir.as_ref().to_path_buf();
        let slot = server.slot();
        let health = server.health();
        let installed = server.generation();
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("phk-reload".into())
            .spawn(move || {
                let mut watcher = ArtifactWatcher::with_installed(&dir, config.watch, installed);
                // Bounded-retry bookkeeping for one persistently bad
                // generation (None = the rejection had no generation,
                // e.g. a corrupt CURRENT pointer).
                let mut failing: Option<Option<u64>> = None;
                let mut fails = 0u32;
                while !thread_stop.load(Ordering::SeqCst) {
                    let outcome = watcher.poll_once();
                    match &outcome {
                        WatchOutcome::Unchanged => {}
                        WatchOutcome::Installed(valid) => {
                            health.record_reload_attempt();
                            match apply(&slot, valid) {
                                Ok(()) => health.record_reload_success(),
                                Err(msg) => health.record_reload_failure(&format!(
                                    "generation {}: {msg}",
                                    valid.generation
                                )),
                            }
                            failing = None;
                            fails = 0;
                        }
                        WatchOutcome::Rejected { generation, error } => {
                            if failing == Some(*generation) {
                                fails = fails.saturating_add(1);
                            } else {
                                failing = Some(*generation);
                                fails = 1;
                            }
                            // Count each bad publish against the breaker
                            // only up to the retry bound; past it, keep
                            // polling quietly for a newer generation.
                            if fails <= config.max_retries {
                                health.record_reload_attempt();
                                health.record_reload_failure(&match generation {
                                    Some(generation) => {
                                        format!("generation {generation}: {error}")
                                    }
                                    None => format!("publish pointer: {error}"),
                                });
                            }
                        }
                    }
                    sleep_interruptibly(&thread_stop, watcher.next_delay(&outcome));
                }
            })?;
        Ok(ArtifactWatchLoop {
            stop,
            handle: Some(handle),
        })
    }

    /// Signals the loop to stop and joins it.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ArtifactWatchLoop {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Sleeps up to `total`, waking early when `stop` flips — keeps loop
/// shutdown prompt even at the capped backoff delay.
fn sleep_interruptibly(stop: &AtomicBool, total: Duration) {
    let slice = Duration::from_millis(10);
    let mut remaining = total;
    while !remaining.is_zero() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let nap = remaining.min(slice);
        std::thread::sleep(nap);
        remaining -= nap;
    }
}
