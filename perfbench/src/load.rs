//! Open- and closed-loop load phases over keep-alive connections, one
//! thread per connection.

use crate::client::Conn;
use crate::stats;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One request's fate. Times are seconds from the phase start.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Index of the request in the phase's request table.
    pub req: usize,
    /// When the request was due: its scheduled time in an open loop, its
    /// send time in a closed loop.
    pub due: f64,
    pub done: f64,
    /// HTTP status, or 0 for a reset, timeout or other I/O failure.
    pub status: u16,
    pub body: Vec<u8>,
    /// The model generation known live when the request was sent.
    pub generation: u64,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        self.status == 200
    }

    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

/// Everything one phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    pub outcomes: Vec<Outcome>,
    /// How late the generator sent requests whose connection was idle at
    /// their due time (closed loop: reply-to-next-send turnaround), in ms.
    pub lateness_ms: Vec<f64>,
    /// Wall time of the phase, in seconds.
    pub elapsed: f64,
    /// Host CPU samples taken during the phase.
    pub host: HostSamples,
}

impl Phase {
    pub fn sent(&self) -> usize {
        self.outcomes.len()
    }

    pub fn succeeded(&self) -> usize {
        self.outcomes.iter().filter(|o| o.ok()).count()
    }

    /// Latencies of the successful requests, ascending.
    pub fn latencies_ms(&self) -> Vec<f64> {
        stats::sorted(
            self.outcomes
                .iter()
                .filter(|o| o.ok())
                .map(Outcome::latency_ms)
                .collect(),
        )
    }

    /// Share of host CPU time the hypervisor withheld from this VM during
    /// `[a, b)` seconds of the phase.
    pub fn steal_share(&self, a: f64, b: f64) -> f64 {
        steal_share(&self.host, a, b)
    }

    /// The `q`-quantile latency (ms) of the requests the hypervisor
    /// disturbed least: ranked by the steal share around each request,
    /// keeping a quarter of them (ties included) and at least 100 (so a
    /// p90 has 10 beyond it). A co-tenant busy for a stretch of the run
    /// then does not read as a slower server. Requests are chosen by
    /// steal, never by their latency.
    pub fn quiet_latency(&self, q: f64) -> f64 {
        let ok: Vec<&Outcome> = self.outcomes.iter().filter(|o| o.ok()).collect();
        if ok.is_empty() {
            return 0.0;
        }
        let share = (100.0 / ok.len() as f64).max(0.25);
        let scored = ok
            .iter()
            .map(|o| (self.steal_share(o.due, o.done), o.latency_ms()))
            .collect();
        let kept: Vec<f64> = least_disturbed(scored, share)
            .into_iter()
            .map(|(_, l)| l)
            .collect();
        stats::quantile(&stats::sorted(kept), q)
    }

    /// Successful replies (within `limit_ms`, when given) per second in
    /// the quarter of the phase's time slices the hypervisor disturbed
    /// least, per unit of CPU it left the VM in them: a closed loop on a
    /// CPU-bound server completes work in proportion to the CPU it gets.
    /// A slice spans four median request latencies (at least 50 ms), so it
    /// holds whole requests.
    pub fn quiet_rate(&self, limit_ms: Option<f64>) -> f64 {
        let latencies = self.latencies_ms();
        if latencies.is_empty() {
            return 0.0;
        }
        let slice = (4.0 * stats::quantile(&latencies, 0.5) / 1e3).max(0.05);
        let k = ((self.elapsed / slice) as usize).max(1);
        let span = self.elapsed / k as f64;
        let scored = (0..k)
            .map(|i| (self.steal_share(i as f64 * span, (i + 1) as f64 * span), i))
            .collect();
        let kept = least_disturbed(scored, 0.25);
        let steal = kept.iter().map(|&(s, _)| s).sum::<f64>() / kept.len() as f64;
        let mut quiet = vec![false; k];
        for &(_, i) in &kept {
            quiet[i] = true;
        }
        let done = self
            .outcomes
            .iter()
            .filter(|o| o.ok() && quiet[((o.done / span) as usize).min(k - 1)])
            .filter(|o| limit_ms.is_none_or(|l| o.latency_ms() <= l))
            .count();
        done as f64 / (span * kept.len() as f64) / (1.0 - steal.min(0.5))
    }

    /// Mean steal share over the phase.
    pub fn steal(&self) -> f64 {
        self.steal_share(0.0, self.elapsed)
    }

    /// Successful replies within `limit_ms`, per second of `span` seconds.
    pub fn goodput(&self, limit_ms: f64, span: f64) -> f64 {
        let good = self
            .outcomes
            .iter()
            .filter(|o| o.ok() && o.latency_ms() <= limit_ms)
            .count();
        good as f64 / span
    }
}

/// The items (scored by steal share) at or below the `share`-quantile
/// of their scores; ties at the cut are all kept.
fn least_disturbed<T>(mut scored: Vec<(f64, T)>, share: f64) -> Vec<(f64, T)> {
    if scored.is_empty() {
        return scored;
    }
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));
    let cut = scored[((scored.len() as f64 * share).ceil() as usize).clamp(1, scored.len()) - 1].0;
    scored.retain(|(s, _)| *s <= cut);
    scored
}

/// Reads `(steal, total)` CPU ticks from `/proc/stat`.
fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// `(seconds from start, steal ticks, all ticks)` samples of `/proc/stat`.
pub type HostSamples = Vec<(f64, u64, u64)>;

/// Runs `f` while one sampler thread reads [`host_ticks`] every 20 ms;
/// `f` gets the instant sample times count from.
pub fn sampled<T>(f: impl FnOnce(Instant) -> T) -> (T, HostSamples) {
    let start = Instant::now();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut out = Vec::new();
            loop {
                if let Some((steal, total)) = host_ticks() {
                    out.push((start.elapsed().as_secs_f64(), steal, total));
                }
                if done.load(Ordering::Relaxed) {
                    return out;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let out = f(start);
        done.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("sampler panicked"))
    })
}

/// Share of host CPU time the hypervisor withheld from this VM (`steal`)
/// between the samples bracketing `[a, b)`.
pub fn steal_share(host: &[(f64, u64, u64)], a: f64, b: f64) -> f64 {
    let before = host.iter().rev().find(|h| h.0 <= a).or(host.first());
    let after = host.iter().find(|h| h.0 >= b).or(host.last());
    match (before, after) {
        (Some(x), Some(y)) if y.2 > x.2 => (y.1 - x.1) as f64 / (y.2 - x.2) as f64,
        _ => 0.0,
    }
}

/// Values measured over `(start, end, value)` windows, keeping the half
/// the hypervisor disturbed least (ties included).
pub fn quiet_values(host: &[(f64, u64, u64)], windows: &[(f64, f64, f64)]) -> Vec<f64> {
    let scored = windows
        .iter()
        .map(|&(a, b, v)| (steal_share(host, a, b), v))
        .collect();
    least_disturbed(scored, 0.5)
        .into_iter()
        .map(|(_, v)| v)
        .collect()
}

/// Open loop: connection `c` sends `plan[c][i].1` (a request index) at
/// `plan[c][i].0` seconds after the start, whether or not earlier replies
/// have arrived on other connections; a request due while its connection
/// is still busy goes out as soon as the connection frees, and its latency
/// still counts from the due time. `stop` ends the phase early.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    plan: &[Vec<(f64, usize)>],
    generation: &AtomicU64,
    stop: &AtomicBool,
) -> Phase {
    let (per_conn, host) = sampled(|start| {
        std::thread::scope(|s| {
            let handles: Vec<_> = plan
                .iter()
                .map(|schedule| {
                    s.spawn(move || {
                        let mut conn = Conn::new(addr);
                        let mut outcomes = Vec::with_capacity(schedule.len());
                        let mut lateness = Vec::with_capacity(schedule.len());
                        let mut free_at = 0.0f64;
                        for &(due, req) in schedule {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            let now = start.elapsed().as_secs_f64();
                            if now < due {
                                std::thread::sleep(Duration::from_secs_f64(due - now));
                            }
                            let sent = start.elapsed().as_secs_f64();
                            if free_at <= due {
                                lateness.push((sent - due) * 1e3);
                            }
                            let gen = generation.load(Ordering::Acquire);
                            let (status, body) =
                                conn.exchange(&requests[req]).unwrap_or((0, Vec::new()));
                            let done = start.elapsed().as_secs_f64();
                            free_at = done;
                            outcomes.push(Outcome {
                                req,
                                due,
                                done,
                                status,
                                body,
                                generation: gen,
                            });
                        }
                        (outcomes, lateness)
                    })
                })
                .collect();
            let per_conn: Vec<(Vec<Outcome>, Vec<f64>)> = handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect();
            (per_conn, start.elapsed().as_secs_f64())
        })
    });
    let (per_conn, elapsed) = per_conn;
    let mut phase = Phase {
        elapsed,
        host,
        ..Phase::default()
    };
    for (o, l) in per_conn {
        phase.outcomes.extend(o);
        phase.lateness_ms.extend(l);
    }
    phase
}

/// Closed loop: `conns` connections each send their next request the
/// moment the previous reply arrives, taking request indices from `order`
/// until it runs out or `duration` seconds pass. Lateness here is the
/// generator's turnaround from one reply to the next send.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    order: &[usize],
    conns: usize,
    duration: f64,
    generation: u64,
) -> Phase {
    let next = AtomicUsize::new(0);
    let (per_conn, host) = sampled(|start| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..conns)
                .map(|_| {
                    let next = &next;
                    s.spawn(move || {
                        let mut conn = Conn::new(addr);
                        let mut outcomes = Vec::new();
                        let mut lateness = Vec::new();
                        let mut free_at = None;
                        loop {
                            let due = start.elapsed().as_secs_f64();
                            if let Some(t) = free_at {
                                lateness.push((due - t) * 1e3);
                            }
                            if due >= duration {
                                break;
                            }
                            let Some(&req) = order.get(next.fetch_add(1, Ordering::Relaxed)) else {
                                break;
                            };
                            let (status, body) =
                                conn.exchange(&requests[req]).unwrap_or((0, Vec::new()));
                            let done = start.elapsed().as_secs_f64();
                            free_at = Some(done);
                            outcomes.push(Outcome {
                                req,
                                due,
                                done,
                                status,
                                body,
                                generation,
                            });
                        }
                        (outcomes, lateness)
                    })
                })
                .collect();
            let per_conn: Vec<(Vec<Outcome>, Vec<f64>)> = handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect();
            (per_conn, start.elapsed().as_secs_f64())
        })
    });
    let (per_conn, elapsed) = per_conn;
    let mut phase = Phase {
        elapsed,
        host,
        ..Phase::default()
    };
    for (o, l) in per_conn {
        phase.outcomes.extend(o);
        phase.lateness_ms.extend(l);
    }
    phase
}
