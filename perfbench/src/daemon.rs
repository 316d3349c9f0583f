//! Launching and stopping the shipped daemons. Each child's stdout goes
//! to a log file in the run's work directory (the benchmark reads the
//! listening address from it); a [`Daemon`] is killed and reaped when it
//! drops, so no exit path of the benchmark leaves a process behind.

use crate::client::Conn;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Readiness poll cadence.
const POLL: Duration = Duration::from_micros(200);
/// How long any launch may take before the run fails.
pub const LAUNCH_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Daemon {
    name: String,
    child: Child,
    log: PathBuf,
}

impl Daemon {
    /// Starts `bin args…` with extra environment, stdout into `log`.
    pub fn spawn(
        bin: &Path,
        args: &[String],
        envs: &[(&str, String)],
        log: PathBuf,
    ) -> Result<Daemon, String> {
        let name = bin
            .file_name()
            .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
        let out = std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = Command::new(bin);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(Stdio::null());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        Ok(Daemon { name, child, log })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn check_alive(&mut self) -> Result<(), String> {
        match self.child.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => Err(format!("{} exited early: {status}", self.name)),
            Err(e) => Err(format!("{}: {e}", self.name)),
        }
    }

    /// Waits for the `listening on http://ADDR` banner.
    pub fn wait_addr(&mut self, deadline: Instant) -> Result<SocketAddr, String> {
        loop {
            let text = std::fs::read_to_string(&self.log).unwrap_or_default();
            if let Some(at) = text.find("listening on http://") {
                let rest = &text[at + "listening on http://".len()..];
                let addr = rest.split_whitespace().next().unwrap_or_default();
                return addr
                    .parse()
                    .map_err(|_| format!("{}: bad address {addr:?}", self.name));
            }
            self.check_alive()?;
            if Instant::now() > deadline {
                return Err(format!("{}: no listening banner", self.name));
            }
            std::thread::sleep(POLL);
        }
    }

    /// Sends `request` until the daemon answers 200.
    pub fn wait_ok(
        &mut self,
        addr: SocketAddr,
        request: &[u8],
        deadline: Instant,
    ) -> Result<(), String> {
        let mut conn = Conn::new(addr);
        loop {
            if let Ok((200, _)) = conn.exchange(request) {
                return Ok(());
            }
            self.check_alive()?;
            if Instant::now() > deadline {
                return Err(format!("{}: no successful reply", self.name));
            }
            std::thread::sleep(POLL);
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
