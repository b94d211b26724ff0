//! Child processes (`ned-cli index build`, `ned-cli serve`) and the
//! NEDWIRE1 client the load generator speaks to them. Every process
//! started here is stopped and waited for: the server drains on a
//! `shutdown` request, and a `Drop` guard kills it when a run fails
//! part-way.

use ned_core::{wire, Request, Response};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client-side timeout per request; a request that takes longer counts
/// as failed, with this as its latency.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// One NEDWIRE1 connection. A connection carries one request at a time.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REQUEST_TIMEOUT))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(REQUEST_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Conn { stream })
    }

    /// Sends one payload and returns the raw reply text.
    pub fn call(&mut self, payload: &str) -> Result<String, String> {
        wire::write_text_frame(&mut self.stream, payload).map_err(|e| format!("send: {e}"))?;
        match wire::read_text_frame(&mut self.stream) {
            Ok(Some(reply)) => Ok(reply),
            Ok(None) => Err("server closed the connection".into()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// One typed request; an `error:` reply is an `Err`.
    pub fn request(&mut self, req: &Request) -> Result<Response, String> {
        let reply = self.call(&req.to_string())?;
        match Response::parse(&reply) {
            Ok(Response::Error(e)) => Err(e.to_string()),
            Ok(r) => Ok(r),
            Err(e) => Err(format!("unparsable reply {reply:?}: {e}")),
        }
    }
}

/// `(epoch, len, live-set hash)` of a server.
pub type Print = (u64, u64, u64);

/// The `fingerprint` of the server at `addr`.
pub fn fingerprint(addr: &str) -> Result<Print, String> {
    match Conn::connect(addr)?.request(&Request::Fingerprint)? {
        Response::Fingerprint { epoch, len, hash } => Ok((epoch, len, hash)),
        other => Err(format!("{addr}: fingerprint answered {other:?}")),
    }
}

/// `(all, steal)` CPU ticks of the host so far (`/proc/stat`). Steal
/// is time the host ran something else while a vCPU wanted to run.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// The first CPU this process may run on (`Cpus_allowed_list`).
fn first_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu: String = list
        .trim()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    (!cpu.is_empty()).then_some(cpu)
}

/// Runs `ned-cli index build <idx> <edges> --k <k>` to completion, pinned
/// to one CPU with `taskset` when the host has it; returns whether it
/// was. `index build` uses every CPU it may run on and takes no thread
/// count. On a shared two-vCPU host the two-thread build time moved with
/// the other tenants far more than the one-thread time (see README.md).
pub fn index_build(ned_cli: &Path, idx: &Path, edges: &Path, k: usize) -> Result<bool, String> {
    let pinned = first_cpu().filter(|_| Command::new("taskset").arg("-V").output().is_ok());
    let mut cmd = match &pinned {
        Some(cpu) => {
            let mut c = Command::new("taskset");
            c.args(["-c", cpu]).arg(ned_cli);
            c
        }
        None => Command::new(ned_cli),
    };
    let out = cmd
        .args(["index", "build"])
        .arg(idx)
        .arg(edges)
        .args(["--k", &k.to_string()])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawning {}: {e}", ned_cli.display()))?;
    if out.status.success() {
        Ok(pinned.is_some())
    } else {
        Err(format!(
            "index build failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    }
}

/// A running `ned-cli serve` process.
pub struct Server {
    child: Option<Child>,
    stdout: Option<JoinHandle<()>>,
    pub addr: String,
    pub pid: u32,
}

impl Server {
    /// Starts `ned-cli <args>` and waits for its `tcp://` banner.
    pub fn start(ned_cli: &Path, args: &[String], stderr_log: &Path) -> Result<Server, String> {
        let log = std::fs::File::create(stderr_log).map_err(|e| e.to_string())?;
        let mut child = Command::new(ned_cli)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", ned_cli.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel::<String>();
        // Forwards banner lines, then keeps draining so the child never
        // blocks on a full pipe; ends when the child closes stdout.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut server = Server {
            pid: child.id(),
            child: Some(child),
            stdout: Some(reader),
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx
                .recv_timeout(left)
                .map_err(|_| format!("`ned-cli {}` announced no address", args.join(" ")))?;
            if let Some(at) = line.find("tcp://") {
                server.addr = line[at + "tcp://".len()..].trim().to_string();
                return Ok(server);
            }
        }
    }

    /// CPU seconds (user + system) the server has used so far. Time the host steals from a vCPU is not counted, which makes
    /// CPU per request a figure host contention does not move.
    pub fn cpu_s(&self) -> Result<f64, String> {
        // USER_HZ, the unit of /proc/<pid>/stat times, is 100 on Linux.
        const TICKS_PER_S: f64 = 100.0;
        let pid = self.pid;
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .map_err(|e| format!("pid {pid}: {e}"))?;
        // Fields after the `(comm)`: state is the first, utime the 12th
        // and stime the 13th.
        let fields: Vec<&str> = stat
            .rsplit(')')
            .next()
            .unwrap_or("")
            .split_whitespace()
            .collect();
        let mut ticks = 0u64;
        for f in [11, 12] {
            ticks += fields
                .get(f)
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("pid {pid}: malformed stat"))?;
        }
        Ok(ticks as f64 / TICKS_PER_S)
    }

    /// Drains the server with `shutdown`, waits for it to exit, and kills
    /// it if it does not within the grace period. Stopping a stopped
    /// server does nothing.
    pub fn stop(&mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let asked = Conn::connect(&self.addr).and_then(|mut c| c.call("shutdown"));
        let deadline = Instant::now() + Duration::from_secs(30);
        let exited = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break None,
            }
        };
        if exited.is_none() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        match (asked, exited) {
            (Err(e), _) => Err(format!("shutdown request failed: {e}")),
            (_, None) => Err("server ignored shutdown; killed".into()),
            (_, Some(status)) if !status.success() => Err(format!("server exited {status}")),
            _ => Ok(()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            if let Some(h) = self.stdout.take() {
                let _ = h.join();
            }
        }
    }
}

/// Peak resident set (VmHWM) of process `pid` so far, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("pid {pid}: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        .ok_or_else(|| format!("pid {pid}: no VmHWM"))?;
    Ok(kb as f64 / 1024.0)
}
