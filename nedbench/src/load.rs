//! Load drivers: closed-loop knn over one or two connections, the
//! closed-loop single writer, and open-loop knn at a fixed rate (the
//! traced run's check). Each connection is driven by one thread and
//! carries one request at a time.

use crate::proc::{Conn, REQUEST_TIMEOUT};
use crate::stats::{generator_lag_ns, Ops, Schedule};
use ned_core::{Request, Response, WireHit};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const TIMEOUT_US: f64 = REQUEST_TIMEOUT.as_micros() as f64;

/// Where knn probes come from: a fixed pool cycled by every connection,
/// or a list consumed once (each probe sent exactly once).
pub enum ProbeSource<'a> {
    Cycle(&'a [String]),
    Once(&'a [String], &'a AtomicUsize),
}

impl ProbeSource<'_> {
    /// The probe index for request `i` of connection `conn`, or `None`
    /// once a consume-once list is exhausted.
    fn next(&self, conn: usize, i: usize) -> Option<usize> {
        match self {
            ProbeSource::Cycle(pool) => Some((conn * 17 + i * 7) % pool.len()),
            ProbeSource::Once(list, cursor) => {
                let at = cursor.fetch_add(1, Ordering::Relaxed);
                (at < list.len()).then_some(at)
            }
        }
    }

    fn shape(&self, idx: usize) -> &str {
        match self {
            ProbeSource::Cycle(pool) => &pool[idx],
            ProbeSource::Once(list, _) => &list[idx],
        }
    }
}

/// Reads the server's peak RSS (VmHWM) once the timed phases have sent
/// a fixed number of writes: read at the end of a phase, the figure
/// would grow with how many requests a faster server got through.
pub struct RssAt {
    pid: u32,
    at: usize,
    sent: AtomicUsize,
    mb: OnceLock<Result<f64, String>>,
}

impl RssAt {
    pub fn new(pid: u32, at: usize) -> RssAt {
        RssAt {
            pid,
            at,
            sent: AtomicUsize::new(0),
            mb: OnceLock::new(),
        }
    }

    /// Counts one write sent; the `at`-th takes the reading.
    fn tick(&self) {
        if self.sent.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            let _ = self.mb.set(crate::proc::peak_rss_mb(self.pid));
        }
    }

    /// The reading, or `None` when fewer than `at` writes went out.
    pub fn reading(&self) -> Option<Result<f64, String>> {
        self.mb.get().cloned()
    }

    pub fn sent(&self) -> usize {
        self.sent.load(Ordering::Relaxed)
    }
}

/// One answered knn request, kept for the correctness gate.
pub struct Reply {
    pub probe: usize,
    pub epoch: u64,
    pub hits: Vec<WireHit>,
}

/// Result of a knn phase.
#[derive(Default)]
pub struct KnnRun {
    pub ops: Ops,
    pub elapsed_s: f64,
    pub replies: Vec<Reply>,
    /// Generator lateness per open-loop request, microseconds.
    pub lag_us: Vec<f64>,
}

impl KnnRun {
    fn merge(&mut self, other: KnnRun) {
        self.ops.merge(other.ops);
        self.replies.extend(other.replies);
        self.lag_us.extend(other.lag_us);
    }
}

/// Sends one knn request and records it into `run`; `t0` is the phase
/// start.
fn knn_once(conn: &mut Conn, source: &ProbeSource, probe: usize, run: &mut KnnRun, t0: Instant) {
    let req = Request::Sig {
        shape: source.shape(probe).to_string(),
        top: crate::inputs::TOP,
        within: None,
    };
    let t = Instant::now();
    let result = conn.request(&req);
    let us = t.elapsed().as_secs_f64() * 1e6;
    let at = t0.elapsed().as_secs_f64();
    match result {
        Ok(Response::Hits { epoch, hits }) => {
            run.ops.ok(at, us);
            run.replies.push(Reply { probe, epoch, hits });
        }
        _ => run.ops.fail(at, TIMEOUT_US),
    }
}

/// Closed loop: each of `conns`, driven by a thread of its own, sends its
/// next request as soon as the previous reply arrives, until `duration`
/// has passed (or a consume-once source runs dry).
pub fn closed_knn(conns: &mut [Conn], duration: Duration, source: &ProbeSource) -> KnnRun {
    let start = Instant::now();
    let deadline = start + duration;
    let parts: Vec<KnnRun> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut run = KnnRun::default();
                    let mut i = 0;
                    while Instant::now() < deadline {
                        let Some(probe) = source.next(c, i) else {
                            break;
                        };
                        knn_once(conn, source, probe, &mut run, start);
                        i += 1;
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop connection thread"))
            .collect()
    });
    let mut total = KnnRun::default();
    for p in parts {
        total.merge(p);
    }
    total.elapsed_s = start.elapsed().as_secs_f64();
    total
}

/// Open loop at `rate` requests/s in total, spread evenly over `conns`
/// connections with staggered schedules. Latency runs from each
/// request's due time (see [`Schedule`]).
pub fn open_knn(
    addr: &str,
    conns: usize,
    rate: f64,
    duration: Duration,
    source: &ProbeSource,
) -> KnnRun {
    let t0 = Instant::now();
    let interval_ns = (conns as f64 * 1e9 / rate) as u64;
    let per_conn = (duration.as_secs_f64() * rate / conns as f64).floor() as u64;
    let parts: Vec<KnnRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut run = KnnRun::default();
                    let sched = Schedule {
                        start_ns: 1_000_000 + c as u64 * interval_ns / conns as u64,
                        interval_ns,
                    };
                    let Ok(mut conn) = Conn::connect(addr) else {
                        run.ops.fail(0.0, TIMEOUT_US);
                        return run;
                    };
                    let mut prev_done = 0u64;
                    for i in 0..per_conn {
                        let Some(probe) = source.next(c, i as usize) else {
                            break;
                        };
                        let planned = sched.planned_send_ns(i, prev_done);
                        wait_until(t0, planned);
                        let sent = t0.elapsed().as_nanos() as u64;
                        run.lag_us
                            .push(generator_lag_ns(planned, sent) as f64 / 1e3);
                        let before = run.ops.failed;
                        knn_once(&mut conn, source, probe, &mut run, t0);
                        prev_done = t0.elapsed().as_nanos() as u64;
                        if run.ops.failed == before {
                            // Replace the service time with the latency
                            // from the due time.
                            let last = run.ops.samples.last_mut().expect("just pushed");
                            last.1 = sched.latency_ns(i, prev_done) as f64 / 1e3;
                        }
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop connection thread"))
            .collect()
    });
    let mut total = KnnRun::default();
    for p in parts {
        total.merge(p);
    }
    total.elapsed_s = t0.elapsed().as_secs_f64();
    total
}

/// Sleeps until `SPIN_NS` before `at_ns` (on `t0`'s clock), then spins:
/// a plain sleep overshoots by tens of microseconds, which would count
/// as generator lag in every open-loop latency.
fn wait_until(t0: Instant, at_ns: u64) {
    const SPIN_NS: u64 = 200_000;
    let now = t0.elapsed().as_nanos() as u64;
    if at_ns > now + SPIN_NS {
        std::thread::sleep(Duration::from_nanos(at_ns - now - SPIN_NS));
    }
    while (t0.elapsed().as_nanos() as u64) < at_ns {
        std::hint::spin_loop();
    }
}

/// One write of the net-zero write stream: an edge flip.
#[derive(Clone, Debug)]
pub enum Write {
    AddEdge(u32, u32),
    DelEdge(u32, u32),
}

impl Write {
    pub fn request(&self) -> Request {
        match *self {
            Write::AddEdge(a, b) => Request::AddEdge { a, b },
            Write::DelEdge(a, b) => Request::DelEdge { a, b },
        }
    }
}

/// The net-zero write stream: each flip added and then deleted again,
/// so the live set is back at its start after every second write.
pub fn write_stream(flips: &[(u32, u32)]) -> Vec<Write> {
    flips
        .iter()
        .flat_map(|&(a, b)| [Write::AddEdge(a, b), Write::DelEdge(a, b)])
        .collect()
}

/// Result of a write phase.
#[derive(Default)]
pub struct WriteRun {
    pub ops: Ops,
    pub elapsed_s: f64,
    /// Writes the server acknowledged (each one publication).
    pub acked: u64,
}

/// Sends writes of the cyclic stream `writes` in order on `conn`,
/// starting at position `first` (even: a pair boundary): with a
/// `deadline`, until the deadline passes at a pair boundary; without
/// one, `writes.len()` writes. Each write ticks `rss`, if given.
pub fn run_writes(
    conn: &mut Conn,
    writes: &[Write],
    first: usize,
    deadline: Option<Instant>,
    rss: Option<&RssAt>,
) -> WriteRun {
    let start = Instant::now();
    let mut run = WriteRun::default();
    for j in first.. {
        match deadline {
            Some(d) if j % 2 == 0 && Instant::now() >= d => break,
            None if j == first + writes.len() => break,
            _ => {}
        }
        let t = Instant::now();
        let result = conn.request(&writes[j % writes.len()].request());
        let us = t.elapsed().as_secs_f64() * 1e6;
        if let Some(r) = rss {
            r.tick();
        }
        let at = start.elapsed().as_secs_f64();
        if let Ok(Response::Ok { .. }) = result {
            run.ops.ok(at, us);
            run.acked += 1;
        } else {
            run.ops.fail(at, TIMEOUT_US);
        }
    }
    run.elapsed_s = start.elapsed().as_secs_f64();
    run
}
