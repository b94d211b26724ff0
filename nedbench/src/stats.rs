//! The benchmark's own arithmetic: nearest-rank percentiles with the
//! "at least ten samples beyond" rule, open-loop due-time accounting,
//! error counting, and span self time. Kept free of I/O so the unit
//! tests below pin exactly the numbers the report prints.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` (`p` in `0..=100`):
/// the smallest sample with at least `p`% of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] samples strictly
/// past the nearest-rank `p`-th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n >= rank + MIN_BEYOND
}

/// Median and tail of one latency sample, in the sample's unit.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The tail percentile actually reported: 99 when the sample
    /// supports it, otherwise the highest whole percentile it does.
    pub tail_p: f64,
    pub tail: f64,
}

/// Summarizes an unsorted sample: median plus the 99th percentile, or
/// the highest whole percentile below it that still has
/// [`MIN_BEYOND`] samples beyond it.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut tail_p = 99.0;
    while tail_p > 50.0 && !supports(sorted.len(), tail_p) {
        tail_p -= 1.0;
    }
    Summary {
        n: sorted.len(),
        p50: nearest_rank(&sorted, 50.0),
        tail_p,
        tail: nearest_rank(&sorted, tail_p),
    }
}

/// Median of an unsorted sample (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0)
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Operations attempted and failed. A failed, refused or timed-out
/// operation is recorded with the client timeout as its latency, so it
/// also counts as missing every latency limit below that timeout.
#[derive(Debug, Clone, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// `(seconds since the phase started, latency in microseconds)` per
    /// operation, failed ones included.
    pub samples: Vec<(f64, f64)>,
}

impl Ops {
    pub fn ok(&mut self, at_s: f64, latency_us: f64) {
        self.attempted += 1;
        self.samples.push((at_s, latency_us));
    }

    pub fn fail(&mut self, at_s: f64, timeout_us: f64) {
        self.attempted += 1;
        self.failed += 1;
        self.samples.push((at_s, timeout_us));
    }

    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.samples.extend(other.samples);
    }

    /// Merges `other`, whose sample times are shifted by `by_s`: a later
    /// stretch of the same phase placed after this one on its time line.
    pub fn append_shifted(&mut self, other: Ops, by_s: f64) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.samples
            .extend(other.samples.into_iter().map(|(t, v)| (t + by_s, v)));
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn latencies_us(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.1).collect()
    }

    pub fn error_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Samples per window needed before a window reports percentile `p`
/// (at least [`MIN_BEYOND`] beyond it).
fn window_floor(p: f64) -> usize {
    (MIN_BEYOND as f64 * 100.0 / (100.0 - p)).ceil() as usize
}

/// Mean of the middle half of an unsorted sample: the lowest and the
/// highest quarter (rounded down) are dropped.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

/// Percentile `p` per time window, then the interquartile mean over
/// windows: the phase is cut into up to `windows` equal spans of time,
/// each with enough samples for `p`. A burst of stalls confined to a
/// few windows (another tenant on a shared host) falls in the dropped
/// quarters; the host's slower swings in speed, which move every
/// window, are averaged over the middle half instead of read off the
/// one median window.
pub fn windowed(samples: &[(f64, f64)], windows: usize, p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let windows = windows.min(samples.len() / window_floor(p)).max(1);
    let end = samples.iter().map(|s| s.0).fold(0.0, f64::max);
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(t, v) in samples {
        let w = ((t / end * windows as f64) as usize).min(windows - 1);
        per[w].push(v);
    }
    let tails: Vec<f64> = per
        .into_iter()
        .filter(|w| !w.is_empty())
        .map(|mut w| {
            w.sort_by(f64::total_cmp);
            nearest_rank(&w, p)
        })
        .collect();
    interquartile_mean(&tails)
}

/// Open-loop schedule: request `i` is due `i * interval` after `start`
/// (all times in nanoseconds on one monotonic clock). A connection
/// carries one request at a time, so a request whose predecessor is
/// still outstanding is sent when that reply arrives; its latency still
/// runs from its due time, so a stall inflates every request queued
/// behind it instead of silently lowering the offered rate.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start_ns: u64,
    pub interval_ns: u64,
}

impl Schedule {
    pub fn due_ns(&self, i: u64) -> u64 {
        self.start_ns + i * self.interval_ns
    }

    /// When request `i` may go out: its due time, or the previous
    /// reply's arrival if that is later.
    pub fn planned_send_ns(&self, i: u64, prev_done_ns: u64) -> u64 {
        self.due_ns(i).max(prev_done_ns)
    }

    /// Client-visible latency of request `i`, timed from when it was due.
    pub fn latency_ns(&self, i: u64, done_ns: u64) -> u64 {
        done_ns.saturating_sub(self.due_ns(i))
    }
}

/// How late the generator itself sent: actual send minus planned send
/// (the wait for the previous reply is the system's, not the
/// generator's, and is excluded).
pub fn generator_lag_ns(planned_ns: u64, actual_ns: u64) -> u64 {
    actual_ns.saturating_sub(planned_ns)
}

/// One recorded span: a timed call at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recording, if any.
    pub parent: Option<usize>,
    pub request: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are counted
/// once; child time outside the parent is ignored).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 90.0), 9.0);
        assert_eq!(nearest_rank(&v, 91.0), 10.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly 10 beyond.
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        let s = summarize(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.tail_p, s.tail, s.p50), (99.0, 990.0, 500.0));
        // 200 samples: p99 and p95 lack ten beyond; p95 is rank 190.
        let s = summarize(&(1..=200).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail_p, 95.0);
        assert_eq!(s.tail, 190.0);
    }

    #[test]
    fn a_stall_inflates_the_requests_queued_behind_it() {
        // 1 ms apart; request 0 takes 5 ms, the rest 0.1 ms each.
        let sched = Schedule {
            start_ns: 0,
            interval_ns: 1_000_000,
        };
        let service = [5_000_000u64, 100_000, 100_000, 100_000, 100_000, 100_000];
        let mut prev_done = 0;
        let mut lat = Vec::new();
        for (i, &svc) in service.iter().enumerate() {
            let send = sched.planned_send_ns(i as u64, prev_done);
            prev_done = send + svc;
            lat.push(sched.latency_ns(i as u64, prev_done));
        }
        // Requests 1..4 were due at 1..4 ms but could only start after
        // the stall ended at 5 ms; request 5 is back on schedule.
        assert_eq!(
            lat,
            [5_000_000, 4_100_000, 3_200_000, 2_300_000, 1_400_000, 500_000]
        );
        // A closed loop would have reported 0.1 ms for all of them.
        assert_eq!(generator_lag_ns(5_000_000, 5_000_300), 300);
        assert_eq!(generator_lag_ns(5_000_000, 4_000_000), 0);
    }

    #[test]
    fn failures_count_against_attempts_and_miss_every_limit() {
        let mut ops = Ops::default();
        for i in 0..98 {
            ops.ok(f64::from(i), 100.0);
        }
        ops.fail(98.0, 5e6);
        ops.fail(99.0, 5e6);
        assert_eq!((ops.attempted, ops.failed, ops.completed()), (100, 2, 98));
        assert!((ops.error_frac() - 0.02).abs() < 1e-12);
        let mut sorted = ops.latencies_us();
        sorted.sort_by(f64::total_cmp);
        // The two failures occupy the slowest ranks.
        assert_eq!(nearest_rank(&sorted, 99.0), 5e6);
        assert_eq!(nearest_rank(&sorted, 98.0), 100.0);
        let mut more = Ops::default();
        more.ok(0.0, 1.0);
        ops.merge(more);
        assert_eq!((ops.attempted, ops.failed), (101, 2));
        assert_eq!(Ops::default().error_frac(), 0.0);
    }

    #[test]
    fn windowed_tail_is_the_interquartile_mean_of_windows() {
        // 8 windows of 100 samples at 1..=100 us; window 3 also stalls.
        let mut samples = Vec::new();
        for w in 0..8 {
            for i in 1..=100 {
                let stall = if w == 3 { 10_000.0 } else { 0.0 };
                samples.push((w as f64 + (i as f64 - 0.5) / 100.0, f64::from(i) + stall));
            }
        }
        // Each window's p90 is 90 (plus the stall in window 3); the
        // stalled window falls in the dropped top quarter.
        assert_eq!(windowed(&samples, 8, 90.0), 90.0);
        assert_eq!(windowed(&samples, 8, 50.0), 50.0);
        // Too few samples for eight p90 windows: fewer, larger windows.
        let fewer = windowed(&samples[..250], 8, 90.0);
        assert!((85.0..=95.0).contains(&fewer), "{fewer}");
        // The whole-phase p99 does see the stall.
        let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert!(summarize(&all).tail > 10_000.0);
        // The same phase run as two rounds of 4 s, each timed from its
        // own start: appended on one time line, the windows match.
        let mut rounds = Ops::default();
        for half in samples.chunks(400) {
            let mut round = Ops::default();
            for &(t, v) in half {
                round.ok(t % 4.0, v);
            }
            rounds.append_shifted(round, rounds.samples.len() as f64 / 100.0);
        }
        assert_eq!(rounds.samples, samples);
        assert_eq!(rounds.attempted, 800);
        assert_eq!(windowed(&rounds.samples, 8, 90.0), 90.0);
        // Windows that differ: the middle half of 8 is averaged.
        let slope: Vec<(f64, f64)> = (0..800)
            .map(|i| (i as f64 / 100.0 + 0.005, f64::from(i / 100 + 1)))
            .collect();
        assert_eq!(windowed(&slope, 8, 50.0), (3.0 + 4.0 + 5.0 + 6.0) / 4.0);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0, 100.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        };
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),  // overlaps a by 10
            span("c", 90, 120, Some(0)), // sticks out past the root
            span("a.inner", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 20, 30, 10]);
    }
}
