//! Shared experiment utilities: timing, statistics, table rendering,
//! sampling, lightweight parallel map and CLI argument parsing.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Times a closure once.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// `p`-th percentile (0..=100) by nearest-rank on a sorted copy.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.2}us", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2}s", nanos as f64 / 1e9)
    }
}

/// `count` distinct random node ids from a graph with `n` nodes.
pub fn sample_nodes(n: usize, count: usize, rng: &mut SmallRng) -> Vec<u32> {
    let count = count.min(n);
    if count * 3 >= n {
        // dense sample: shuffle the full id range
        let mut ids: Vec<u32> = (0..n as u32).collect();
        for i in 0..count {
            let j = rng.gen_range(i..n);
            ids.swap(i, j);
        }
        ids.truncate(count);
        return ids;
    }
    let mut seen = std::collections::HashSet::with_capacity(count * 2);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let v = rng.gen_range(0..n) as u32;
        if seen.insert(v) {
            out.push(v);
        }
    }
    out
}

/// Parallel map over an index range. Results are in input order;
/// `threads = 0` means "available parallelism". This is the shared
/// scoped-thread pool from `ned-core` — re-exported so every experiment
/// keeps one fan-out implementation.
pub use ned_core::batch::par_map;

/// Minimal aligned-column table printer for experiment output.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>w$}", w = w));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Renders as CSV (RFC-4180-style quoting for cells containing
    /// commas or quotes) — for piping experiment output into plotting
    /// scripts.
    pub fn render_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let mut write_row = |cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| quote(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.headers);
        for row in &self.rows {
            write_row(row);
        }
        out
    }
}

/// Shared experiment configuration parsed from CLI arguments.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Dataset scale relative to the paper's node counts.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Number of node pairs / queries to sample.
    pub pairs: usize,
    /// Worker threads (0 = all).
    pub threads: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 0.01,
            seed: 20170222, // the paper's arXiv v3 date
            pairs: 200,
            threads: 0,
        }
    }
}

impl ExpConfig {
    /// Parses `--scale`, `--seed`, `--pairs`, `--threads`, `--quick`,
    /// `--full` from `std::env::args`.
    pub fn from_args() -> Self {
        let mut cfg = ExpConfig::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let value = |i: usize| -> f64 {
                args.get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("missing numeric value after {}", args[i]))
            };
            match args[i].as_str() {
                "--scale" => {
                    cfg.scale = value(i);
                    i += 1;
                }
                "--seed" => {
                    cfg.seed = value(i) as u64;
                    i += 1;
                }
                "--pairs" => {
                    cfg.pairs = value(i) as usize;
                    i += 1;
                }
                "--threads" => {
                    cfg.threads = value(i) as usize;
                    i += 1;
                }
                "--quick" => {
                    cfg.scale = 0.002;
                    cfg.pairs = 40;
                }
                "--full" => {
                    cfg.scale = 0.05;
                    cfg.pairs = 400;
                }
                other => panic!("unknown argument {other}"),
            }
            i += 1;
        }
        cfg
    }

    /// A seeded RNG derived from the config seed and a purpose tag.
    pub fn rng(&self, salt: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((std_dev(&xs) - 1.118).abs() < 1e-3);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn sample_nodes_distinct() {
        let mut rng = SmallRng::seed_from_u64(1);
        let s = sample_nodes(100, 30, &mut rng);
        assert_eq!(s.len(), 30);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 30);
        // dense path
        let s2 = sample_nodes(10, 50, &mut rng);
        assert_eq!(s2.len(), 10);
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map(100, 4, |i| i * i);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
        let single = par_map(5, 1, |i| i + 1);
        assert_eq!(single, vec![1, 2, 3, 4, 5]);
        assert!(par_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn csv_rendering_quotes_properly() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["plain".into(), "1".into()]);
        t.row(vec!["with,comma".into(), "quo\"te".into()]);
        let csv = t.render_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,value");
        assert_eq!(lines[1], "plain,1");
        assert_eq!(lines[2], "\"with,comma\",\"quo\"\"te\"");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500ns");
        assert!(fmt_duration(Duration::from_micros(1500)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with('s'));
    }
}
