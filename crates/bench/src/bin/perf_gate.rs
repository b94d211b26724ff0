//! CI performance gate: compares a freshly measured benchmark snapshot
//! against the committed `BENCH_*.json` trajectory and fails on
//! regressions.
//!
//! ```text
//! cargo run --release -p ned-bench --bin perf_gate [fresh.json] [baseline.json ...]
//! ```
//!
//! With no explicit baselines, every `BENCH_<n>.json` in the current
//! directory (the committed trajectory, ordered by `<n>`) is used. For
//! each benchmark name present in the fresh snapshot, the most recent
//! baseline that also measured it provides the reference `ns_per_op`; a
//! fresh value more than [`MAX_REGRESSION`] above the reference — and at
//! least [`NOISE_FLOOR_NS`] above it, which keeps nanosecond-scale
//! entries from failing on timer noise — fails the gate. Fresh-only
//! names are reported but never fail — new benchmarks
//! enter the trajectory the first time their snapshot is committed.
//! Names the trajectory knows but the fresh snapshot **lacks fail the
//! gate**: a deleted benchmark silently drops perf coverage, which is a
//! regression of the pipeline itself. The one way out is [`RETIRED`]: a
//! series deliberately removed together with the code it measured is
//! listed there with its reason and reported as `retired`; a retired
//! name that a fresh snapshot still measures fails the gate, so the list
//! cannot hide a live series.
//!
//! **Latency percentiles are first-class series.** A benchmark object
//! may carry `p50_ns` / `p99_ns` next to its mean (the serving-layer
//! `loadgen/...` entries do); each percentile becomes its own trajectory
//! series named `<benchmark>@p50` / `<benchmark>@p99` and goes through
//! the identical per-series regression check — same 30% threshold, same
//! 1µs noise floor. A tail-latency regression therefore fails CI even
//! when the mean hides it, and dropping a percentile from a benchmark
//! that used to report it counts as a missing series.
//!
//! The full comparison is written to `perf_gate_diff.json` (uploaded as a
//! CI artifact) so a red gate is diagnosable without re-running anything.
//! The same table is rendered as markdown to `perf_gate_diff.md` — and
//! appended to `$GITHUB_STEP_SUMMARY` when that variable is set — on
//! **passing runs as well as failures**, so every CI run shows its
//! committed-vs-fresh drift, not just the red ones.
//!
//! **Baselines must come from the machine class that measures.** Absolute
//! ns/op only compares meaningfully against snapshots taken on comparable
//! hardware; refresh the committed trajectory from the CI `bench-snapshot`
//! artifact (`BENCH_ci.json`) rather than from a developer laptop, or the
//! hardware gap will read as a regression. Hardware-independent floors
//! (the ≥5× speedup comparisons) are enforced separately by
//! `perf_snapshot` itself and never depend on the trajectory.

use std::process::ExitCode;

/// A fresh value above `max(baseline * (1 + MAX_REGRESSION),
/// baseline + NOISE_FLOOR_NS)` fails the gate.
const MAX_REGRESSION: f64 = 0.30;

/// Minimum absolute drift that can count as a regression. Sub-microsecond
/// entries (a memoized lookup measures ~25 ns/op) move far beyond 30%
/// between runs from timer resolution and frequency scaling alone; the
/// floor keeps them in the report without letting timer noise fail CI.
/// Taken as a `max` with the relative threshold — never added to it —
/// so the 30% rule is untouched for any benchmark whose 30% exceeds a
/// microsecond.
const NOISE_FLOOR_NS: f64 = 1000.0;

/// Where the comparison report is written.
const DIFF_PATH: &str = "perf_gate_diff.json";

/// Where the human-readable markdown rendering of the same comparison is
/// written (and mirrored into `$GITHUB_STEP_SUMMARY` when set).
const DIFF_MD_PATH: &str = "perf_gate_diff.md";

/// Series deliberately removed from `perf_snapshot`, each with the reason
/// it went. The committed trajectory keeps their history.
const RETIRED: &[(&str, &str)] = &[
    (
        "sketch/ba4000-knn-approx",
        "approximate sketch mode deleted; the exact lower bound is the only pruning bound",
    ),
    (
        "sharded_knn/ba4000-k3-forest",
        "sharded VP forest deleted; the sketch bank is the only dynamic index",
    ),
    (
        "sharded_knn/ba4000-k3-linear",
        "sharded VP forest deleted; the sketch bank is the only dynamic index",
    ),
    (
        "sharded_knn/ba4000-k3-bounded",
        "sharded VP forest deleted; the sketch bank is the only dynamic index",
    ),
];

/// The reason `name` was retired, if it is listed in [`RETIRED`].
fn retired_reason(name: &str) -> Option<&'static str> {
    RETIRED
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|&(_, why)| why)
}

#[derive(Debug, Clone, PartialEq)]
struct Bench {
    name: String,
    ns_per_op: f64,
}

/// Parses the number following `key` inside `window`, if present.
fn parse_number_after(window: &str, key: &str) -> Result<Option<f64>, String> {
    let Some(kpos) = window.find(key) else {
        return Ok(None);
    };
    let tail = window[kpos + key.len()..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(tail.len());
    tail[..end]
        .trim()
        .parse()
        .map(Some)
        .map_err(|_| format!("bad {key} value {:?}", &tail[..end]))
}

/// Extracts `{"name": ..., "ns_per_op": ...}` pairs from a
/// `ned-bench/1` snapshot, expanding optional `p50_ns` / `p99_ns`
/// fields into their own `<name>@p50` / `<name>@p99` series. A
/// deliberately small scanner — the format is produced by
/// `perf_snapshot` in this same crate, not by arbitrary tools.
fn parse_snapshot(text: &str) -> Result<Vec<Bench>, String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("\"name\"") {
        rest = &rest[pos + "\"name\"".len()..];
        let open = rest
            .find('"')
            .ok_or_else(|| "unterminated name field".to_string())?;
        rest = &rest[open + 1..];
        let close = rest
            .find('"')
            .ok_or_else(|| "unterminated name string".to_string())?;
        let name = rest[..close].to_string();
        rest = &rest[close + 1..];
        // Everything up to the next benchmark object is this one's
        // window; the optional percentile fields must sit inside it.
        let window = match rest.find("\"name\"") {
            Some(next) => &rest[..next],
            None => rest,
        };
        let ns_per_op = parse_number_after(window, "\"ns_per_op\":")
            .map_err(|e| format!("benchmark {name:?}: {e}"))?
            .ok_or_else(|| format!("benchmark {name:?} has no ns_per_op"))?;
        out.push(Bench {
            name: name.clone(),
            ns_per_op,
        });
        for (key, suffix) in [("\"p50_ns\":", "@p50"), ("\"p99_ns\":", "@p99")] {
            if let Some(v) =
                parse_number_after(window, key).map_err(|e| format!("benchmark {name:?}: {e}"))?
            {
                out.push(Bench {
                    name: format!("{name}{suffix}"),
                    ns_per_op: v,
                });
            }
        }
        rest = &rest[window.len()..];
    }
    if out.is_empty() {
        return Err("no benchmarks found".to_string());
    }
    Ok(out)
}

fn read_snapshot(path: &str) -> Result<Vec<Bench>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_snapshot(&text).map_err(|e| format!("{path}: {e}"))
}

/// The committed trajectory: `BENCH_<n>.json` files beside the working
/// directory, ordered by `<n>` ascending (oldest first).
fn discover_trajectory(exclude: &str) -> Vec<String> {
    let mut found: Vec<(u64, String)> = Vec::new();
    let Ok(dir) = std::fs::read_dir(".") else {
        return Vec::new();
    };
    for entry in dir.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == exclude {
            continue;
        }
        if let Some(num) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            found.push((num, name));
        }
    }
    found.sort_unstable();
    found.into_iter().map(|(_, name)| name).collect()
}

struct Row {
    name: String,
    /// `None` for a trajectory benchmark absent from the fresh snapshot.
    fresh: Option<f64>,
    baseline: Option<(f64, String)>,
    ratio: Option<f64>,
    status: &'static str,
    /// The [`RETIRED`] reason, for a retired series.
    reason: Option<&'static str>,
}

/// What fails the gate; each count is a number of series.
#[derive(Debug, Default, PartialEq)]
struct Failures {
    /// Series more than the threshold above their reference.
    regressions: usize,
    /// Trajectory series absent from the fresh snapshot and not retired
    /// (a silently deleted bench is lost perf coverage).
    missing: usize,
    /// Retired series the fresh snapshot still measures.
    revived: usize,
}

impl Failures {
    fn any(&self) -> bool {
        self.regressions + self.missing + self.revived > 0
    }
}

/// Compares a fresh snapshot against the baseline history (oldest
/// first). Returns the report rows plus the failure counts.
fn compare(fresh: &[Bench], history: &[(String, Vec<Bench>)]) -> (Vec<Row>, Failures) {
    let mut rows: Vec<Row> = Vec::new();
    let mut failures = Failures::default();
    for bench in fresh {
        let reference = history.iter().rev().find_map(|(path, benches)| {
            benches
                .iter()
                .find(|b| b.name == bench.name)
                .map(|b| (b.ns_per_op, path.clone()))
        });
        let reason = retired_reason(&bench.name);
        let ratio = reference.as_ref().map(|(base, _)| bench.ns_per_op / base);
        let status = match (reason, &reference) {
            (Some(_), _) => {
                failures.revived += 1;
                "revived"
            }
            (None, None) => "new",
            (None, Some((base, _))) => {
                let threshold = (base * (1.0 + MAX_REGRESSION)).max(base + NOISE_FLOOR_NS);
                if bench.ns_per_op > threshold {
                    failures.regressions += 1;
                    "regression"
                } else {
                    "ok"
                }
            }
        };
        rows.push(Row {
            name: bench.name.clone(),
            fresh: Some(bench.ns_per_op),
            baseline: reference,
            ratio,
            status,
            reason,
        });
    }

    // Trajectory names the fresh snapshot no longer measures. Most
    // recent baseline wins; each name is reported once.
    for (path, benches) in history.iter().rev() {
        for b in benches {
            let seen = fresh.iter().any(|f| f.name == b.name)
                || rows.iter().any(|r| r.fresh.is_none() && r.name == b.name);
            if seen {
                continue;
            }
            let reason = retired_reason(&b.name);
            let status = if reason.is_some() {
                "retired"
            } else {
                failures.missing += 1;
                "missing"
            };
            rows.push(Row {
                name: b.name.clone(),
                fresh: None,
                baseline: Some((b.ns_per_op, path.clone())),
                ratio: None,
                status,
                reason,
            });
        }
    }
    (rows, failures)
}

/// Renders the comparison as a markdown table, emitted on pass *and*
/// fail so every CI run documents its drift against the trajectory.
fn markdown_report(rows: &[Row], fresh_path: &str, failures: &Failures) -> String {
    let verdict = if failures.any() {
        "❌ fail"
    } else {
        "✅ pass"
    };
    let Failures {
        regressions,
        missing,
        revived,
    } = failures;
    let mut md = format!(
        "### perf_gate: {verdict}\n\n`{fresh_path}` vs committed trajectory \
         ({regressions} regression(s), {missing} missing, {revived} revived)\n\n\
         | benchmark | fresh ns/op | baseline ns/op | baseline file | ratio | status |\n\
         |---|---:|---:|---|---:|---|\n"
    );
    for row in rows {
        let fresh = row
            .fresh
            .map(|v| format!("{v:.1}"))
            .unwrap_or_else(|| "absent".to_string());
        let (base, file) = match &row.baseline {
            Some((v, f)) => (format!("{v:.1}"), f.clone()),
            None => ("—".to_string(), "—".to_string()),
        };
        let ratio = row
            .ratio
            .map(|r| format!("{r:.3}"))
            .unwrap_or_else(|| "—".to_string());
        let status = match row.reason {
            Some(why) => format!("{}: {why}", row.status),
            None => row.status.to_string(),
        };
        md.push_str(&format!(
            "| `{}` | {fresh} | {base} | {file} | {ratio} | {status} |\n",
            row.name
        ));
    }
    md.push('\n');
    md
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fresh_path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_ci.json".to_string());
    let baselines: Vec<String> = if args.len() > 1 {
        args[1..].to_vec()
    } else {
        let fresh_file = std::path::Path::new(&fresh_path)
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_default();
        discover_trajectory(&fresh_file)
    };
    if baselines.is_empty() {
        eprintln!("perf_gate: no committed BENCH_*.json trajectory found");
        return ExitCode::FAILURE;
    }

    let fresh = match read_snapshot(&fresh_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perf_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Most recent baseline first when resolving a name.
    let mut history: Vec<(String, Vec<Bench>)> = Vec::new();
    for path in &baselines {
        match read_snapshot(path) {
            Ok(b) => history.push((path.clone(), b)),
            Err(e) => {
                eprintln!("perf_gate: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let (rows, failures) = compare(&fresh, &history);

    let mut report = String::from("{\n  \"schema\": \"ned-perf-gate/1\",\n");
    report.push_str(&format!(
        "  \"fresh\": {fresh_path:?},\n  \"max_regression\": {MAX_REGRESSION},\n  \"rows\": [\n"
    ));
    for (i, row) in rows.iter().enumerate() {
        let (base_val, base_file) = match &row.baseline {
            Some((v, f)) => (format!("{v:.1}"), format!("{f:?}")),
            None => ("null".to_string(), "null".to_string()),
        };
        let fresh_val = row
            .fresh
            .map(|v| format!("{v:.1}"))
            .unwrap_or_else(|| "null".to_string());
        let ratio = row
            .ratio
            .map(|r| format!("{r:.3}"))
            .unwrap_or_else(|| "null".to_string());
        let reason = row
            .reason
            .map(|why| format!(", \"reason\": {why:?}"))
            .unwrap_or_default();
        report.push_str(&format!(
            "    {{\"name\": {:?}, \"fresh_ns\": {}, \"baseline_ns\": {}, \"baseline_file\": {}, \"ratio\": {}, \"status\": {:?}{reason}}}{}\n",
            row.name,
            fresh_val,
            base_val,
            base_file,
            ratio,
            row.status,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    report.push_str(&format!(
        "  ],\n  \"regressions\": {},\n  \"missing\": {},\n  \"revived\": {}\n}}\n",
        failures.regressions, failures.missing, failures.revived
    ));
    if let Err(e) = std::fs::write(DIFF_PATH, &report) {
        eprintln!("perf_gate: cannot write {DIFF_PATH}: {e}");
        return ExitCode::FAILURE;
    }
    let md = markdown_report(&rows, &fresh_path, &failures);
    if let Err(e) = std::fs::write(DIFF_MD_PATH, &md) {
        eprintln!("perf_gate: cannot write {DIFF_MD_PATH}: {e}");
        return ExitCode::FAILURE;
    }
    if let Ok(summary_path) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        match std::fs::OpenOptions::new().append(true).open(&summary_path) {
            Ok(mut f) => {
                if let Err(e) = f.write_all(md.as_bytes()) {
                    eprintln!("perf_gate: cannot append to {summary_path}: {e}");
                }
            }
            Err(e) => eprintln!("perf_gate: cannot open {summary_path}: {e}"),
        }
    }

    println!(
        "perf_gate: {fresh_path} vs {} baseline snapshot(s)",
        history.len()
    );
    for row in &rows {
        match (row.fresh, &row.baseline, row.ratio) {
            (Some(fresh), Some((base, file)), Some(ratio)) => println!(
                "  [{:^10}] {:<40} {fresh:>12.1} ns vs {base:>12.1} ns ({file}) ratio {ratio:.3}",
                row.status, row.name
            ),
            (Some(fresh), _, _) => println!(
                "  [{:^10}] {:<40} {fresh:>12.1} ns (no baseline yet)",
                row.status, row.name
            ),
            (None, Some((base, file)), _) => println!(
                "  [{:^10}] {:<40} {:>12} vs {base:>12.1} ns ({file}){}",
                row.status,
                row.name,
                "absent",
                row.reason.map(|why| format!(": {why}")).unwrap_or_default()
            ),
            (None, None, _) => unreachable!("absent rows always carry a baseline"),
        }
    }
    println!("wrote {DIFF_PATH} and {DIFF_MD_PATH}");
    if failures.regressions > 0 {
        eprintln!(
            "perf_gate: {} benchmark(s) regressed more than {:.0}%",
            failures.regressions,
            MAX_REGRESSION * 100.0
        );
    }
    if failures.missing > 0 {
        eprintln!(
            "perf_gate: {} trajectory benchmark(s) missing from {fresh_path} — \
             deleting a bench drops perf coverage; re-add it or list it in RETIRED \
             with the reason it went",
            failures.missing
        );
    }
    if failures.revived > 0 {
        eprintln!(
            "perf_gate: {} retired benchmark(s) still measured in {fresh_path} — \
             drop the series from perf_snapshot or take it off RETIRED",
            failures.revived
        );
    }
    if failures.any() {
        return ExitCode::FAILURE;
    }
    println!("perf_gate: ok");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(name: &str, ns: f64) -> Bench {
        Bench {
            name: name.to_string(),
            ns_per_op: ns,
        }
    }

    #[test]
    fn parse_extracts_names_and_values() {
        let text = r#"{"schema": "ned-bench/1", "benchmarks": [
            {"name": "a/b", "ns_per_op": 12.5},
            {"name": "c", "ns_per_op": 3e4}
        ]}"#;
        let parsed = parse_snapshot(text).expect("parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], bench("a/b", 12.5));
        assert_eq!(parsed[1], bench("c", 3e4));
        assert!(parse_snapshot("{}").is_err());
    }

    #[test]
    fn parse_expands_percentiles_into_their_own_series() {
        let text = r#"{"schema": "ned-bench/1", "benchmarks": [
            {"name": "loadgen/knn-r4", "ns_per_op": 120000.0, "p50_ns": 110000.0, "p99_ns": 950000.0},
            {"name": "plain", "ns_per_op": 7.5}
        ]}"#;
        let parsed = parse_snapshot(text).expect("parses");
        assert_eq!(
            parsed,
            vec![
                bench("loadgen/knn-r4", 120000.0),
                bench("loadgen/knn-r4@p50", 110000.0),
                bench("loadgen/knn-r4@p99", 950000.0),
                bench("plain", 7.5),
            ],
            "each percentile becomes its own series; neighbors are untouched"
        );
    }

    #[test]
    fn retired_series_absent_from_the_fresh_snapshot_is_retired_not_missing() {
        let (name, why) = RETIRED[0];
        let fresh = vec![bench("kept", 100.0)];
        let history = vec![(
            "BENCH_10.json".to_string(),
            vec![bench("kept", 90.0), bench(name, 224_000.0)],
        )];
        let (rows, f) = compare(&fresh, &history);
        assert_eq!(f, Failures::default(), "a retired series fails nothing");
        let row = rows.iter().find(|r| r.name == name).expect("retired row");
        assert_eq!((row.status, row.reason), ("retired", Some(why)));
        let md = markdown_report(&rows, "BENCH_ci.json", &f);
        assert!(md.contains("✅ pass"), "{md}");
        assert!(
            md.contains(&format!(
                "| `{name}` | absent | 224000.0 | BENCH_10.json | — | retired: {why} |"
            )),
            "{md}"
        );
    }

    #[test]
    fn retired_series_still_in_the_fresh_snapshot_fails_the_gate() {
        let (name, _) = RETIRED[0];
        let fresh = vec![bench("kept", 100.0), bench(name, 200_000.0)];
        let history = vec![(
            "BENCH_10.json".to_string(),
            vec![bench("kept", 90.0), bench(name, 224_000.0)],
        )];
        let (rows, f) = compare(&fresh, &history);
        assert_eq!((f.regressions, f.missing, f.revived), (0, 0, 1));
        assert!(f.any());
        let row = rows.iter().find(|r| r.name == name).expect("revived row");
        assert_eq!(row.status, "revived");
        let md = markdown_report(&rows, "BENCH_ci.json", &f);
        assert!(md.contains("❌ fail"), "{md}");
    }

    #[test]
    fn percentile_series_regress_independently() {
        // The mean holds steady while p99 blows past 30% + 1µs: the gate
        // must fail on the tail alone.
        let fresh = vec![
            bench("serve", 100_000.0),
            bench("serve@p50", 101_000.0),
            bench("serve@p99", 400_000.0),
        ];
        let history = vec![(
            "BENCH_4.json".to_string(),
            vec![
                bench("serve", 100_000.0),
                bench("serve@p50", 100_000.0),
                bench("serve@p99", 200_000.0),
            ],
        )];
        let (rows, f) = compare(&fresh, &history);
        assert_eq!(f.missing, 0);
        assert_eq!(f.regressions, 1, "only the p99 series regressed");
        assert_eq!(rows[0].status, "ok");
        assert_eq!(
            rows[1].status, "ok",
            "1µs noise floor covers p50's 1% drift"
        );
        assert_eq!(rows[2].status, "regression");
    }

    #[test]
    fn dropping_a_percentile_is_a_missing_series() {
        // The benchmark still reports its mean but stopped reporting the
        // p99 the trajectory knows: lost tail-latency coverage fails.
        let fresh = vec![bench("serve", 90_000.0)];
        let history = vec![(
            "BENCH_4.json".to_string(),
            vec![bench("serve", 100_000.0), bench("serve@p99", 150_000.0)],
        )];
        let (rows, f) = compare(&fresh, &history);
        assert_eq!(f.regressions, 0);
        assert_eq!(f.missing, 1);
        let row = rows.iter().find(|r| r.name == "serve@p99").expect("row");
        assert_eq!(row.status, "missing");
    }

    #[test]
    fn missing_trajectory_bench_fails_the_gate() {
        let fresh = vec![bench("kept", 100.0), bench("brand_new", 5.0)];
        let history = vec![
            (
                "BENCH_1.json".to_string(),
                vec![bench("kept", 90.0), bench("deleted", 70.0)],
            ),
            ("BENCH_2.json".to_string(), vec![bench("deleted", 50.0)]),
        ];
        let (rows, f) = compare(&fresh, &history);
        assert_eq!(f.regressions, 0);
        assert_eq!(f.missing, 1, "one deleted bench, one failure");
        let row = rows
            .iter()
            .find(|r| r.name == "deleted")
            .expect("deleted bench reported");
        assert_eq!(row.status, "missing");
        assert_eq!(row.fresh, None);
        // most recent baseline wins
        assert_eq!(row.baseline, Some((50.0, "BENCH_2.json".to_string())));
        let new_row = rows.iter().find(|r| r.name == "brand_new").expect("new");
        assert_eq!(new_row.status, "new", "fresh-only benches never fail");
    }

    #[test]
    fn regression_detection_uses_most_recent_baseline() {
        let fresh = vec![bench("x", 135_000.0), bench("y", 100_000.0)];
        let history = vec![
            ("BENCH_1.json".to_string(), vec![bench("x", 50_000.0)]),
            (
                "BENCH_2.json".to_string(),
                vec![bench("x", 100_000.0), bench("y", 99_000.0)],
            ),
        ];
        let (rows, f) = compare(&fresh, &history);
        assert_eq!(f.missing, 0);
        assert_eq!(f.regressions, 1, "135µs vs 100µs is a >30% regression");
        assert_eq!(rows[0].status, "regression");
        assert_eq!(rows[1].status, "ok");
    }

    #[test]
    fn markdown_report_renders_pass_and_fail_verdicts() {
        let fresh = vec![bench("kept", 100.0), bench("brand_new", 5.0)];
        let history = vec![("BENCH_1.json".to_string(), vec![bench("kept", 90.0)])];
        let (rows, f) = compare(&fresh, &history);
        let md = markdown_report(&rows, "BENCH_ci.json", &f);
        assert!(md.contains("✅ pass"), "{md}");
        assert!(
            md.contains("| `kept` | 100.0 | 90.0 | BENCH_1.json |"),
            "{md}"
        );
        assert!(
            md.contains("| `brand_new` | 5.0 | — | — | — | new |"),
            "{md}"
        );

        let gone_history = vec![(
            "BENCH_2.json".to_string(),
            vec![bench("kept", 90.0), bench("deleted", 70.0)],
        )];
        let (rows, f) = compare(&fresh, &gone_history);
        let md = markdown_report(&rows, "BENCH_ci.json", &f);
        assert!(md.contains("❌ fail"), "{md}");
        assert!(md.contains("| `deleted` | absent | 70.0 |"), "{md}");
    }

    #[test]
    fn timer_noise_on_nanosecond_benches_never_fails() {
        // 25 ns -> 80 ns is a 3.2x ratio but only 55 ns of drift: pure
        // timer noise at this scale, absorbed by the additive floor. The
        // same ratio at microsecond scale still fails.
        let fresh = vec![bench("memo_hit", 80.0), bench("sweep", 80_000.0)];
        let history = vec![(
            "BENCH_3.json".to_string(),
            vec![bench("memo_hit", 25.0), bench("sweep", 25_000.0)],
        )];
        let (rows, f) = compare(&fresh, &history);
        assert_eq!(f.regressions, 1);
        assert_eq!(rows[0].status, "ok", "nanosecond drift is not a regression");
        assert_eq!(rows[1].status, "regression");
    }
}
