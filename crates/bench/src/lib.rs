//! Experiment harness for the NED reproduction.
//!
//! Every table and figure of the paper's evaluation (Section 13) has a
//! corresponding experiment module here and a thin binary under
//! `src/bin/`; `run_all` regenerates the whole evaluation. The
//! `benches/` directory adds criterion micro-benchmarks for each
//! component plus a `figures` harness that re-runs the experiments at
//! reduced scale under `cargo bench`.
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Table 2 (datasets) | [`experiments::table2`] | `table2` |
//! | Fig 5a/5b (TED\*/TED/GED times & values) | [`experiments::fig5_6`] | `fig5` |
//! | Fig 6a/6b (relative error, equivalency) | [`experiments::fig5_6`] | `fig6` |
//! | Fig 7a/7b (TED\*/NED computation time) | [`experiments::fig7`] | `fig7` |
//! | Fig 8a/8b (parameter k effects) | [`experiments::fig8`] | `fig8` |
//! | Fig 9a/9b (method comparison, query time) | [`experiments::fig9`] | `fig9` |
//! | Fig 10a/10b (de-anonymization precision) | [`experiments::deanon`] | `fig10` |
//! | Fig 11a/11b (ratio / top-l sweeps) | [`experiments::deanon`] | `fig11` |
//! | Ablations (ARCHITECTURE.md, "Ablations") | [`experiments::ablation`] | `ablation` |
//!
//! [`frozen`] keeps the configurable Algorithm 1 engine that `ned-core`'s
//! kernel replaced, as the timing baseline and the matcher ablation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod experiments;
pub mod frozen;
pub mod loadgen;
pub mod util;
