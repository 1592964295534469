//! Experiment harness regenerating the paper's evaluation (§VII).
//!
//! One binary per figure — see `DESIGN.md` for the experiment index:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `fig3` | Fig. 3 — `A_winner` performance ratio vs `T̂_g` and `J` |
//! | `fig4` | Fig. 4 — `A_FL` vs benchmarks performance ratio vs `I`, `J` |
//! | `fig5` | Fig. 5 — social cost vs number of clients `I` |
//! | `fig6` | Fig. 6 — social cost vs bids per client `J` |
//! | `fig7` | Fig. 7 — social cost vs fixed `T̂_g` |
//! | `fig8` | Fig. 8 — running time vs `I` |
//! | `fig9` | Fig. 9 — payment vs claimed cost (individual rationality) |
//! | `headline` | the abstract's 10% / 40% / 75% cost-reduction claims |
//! | `ablation_*` | design-choice ablations (see DESIGN.md) |
//!
//! Each binary prints its table and writes `results/<name>.csv`.
//!
//! Performance is tracked by one orchestrator, `bench_suite` (the
//! benchmark observatory): it runs the curated scenario set in
//! [`suite`], emits one versioned [`schema::BenchRecord`] per scenario
//! into `results/BENCH_history.jsonl`, summarizes the latest records into
//! the repo-root `BENCH_main.json`, diffs runs with the noise-aware gate
//! in [`compare`], and renders the [`trajectory`] dashboard
//! `results/REPORT_perf.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod output;
pub mod overhead;
pub mod runner;
pub mod schema;
pub mod stats;
pub mod suite;
pub mod telemetry;
pub mod trajectory;

pub use output::{results_dir, Table};
pub use runner::{gen_prequalified_wdp, par_map, timed, wdp_at, Algo};
pub use schema::{BenchRecord, SCHEMA_VERSION};
pub use stats::Summary;
