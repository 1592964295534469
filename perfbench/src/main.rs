//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <service_sealed|afl_batch|online_stream>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the public entry points of `fl-flpd` and
//! `fl-auction` with inputs generated from `--seed`, checks the program's
//! outputs, and prints its figures. With `--trace 0` the last line carries
//! the end-to-end metrics, measured with tracing off; with `--trace 1` a
//! separate traced run times the calls into every layer — each on its own
//! workload's inputs — and the last line carries the per-layer metrics.
//! Any failed output check makes the run exit non-zero. See `README.md` in
//! this directory for the workloads, the metrics and the held-out seed.

mod batch;
mod gen;
mod online;
mod report;
mod service;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Figure, Report, END_TO_END, PER_LAYER};

/// Set-ups per run; their median is `setup_s`, with ten samples beyond
/// it.
pub const SETUPS: usize = 21;

/// Workloads the command accepts.
pub const WORKLOADS: [&str; 3] = ["service_sealed", "afl_batch", "online_stream"];

/// Parsed command line plus the run directory.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload to run.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory of this run (journals), removed at exit.
    pub dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <service_sealed|afl_batch|online_stream> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{USAGE}");
    let workload = workload.ok_or_else(|| missing("--workload"))?;
    let seed = seed.ok_or_else(|| missing("--seed"))?;
    Ok(Opts {
        dir: run_root().join(format!("{workload}-{}", std::process::id())),
        workload,
        seed,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

/// Where runs keep their journals and span dumps: `run/` beside this
/// package's manifest, on the same disk as the checkout.
fn run_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("run")
}

/// A fresh directory for one test (tests run in parallel).
#[cfg(test)]
pub fn scratch_dir(name: &str) -> PathBuf {
    let dir = run_root().join(format!("test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Peak resident memory of this process, MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Filesystem type of the mount holding `path` (journals must sit on a
/// real disk, not tmpfs).
pub fn fs_type(path: &Path) -> Option<String> {
    let path = std::fs::canonicalize(path).ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let dash = fields.iter().position(|&f| f == "-")?;
            let mount = fields.get(4)?;
            let fs = fields.get(dash + 1)?;
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

fn run(opts: &Opts) -> Result<Report, String> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let drives_service = opts.trace || opts.workload == "service_sealed";
    if drives_service && service::CONNECTIONS > cores {
        return Err(format!(
            "service_sealed drives {n} connections from {n} threads but only {cores} cores are available",
            n = service::CONNECTIONS
        ));
    }
    std::fs::create_dir_all(&opts.dir).map_err(|e| format!("{}: {e}", opts.dir.display()))?;
    let mut report = Report::default();
    report.note(format!("available parallelism: {cores}"));
    if !opts.trace {
        match opts.workload.as_str() {
            "service_sealed" => service::run(opts, &mut report)?,
            "afl_batch" => batch::run(opts, &mut report)?,
            _ => online::run(opts, &mut report)?,
        }
        return Ok(report);
    }
    // Every traced run measures every layer, each on its own workload's
    // inputs; the selected workload gets the longer untraced pass and
    // supplies the benchmark's own rows.
    for workload in WORKLOADS {
        let selected = workload == opts.workload;
        let budget_s = opts.seconds / if selected { 2.0 } else { 6.0 };
        let (tracer, rows) = match workload {
            "service_sealed" => service::run_traced(opts, budget_s, &mut report)?,
            "afl_batch" => batch::run_traced(opts, budget_s, &mut report)?,
            _ => online::run_traced(opts, budget_s, &mut report)?,
        };
        let path = run_root().join(format!("spans-{workload}.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        report.note(format!(
            "{workload}: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ));
        if selected {
            report.set(
                "trace.overhead_pct",
                Figure::new(rows.overhead_pct, rows.units),
            );
            report.set(
                "trace.unattributed_pct",
                Figure::new(rows.unattributed_pct, rows.units),
            );
        }
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = run(&opts);
    let _ = std::fs::remove_dir_all(&opts.dir);
    match result {
        Ok(report) => {
            let header = format!(
                "perfbench {} seed={} seconds={} trace={}",
                opts.workload,
                opts.seed,
                opts.seconds,
                u8::from(opts.trace)
            );
            let table = if opts.trace { PER_LAYER } else { END_TO_END };
            let missing = report.missing(table);
            if !missing.is_empty() {
                eprintln!("perfbench {}: not measured: {missing:?}", opts.workload);
                return ExitCode::FAILURE;
            }
            report.print(&header, table);
            if report.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!("{} output check(s) failed", report.violations.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", opts.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let o = parse(&args(
            "--workload afl_batch --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid command line");
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("afl_batch", 7, 10.0, true)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload afl_batch --seed x --seconds 1 --trace 0",
            "--workload afl_batch --seed 1 --seconds 0 --trace 0",
            "--workload afl_batch --seed 1 --seconds 1 --trace 2",
            "--workload afl_batch --seed 1 --seconds 1",
            "--workload afl_batch --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
    }
}
