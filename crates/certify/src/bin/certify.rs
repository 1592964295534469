//! The `certify` CLI: fuzz, replay, and minimise mechanism counterexamples.
//!
//! ```text
//! certify run [--seeds N] [--start S] [--smoke]   # fuzz N seeded instances
//! certify replay [FILE|DIR]                       # re-check corpus entries
//! certify minimise FILE [--property CODE]         # shrink a failing line
//! ```
//!
//! Exit codes: `0` clean, `1` violations found, `2` usage or I/O error.
//! `run` prints one JSON line per *minimised* violation so a failing CI
//! log is directly committable into `crates/certify/corpus/`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fl_certify::props::prop;
use fl_certify::{check, corpus_dir, from_json, generate, load_dir, minimise, to_json, Stats};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("run") => run(&args[1..]),
        Some("replay") => replay(&args[1..]),
        Some("minimise") | Some("minimize") => minimise_cmd(&args[1..]),
        _ => {
            eprintln!(
                "usage: certify run [--seeds N] [--start S] [--smoke]\n       \
                 certify replay [FILE|DIR]\n       \
                 certify minimise FILE [--property CODE]"
            );
            ExitCode::from(2)
        }
    }
}

/// `certify run`: fuzz seeded instances; `--smoke` adds the corpus replay
/// (the CI configuration).
fn run(args: &[String]) -> ExitCode {
    let mut seeds: u64 = 200;
    let mut start: u64 = 0;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => seeds = n,
                None => return usage("--seeds needs an integer"),
            },
            "--start" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => start = n,
                None => return usage("--start needs an integer"),
            },
            "--smoke" => smoke = true,
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }
    if smoke {
        seeds = 50;
        start = 0;
    }

    let mut totals = Stats::default();
    let mut failures = 0u64;
    for seed in start..start + seeds {
        let ci = generate(seed);
        let report = check(&ci);
        totals.absorb(&report.stats);
        if !report.ok() {
            failures += 1;
            eprintln!(
                "seed {seed} ({}): {} violation(s)",
                ci.shape,
                report.violations.len()
            );
            for v in &report.violations {
                eprintln!("  {v}");
            }
            // Minimise against the first violation's property and print a
            // committable corpus line.
            let shrunk = minimise(&ci, report.violations[0].property);
            println!("{}", to_json(&shrunk));
        }
    }
    println!(
        "certify run: {} seed(s) from {start}, {} failing; horizons={} proven={} bounded={} \
         greedy_stalls={} probes={} stalled_probes={} online_streams={} online_probes={}",
        seeds,
        failures,
        totals.horizons,
        totals.exact_proven,
        totals.exact_bounded,
        totals.greedy_stalls,
        totals.probes,
        totals.stalled_probes,
        totals.online_streams,
        totals.online_probes
    );

    let replay_code = if smoke {
        replay(&[])
    } else {
        ExitCode::SUCCESS
    };
    if failures > 0 {
        ExitCode::from(1)
    } else {
        replay_code
    }
}

/// `certify replay [FILE|DIR]`: re-check corpus entries (default: the
/// committed corpus directory).
fn replay(args: &[String]) -> ExitCode {
    let target: PathBuf = match args {
        [] => corpus_dir(),
        [p] => PathBuf::from(p),
        _ => return usage("replay takes at most one path"),
    };
    let entries = if target.is_dir() {
        match load_dir(&target) {
            Ok(e) => e,
            Err(e) => return usage(&e),
        }
    } else {
        match read_instance(&target) {
            Ok(ci) => vec![(target.display().to_string(), ci)],
            Err(e) => return usage(&e),
        }
    };
    if entries.is_empty() {
        return usage(&format!("no corpus entries under {}", target.display()));
    }
    let mut failures = 0;
    for (name, ci) in &entries {
        let report = check(ci);
        if report.ok() {
            println!("PASS {name}: {}", note_or(ci, "no note"));
        } else {
            failures += 1;
            println!("FAIL {name}: {} violation(s)", report.violations.len());
            for v in &report.violations {
                println!("  {v}");
            }
        }
    }
    println!(
        "certify replay: {}/{} clean",
        entries.len() - failures,
        entries.len()
    );
    if failures > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `certify minimise FILE [--property CODE]`: shrink a failing corpus line
/// while preserving one property code (default: its first violation).
fn minimise_cmd(args: &[String]) -> ExitCode {
    let mut file: Option<&str> = None;
    let mut property: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--property" => match it.next() {
                Some(p) => property = Some(p.clone()),
                None => return usage("--property needs a code"),
            },
            other if file.is_none() => file = Some(other),
            other => return usage(&format!("unexpected argument {other:?}")),
        }
    }
    let Some(file) = file else {
        return usage("minimise needs a corpus file");
    };
    let ci = match read_instance(Path::new(file)) {
        Ok(ci) => ci,
        Err(e) => return usage(&e),
    };
    let report = check(&ci);
    let target = match property {
        Some(p) => match known_property(&p) {
            Some(code) => code,
            None => return usage(&format!("unknown property code {p:?}")),
        },
        None => match report.violations.first() {
            Some(v) => v.property,
            None => {
                println!("instance is clean; nothing to minimise");
                return ExitCode::SUCCESS;
            }
        },
    };
    let shrunk = minimise(&ci, target);
    println!("{}", to_json(&shrunk));
    ExitCode::SUCCESS
}

/// Resolves a user-supplied property code to its static string.
fn known_property(name: &str) -> Option<&'static str> {
    [
        prop::INVALID,
        prop::WDP,
        prop::OUTCOME,
        prop::IR,
        prop::CERT,
        prop::DUAL,
        prop::EXACT_DIVERGENCE,
        prop::GREEDY_BELOW_OPT,
        prop::RATIO_BOUND,
        prop::DUAL_ABOVE_OPT,
        prop::FEASIBILITY_FLIP,
        prop::OUTER_PICK,
        prop::PAYMENT_IDENTITY,
        prop::MYERSON_MISSING,
        prop::MYERSON_IR,
        prop::ABOVE_THRESHOLD_WINS,
        prop::BELOW_THRESHOLD_LOSES,
        prop::THRESHOLD_DEPENDS_ON_BID,
        prop::LOSER_MONOTONICITY,
        prop::ONLINE_BUDGET,
        prop::ONLINE_IR,
        prop::ONLINE_POSTED_TRUTHFUL,
        prop::ONLINE_INCREMENTAL_BATCH,
        prop::FEASIBILITY_ORACLE,
        prop::OMEGA_ORACLE,
        prop::QUALIFY_ORACLE,
    ]
    .into_iter()
    .find(|&code| code == name)
}

fn read_instance(path: &Path) -> Result<fl_certify::CertInstance, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    from_json(text.trim()).map_err(|e| format!("{}: {e}", path.display()))
}

fn note_or<'a>(ci: &'a fl_certify::CertInstance, fallback: &'a str) -> &'a str {
    if ci.note.is_empty() {
        fallback
    } else {
        &ci.note
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("certify: {msg}");
    ExitCode::from(2)
}
