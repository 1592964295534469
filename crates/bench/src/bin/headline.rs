//! The headline claims: "`A_FL` … reduces the social cost by 10%, 40%,
//! 75%, compared with Greedy, `A_online` and FCFS", and "produces a
//! close-to-optimal social cost with a small ratio (< 1.3)".
//!
//! Runs the default workload over several seeds, reports each benchmark's
//! mean cost, the cost reduction `1 − cost(A_FL)/cost(benchmark)`, and the
//! per-run approximation certificates (`H_{T̂_g}·ω` and the tighter `P/D`).

use fl_auction::SweepPrecomp;
use fl_bench::{results_dir, Algo, Summary, Table};
use fl_workload::WorkloadSpec;

/// One row per algorithm: its mean cost and `A_FL`'s reduction against it,
/// or `n/a` when every run of the algorithm was excluded (`A_online` runs
/// that used the offline completion pass).
fn cost_table(costs: &[(Algo, Vec<f64>)]) -> Table {
    let afl_mean = Summary::of(&costs[0].1).mean;
    let mut table = Table::new(["algorithm", "mean cost", "reduction by A_FL"]);
    for (algo, list) in costs {
        if list.is_empty() {
            table.push_row([algo.name().to_string(), "n/a".into(), "n/a".into()]);
            continue;
        }
        let mean = Summary::of(list).mean;
        let reduction = if *algo == Algo::Afl {
            "—".to_string()
        } else {
            format!("{:.0}%", 100.0 * (1.0 - afl_mean / mean))
        };
        table.push_row([algo.name().to_string(), format!("{mean:.1}"), reduction]);
    }
    table
}

fn main() {
    let _telemetry = fl_bench::telemetry::init("headline");
    let full = std::env::args().any(|a| a == "--full");
    let seeds: Vec<u64> = if full {
        (1..=10).collect()
    } else {
        (1..=5).collect()
    };
    let spec = WorkloadSpec::paper_default();

    let mut costs: Vec<(Algo, Vec<f64>)> = Algo::ALL.iter().map(|&a| (a, Vec::new())).collect();
    let mut cert_bounds = Vec::new();
    let mut cert_empirical = Vec::new();
    // Runs where A_online fell back to its offline completion pass are a
    // different (partially offline) mechanism: they are excluded from the
    // ratio aggregates and reported separately.
    let mut online_degraded = 0usize;
    for &seed in &seeds {
        let inst = spec.generate(seed).expect("paper spec is valid");
        for (algo, list) in costs.iter_mut() {
            if let Ok(out) = algo.run(&inst) {
                if *algo == Algo::Online && out.solution().is_degraded() {
                    online_degraded += 1;
                    continue;
                }
                list.push(out.social_cost());
                if *algo == Algo::Afl {
                    if let Some(cert) = out.solution().certificate() {
                        if cert.ratio_bound().is_finite() {
                            cert_bounds.push(cert.ratio_bound());
                        }
                        let emp = cert.empirical_bound(out.social_cost());
                        if emp.is_finite() {
                            cert_empirical.push(emp);
                        }
                    }
                }
            }
        }
    }

    let table = cost_table(&costs);
    println!("Headline claims ({} seeds, paper defaults):", seeds.len());
    print!("{}", table.render());
    if online_degraded > 0 {
        println!(
            "note: {online_degraded} A_online run(s) used the offline \
             completion pass and were excluded from the ratio aggregate"
        );
    }
    if !cert_empirical.is_empty() {
        println!(
            "A_FL certificate: H*omega bound mean {}, empirical P/D mean {}",
            if cert_bounds.is_empty() {
                "∞ (ψ_min degenerate)".to_string()
            } else {
                format!("{:.3}", Summary::of(&cert_bounds).mean)
            },
            Summary::of(&cert_empirical).mean
        );
    }
    match table.write_csv(results_dir(), "headline") {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }

    // Same comparison at a FIXED horizon (T̂_g = 26, the paper's reported
    // optimum). The paper's 10%/40%/75% reductions match this regime far
    // better than the per-algorithm horizon enumeration above — evidence
    // the original evaluation compared algorithms at a common T̂_g.
    let fixed_tg = 26u32;
    let mut fixed_costs: Vec<(Algo, Vec<f64>)> =
        Algo::ALL.iter().map(|&a| (a, Vec::new())).collect();
    let mut fixed_degraded = 0usize;
    for &seed in &seeds {
        let inst = spec.generate(seed).expect("paper spec is valid");
        let wdp = SweepPrecomp::new(&inst).qualify_at(fixed_tg);
        for (algo, list) in fixed_costs.iter_mut() {
            if let Ok(sol) = algo.solve_wdp(&wdp) {
                if *algo == Algo::Online && sol.is_degraded() {
                    fixed_degraded += 1;
                    continue;
                }
                list.push(sol.cost());
            }
        }
    }
    let fixed_table = cost_table(&fixed_costs);
    println!("\nSame claims at fixed T_g = {fixed_tg}:");
    print!("{}", fixed_table.render());
    if fixed_degraded > 0 {
        println!(
            "note: {fixed_degraded} A_online run(s) used the offline \
             completion pass and were excluded from the ratio aggregate"
        );
    }
    match fixed_table.write_csv(results_dir(), "headline_fixed_tg") {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}
