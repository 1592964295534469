//! Fig. 7 — social cost at different *fixed* numbers of global iterations
//! `T̂_g ∈ [T_0, T]`.
//!
//! The paper shows every algorithm except FCFS dipping to a minimum
//! (reported at `T̂_g = 26`) before communication cost dominates. That dip
//! requires claimed costs correlated with per-round computation /
//! communication time (see `fl_workload::CostModel`), so this binary runs
//! the sweep under **both** cost models:
//!
//! * `uniform` — the literal §VII-A `b ~ U[10, 50]`;
//! * `timeprop` — the energy-proportional reconstruction.
//!
//! Both exhibit the dip-then-rise shape; the uniform model's minimum sits
//! at a smaller `T̂_g` than the paper's 26 (see EXPERIMENTS.md).

use fl_auction::{min_horizon, SweepPrecomp, Wdp};
use fl_bench::{results_dir, Algo, Summary, Table};
use fl_workload::{CostModel, WorkloadSpec};

fn run_model(name: &str, spec: &WorkloadSpec, seeds: &[u64], step: u32) -> Table {
    let mut table = Table::new(
        std::iter::once("T_g".to_string()).chain(Algo::ALL.iter().map(|a| a.name().to_string())),
    );
    let instances: Vec<_> = seeds
        .iter()
        .map(|&seed| spec.generate(seed).expect("spec is valid"))
        .collect();
    // T_0 depends on θ_min of the realised instance; compute from the first
    // seed's instance (θ range is identical across seeds).
    let t0 = min_horizon(&instances[0]).expect("instance has bids");
    let precomps: Vec<SweepPrecomp> = instances.iter().map(SweepPrecomp::new).collect();
    let t_max = spec.config.max_rounds();
    let mut best = (0u32, f64::INFINITY);
    for horizon in (t0..=t_max).step_by(step as usize) {
        let wdps: Vec<Wdp> = precomps.iter().map(|p| p.qualify_at(horizon)).collect();
        let mut row = vec![horizon.to_string()];
        for algo in Algo::ALL {
            let costs: Vec<f64> = wdps
                .iter()
                .filter_map(|wdp| algo.solve_wdp(wdp).ok())
                .map(|sol| sol.cost())
                .collect();
            if costs.is_empty() {
                row.push("n/a".into());
            } else {
                let mean = Summary::of(&costs).mean;
                if algo == Algo::Afl && mean < best.1 {
                    best = (horizon, mean);
                }
                row.push(format!("{mean:.1}"));
            }
        }
        table.push_row(row);
    }
    println!(
        "[{name}] A_FL minimum at T_g = {} (cost {:.1})",
        best.0, best.1
    );
    table
}

fn main() {
    let _telemetry = fl_bench::telemetry::init("fig7");
    let full = std::env::args().any(|a| a == "--full");
    let seeds: Vec<u64> = if full { vec![1, 2, 3] } else { vec![1] };
    let step = if full { 1 } else { 3 };

    println!("Fig. 7: social cost at fixed T_g (I=1000, J=5)");
    for (name, model) in [
        ("uniform", CostModel::UniformTotal),
        ("timeprop", CostModel::TimeProportional { unit: (0.5, 2.5) }),
    ] {
        let spec = WorkloadSpec::paper_default().with_cost_model(model);
        let table = run_model(name, &spec, &seeds, step);
        print!("{}", table.render());
        match table.write_csv(results_dir(), &format!("fig7_{name}")) {
            Ok(p) => println!("wrote {}\n", p.display()),
            Err(e) => eprintln!("could not write CSV: {e}"),
        }
    }
}
