//! Ablation A2 — the value of enumerating `T̂_g`.
//!
//! §II criticises prior work for fixing the number of global iterations
//! upfront. This ablation quantifies that: `A_FL`'s full enumeration
//! versus solving only at `T̂_g = T` (the announced maximum) and only at
//! `T̂_g = T_0` (the smallest admissible horizon).

use fl_auction::{min_horizon, AWinner, SweepPrecomp, WdpSolver};
use fl_bench::{results_dir, Algo, Summary, Table};
use fl_workload::{CostModel, WorkloadSpec};

fn main() {
    let _telemetry = fl_bench::telemetry::init("ablation_enumeration");
    let seeds: Vec<u64> = (1..=5).collect();
    // The time-proportional cost model makes the horizon choice
    // interesting (the optimum sits strictly inside [T_0, T]).
    let spec = WorkloadSpec::paper_default()
        .with_cost_model(CostModel::TimeProportional { unit: (0.5, 2.5) });

    let mut enumerated = Vec::new();
    let mut at_t0 = Vec::new();
    let mut at_t_max = Vec::new();
    for &seed in &seeds {
        let inst = spec.generate(seed).expect("paper spec is valid");
        if let Ok(out) = Algo::Afl.run(&inst) {
            enumerated.push(out.social_cost());
        }
        let t0 = min_horizon(&inst).expect("instance has bids");
        let precomp = SweepPrecomp::new(&inst);
        let solver = AWinner::new().without_certificate();
        if let Ok(sol) = solver.solve_wdp(&precomp.qualify_at(t0)) {
            at_t0.push(sol.cost());
        }
        if let Ok(sol) = solver.solve_wdp(&precomp.qualify_at(inst.config().max_rounds())) {
            at_t_max.push(sol.cost());
        }
    }

    let mut table = Table::new(["strategy", "mean cost"]);
    for (name, list) in [
        ("enumerate T_g (A_FL)", &enumerated),
        ("fixed T_g = T_0", &at_t0),
        ("fixed T_g = T", &at_t_max),
    ] {
        table.push_row([
            name.to_string(),
            if list.is_empty() {
                "infeasible".into()
            } else {
                format!("{:.1}", Summary::of(list).mean)
            },
        ]);
    }
    println!(
        "Ablation A2: horizon enumeration vs fixed horizon ({} seeds)",
        seeds.len()
    );
    print!("{}", table.render());
    match table.write_csv(results_dir(), "ablation_enumeration") {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}
