//! Ablation A3 — qualified-set construction: intent vs the literal
//! Alg. 1 line 6.
//!
//! The paper's line 6 reads `a_ij + c_ij ≤ T̂_g`, which is both off by one
//! and blind to `d_ij`; our default implements the evident intent (the
//! truncated window must hold `c_ij` rounds). This ablation runs both and
//! reports qualified-bid counts and final costs.

use fl_auction::{AuctionConfig, QualifyMode, SweepPrecomp};
use fl_bench::{results_dir, Algo, Summary, Table};
use fl_workload::WorkloadSpec;

fn main() {
    let _telemetry = fl_bench::telemetry::init("ablation_qualify");
    let seeds: Vec<u64> = (1..=5).collect();
    let mut table = Table::new(["mode", "qualified@T=10", "qualified@T=50", "mean cost"]);
    println!("Ablation A3: qualification reading ({} seeds)", seeds.len());
    for (name, mode) in [
        ("intent (default)", QualifyMode::Intent),
        ("literal", QualifyMode::Literal),
    ] {
        let cfg = AuctionConfig::builder()
            .qualify_mode(mode)
            .build()
            .expect("valid");
        let spec = WorkloadSpec::paper_default().with_config(cfg);
        let mut q10 = Vec::new();
        let mut q50 = Vec::new();
        let mut costs = Vec::new();
        for &seed in &seeds {
            let inst = spec.generate(seed).expect("paper spec is valid");
            let precomp = SweepPrecomp::new(&inst);
            q10.push(precomp.qualify_at(10).bids().len() as f64);
            q50.push(precomp.qualify_at(50).bids().len() as f64);
            if let Ok(out) = Algo::Afl.run(&inst) {
                costs.push(out.social_cost());
            }
        }
        table.push_row([
            name.to_string(),
            format!("{:.0}", Summary::of(&q10).mean),
            format!("{:.0}", Summary::of(&q50).mean),
            if costs.is_empty() {
                "infeasible".into()
            } else {
                format!("{:.1}", Summary::of(&costs).mean)
            },
        ]);
    }
    print!("{}", table.render());
    match table.write_csv(results_dir(), "ablation_qualify") {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}
