//! Every solver against every pathological instance.
//!
//! The stress constructors (`fl_workload::stress`) build the corners where
//! mechanisms misbehave — monopolists, price cliffs, clone armies, and
//! feasibility knife-edges. This suite runs the full solver zoo (`A_FL`,
//! the three baselines, branch-and-bound, refinement) over all of them and
//! checks the universal contracts: outputs verify against ILP (6), costs
//! order sanely (`OPT ≤ refined ≤ greedy`), and determinism holds.

use fl_procurement::auction::{
    run_auction_with, verify, AWinner, Instance, SweepPrecomp, WdpSolver,
};
use fl_procurement::baselines::{FcfsBaseline, GreedyBaseline, OnlineBaseline};
use fl_procurement::exact::{ExactSolver, RefineSolver};
use fl_procurement::workload::stress;

fn corpus() -> Vec<(&'static str, Instance)> {
    vec![
        ("monopolist", stress::monopolist_round(6, 5).unwrap()),
        (
            "price_cliff",
            stress::price_cliff(5, 4, 3, 2.0, 200.0).unwrap(),
        ),
        ("clones", stress::clones(8, 3, 2).unwrap()),
        ("staircase", stress::staircase(5, 2).unwrap()),
    ]
}

#[test]
fn every_solver_is_feasible_on_every_stress_instance() {
    for (name, inst) in corpus() {
        let solvers: Vec<(&str, Box<dyn WdpSolver + Sync>)> = vec![
            ("A_winner", Box::new(AWinner::new())),
            ("Greedy", Box::new(GreedyBaseline::new())),
            ("A_online", Box::new(OnlineBaseline::new())),
            ("FCFS", Box::new(FcfsBaseline::new())),
            ("OPT", Box::new(ExactSolver::new())),
            ("refine", Box::new(RefineSolver::new())),
        ];
        for (solver_name, solver) in solvers {
            match run_auction_with(&inst, &solver.as_ref()) {
                Ok(outcome) => {
                    let bad = verify::outcome_violations(&inst, &outcome);
                    assert!(bad.is_empty(), "[{name}/{solver_name}] {bad:?}");
                }
                Err(e) => {
                    // If one solver finds the instance feasible, the exact
                    // solver must as well; spot-check that claim here.
                    if solver_name == "OPT" {
                        let greedy_ok = run_auction_with(&inst, &AWinner::new()).is_ok();
                        assert!(!greedy_ok, "[{name}] OPT failed ({e}) but greedy succeeded");
                    }
                }
            }
        }
    }
}

#[test]
fn cost_ordering_opt_refine_greedy_holds_on_stress_corners() {
    for (name, inst) in corpus() {
        let greedy = run_auction_with(&inst, &AWinner::new());
        let refined = run_auction_with(&inst, &RefineSolver::new());
        let opt = run_auction_with(&inst, &ExactSolver::new());
        if let (Ok(g), Ok(r), Ok(o)) = (greedy, refined, opt) {
            assert!(
                o.social_cost() <= r.social_cost() + 1e-9,
                "[{name}] OPT {} above refined {}",
                o.social_cost(),
                r.social_cost()
            );
            assert!(
                r.social_cost() <= g.social_cost() + 1e-9,
                "[{name}] refined {} above greedy {}",
                r.social_cost(),
                g.social_cost()
            );
        }
    }
}

#[test]
fn all_solvers_are_deterministic_on_clone_armies() {
    let inst = stress::clones(10, 4, 3).unwrap();
    let solvers: Vec<Box<dyn WdpSolver + Sync>> = vec![
        Box::new(AWinner::new()),
        Box::new(GreedyBaseline::new()),
        Box::new(OnlineBaseline::new()),
        Box::new(FcfsBaseline::new()),
        Box::new(ExactSolver::new()),
    ];
    for solver in solvers {
        let a = run_auction_with(&inst, &solver.as_ref());
        let b = run_auction_with(&inst, &solver.as_ref());
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "{} tie-breaking is unstable", solver.name()),
            (Err(x), Err(y)) => assert_eq!(x, y),
            other => panic!("{}: nondeterministic feasibility {other:?}", solver.name()),
        }
    }
}

#[test]
fn monopolist_payments_across_rules() {
    use fl_procurement::auction::truthful::myerson_payment;
    use fl_procurement::exact::vcg;

    let inst = stress::monopolist_round(6, 5).unwrap();
    let wdp = SweepPrecomp::new(&inst).qualify_at(5);
    let sol = AWinner::new()
        .solve_wdp(&wdp)
        .expect("feasible at full horizon");
    let monopolist = sol
        .winners()
        .iter()
        .find(|w| w.schedule.iter().any(|t| t.0 == 5))
        .expect("someone must staff round 5");
    // Paper rule: no competitor in its iteration ⇒ paid its bid.
    assert_eq!(monopolist.payment, monopolist.price);
    // Myerson: threshold is unbounded ⇒ capped.
    let cap = 1_000.0;
    let threshold = myerson_payment(&wdp, monopolist.bid_ref, cap, 1e-6).unwrap();
    assert_eq!(threshold, cap);
    // VCG: removal is infeasible ⇒ capped externality.
    let out = vcg(&wdp, &ExactSolver::new(), cap).unwrap();
    let vcg_pay = out
        .solution
        .winners()
        .iter()
        .find(|w| w.bid_ref == monopolist.bid_ref)
        .unwrap()
        .payment;
    assert!(
        vcg_pay >= cap,
        "VCG must price the monopoly externality at the cap"
    );
}
