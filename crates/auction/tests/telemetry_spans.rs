//! Integration tests for the `fl-telemetry` instrumentation of `A_FL`:
//! a full auction run must emit the documented phase-span tree
//! (`afl_run` > `sweep_precompute` + one `tg_candidate` per evaluated
//! horizon > qualify / wdp_greedy / payment / dual_certificate) with
//! deterministic counters under a fixed instance, and the same trace
//! whatever the sweep strategy.

use std::sync::Arc;

use fl_auction::{
    run_auction, sweep_horizons, AWinner, AuctionConfig, Bid, ClientProfile, Instance, Round,
    SweepStrategy, Window,
};
use fl_telemetry::{install_local, Recorder, Snapshot};

/// K = 1, T = 4, three full-window clients with θ = 0.5 (T_0 = 2), so the
/// sweep spans horizons 2, 3 and 4 and every horizon is feasible. The
/// strategy is pinned explicitly, so no test depends on the machine's core
/// count.
fn instance(strategy: SweepStrategy) -> Instance {
    let cfg = AuctionConfig::builder()
        .max_rounds(4)
        .clients_per_round(1)
        .round_time_limit(100.0)
        .sweep_strategy(strategy)
        .build()
        .unwrap();
    let mut inst = Instance::new(cfg);
    for price in [3.0, 5.0, 8.0] {
        let c = inst.add_client(ClientProfile::new(2.0, 5.0).unwrap());
        inst.add_bid(
            c,
            Bid::new(price, 0.5, Window::new(Round(1), Round(4)), 2).unwrap(),
        )
        .unwrap();
    }
    inst
}

fn recorded_run(inst: &Instance) -> Snapshot {
    let recorder = Arc::new(Recorder::default());
    let guard = install_local(recorder.clone());
    let outcome = run_auction(inst).unwrap();
    assert_eq!(outcome.social_cost(), 3.0, "the $3 client covers T_g = 2");
    drop(guard);
    recorder.snapshot()
}

/// The fully-evaluated candidate subtree (qualify + solve + pay + certify).
fn solved_candidate(tg: u32) -> String {
    format!(
        "  tg_candidate tg={tg}\n    qualify tg={tg}\n    wdp_greedy bids=3\n    \
         payment\n    dual_certificate\n"
    )
}

#[test]
fn afl_run_emits_the_documented_phase_span_tree() {
    // Horizon 2 has the smallest slot lower bound ($3), so it is visited
    // first and its cost ($3) becomes the incumbent. The next bound in
    // best-first order, horizon 3's $5.5, exceeds it, so horizons 3 and 4
    // ($8) are pruned without a span.
    let snap = recorded_run(&instance(SweepStrategy::Sequential));
    let expected = format!(
        "afl_run solver=A_winner bids=3\n  sweep_precompute bids=3\n{}",
        solved_candidate(2)
    );
    assert_eq!(snap.tree_string(), expected);
}

#[test]
fn parallel_strategies_emit_the_sequential_trace() {
    // The pruned sweep runs on the calling thread whatever the strategy,
    // so horizons 3 and 4 are pruned against horizon 2's incumbent and
    // the whole trace is the sequential one.
    let sequential = recorded_run(&instance(SweepStrategy::Sequential));
    for threads in [2, 3] {
        let parallel = recorded_run(&instance(SweepStrategy::Parallel { threads }));
        assert_eq!(
            parallel.tree_string(),
            sequential.tree_string(),
            "{threads}"
        );
        assert_eq!(parallel.counters, sequential.counters, "{threads}");
        assert_eq!(parallel.gauges, sequential.gauges, "{threads}");
        assert_eq!(parallel.messages, sequential.messages, "{threads}");
    }
}

#[test]
fn phase_counts_match_the_horizon_sweep() {
    let snap = recorded_run(&instance(SweepStrategy::Sequential));
    assert_eq!(snap.span_count("afl_run"), 1);
    assert_eq!(snap.span_count("sweep_precompute"), 1);
    // Only the un-pruned horizon 2 is a candidate, qualifies and solves;
    // the pruned horizons 3 and 4 are counted, not traced.
    assert_eq!(snap.span_count("tg_candidate"), 1, "horizon 2");
    assert_eq!(snap.span_count("qualify"), 1);
    assert_eq!(snap.span_count("wdp_greedy"), 1);
    assert_eq!(snap.span_count("payment"), 1);
    assert_eq!(snap.span_count("dual_certificate"), 1);
    assert_eq!(snap.counters["qualify.examined"], 3);
    assert_eq!(snap.counters["qualify.accepted"], 3);
    assert_eq!(snap.counters["afl.horizons_swept"], 3);
    assert_eq!(snap.counters["afl.horizons_feasible"], 1);
    assert_eq!(snap.counters["afl.horizons_pruned"], 2);
    // One winner at T̂_g = 2 (the only solved horizon).
    assert_eq!(snap.counters["winner.greedy_iterations"], 1);
    assert_eq!(snap.gauges["afl.social_cost"], 3.0);
    assert_eq!(snap.gauges["afl.horizon"], 2.0);
}

#[test]
fn recorder_output_is_deterministic_across_identical_runs() {
    for strategy in [
        SweepStrategy::Sequential,
        SweepStrategy::Parallel { threads: 2 },
        SweepStrategy::Parallel { threads: 3 },
    ] {
        let inst = instance(strategy);
        let a = recorded_run(&inst);
        let b = recorded_run(&inst);
        // Everything except wall-clock timing must reproduce exactly.
        assert_eq!(a.tree_string(), b.tree_string(), "{strategy:?}");
        assert_eq!(a.counters, b.counters, "{strategy:?}");
        assert_eq!(a.gauges, b.gauges, "{strategy:?}");
        assert_eq!(a.histograms, b.histograms, "{strategy:?}");
        assert_eq!(a.messages, b.messages, "{strategy:?}");
    }
}

#[test]
fn span_timing_is_monotone_down_the_tree() {
    // Pinned sequential: replayed parallel spans keep their workers' own
    // wall-clock durations, which legitimately overlap across siblings.
    let snap = recorded_run(&instance(SweepStrategy::Sequential));
    fn check(node: &fl_telemetry::SpanNode) {
        let child_sum: std::time::Duration = node.children.iter().map(|c| c.elapsed).sum();
        assert!(
            node.elapsed >= child_sum,
            "span {} ({:?}) shorter than its children ({child_sum:?})",
            node.name,
            node.elapsed
        );
        for c in &node.children {
            check(c);
        }
    }
    for root in &snap.roots {
        check(root);
    }
}

#[test]
fn standby_pool_construction_traces_its_own_phase() {
    let inst = instance(SweepStrategy::Sequential);
    let recorder = Arc::new(Recorder::default());
    let guard = install_local(recorder.clone());
    let outcome = run_auction(&inst).unwrap();
    let pool = outcome.standby_pool(&inst);
    drop(guard);
    assert!(!pool.is_empty());
    let snap = recorder.snapshot();
    let standby = snap.find("standby_pool").expect("standby_pool span");
    assert_eq!(standby.fields, vec![("tg".into(), "2".into())]);
    assert_eq!(standby.children[0].name, "qualify");
    // Two losing clients back each of the 2 rounds of the chosen horizon.
    assert_eq!(snap.counters["standby.entries"], 4);
    assert_eq!(snap.histograms["standby.round_depth"].max, 2.0);
}

#[test]
fn instrumentation_is_inert_without_a_sink() {
    // No sink installed: the run must behave identically and telemetry
    // must stay disabled throughout — including inside the unpruned
    // sweep's parallel workers.
    assert!(!fl_telemetry::enabled());
    let inst = instance(SweepStrategy::Parallel { threads: 3 });
    let outcome = run_auction(&inst).unwrap();
    assert_eq!(outcome.social_cost(), 3.0);
    let sweep = sweep_horizons(&inst, &AWinner::new()).unwrap();
    assert_eq!(sweep.len(), 3, "horizons 2, 3, 4");
    assert!(sweep.iter().all(|h| h.result.is_ok()));
    assert!(!fl_telemetry::enabled());
}
