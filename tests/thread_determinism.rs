//! Thread-count determinism of the level-parallel inner loop
//! (`ncgws_core::par`).
//!
//! The level grid fixes block boundaries by the data, not the thread count,
//! and merges every cross-block reduction in fixed block order — so a
//! sizing run must produce **bitwise identical** outcomes for
//! `threads ∈ {1, 2, 8}` and for `ParallelPolicy::Sequential`, which is the
//! same grid on one worker (for the exact solve strategy the
//! `property_eval_engine` suite pins that to `ncgws_core::reference`).
//! These properties hold with and without the `parallel` cargo feature: the
//! feature only decides whether OS threads execute the grid, never what the
//! grid computes.

use ncgws::core::{Flow, OptimizerConfig, ParallelPolicy, SizedOutcome, SolveStrategy};
use ncgws::netlist::{CircuitSpec, ProblemInstance, SyntheticGenerator};
use proptest::prelude::*;

fn instance(seed: u64, gates: usize) -> ProblemInstance {
    instance_with_channels(seed, gates, 5)
}

/// A random instance with `channel` wires per routing channel.
fn instance_with_channels(seed: u64, gates: usize, channel: usize) -> ProblemInstance {
    SyntheticGenerator::new(
        CircuitSpec::new(format!("par-{seed}"), gates, gates * 2 + channel)
            .with_seed(seed)
            .with_num_patterns(8)
            .with_channel_size(channel),
    )
    .generate()
    .expect("generation succeeds")
}

/// One full two-stage run (random channels, extra per-net and driven-load
/// families so `extra_multipliers` and `constraint_slacks` are non-trivial).
fn run(inst: &ProblemInstance, strategy: SolveStrategy, parallel: ParallelPolicy) -> SizedOutcome {
    let config = OptimizerConfig::builder()
        .max_iterations(40)
        .solve_strategy(strategy)
        .parallel(parallel)
        .per_net_crosstalk_cap(0.95)
        .driven_load_cap(1.5)
        .build()
        .expect("valid configuration");
    Flow::prepare(inst, config)
        .expect("prepare")
        .order()
        .expect("order")
        .size()
        .expect("size")
}

/// Asserts two outcomes are bitwise identical in every surface the issue
/// pins: sizes, extra-family multipliers, per-family slacks, metrics, gap.
fn assert_bitwise_identical(a: &SizedOutcome, b: &SizedOutcome, what: &str) {
    assert_eq!(a.sizes(), b.sizes(), "{what}: sizes");
    assert_eq!(
        a.ogws.extra_multipliers, b.ogws.extra_multipliers,
        "{what}: extra_multipliers"
    );
    assert_eq!(
        a.report.constraint_slacks, b.report.constraint_slacks,
        "{what}: constraint_slacks"
    );
    assert_eq!(
        a.report.final_metrics, b.report.final_metrics,
        "{what}: final_metrics"
    );
    assert_eq!(a.report.duality_gap, b.report.duality_gap, "{what}: gap");
    assert_eq!(a.report.feasible, b.report.feasible, "{what}: feasible");
    assert_eq!(
        a.report.iterations, b.report.iterations,
        "{what}: iteration count"
    );
    assert_eq!(a.ogws.beta, b.ogws.beta, "{what}: beta");
    assert_eq!(a.ogws.gamma, b.ogws.gamma, "{what}: gamma");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Adaptive schedule under the level grid: `threads` ∈ {1, 2, 8} agree
    /// bitwise on every outcome surface.
    #[test]
    fn adaptive_outcomes_are_bitwise_identical_across_thread_counts(
        seed in 0u64..300,
        gates in 12usize..30,
    ) {
        let inst = instance(seed, gates);
        let one = run(&inst, SolveStrategy::adaptive(), ParallelPolicy::threads(1));
        for threads in [2usize, 8] {
            let many = run(&inst, SolveStrategy::adaptive(), ParallelPolicy::threads(threads));
            assert_bitwise_identical(&one, &many, &format!("adaptive threads={threads}"));
        }
    }

    /// Exact schedule: the level grid at any thread count equals the
    /// sequential policy bitwise — which `property_eval_engine` pins to
    /// `ncgws_core::reference`, so the exact path stays reference-pinned
    /// under parallelism by transitivity.
    #[test]
    fn exact_level_policy_stays_pinned_to_the_sequential_path(
        seed in 0u64..300,
        gates in 12usize..26,
    ) {
        let inst = instance(seed, gates);
        let sequential = run(&inst, SolveStrategy::Exact, ParallelPolicy::Sequential);
        for threads in [1usize, 2, 8] {
            let level = run(&inst, SolveStrategy::Exact, ParallelPolicy::threads(threads));
            assert_bitwise_identical(&sequential, &level, &format!("exact threads={threads}"));
        }
    }

    /// Exact schedule on narrower channels and larger circuits: the
    /// single-thread level grid (`threads(1)`) is still bitwise the
    /// sequential policy, with the per-net crosstalk and driven-load
    /// families on.
    #[test]
    fn exact_single_thread_grid_is_bitwise_the_sequential_path(
        seed in 0u64..200,
        gates in 16usize..36,
    ) {
        let inst = instance_with_channels(seed, gates, 4);
        let sequential = run(&inst, SolveStrategy::Exact, ParallelPolicy::Sequential);
        let level = run(&inst, SolveStrategy::Exact, ParallelPolicy::threads(1));
        assert_bitwise_identical(&sequential, &level, "exact threads=1");
    }

    /// Adaptive schedule: the sequential policy is the single-thread level
    /// grid, bitwise. The active set freezes calm components mid-run, so
    /// this also covers frozen/unfrozen mixes in the fused passes.
    #[test]
    fn adaptive_level_policy_stays_within_epsilon_of_the_sequential_path(
        seed in 0u64..200,
        gates in 16usize..44,
    ) {
        let inst = instance_with_channels(seed, gates, 4);
        let sequential = run(&inst, SolveStrategy::adaptive(), ParallelPolicy::Sequential);
        let level = run(&inst, SolveStrategy::adaptive(), ParallelPolicy::threads(1));
        assert_bitwise_identical(&sequential, &level, "adaptive sequential vs threads=1");
    }
}

/// A non-property smoke check that the auto thread count (`threads = 0`)
/// resolves and agrees with an explicit count.
#[test]
fn auto_thread_count_matches_explicit_counts() {
    let inst = instance(7, 20);
    let auto = run(&inst, SolveStrategy::adaptive(), ParallelPolicy::threads(0));
    let two = run(&inst, SolveStrategy::adaptive(), ParallelPolicy::threads(2));
    assert_bitwise_identical(&auto, &two, "auto vs explicit");
}
