//! The `race-check` shadow claim map (`ncgws_circuit::race`).
//!
//! Two directions, matching the feature's contract:
//!
//! * **Injection**: a proptest simulates a parallel pass in which one chunk
//!   writes an index owned by another chunk of the same pass, through the
//!   real `SharedMut` write path, and asserts the checker panics on exactly
//!   the overlapping write (disjoint prefixes stay silent).
//! * **Clean runs**: a full two-stage sizing run — every leveled and flat
//!   kernel pass of the real engine — completes without a claim panic,
//!   i.e. the level partition the kernels rely on actually holds.
//!
//! Compiled only under `--features race-check`; combine with `parallel`
//! (`cargo test --features "parallel race-check"`) to drive the threaded
//! pool paths as well.

#![cfg(feature = "race-check")]

use std::panic::{catch_unwind, AssertUnwindSafe};

use ncgws::circuit::{race, SharedMut};
use ncgws::core::{Flow, OptimizerConfig, ParallelPolicy, SolveStrategy};
use ncgws::netlist::{CircuitSpec, ProblemInstance, SyntheticGenerator};
use proptest::prelude::*;

/// `(len, split, overlap)`: a buffer of `len` slots partitioned into chunk 0
/// = `0..split` and chunk 1 = `split..len`, plus one `overlap` index inside
/// chunk 0's range that chunk 1 will illegally write.
fn layout() -> impl Strategy<Value = (usize, usize, usize)> {
    (8usize..64).prop_flat_map(|len| {
        (1usize..len - 1).prop_flat_map(move |split| (Just(len), Just(split), 0..split))
    })
}

/// Writes `range` of `view` as `(pass, owner)` through the instrumented
/// `SharedMut::set` path.
fn write_range(view: SharedMut<'_, f64>, pass: u64, owner: u64, range: std::ops::Range<usize>) {
    let _ctx = race::enter(pass, owner);
    for i in range {
        // SAFETY: `i` is within the slice `view` was built from, and the
        // two owners of this test pass write disjoint ranges (the injected
        // overlap is the property under test — the checker must catch it
        // before it could matter).
        unsafe { view.set(i, owner as f64 + i as f64) };
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Disjoint chunk writes pass silently; the single injected overlapping
    /// write — chunk 1 touching an index in chunk 0's range, same pass —
    /// panics.
    #[test]
    fn injected_overlapping_write_is_detected((len, split, overlap) in layout()) {
        let mut buf = vec![0.0f64; len];
        let view = SharedMut::new(&mut buf);
        let pass = race::begin_pass();
        let chunk0 = race::owner_id(0, 0);
        let chunk1 = race::owner_id(0, 1);

        // The legitimate pass: both chunks cover their own partition.
        write_range(view, pass, chunk0, 0..split);
        write_range(view, pass, chunk1, split..len);

        // The injected fault: chunk 1 re-enters the same pass and writes an
        // index chunk 0 already claimed.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ctx = race::enter(pass, chunk1);
            // SAFETY: `overlap < split <= len`, in range of `view`.
            unsafe { view.set(overlap, -1.0) };
        }));
        prop_assert!(
            outcome.is_err(),
            "overlap at index {overlap} (split {split}, len {len}) was not detected"
        );

        // A fresh pass over the same buffer is clean again: stale claims
        // from the faulted pass must not leak forward.
        let next = race::begin_pass();
        write_range(view, next, chunk0, 0..len);
    }
}

/// The real engine under the checker: a full two-stage run issues every
/// leveled and flat kernel pass with claim contexts active — one worker
/// (`Sequential`, `threads(1)`) included, since every policy runs the same
/// grid — and must finish without an overlap panic at any thread count.
#[test]
fn full_sizing_run_stays_claim_clean() {
    let inst: ProblemInstance = SyntheticGenerator::new(
        CircuitSpec::new("race-clean", 24, 53)
            .with_seed(11)
            .with_num_patterns(8)
            .with_channel_size(5),
    )
    .generate()
    .expect("generation succeeds");
    for policy in [
        ParallelPolicy::Sequential,
        ParallelPolicy::threads(1),
        ParallelPolicy::threads(2),
    ] {
        let config = OptimizerConfig::builder()
            .max_iterations(30)
            .solve_strategy(SolveStrategy::adaptive())
            .parallel(policy)
            .build()
            .expect("valid configuration");
        Flow::prepare(&inst, config)
            .expect("prepare")
            .order()
            .expect("order")
            .size()
            .expect("size");
    }
}
