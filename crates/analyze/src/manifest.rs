//! The hot-path manifest: which functions must stay allocation-free.
//!
//! These are the per-sweep / per-kernel functions of the sizing engine —
//! the code the PR 1/4/6 performance work made allocation-free and the
//! bitwise-oracle contract depends on. One missed `clone()` or `collect()`
//! here silently reintroduces a per-sweep heap allocation, which is
//! exactly what the `no-alloc` pass exists to catch.
//!
//! Entries are `(file, functions)`. A listed function that no longer
//! exists in the file produces a `manifest-stale` finding, so renames
//! cannot silently drop coverage. Functions that allocate *by design*
//! (e.g. the paper-definition reference traversals) are still listed when
//! the ISSUE requires their file covered; their accepted findings live in
//! the committed baseline, which documents each acceptance.

/// `(repo-relative file, hot function names)`.
pub const HOT_PATHS: &[(&str, &[&str])] = &[
    (
        "crates/core/src/engine.rs",
        &[
            // Per-sweep electrical table maintenance.
            "refresh_coupling_load",
            "rebuild_downstream_caps",
            "rebuild_upstream",
            "ensure_charged_fresh",
            // The Theorem-5 sweeps themselves.
            "lrs_sweep",
            "fused_forward_sweep",
            "fused_backward_sweep",
            "fused_sweep",
            // Closed-form resize kernels.
            "closed_form",
            "resize",
            // Dense aggregates used inside the OGWS iteration.
            "total_capacitance",
            "total_area",
            "crosstalk_lhs",
        ],
    ),
    (
        "crates/core/src/par.rs",
        &[
            // The runner every pass hands its per-block views to, once per
            // step: a per-step allocation here is a per-pass one.
            "run",
        ],
    ),
    (
        "crates/core/src/lrs.rs",
        &[
            // The solve drivers: called once per OGWS iteration; their
            // sweep loops must not allocate (outcome assembly happens in
            // the callers' reporting layer).
            "solve_constrained",
            "solve_scheduled",
        ],
    ),
    (
        "crates/core/src/ogws.rs",
        &[
            // The per-iteration A4 subgradient multiplier update.
            "update_multipliers",
        ],
    ),
    (
        "crates/core/src/projection.rs",
        &[
            // The per-iteration A5 flow projection.
            "project_flow_conservation_indexed",
            "project_flow_conservation_leveled",
            "project_block",
            "project_node",
            "flow_conservation_residual",
        ],
    ),
    (
        "crates/circuit/src/engine.rs",
        &[
            // Whole-circuit evaluation and the critical-path epilogue.
            "timing_into",
            "trace_critical_path",
            // Block kernels, one per pass.
            "downstream_caps_chunk",
            "upstream_resistance_chunk",
            "fused_downstream_chunk",
            "fused_upstream_chunk",
            "delays_chunk",
            "arrivals_chunk",
            // Streamed per-edge helpers.
            "child_load_edge",
            "upstream_acc_edges",
            "size_of_unchecked",
            "resistance_unchecked",
            "capacitance_unchecked",
        ],
    ),
    (
        "crates/waveform/src/trace.rs",
        &[
            // Stage-1 switching similarity: one call per pair of channel
            // wires, a popcount over two packed rows.
            "similarity",
        ],
    ),
    (
        "crates/waveform/src/similarity.rs",
        &[
            // A channel's similarity matrix, written into the caller's
            // block scratch: one call per channel.
            "fill_similarities",
        ],
    ),
    (
        "crates/ordering/src/woss.rs",
        &[
            // WOSS in caller-provided buffers: one call per channel.
            "woss_into",
        ],
    ),
    (
        "crates/core/src/coupling_build.rs",
        &[
            // The stage-1 block body: runs on the pool's workers, which
            // must allocate nothing (their heap would land in per-thread
            // allocator arenas).
            "order_block",
        ],
    ),
    (
        "crates/waveform/src/logic_sim.rs",
        &[
            // The bit-parallel gate kernel: one call per gate per
            // simulation, over whole 64-step words.
            "eval_gate_words",
        ],
    ),
    (
        "crates/circuit/src/traversal.rs",
        &[
            // The paper-definition traversals. These allocate by design
            // (they build the sets the paper reasons about) and are kept
            // off the per-sweep path; their findings are accepted in the
            // committed baseline so any *new* allocation idiom added to
            // this file still surfaces.
            "upstream_full",
            "downstream_full",
            "upstream_stage",
            "downstream_stage",
        ],
    ),
];
