//! The solver workloads (`table1`, `xlw100k`) and the layer probes every
//! workload shares.
//!
//! A unit of work is one full solve `Flow::prepare → order → size` of every
//! instance of the workload (a ten-circuit round for `table1`, one cold solve
//! for `xlw100k`), with a fresh engine per solve.

use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ncgws_circuit::SizeVector;
use ncgws_core::lagrangian::dual_value_from_parts;
use ncgws_core::projection::{project_flow_conservation_indexed, FlowIndex};
use ncgws_core::{
    CheckpointPolicy, CircuitMetrics, Flow, IterationEvent, LrsSolver, Observer, OptimizerConfig,
    ParallelPolicy, RunControl, SizedOutcome, SizingProblem, Snapshot, SnapshotStore,
    SolveStrategy, StopReason,
};
use ncgws_coupling::{CouplingPair, CouplingSet, WirePairGeometry};
use ncgws_netlist::{table1_specs, xl_wide_spec, CircuitSpec, ProblemInstance, SyntheticGenerator};
use ncgws_ordering::{woss, SsProblem};
use ncgws_serve::{DiskSnapshotStore, Journal, StoreConfig};
use ncgws_waveform::{LogicSimulator, SimilarityMatrix};

use crate::stats::{mean, median, quantile, Metrics};
use crate::trace::{span, Tracer};
use crate::{peak_rss_mib, Args, Outcome, DEFAULT_SEED};

/// Threads of the `xlw100k` level-parallel solve.
pub const XLW_THREADS: usize = 2;
/// Set-up repetitions of the probes; `setup_s` takes the workload's own.
const SETUP_REPS: u64 = 3;
/// Fewest units a measuring loop runs, however long they take.
const MIN_UNITS: usize = 3;
/// Replays of each probed call per instance.
const REPLAYS: usize = 5;

/// Golden Table-1 results at [`DEFAULT_SEED`]: one line per circuit with
/// `name iterations area_um2 delay_ps noise_pf power_mw`.
const GOLDEN_TABLE1: &str = include_str!("../golden/table1_seed0.txt");

pub struct SolverWorkload {
    pub name: &'static str,
    pub specs: Vec<CircuitSpec>,
    pub config: OptimizerConfig,
    /// Every solve must stop `Converged` within the gap tolerance (else
    /// every solve must be feasible).
    pub must_converge: bool,
    /// Compare the warm-up results with the golden values.
    pub golden: bool,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: u64,
}

fn reseed(spec: CircuitSpec, seed: u64) -> CircuitSpec {
    let base = spec.seed;
    spec.with_seed(base ^ seed)
}

/// The paper's ten Table-1 circuits under the default configuration.
pub fn table1(seed: u64) -> SolverWorkload {
    SolverWorkload {
        name: "table1",
        specs: table1_specs()
            .into_iter()
            .map(|s| reseed(s, seed))
            .collect(),
        config: OptimizerConfig::default(),
        must_converge: false,
        golden: seed == DEFAULT_SEED,
        setup_reps: 9,
    }
}

/// The wide 100k-component tier under the adaptive schedule on two threads.
pub fn xlw100k(seed: u64) -> SolverWorkload {
    SolverWorkload {
        name: "xlw100k",
        specs: vec![reseed(xl_wide_spec(100_000), seed)],
        config: OptimizerConfig {
            solve_strategy: SolveStrategy::adaptive(),
            parallel: ParallelPolicy::threads(XLW_THREADS),
            ..OptimizerConfig::default()
        },
        must_converge: true,
        golden: false,
        setup_reps: 3,
    }
}

/// Observer recording the wall-clock instant of every completed iteration.
#[derive(Default)]
struct IterationClock {
    marks: Mutex<Vec<Instant>>,
}

impl IterationClock {
    fn start(&self) {
        let mut marks = self.marks.lock().expect("clock lock");
        marks.clear();
        marks.push(Instant::now());
    }

    /// Milliseconds between consecutive iteration events (the first
    /// iteration, which also pays the run's set-up, is left out).
    fn iteration_ms(&self) -> Vec<f64> {
        let marks = self.marks.lock().expect("clock lock");
        marks
            .windows(2)
            .skip(1)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect()
    }
}

impl Observer for IterationClock {
    fn on_iteration(&self, _event: &IterationEvent<'_>) {
        self.marks.lock().expect("clock lock").push(Instant::now());
    }
}

/// One full solve with a fresh engine, spans around each stage.
fn solve_one(
    instance: &ProblemInstance,
    config: &OptimizerConfig,
    tracer: Option<&Tracer>,
    unit: u64,
    clock: Option<&IterationClock>,
) -> Result<SizedOutcome, String> {
    let prepared = span(tracer, "flow.prepare", unit, || {
        Flow::prepare(instance, config.clone())
    })
    .map_err(|e| format!("{}: prepare: {e}", instance.name))?;
    let ordered = span(tracer, "flow.order", unit, || prepared.order())
        .map_err(|e| format!("{}: order: {e}", instance.name))?;
    let mut engine = span(tracer, "circuit.engine_build", unit, || ordered.engine());
    let control = match clock {
        Some(clock) => {
            clock.start();
            RunControl::new().with_observer(clock)
        }
        None => RunControl::new(),
    };
    span(tracer, "ogws.size", unit, || {
        ordered.size_with_engine(&mut engine, None, &control)
    })
    .map_err(|e| format!("{}: size: {e}", instance.name))
}

/// The parts of a solve the checks compare.
#[derive(Debug, Clone, PartialEq)]
struct Solved {
    name: String,
    metrics: CircuitMetrics,
    initial_area: f64,
    iterations: usize,
    gap: f64,
    feasible: bool,
    stop: StopReason,
    sizes: SizeVector,
}

impl Solved {
    fn of(sized: &SizedOutcome) -> Self {
        let r = &sized.report;
        Solved {
            name: r.name.clone(),
            metrics: r.final_metrics,
            initial_area: r.initial_metrics.area_um2,
            iterations: r.iterations,
            gap: r.duality_gap,
            feasible: r.feasible,
            stop: r.stop_reason,
            sizes: sized.sizes().clone(),
        }
    }
}

impl SolverWorkload {
    fn accepts(&self, s: &Solved) -> bool {
        if self.must_converge {
            s.feasible && s.stop == StopReason::Converged && s.gap <= self.config.gap_tolerance
        } else {
            s.feasible
        }
    }
}

/// What one measuring loop saw.
#[derive(Default)]
struct Loop {
    unit_ms: Vec<f64>,
    /// Traced loops only: per instance, the iteration intervals and the
    /// reports of every solve.
    iteration_ms: Vec<Vec<f64>>,
    reports: Vec<ncgws_core::OptimizationReport>,
}

impl Loop {
    fn new(instances: usize) -> Self {
        Loop {
            iteration_ms: vec![Vec::new(); instances],
            ..Loop::default()
        }
    }
}

/// The measuring loop: whole units until `seconds` have passed (at least
/// `MIN_UNITS` each way). With a tracer, units alternate between untraced
/// and traced, so slow drift of the host hits both alike; traced units get
/// spans around every stage and an iteration clock on every solve. The
/// checks run after each unit's clock stops. Returns (untraced, traced).
fn measure(
    w: &SolverWorkload,
    instances: &[ProblemInstance],
    reference: &[Solved],
    seconds: f64,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> (Loop, Loop) {
    let clock = IterationClock::default();
    let mut plain = Loop::new(instances.len());
    let mut traced = Loop::new(instances.len());
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    for unit in 0u64.. {
        let enough = |lp: &Loop| lp.unit_ms.len() >= MIN_UNITS;
        if started.elapsed() >= budget && enough(&plain) && (tracer.is_none() || enough(&traced)) {
            break;
        }
        let tracing = tracer.filter(|_| unit % 2 == 1);
        let lp = if tracing.is_some() {
            &mut traced
        } else {
            &mut plain
        };
        let t = Instant::now();
        let results: Vec<_> = span(tracing, "unit", unit, || {
            instances
                .iter()
                .map(|inst| {
                    let clock = tracing.map(|_| &clock);
                    let result = solve_one(inst, &w.config, tracing, unit, clock);
                    (result, clock.map(IterationClock::iteration_ms))
                })
                .collect()
        });
        lp.unit_ms.push(ms_since(t));
        for (i, (result, iteration_ms)) in results.into_iter().enumerate() {
            match result {
                Ok(sized) => {
                    let solved = Solved::of(&sized);
                    out.check(solved == reference[i], || {
                        format!("{}: solve differs from the warm-up solve", solved.name)
                    });
                    if let Some(ms) = iteration_ms {
                        lp.iteration_ms[i].extend(ms);
                        lp.reports.push(sized.report);
                    }
                }
                Err(e) => out.fail(e),
            }
        }
    }
    (plain, traced)
}

fn check_golden(reference: &[Solved], print: bool, out: &mut Outcome) {
    if print {
        for s in reference {
            println!(
                "{} {} {} {} {} {}",
                s.name,
                s.iterations,
                s.metrics.area_um2,
                s.metrics.delay_ps,
                s.metrics.noise_pf,
                s.metrics.power_mw
            );
        }
        return;
    }
    let golden: Vec<&str> = GOLDEN_TABLE1
        .lines()
        .filter(|l| !l.trim().is_empty())
        .collect();
    out.check(golden.len() == reference.len(), || {
        format!(
            "golden file has {} rows, expected {}",
            golden.len(),
            reference.len()
        )
    });
    for (line, s) in golden.iter().zip(reference) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let float = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        let ok = fields.len() == 6
            && fields[0] == s.name
            && fields[1].parse::<usize>().ok() == Some(s.iterations)
            && float(2).map(f64::to_bits) == Some(s.metrics.area_um2.to_bits())
            && float(3).map(f64::to_bits) == Some(s.metrics.delay_ps.to_bits())
            && float(4).map(f64::to_bits) == Some(s.metrics.noise_pf.to_bits())
            && float(5).map(f64::to_bits) == Some(s.metrics.power_mw.to_bits());
        out.check(ok, || {
            format!("{}: differs from the golden row `{line}`", s.name)
        });
    }
}

/// Generates every instance `reps` times; returns the instances and the
/// set-up seconds of each repetition.
fn generate_all(
    specs: &[CircuitSpec],
    reps: u64,
    tracer: Option<&Tracer>,
) -> Result<(Vec<ProblemInstance>, Vec<f64>), String> {
    let mut setup = Vec::new();
    let mut instances = Vec::new();
    for rep in 0..reps {
        let t = Instant::now();
        instances = specs
            .iter()
            .map(|spec| {
                span(tracer, "netlist.generate", rep, || {
                    SyntheticGenerator::new(spec.clone()).generate()
                })
                .map_err(|e| format!("{}: generate: {e}", spec.name))
            })
            .collect::<Result<_, _>>()?;
        setup.push(t.elapsed().as_secs_f64());
    }
    Ok((instances, setup))
}

pub fn run(w: &SolverWorkload, args: &Args, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let tracer = args.trace.then(Tracer::new);
    let (instances, setup) = match generate_all(&w.specs, w.setup_reps, tracer.as_ref()) {
        Ok(generated) => generated,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };

    // Warm-up: one untimed solve per instance gives the reference every
    // timed solve must reproduce bitwise.
    let mut reference = Vec::new();
    for inst in &instances {
        match solve_one(inst, &w.config, None, 0, None) {
            Ok(sized) => {
                let solved = Solved::of(&sized);
                out.check(w.accepts(&solved), || {
                    format!(
                        "{}: feasible={} stop={} gap={} (must_converge={})",
                        solved.name, solved.feasible, solved.stop, solved.gap, w.must_converge
                    )
                });
                reference.push(solved);
            }
            Err(e) => {
                out.fail(e);
                return out;
            }
        }
    }
    if w.golden {
        check_golden(&reference, args.print_golden, &mut out);
    }
    if let ParallelPolicy::Level { threads } = w.config.parallel {
        if threads > 1 {
            // The level grid is bitwise identical at every thread count.
            let one = OptimizerConfig {
                parallel: ParallelPolicy::threads(1),
                ..w.config.clone()
            };
            for (inst, expected) in instances.iter().zip(&reference) {
                match solve_one(inst, &one, None, 0, None) {
                    Ok(sized) => out.check(Solved::of(&sized) == *expected, || {
                        format!("{}: threads(1) differs from threads({threads})", inst.name)
                    }),
                    Err(e) => out.fail(e),
                }
            }
        }
    }
    if args.print_golden {
        return out;
    }

    let solves_per_unit = instances.len();
    let e2e = |m: &mut Metrics| {
        m.put("setup_s", median(&setup), "s", setup.len());
        let ratios: Vec<f64> = reference
            .iter()
            .map(|s| s.metrics.area_um2 / s.initial_area)
            .collect();
        m.put("area_ratio", mean(&ratios), "ratio", ratios.len());
        let gaps: Vec<f64> = reference.iter().map(|s| s.gap).collect();
        m.put("duality_gap", mean(&gaps), "ratio", gaps.len());
        m.put("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    };
    // Latency under the workload's own names. It is not gated: on a shared
    // 2-core host its spread over ten seeds comes close to the largest bound.
    let named = |lp: &Loop, prefix: &str, m: &mut Metrics| {
        let n = lp.unit_ms.len();
        let s: Vec<f64> = lp.unit_ms.iter().map(|ms| ms / 1e3).collect();
        if w.name == "table1" {
            m.put(format!("{prefix}round_s.p50"), median(&s), "s", n);
        } else {
            m.put(format!("{prefix}solve_s.p50"), median(&s), "s", n);
            m.put(format!("{prefix}solve_s.p90"), quantile(&s, 0.9), "s", n);
        }
        let iterations: Vec<f64> = reference.iter().map(|s| s.iterations as f64).collect();
        m.put(
            format!("{prefix}iterations_per_solve"),
            mean(&iterations),
            "count",
            iterations.len(),
        );
    };

    if let Some(tracer) = &tracer {
        let (plain, traced) = measure(
            w,
            &instances,
            &reference,
            args.seconds,
            Some(tracer),
            &mut out,
        );
        e2e(&mut out.report);
        named(&plain, "untraced.", &mut out.report);
        named(&traced, "traced.", &mut out.report);
        trace_overhead(&plain.unit_ms, &traced.unit_ms, tracer, &mut out.layer);

        let layer = &mut out.layer;
        layer.put(
            "netlist.generate_ms",
            median(&tracer.per_unit_ms("netlist.generate")),
            "ms",
            w.setup_reps as usize,
        );
        flow_metrics(
            tracer,
            &traced.iteration_ms,
            &traced.reports,
            solves_per_unit,
            layer,
        );
        let expected: Vec<CircuitMetrics> = reference.iter().map(|s| s.metrics).collect();
        let iterations: Vec<usize> = reference.iter().map(|s| s.iterations).collect();
        layer_probes(
            &instances,
            &iterations,
            &w.config,
            solves_per_unit,
            dir,
            &mut out,
        );
        crate::serve::served_probe(
            &w.specs,
            &w.config,
            &expected,
            &iterations,
            dir,
            tracer,
            &mut out,
        );
        let _ = tracer.write_jsonl(&dir.with_extension("spans.jsonl"));
    } else {
        let (lp, _) = measure(w, &instances, &reference, args.seconds, None, &mut out);
        e2e(&mut out.e2e);
        named(&lp, "", &mut out.report);
    }
    out
}

/// Traced-vs-untraced comparison of the unit latency.
fn trace_overhead(plain_ms: &[f64], traced_ms: &[f64], tracer: &Tracer, layer: &mut Metrics) {
    let plain = median(plain_ms);
    let traced = median(traced_ms);
    layer.put("trace.untraced_latency_ms.p50", plain, "ms", plain_ms.len());
    layer.put("trace.traced_latency_ms.p50", traced, "ms", traced_ms.len());
    layer.put(
        "trace.overhead_pct",
        100.0 * (traced / plain - 1.0),
        "%",
        traced_ms.len(),
    );
    layer.put("trace.spans", tracer.len() as f64, "count", 1);
}

/// Stage and iteration metrics of traced solves: per-unit stage times from
/// the spans, iteration times from the observer, counts from the reports.
fn flow_metrics(
    tracer: &Tracer,
    iteration_ms: &[Vec<f64>],
    reports: &[ncgws_core::OptimizationReport],
    solves_per_unit: usize,
    layer: &mut Metrics,
) {
    let per_unit = |name: &str| {
        let v = tracer.per_unit_ms(name);
        (median(&v), v.len())
    };
    let (order, n) = per_unit("flow.order");
    layer.put("flow.order_ms", order, "ms", n);
    let (engine, n) = per_unit("circuit.engine_build");
    layer.put("circuit.engine_build_ms", engine, "ms", n);
    let per_instance: Vec<f64> = iteration_ms
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .collect();
    let total_iters: usize = iteration_ms.iter().map(Vec::len).sum();
    layer.put("ogws.iter_ms.p50", mean(&per_instance), "ms", total_iters);

    let iterations: usize = reports.iter().map(|r| r.iterations).sum();
    let sweeps: usize = reports.iter().map(|r| r.sweeps_total).sum();
    let records = reports.iter().flat_map(|r| r.iteration_records.iter());
    let touched: usize = records.clone().map(|r| r.touched_components).sum();
    let frozen: Vec<f64> = reports
        .iter()
        .flat_map(|r| {
            let n = (r.num_gates + r.num_wires).max(1) as f64;
            r.iteration_records
                .iter()
                .map(move |rec| rec.frozen_components as f64 / n)
        })
        .collect();
    let solves = reports.len().max(1) as f64;
    layer.put(
        "ogws.iterations",
        iterations as f64 / solves,
        "count",
        reports.len(),
    );
    layer.put(
        "lrs.sweeps_per_iter",
        sweeps as f64 / iterations.max(1) as f64,
        "count",
        iterations,
    );
    layer.put(
        "schedule.touched_per_sweep",
        touched as f64 / sweeps.max(1) as f64,
        "count",
        sweeps,
    );
    layer.put(
        "schedule.frozen_share",
        mean(&frozen),
        "ratio",
        frozen.len(),
    );
    let memory: Vec<f64> = reports
        .iter()
        .map(|r| r.memory.total() as f64 / 1024.0)
        .collect();
    layer.put(
        "engine.memory_kib",
        mean(&memory) * solves_per_unit as f64,
        "KiB",
        memory.len(),
    );
    for name in ["unit", "flow.order", "ogws.size"] {
        let v = tracer.self_per_unit_ms(name);
        layer.put(format!("self.{name}_ms"), median(&v), "ms", v.len());
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Stage 1 replayed layer by layer through the public calls the flow makes:
/// `[simulate, similarity, woss, coupling]` milliseconds.
fn replay_stage1(instance: &ProblemInstance) -> Result<[f64; 4], String> {
    let graph = &instance.circuit;
    let t = Instant::now();
    let trace = LogicSimulator::new(graph).simulate(&instance.patterns);
    let simulate = ms_since(t);
    let (mut similarity_ms, mut woss_ms) = (0.0, 0.0);
    let mut orderings = Vec::new();
    for channel in instance.channels.iter().filter(|c| !c.is_empty()) {
        let t = Instant::now();
        let similarity = SimilarityMatrix::from_trace(&trace, channel);
        similarity_ms += ms_since(t);
        let t = Instant::now();
        orderings.push(woss(&SsProblem::from_similarity(&similarity)));
        woss_ms += ms_since(t);
    }
    let t = Instant::now();
    let mut pairs = Vec::new();
    for ordering in &orderings {
        for pair in ordering.sequence().windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let overlap = instance
                .geometry
                .overlap_length(instance.wire_length(a), instance.wire_length(b))
                .max(1e-3);
            let geometry = WirePairGeometry::new(
                overlap,
                instance.geometry.pitch,
                instance.geometry.unit_fringing,
            )
            .map_err(|e| e.to_string())?;
            pairs.push(CouplingPair::new(a, b, geometry).map_err(|e| e.to_string())?);
        }
    }
    let coupling = CouplingSet::new(graph, pairs).map_err(|e| e.to_string())?;
    black_box(&coupling);
    Ok([simulate, similarity_ms, woss_ms, ms_since(t)])
}

/// Runs to the middle iteration of the cold solve (`iterations / 2`) with a
/// checkpoint sink, then replays the A2–A5 phases of the next iteration on
/// the state the run stopped in: the snapshot's sizes and multipliers, and a
/// clone of the run's engine (its parallel policy, lane-aggregate setting
/// and, under the adaptive strategy, the freeze schedule and caches of the
/// last completed iteration). Returns
/// `[lrs, aggregates, timing, dual, projection]` milliseconds (medians of
/// `REPLAYS`) and the snapshot.
fn replay_iteration(
    instance: &ProblemInstance,
    config: &OptimizerConfig,
    iterations: usize,
) -> Result<Option<([f64; 5], Snapshot)>, String> {
    let ordered = Flow::prepare(instance, config.clone())
        .and_then(|p| p.order())
        .map_err(|e| e.to_string())?;
    let mut run_engine = ordered.engine();
    let store = SnapshotStore::new();
    let control = RunControl::new()
        .with_iteration_budget((iterations / 2).max(1))
        .with_checkpoints(&store, CheckpointPolicy::new());
    ordered
        .size_with_engine(&mut run_engine, None, &control)
        .map_err(|e| e.to_string())?;
    let Some(snapshot) = store.take() else {
        // Stopped before the snapshot iteration: nothing to replay.
        return Ok(None);
    };
    let graph = &instance.circuit;
    let coupling = &ordered.ordering().coupling;
    let problem = SizingProblem::with_constraints(
        graph,
        coupling,
        ordered.bounds(),
        ordered.extra_constraints().clone(),
    )
    .map_err(|e| e.to_string())?;
    let schedule = match &config.solve_strategy {
        SolveStrategy::Adaptive(schedule) => Some(*schedule),
        SolveStrategy::Exact => None,
    };
    let flow_index = FlowIndex::new(graph);
    let lrs = LrsSolver::new(config.max_lrs_sweeps, config.lrs_tolerance);
    let control = RunControl::new();
    let mut phases: [Vec<f64>; 5] = Default::default();
    for _ in 0..REPLAYS {
        // A clone starts without worker threads; re-arming them with the
        // same policy leaves the schedule state alone.
        let mut engine = run_engine.clone();
        engine.set_parallel(config.parallel);
        let mut sizes = snapshot.sizes.clone();
        let mut multipliers = snapshot.multipliers.clone();
        let t = Instant::now();
        match &schedule {
            None => {
                lrs.solve_constrained(
                    &mut engine,
                    &problem.extras,
                    &multipliers,
                    &mut sizes,
                    &control,
                );
            }
            Some(schedule) => {
                lrs.solve_scheduled(
                    &mut engine,
                    &problem.extras,
                    &multipliers,
                    &mut sizes,
                    &control,
                    schedule,
                );
            }
        }
        phases[0].push(ms_since(t));
        let t = Instant::now();
        let cap = engine.total_capacitance(&sizes);
        let crosstalk = engine.crosstalk_lhs(&sizes);
        let area = engine.total_area(&sizes);
        phases[1].push(ms_since(t));
        let t = Instant::now();
        black_box(engine.timing(&sizes).critical_path_delay);
        phases[2].push(ms_since(t));
        let t = Instant::now();
        black_box(dual_value_from_parts(
            &problem,
            &multipliers,
            &sizes,
            &engine.workspace().delays,
            area,
            cap,
            crosstalk,
        ));
        phases[3].push(ms_since(t));
        let t = Instant::now();
        project_flow_conservation_indexed(graph, &flow_index, &mut multipliers);
        phases[4].push(ms_since(t));
        black_box(&multipliers);
    }
    Ok(Some((phases.map(|v| median(&v)), snapshot)))
}

/// Replays every probed layer on the workload's instances and records the
/// per-layer metrics that do not come from the traced loop. Stage times are
/// per unit of `solves_per_unit` instances; phase times are per OGWS
/// iteration, averaged over the instances.
fn layer_probes(
    instances: &[ProblemInstance],
    iterations: &[usize],
    config: &OptimizerConfig,
    solves_per_unit: usize,
    dir: &Path,
    out: &mut Outcome,
) {
    let units = instances.len() as f64 / solves_per_unit as f64;
    let mut stage: [Vec<f64>; 4] = Default::default();
    for _ in 0..SETUP_REPS {
        let mut totals = [0.0; 4];
        for inst in instances {
            match replay_stage1(inst) {
                Ok(ms) => totals.iter_mut().zip(ms).for_each(|(t, m)| *t += m),
                Err(e) => out.fail(format!("{}: stage-1 replay: {e}", inst.name)),
            }
        }
        stage
            .iter_mut()
            .zip(totals)
            .for_each(|(v, t)| v.push(t / units));
    }
    let names = [
        "waveform.simulate_ms",
        "waveform.similarity_ms",
        "ordering.woss_ms",
        "coupling.build_ms",
    ];
    for (name, v) in names.iter().zip(&stage) {
        out.layer.put(*name, median(v), "ms", v.len());
    }

    let mut phases: [Vec<f64>; 5] = Default::default();
    let mut snapshots = Vec::new();
    for (inst, &n) in instances.iter().zip(iterations) {
        match replay_iteration(inst, config, n) {
            Ok(Some((ms, snapshot))) => {
                phases.iter_mut().zip(ms).for_each(|(v, m)| v.push(m));
                snapshots.push(snapshot);
            }
            Ok(None) => {}
            Err(e) => out.fail(format!("{}: phase replay: {e}", inst.name)),
        }
    }
    let names = [
        "lrs.solve_ms",
        "engine.aggregates_ms",
        "circuit.timing_ms",
        "lagrangian.dual_ms",
        "projection.project_ms",
    ];
    for (name, v) in names.iter().zip(&phases) {
        out.layer.put(*name, mean(v), "ms", v.len() * REPLAYS);
    }
    let covered: f64 = names
        .iter()
        .map(|n| out.layer.get(n).map_or(f64::NAN, |m| m.value))
        .sum();
    let iter_ms = out
        .layer
        .get("ogws.iter_ms.p50")
        .map_or(f64::NAN, |m| m.value);
    out.layer
        .put("ogws.other_ms", iter_ms - covered, "ms", phases[0].len());

    snapshot_probes(&snapshots, dir, out);
    speedup_probe(instances, config, out);
}

/// Snapshot codec, snapshot store and journal calls on the mid-run
/// snapshots; every decode and load must reproduce the snapshot.
fn snapshot_probes(snapshots: &[Snapshot], dir: &Path, out: &mut Outcome) {
    let (mut encode, mut decode, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let store_dir = dir.join("probe-store");
    let store = match DiskSnapshotStore::open(&store_dir, StoreConfig::default()) {
        Ok(store) => store,
        Err(e) => {
            out.fail(format!("probe store: {e}"));
            return;
        }
    };
    let (mut save, mut load) = (Vec::new(), Vec::new());
    for (job, snapshot) in snapshots.iter().enumerate() {
        let job = job as u64;
        let mut json = String::new();
        let (mut enc, mut dec) = (Vec::new(), Vec::new());
        for _ in 0..REPLAYS {
            let t = Instant::now();
            json = snapshot.to_json();
            enc.push(ms_since(t));
            let t = Instant::now();
            let decoded = Snapshot::from_json(&json);
            dec.push(ms_since(t));
            out.check(decoded.as_ref() == Ok(snapshot), || {
                "snapshot JSON round trip changed the snapshot".into()
            });
        }
        encode.push(median(&enc));
        decode.push(median(&dec));
        bytes.push(json.len() as f64);
        // Bounded by count and by time, so the 100k-component snapshots
        // stay cheap.
        let started = Instant::now();
        for _ in 0..40 {
            let t = Instant::now();
            let saved = store.save(job, snapshot);
            save.push(ms_since(t));
            out.check(saved.is_ok(), || format!("store save: {saved:?}"));
            // A fresh store reads from disk, as recovery does.
            let fresh = DiskSnapshotStore::open(&store_dir, StoreConfig::default());
            let t = Instant::now();
            let loaded = fresh.map(|s| s.load(job));
            load.push(ms_since(t));
            out.check(matches!(&loaded, Ok(Ok(Some(s))) if s == snapshot), || {
                "store load did not return the saved snapshot".into()
            });
            if started.elapsed() > Duration::from_millis(400) {
                break;
            }
        }
    }
    let layer = &mut out.layer;
    layer.put(
        "snapshot.encode_ms",
        mean(&encode),
        "ms",
        encode.len() * REPLAYS,
    );
    layer.put(
        "snapshot.decode_ms",
        mean(&decode),
        "ms",
        decode.len() * REPLAYS,
    );
    layer.put("snapshot.bytes", mean(&bytes), "bytes", bytes.len());
    layer.put("store.save_ms.p50", median(&save), "ms", save.len());
    layer.put("store.save_ms.p99", quantile(&save, 0.99), "ms", save.len());
    layer.put("store.load_ms.p50", median(&load), "ms", load.len());

    let mut append = Vec::new();
    match Journal::open(dir.join("probe-journal")) {
        Ok(journal) => {
            for job in 0..400u64 {
                let line = format!("{{\"entry\":\"checkpointed\",\"job\":{job},\"iteration\":8}}");
                let t = Instant::now();
                let appended = journal.append(&line);
                append.push(ms_since(t));
                out.check(appended.is_ok(), || format!("journal append: {appended:?}"));
            }
        }
        Err(e) => out.fail(format!("probe journal: {e}")),
    }
    layer_put_pair(&mut out.layer, "journal.append_ms", &append);
}

fn layer_put_pair(layer: &mut Metrics, name: &str, v: &[f64]) {
    layer.put(format!("{name}.p50"), median(v), "ms", v.len());
    layer.put(format!("{name}.p99"), quantile(v, 0.99), "ms", v.len());
}

/// `threads(1)` ÷ `threads(2)` full-solve time on the largest instance,
/// alternating the two, two solves each.
fn speedup_probe(instances: &[ProblemInstance], config: &OptimizerConfig, out: &mut Outcome) {
    let Some(largest) = instances.iter().max_by_key(|i| i.num_components()) else {
        return;
    };
    let mut times = [Vec::new(), Vec::new()];
    for _ in 0..2 {
        for (slot, threads) in [1usize, 2].into_iter().enumerate() {
            let cfg = OptimizerConfig {
                parallel: ParallelPolicy::threads(threads),
                ..config.clone()
            };
            let t = Instant::now();
            if let Err(e) = solve_one(largest, &cfg, None, 0, None) {
                out.fail(e);
            }
            times[slot].push(ms_since(t));
        }
    }
    out.layer.put(
        "par.speedup_t2",
        mean(&times[0]) / mean(&times[1]),
        "ratio",
        4,
    );
}
