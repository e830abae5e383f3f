//! Netlist generation time: `SyntheticGenerator::generate` on the wide XL
//! tier (xlw10k, xlw100k) and on the ten Table-1 circuits. Generation is
//! the `setup_s` of the repository benchmark; this bench times it alone,
//! so a change to the generator or the circuit builder can be measured
//! without a solve.
//!
//! ```text
//! cargo bench -p ncgws-bench --bench generate
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ncgws_netlist::{table1_specs, xl_wide_spec, CircuitSpec, SyntheticGenerator};

fn generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate");
    let specs: Vec<CircuitSpec> = [10_000, 100_000]
        .into_iter()
        .map(xl_wide_spec)
        .chain(table1_specs())
        .collect();
    for spec in specs {
        let name = spec.name.clone();
        let components = spec.total_components();
        let generator = SyntheticGenerator::new(spec);
        // Generation is deterministic: check the count once before timing.
        let instance = generator.generate().expect("generation succeeds");
        assert_eq!(instance.num_components(), components, "{name}");
        drop(instance);
        group.bench_with_input(BenchmarkId::new(name, components), &generator, |b, g| {
            b.iter(|| g.generate().expect("generation succeeds"))
        });
    }
    group.finish();
}

criterion_group!(benches, generate);
criterion_main!(benches);
