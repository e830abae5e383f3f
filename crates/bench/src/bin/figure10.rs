//! Reproduction of Figure 10: (a) memory requirement vs circuit size and
//! (b) runtime per OGWS iteration vs circuit size, over the ten Table 1
//! circuits. Both curves should be approximately linear in the total number
//! of gates and wires.
//!
//! The memory curve is the paper's linear-storage claim and is measured
//! from the instance's own byte accounting, so it is deterministic: the
//! run exits with status 1 when its linear fit's R² falls below
//! [`MIN_MEMORY_R2`]. The runtime curve is wall-clock and only reported.
//!
//! ```text
//! cargo run --release -p ncgws-bench --bin figure10
//! ```

use ncgws_bench::{generate, optimize, paper_config, quick_mode};
use ncgws_netlist::iscas::table1_specs_by_size;

/// The least R² the Figure 10(a) memory fit may have.
const MIN_MEMORY_R2: f64 = 0.99;

/// Least-squares linear fit returning (slope, intercept, r²).
fn linear_fit(points: &[(f64, f64)]) -> (f64, f64, f64) {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| (p.1 - (slope * p.0 + intercept)).powi(2))
        .sum();
    let r2 = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    (slope, intercept, r2)
}

fn main() {
    let mut specs = table1_specs_by_size();
    if quick_mode() {
        specs.truncate(4);
    }

    println!("Figure 10 reproduction — storage and runtime-per-iteration vs circuit size");
    println!();
    println!(
        "{:<8} {:>8} {:>12} {:>16} {:>8}",
        "Ckt", "#G+#W", "mem (MB)", "sec/iteration", "iters"
    );

    let mut memory_points = Vec::new();
    let mut runtime_points = Vec::new();
    for spec in specs {
        let total = spec.total_components() as f64;
        let instance = generate(spec);
        let outcome = optimize(&instance, paper_config());
        let mem_mb = outcome.report.memory.total_mib();
        let sec_per_it = outcome.report.seconds_per_iteration;
        println!(
            "{:<8} {:>8} {:>12.3} {:>16.4} {:>8}",
            outcome.report.name, total as usize, mem_mb, sec_per_it, outcome.report.iterations
        );
        memory_points.push((total, mem_mb));
        runtime_points.push((total, sec_per_it));
    }

    let (ms, mi, mr2) = linear_fit(&memory_points);
    let (rs, ri, rr2) = linear_fit(&runtime_points);
    println!();
    println!(
        "Figure 10(a): memory ≈ {:.3e}·(#G+#W) + {:.3} MB,  R² = {:.3}",
        ms, mi, mr2
    );
    println!(
        "Figure 10(b): sec/it ≈ {:.3e}·(#G+#W) + {:.4} s,   R² = {:.3}",
        rs, ri, rr2
    );
    println!();
    println!("the paper reports both curves to be approximately linear (1.0–2.1 MB and");
    println!("0–400 s/iteration on a 1999 UltraSPARC-I); only the linearity is comparable.");
    if mr2.is_nan() || mr2 < MIN_MEMORY_R2 {
        eprintln!("figure10: the memory fit's R² {mr2:.4} is below {MIN_MEMORY_R2}: storage is not linear");
        std::process::exit(1);
    }
}
