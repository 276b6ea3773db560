//! Quickstart: a distributed lid-driven cavity in ~30 lines.
//!
//! Builds a 64³-cell cavity split into 2×2×2 blocks, runs it on 4 ranks
//! (threads acting as MPI processes), and prints performance counters and
//! the vertical profile of the x-velocity through the cavity center —
//! the classic recirculation signature.
//!
//! Run with: `cargo run --release --example quickstart`

use trillium_core::prelude::*;

fn main() {
    let n = 64; // cells per axis
    let steps = 200;

    // Cavity with lattice viscosity 0.05 and lid velocity 0.08 (in
    // lattice units; keep below ~0.1 for stability).
    let scenario = Scenario::lid_driven_cavity(n, 2, 0.05, 0.08);

    // Velocity probes along the vertical centerline.
    let probes: Vec<[i64; 3]> = (0..n as i64).map(|z| [n as i64 / 2, n as i64 / 2, z]).collect();

    println!("running {} for {steps} steps on 4 ranks ...", scenario.name);
    let result = trillium_core::driver::run_distributed_with(
        &scenario,
        4,
        1,
        steps,
        &probes,
        DriverConfig::default(),
    );

    let stats = result.total_stats();
    let kernel_time: f64 = result.ranks.iter().map(|r| r.kernel_time).sum::<f64>() / 4.0;
    println!(
        "updated {} cells total, {:.1} MLUPS aggregate (kernel time), mass drift {:.2e}",
        stats.cells,
        stats.mlups(kernel_time),
        result.mass_drift()
    );
    println!("communication share: {:.1} %", 100.0 * result.comm_fraction());

    println!("\ncenterline u_x profile (z from bottom to lid):");
    for (c, u) in result.probes() {
        if c[2] % 4 == 0 || c[2] == n as i64 - 1 {
            let bar_len = (40.0 * (u[0] / 0.08).abs()) as usize;
            let bar: String = std::iter::repeat('#').take(bar_len).collect();
            println!(
                "z={:>3}  u_x={:>9.5}  {}{}",
                c[2],
                u[0],
                if u[0] < 0.0 { "-" } else { "+" },
                bar
            );
        }
    }
    println!("\nexpect: strong +x flow under the lid (top), weak return flow below.");
}
