//! Channel flow around a fixed spherical obstacle — one of the two dense
//! weak-scaling scenarios of the paper (§4.2), here run as a physical
//! simulation: velocity inflow, pressure outflow, no-slip walls and
//! obstacle, with an obstacle-to-fluid ratio of about 1 %.
//!
//! Prints the developing flow field: the velocity profile across the
//! channel upstream and downstream of the obstacle (showing the wake
//! deficit) and the mass balance.
//!
//! Run with: `cargo run --release --example channel_obstacle`

use trillium_core::prelude::*;

fn main() {
    let n = [96usize, 32, 32];
    let inflow = 0.04;
    let scenario = Scenario::channel_with_obstacle(n, [4, 1, 1], 0.06, inflow, 0.14);
    println!("scenario: {}", scenario.name);

    // Probe lines across the channel (y direction) at three stations:
    // upstream, just behind the obstacle, and far downstream.
    let stations = [n[0] as i64 / 5, n[0] as i64 / 2 + 6, n[0] as i64 - 8];
    let mut probes = Vec::new();
    for &x in &stations {
        for y in 0..n[1] as i64 {
            probes.push([x, y, n[2] as i64 / 2]);
        }
    }

    let steps = 400;
    println!("running {steps} steps on 4 ranks ...");
    let result = trillium_core::driver::run_distributed_with(
        &scenario,
        4,
        1,
        steps,
        &probes,
        DriverConfig::default(),
    );
    assert!(!result.has_nan(), "simulation went unstable");

    let all = result.probes();
    for &x in &stations {
        println!("\nu_x profile at x = {x}:");
        let line: Vec<_> = all.iter().filter(|(c, _)| c[0] == x).collect();
        for (c, u) in &line {
            if c[1] % 2 == 0 {
                let bar_len = (60.0 * (u[0] / inflow).max(0.0)) as usize;
                println!("y={:>3}  u_x={:>9.5}  {}", c[1], u[0], "#".repeat(bar_len));
            }
        }
        // Volumetric flux through the station (per unit depth sampled).
        let flux: f64 = line.iter().map(|(_, u)| u[0]).sum();
        println!("  station flux (sampled line): {flux:.4}");
    }

    println!("\nexpect: blunted profile with a wake deficit behind the obstacle that");
    println!("recovers downstream; fluxes at all stations agree to a few percent");
    println!("(incompressibility).");
}
