//! Physics validation matrix: case × collision operator × schedule ×
//! kernel tier, each cell judged against a quantitative threshold
//! (DESIGN.md §13).
//!
//! Default is the reduced CI matrix (all four cases, SRT/TRT/MRT, sync +
//! overlapped schedules, pull kernel tier); `--full` sweeps all four
//! operators, all four schedules and both explicit kernel tiers. Failed
//! cells dump their final macroscopic fields as legacy-VTK files under
//! `target/validation-vtk/` for inspection, and the process exits
//! non-zero so CI can gate on physics regressions.

use trillium_bench::validation::{dump_failed_vtk, is_supported, run_cell, MatrixSpec};
use trillium_bench::{bench_report, section, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse();
    let spec = if args.full { MatrixSpec::full() } else { MatrixSpec::reduced() };

    section("physics validation matrix");
    if !args.full {
        println!("(reduced CI matrix: SRT/TRT/MRT x sync/overlapped; --full for 4x4x2)");
    }
    println!(
        "{:<14} {:<8} {:<11} {:<9} {:<22} {:>12}  {:<14} {}",
        "case", "operator", "schedule", "kernel", "metric", "value", "threshold", "verdict"
    );

    let vtk_dir = std::path::Path::new("target/validation-vtk");
    let mut rows = Vec::new();
    let mut failures = 0usize;
    let mut skipped = 0usize;
    for &case in &spec.cases {
        for &op in &spec.operators {
            for &sched in &spec.schedules {
                for &kernel in &spec.kernels {
                    if !is_supported(case, op) {
                        // See `validation::is_supported`: SRT/TRT diverge
                        // on this case at CI resolution by design.
                        println!(
                            "{:<14} {:<8} {:<11} {:<9} {:<22} {:>12}  {:<14} skip (operator unstable at CI resolution)",
                            case.label(), op.label(), sched.label(), kernel.label(),
                            case.metric(), "-", "-",
                        );
                        rows.push(serde_json::json!({
                            "case": case.label(), "operator": op.label(),
                            "schedule": sched.label(), "kernel": kernel.label(),
                            "metric": case.metric(), "skipped": true,
                        }));
                        skipped += 1;
                        continue;
                    }
                    let cell = run_cell(case, op, sched, kernel);
                    println!(
                        "{:<14} {:<8} {:<11} {:<9} {:<22} {:>12.6} {:<14} {}",
                        cell.case,
                        cell.operator,
                        cell.schedule,
                        cell.kernel,
                        cell.metric,
                        cell.value,
                        cell.threshold,
                        if cell.pass { "pass" } else { "FAIL" },
                    );
                    if !cell.pass {
                        failures += 1;
                        let stem = format!(
                            "{}_{}_{}_{}",
                            cell.case, cell.operator, cell.schedule, cell.kernel
                        );
                        match dump_failed_vtk(&cell.scenario, &cell.run, vtk_dir, &stem) {
                            Ok(paths) => {
                                println!(
                                    "  dumped {} VTK block file(s) to {}",
                                    paths.len(),
                                    vtk_dir.display()
                                )
                            }
                            Err(e) => println!("  VTK dump failed: {e}"),
                        }
                    }
                    rows.push(cell.row());
                }
            }
        }
    }

    println!();
    let total = rows.len();
    println!(
        "{}/{} cells passed ({} skipped by design)",
        total - failures - skipped,
        total,
        skipped
    );
    if args.json {
        bench_report("validation_matrix", serde_json::Value::Array(rows));
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
