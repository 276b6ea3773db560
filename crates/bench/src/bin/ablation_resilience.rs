//! Ablation: fault injection and checkpoint/restart recovery.
//!
//! Runs the vascular scenario twice: once under the plain driver (the
//! ground truth) and once under the resilient schedule with a
//! deterministic fault plan — a fail-stop rank crash, message drops, or
//! message reordering, selected with `--fault` and seeded with
//! `--seed`. The resilient run checkpoints the distributed block forest
//! every few steps, detects the failure through bounded-wait receives,
//! rolls the cohort back to the last consistent checkpoint and replays.
//!
//! Two properties are asserted, not just reported:
//!
//! * **recovery converges** — the faulted run's final PDFs are bitwise
//!   identical to the unfaulted ground truth, and mass is conserved;
//! * **failures are reproducible** — running the same seed twice yields
//!   the identical failure trace (the deterministic-simulation property
//!   that makes distributed failures debuggable).
//!
//! The second table evaluates the Young/Daly checkpoint-interval model
//! at machine scale: the laptop run checkpoints every few steps because
//! failures are injected every few steps; JUQUEEN checkpoints every few
//! *minutes* because 28k nodes fail a few times a day. Pass `--json`
//! for raw data.

use trillium_bench::{emit_json, section, vascular_scenario, HarnessArgs};
use trillium_core::driver::{run_distributed_with, DriverConfig};
use trillium_core::prelude::*;
use trillium_core::recovery::ResilienceConfig;
use trillium_machine::MachineSpec;
use trillium_scaling::resilience::{resilience_series, ResilienceModel};

const RANKS: u32 = 4;

/// Reads `--flag value` from the raw argument list.
fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn fault_plan(mode: &str, seed: u64, steps: u64) -> FaultConfig {
    match mode {
        "crash" => FaultConfig::new(seed).with_crash(RANKS - 2, steps / 2),
        "drop" => FaultConfig::new(seed).with_drops(0.01).with_fault_cap(4),
        "reorder" => FaultConfig::new(seed).with_reordering(0.05, 3).with_fault_cap(16),
        "dup" => FaultConfig::new(seed).with_duplicates(0.05).with_fault_cap(16),
        other => panic!("unknown --fault mode {other:?} (crash|drop|reorder|dup)"),
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let steps = if args.full { 120 } else { 40 };
    let seed: u64 = arg_value("--seed").map(|s| s.parse().expect("--seed N")).unwrap_or(1);
    let mode = arg_value("--fault").unwrap_or_else(|| "crash".to_string());
    let fault = fault_plan(&mode, seed, steps);

    section("Fault injection and checkpoint/restart recovery");
    println!(
        "{RANKS} ranks, {steps} steps, fault mode {mode:?}, seed {seed}, \
         checkpoint every 8 steps"
    );

    let cfg = DriverConfig { collect_pdfs: true, ..DriverConfig::default() };
    let scenario = vascular_scenario("vascular-resilience", args.full);
    let truth = run_distributed_with(&scenario, RANKS, 1, steps, &[], cfg);

    let rc = RunConfig {
        driver: cfg,
        resilience: Some(ResilienceConfig {
            checkpoint_every: 8,
            fault: Some(fault),
            ..ResilienceConfig::default()
        }),
        ..RunConfig::default()
    };
    let faulted = run_distributed_composed(&scenario, RANKS, 1, steps, &[], &rc)
        .expect("capped faults are recoverable");
    let replay = run_distributed_composed(&scenario, RANKS, 1, steps, &[], &rc)
        .expect("capped faults are recoverable");

    let bitwise = truth.pdf_dump() == faulted.pdf_dump();
    let trace = faulted.failure_trace();
    let reproducible = trace == replay.failure_trace();
    assert!(bitwise, "recovery must converge to the unfaulted state bitwise");
    assert!(reproducible, "same fault seed must reproduce the identical failure trace");
    assert!(!faulted.has_nan(), "run went unstable");
    assert!(faulted.mass_drift().abs() < 1e-9, "mass drift {}", faulted.mass_drift());

    println!();
    println!(
        "{:<22} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "run", "recoveries", "replayed", "checkpoints", "fault events", "mass drift"
    );
    println!(
        "{:<22} {:>10} {:>10} {:>12} {:>12} {:>12.2e}",
        "unfaulted (truth)",
        0,
        0,
        "-",
        0,
        truth.mass_drift().abs()
    );
    println!(
        "{:<22} {:>10} {:>10} {:>12} {:>12} {:>12.2e}",
        format!("{mode} faults"),
        faulted.recoveries(),
        faulted.replayed_steps(),
        faulted.checkpoints(),
        trace.len(),
        faulted.mass_drift().abs()
    );
    println!();
    println!(
        "final state bitwise identical to unfaulted run: {bitwise}; \
         failure trace reproducible across reruns: {reproducible}"
    );

    section("Young/Daly optimal checkpoint interval at machine scale");
    let model = ResilienceModel::default();
    println!(
        "{:<10} {:>9} {:>14} {:>12} {:>12} {:>10} {:>12}",
        "machine", "nodes", "MTBF (h)", "ckpt (s)", "tau* (s)", "steps", "waste"
    );
    let mut machine_rows = Vec::new();
    for machine in [MachineSpec::juqueen(), MachineSpec::supermuc()] {
        let rows = resilience_series(&model, &machine);
        let last = rows.last().expect("non-empty series").clone();
        println!(
            "{:<10} {:>9} {:>14.1} {:>12.1} {:>12.0} {:>10} {:>12.4}",
            machine.name,
            last.nodes,
            last.system_mtbf_hours,
            last.checkpoint_seconds,
            last.tau_young_seconds,
            last.steps_between_checkpoints,
            last.waste_fraction
        );
        machine_rows.push((machine.name, rows));
    }
    println!();
    println!("expect: one failure event, a rollback to the last checkpoint, and a replay");
    println!("that lands bitwise on the unfaulted state — while at machine scale the model");
    println!("turns the same checkpoint machinery into a minutes-scale interval choice.");

    if args.json {
        emit_json(
            "ablation_resilience",
            serde_json::json!({
                "scenario": "vascular tree",
                "ranks": RANKS,
                "steps": steps,
                "fault_mode": mode,
                "seed": seed,
                "checkpoint_every": 8,
                "recoveries": faulted.recoveries(),
                "replayed_steps": faulted.replayed_steps(),
                "checkpoints": faulted.checkpoints(),
                "fault_events": trace.len(),
                "bitwise_identical": bitwise,
                "trace_reproducible": reproducible,
                "mass_drift": faulted.mass_drift(),
                "model": machine_rows
                    .iter()
                    .map(|(name, rows)| serde_json::json!({"machine": name, "rows": rows}))
                    .collect::<Vec<_>>(),
            }),
        );
    }
}
