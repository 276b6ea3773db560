//! The repository benchmark: four workloads measured end to end, every
//! crate probed from outside, every result verified. See `README.md`.
//!
//! ```text
//! trillium-benchmark run [--workload W] [--seed N] [--rounds R | --seconds S]
//!                        [--trace 0|1] [--quick] [--out FILE] [--append]
//! trillium-benchmark compare A.json [B.json]
//! trillium-benchmark slice --workload W --seed N [--traced] [--quick]   (internal)
//! ```

mod compare;
mod metrics;
mod probes;
mod rows;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

/// Value of `--flag value` in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn has(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// `--flag value` parsed, `default` when absent, an error when malformed.
fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot read `{v}`")),
    }
}

fn slice(args: &[String]) -> Result<(), String> {
    let workload = flag(args, "--workload").ok_or("slice: --workload is required")?;
    let seed = parsed(args, "--seed", 1u64)?;
    let mode = workloads::Mode { traced: has(args, "--traced"), quick: has(args, "--quick") };
    println!("{}", workloads::run_slice(workload, seed, mode)?);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run::main(rest),
        Some("compare") => compare::main(rest),
        Some("slice") => slice(rest).map(|()| true),
        _ => {
            Err("usage: trillium-benchmark run|compare|slice ... (see benchmark/README.md)".into())
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("trillium-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
