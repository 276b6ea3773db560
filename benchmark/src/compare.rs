//! `compare A.json [B.json]`: two result files, one row per pairing of
//! workload and end-to-end metric.
//!
//! A pairing is `regressed` when B is worse than A by more than the
//! metric's bound, `unresolved` when that cannot be told (either side's
//! quartiles are further apart than the bound, or the host calibration
//! moved by more than 5 % between the two files), `ok` otherwise. With
//! one argument the base is `benchmark/baseline.json`.

use crate::metrics::{Better, END_TO_END};
use crate::run::{numbers_at, read_result};
use serde_json::Value;
use std::path::{Path, PathBuf};

/// Calibration medians further apart than this make every pairing of
/// the two files unresolved: the host changed, not (only) the program.
const CALIB_SHIFT: f64 = 0.05;

fn median(doc: &Value, path: &[&str]) -> Option<f64> {
    let v = numbers_at(Some(doc), path);
    (!v.is_empty()).then(|| crate::stats::percentile(&v, 0.5))
}

/// Largest relative shift of the two calibration loops between the files
/// (0 when either file carries no calibration).
fn calibration_shift(a: &Value, b: &Value) -> f64 {
    ["cpu_ms", "dram_ms"]
        .iter()
        .filter_map(|k| Some((median(a, &["calib", k])?, median(b, &["calib", k])?)))
        .map(|(x, y)| (y / x - 1.0).abs())
        .fold(0.0, f64::max)
}

/// `compare`: `Ok(false)` when a pairing regressed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let (base_path, new_path) = match args {
        [new] => (Path::new(env!("CARGO_MANIFEST_DIR")).join("baseline.json"), PathBuf::from(new)),
        [base, new] => (PathBuf::from(base), PathBuf::from(new)),
        _ => return Err("usage: compare A.json [B.json]".into()),
    };
    let (base, new) = (read_result(&base_path)?, read_result(&new_path)?);
    let shift = calibration_shift(&base, &new);
    println!("base {}  new {}", base_path.display(), new_path.display());
    println!(
        "host calibration shift {:.1} % (unresolved above {:.0} %)",
        100.0 * shift,
        100.0 * CALIB_SHIFT
    );
    println!(
        "{:<20} {:<20} {:>12} {:>12} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "base", "new", "change", "bound", "spread A", "spread B"
    );
    let mut regressed = false;
    let workloads = base.get("workloads").and_then(Value::as_object).unwrap_or(&[]);
    for (w, base_w) in workloads {
        let Some(new_w) = new.get("workloads").and_then(|v| v.get(w)) else { continue };
        for (name, unit, better, bound) in END_TO_END {
            let field = |doc: &Value, key: &str| {
                doc.get("end_to_end")
                    .and_then(|e| e.get(name))
                    .and_then(|m| m.get(key))
                    .and_then(Value::as_f64)
            };
            let (Some(a), Some(b)) = (field(base_w, "value"), field(new_w, "value")) else {
                continue;
            };
            let spread =
                |doc: &Value| match (field(doc, "q1"), field(doc, "q3"), field(doc, "median")) {
                    (Some(q1), Some(q3), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
                    _ => 0.0,
                };
            let (sa, sb) = (spread(base_w), spread(new_w));
            // Relative change of `new` against the base `a`; positive is worse.
            let change = b / a - 1.0;
            let worse = if better == Better::Lower { change } else { -change };
            let verdict = if sa > bound || sb > bound || shift > CALIB_SHIFT {
                "unresolved"
            } else if worse > bound {
                regressed = true;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{w:<20} {name:<20} {a:>12.4} {b:>12.4} {:>+8.1}% {:>6.0}% {:>7.1}% {:>7.1}%  {verdict} ({unit}, {} is better, change of new against base {a:.4})",
                100.0 * change,
                100.0 * bound,
                100.0 * sa,
                100.0 * sb,
                better.label()
            );
        }
    }
    Ok(!regressed)
}
