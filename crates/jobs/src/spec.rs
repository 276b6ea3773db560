//! Job specifications: what a client submits to the service.
//!
//! A spec is a JSON document (parsed through the offline `serde_json`
//! shim) naming a geometry family, its physics parameters, the schedule
//! to run it under, and output options — the same shape of config file
//! the `lattice-boltzmann-rs` line of codes uses, reduced to the
//! scenario families this framework ships. [`JobSpec::from_json`]
//! validates the document; [`JobSpec::to_scenario`] builds the runnable
//! [`Scenario`]; [`JobSpec::cost_estimate`] prices the job for
//! admission control using the roofline traffic model from
//! `trillium-perfmodel`.

use serde_json::Value;
use trillium_core::prelude::{BackendKind, Collision, KernelChoice, Relaxation, Scenario};
use trillium_perfmodel::bytes_per_lup;

/// Geometry families a job may request — the paper's two §4.2
/// benchmark scenarios plus the vortex-shedding validation flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GeometryFamily {
    /// Lid-driven cavity, `cells`³ on `blocks`³ blocks.
    Cavity,
    /// Channel flow around a cylindrical obstacle, `2·cells × cells ×
    /// cells` on `2·blocks × blocks × blocks` blocks.
    Channel,
    /// Von Kármán vortex street: cylinder in a spanwise-periodic channel,
    /// `2·cells × cells × cells` on `2·blocks × blocks × blocks` blocks.
    /// Requires the MRT collision family — at job resolutions SRT and TRT
    /// diverge from the impulsive start (the same rule the physics
    /// validation matrix encodes in `is_supported`, pinned equal to it by
    /// a bench-crate test).
    VonKarman,
}

/// Distributed schedule to run the job under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Plain synchronous ghost exchange.
    Sync,
    /// Communication-hiding overlapped schedule.
    Overlapped,
    /// Runtime load balancing (block migration between cohort ranks).
    Rebalanced,
    /// Checkpoint/rollback resilience; the only schedule that tolerates
    /// an injected fault plan.
    Resilient,
}

impl Schedule {
    /// Every schedule, in report order.
    pub const ALL: [Schedule; 4] =
        [Schedule::Sync, Schedule::Overlapped, Schedule::Rebalanced, Schedule::Resilient];

    /// The document spelling, also the report label.
    pub fn label(self) -> &'static str {
        match self {
            Schedule::Sync => "sync",
            Schedule::Overlapped => "overlapped",
            Schedule::Rebalanced => "rebalanced",
            Schedule::Resilient => "resilient",
        }
    }
}

/// Deterministic fault plan attached to a job (resilient schedule
/// only: the other schedules have unbounded waits and would hang on a
/// lost message instead of degrading).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Fail-stop crash `(rank, step)` inside the job's cohort.
    pub crash: Option<(u32, u64)>,
    /// Whether the job is allowed to recover: `false` caps the recovery
    /// budget at zero, so the first rollback turns into a typed failure
    /// — the harness's "this job must die, and only this job" probe.
    pub recover: bool,
}

/// A validated simulation job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Client-chosen job name (reported back in every progress event).
    pub name: String,
    /// Geometry family.
    pub family: GeometryFamily,
    /// Base edge length in cells (see [`GeometryFamily`] for how each
    /// family scales it).
    pub cells: usize,
    /// Base block count per edge.
    pub blocks: usize,
    /// Lattice viscosity.
    pub viscosity: f64,
    /// Driving velocity (lid or inflow, family-dependent).
    pub velocity: f64,
    /// Kernel/update-scheme choice.
    pub kernel: KernelChoice,
    /// Collision operator.
    pub collision: Collision,
    /// Compute backend the cohort's sweeps dispatch through.
    pub backend: BackendKind,
    /// Time steps to run.
    pub steps: u64,
    /// Cohort width: ranks this job needs.
    pub ranks: u32,
    /// Worker threads per rank.
    pub threads: usize,
    /// Scheduling priority; higher dispatches first.
    pub priority: i64,
    /// Distributed schedule.
    pub schedule: Schedule,
    /// Optional fault plan (resilient schedule only).
    pub fault: Option<FaultSpec>,
    /// Skew the static block distribution (fraction of blocks forced
    /// onto rank 0) — gives the rebalanced schedule something to fix.
    pub skew: Option<f64>,
    /// Collect final PDFs for bitwise comparison against baselines.
    pub collect_pdfs: bool,
}

/// Validation failure for a submitted spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The JSON document failed to parse.
    Parse(String),
    /// A required field is absent.
    Missing(&'static str),
    /// A field is present but out of range or of the wrong kind.
    Invalid(&'static str),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "spec does not parse: {e}"),
            SpecError::Missing(k) => write!(f, "spec is missing required field `{k}`"),
            SpecError::Invalid(k) => write!(f, "spec field `{k}` is invalid"),
        }
    }
}

impl std::error::Error for SpecError {}

fn req_str<'a>(v: &'a Value, key: &'static str) -> Result<&'a str, SpecError> {
    v.get(key).ok_or(SpecError::Missing(key))?.as_str().ok_or(SpecError::Invalid(key))
}

fn opt_u64(v: &Value, key: &'static str, default: u64) -> Result<u64, SpecError> {
    match v.get(key) {
        None => Ok(default),
        Some(x) => x.as_u64().ok_or(SpecError::Invalid(key)),
    }
}

fn opt_f64(v: &Value, key: &'static str, default: f64) -> Result<f64, SpecError> {
    match v.get(key) {
        None => Ok(default),
        Some(x) => x.as_f64().ok_or(SpecError::Invalid(key)),
    }
}

impl JobSpec {
    /// Parses and validates a JSON job document. Only `name` and
    /// `family` are mandatory; everything else has a small-job default,
    /// so the minimal spec is `{"name": "x", "family": "cavity"}`.
    pub fn from_json(v: &Value) -> Result<JobSpec, SpecError> {
        let name = req_str(v, "name")?.to_string();
        let family = match req_str(v, "family")? {
            "cavity" => GeometryFamily::Cavity,
            "channel" => GeometryFamily::Channel,
            "von-karman" => GeometryFamily::VonKarman,
            _ => return Err(SpecError::Invalid("family")),
        };
        // "auto" is the spelling of the default scheme (in place; carved
        // blocks run pull) that older documents use.
        let kernel = match v.get("kernel").map(|k| k.as_str()) {
            None | Some(Some("auto")) => KernelChoice::default(),
            Some(Some(s)) => [KernelChoice::Pull, KernelChoice::InPlace]
                .into_iter()
                .find(|k| k.label() == s)
                .ok_or(SpecError::Invalid("kernel"))?,
            _ => return Err(SpecError::Invalid("kernel")),
        };
        let collision = match v.get("collision").map(|c| c.as_str()) {
            None => Collision::Trt,
            Some(Some("srt")) => Collision::Srt,
            Some(Some("trt")) => Collision::Trt,
            Some(Some("mrt")) => Collision::Mrt,
            Some(Some("mrt-les")) => Collision::MrtLes,
            _ => return Err(SpecError::Invalid("collision")),
        };
        let backend = match v.get("backend").map(|b| b.as_str()) {
            None => BackendKind::default(),
            Some(Some(s)) => BackendKind::parse(s).ok_or(SpecError::Invalid("backend"))?,
            _ => return Err(SpecError::Invalid("backend")),
        };
        let schedule = match v.get("schedule").map(|s| s.as_str()) {
            None => Schedule::Sync,
            Some(Some(s)) => Schedule::ALL
                .into_iter()
                .find(|x| x.label() == s)
                .ok_or(SpecError::Invalid("schedule"))?,
            _ => return Err(SpecError::Invalid("schedule")),
        };
        let fault = match v.get("fault") {
            None => None,
            Some(f) => {
                let seed = opt_u64(f, "seed", 1)?;
                let crash = match (f.get("crash_rank"), f.get("crash_step")) {
                    (None, None) => None,
                    (Some(r), Some(s)) => Some((
                        r.as_u64()
                            .and_then(|r| u32::try_from(r).ok())
                            .ok_or(SpecError::Invalid("fault.crash_rank"))?,
                        s.as_u64().ok_or(SpecError::Invalid("fault.crash_step"))?,
                    )),
                    _ => return Err(SpecError::Invalid("fault")),
                };
                let recover = match f.get("recover") {
                    None => true,
                    Some(b) => b.as_bool().ok_or(SpecError::Invalid("fault.recover"))?,
                };
                Some(FaultSpec { seed, crash, recover })
            }
        };
        let skew = match v.get("skew") {
            None => None,
            Some(s) => Some(s.as_f64().ok_or(SpecError::Invalid("skew"))?),
        };
        let spec = JobSpec {
            name,
            family,
            cells: opt_u64(v, "cells", 16)? as usize,
            blocks: opt_u64(v, "blocks", 2)? as usize,
            viscosity: opt_f64(v, "viscosity", 0.05)?,
            velocity: opt_f64(v, "velocity", 0.08)?,
            kernel,
            collision,
            backend,
            steps: opt_u64(v, "steps", 10)?,
            ranks: u32::try_from(opt_u64(v, "ranks", 2)?)
                .map_err(|_| SpecError::Invalid("ranks"))?,
            threads: opt_u64(v, "threads", 1)? as usize,
            priority: v
                .get("priority")
                .map_or(Ok(0), |p| p.as_i64().ok_or(SpecError::Invalid("priority")))?,
            schedule,
            fault,
            skew,
            collect_pdfs: match v.get("collect_pdfs") {
                None => true,
                Some(b) => b.as_bool().ok_or(SpecError::Invalid("collect_pdfs"))?,
            },
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a JSON string ([`serde_json::from_str`] +
    /// [`JobSpec::from_json`]).
    pub fn parse(s: &str) -> Result<JobSpec, SpecError> {
        let v = serde_json::from_str(s).map_err(|e| SpecError::Parse(format!("{e:?}")))?;
        JobSpec::from_json(&v)
    }

    fn validate(&self) -> Result<(), SpecError> {
        if self.cells == 0
            || !self.cells.is_multiple_of(self.blocks.max(1))
            || self.checked_total_cells().is_none()
        {
            return Err(SpecError::Invalid("cells"));
        }
        // The collision needs a relaxation time above 1/2: a positive,
        // finite viscosity that does not vanish beside it.
        if !(self.viscosity.is_finite()
            && self.viscosity > 0.0
            && Relaxation::tau_from_viscosity(self.viscosity) > 0.5)
        {
            return Err(SpecError::Invalid("viscosity"));
        }
        if !self.velocity.is_finite() {
            return Err(SpecError::Invalid("velocity"));
        }
        if self.blocks == 0 {
            return Err(SpecError::Invalid("blocks"));
        }
        if self.steps == 0 {
            return Err(SpecError::Invalid("steps"));
        }
        if self.ranks == 0 {
            return Err(SpecError::Invalid("ranks"));
        }
        if self.threads == 0 {
            return Err(SpecError::Invalid("threads"));
        }
        // Mirrors `trillium_bench::validation::is_supported`: the von
        // Kármán flow is stable only under the MRT family at job
        // resolutions. Rejecting up front turns a guaranteed divergence
        // into a typed submission error.
        if self.family == GeometryFamily::VonKarman && !self.collision.is_mrt() {
            return Err(SpecError::Invalid("collision"));
        }
        // The von Kármán geometry needs >= 2 spanwise blocks (periodic
        // axis) — see `Scenario::von_karman`.
        if self.family == GeometryFamily::VonKarman && self.blocks < 2 {
            return Err(SpecError::Invalid("blocks"));
        }
        if self.fault.is_some() && self.schedule != Schedule::Resilient {
            return Err(SpecError::Invalid("fault"));
        }
        if let Some(FaultSpec { crash: Some((r, _)), .. }) = self.fault {
            if r >= self.ranks {
                return Err(SpecError::Invalid("fault.crash_rank"));
            }
        }
        if let Some(s) = self.skew {
            if !(0.0..=1.0).contains(&s) {
                return Err(SpecError::Invalid("skew"));
            }
        }
        Ok(())
    }

    /// Builds the runnable scenario this spec describes.
    pub fn to_scenario(&self) -> Scenario {
        let s = match self.family {
            GeometryFamily::Cavity => {
                Scenario::lid_driven_cavity(self.cells, self.blocks, self.viscosity, self.velocity)
            }
            GeometryFamily::Channel => Scenario::channel_with_obstacle(
                [2 * self.cells, self.cells, self.cells],
                [2 * self.blocks, self.blocks, self.blocks],
                self.viscosity,
                self.velocity,
                0.2,
            ),
            GeometryFamily::VonKarman => Scenario::von_karman(
                [2 * self.cells, self.cells, self.cells],
                [2 * self.blocks, self.blocks, self.blocks],
                self.viscosity,
                self.velocity,
                // Validation-matrix proportions: 12.5 % blockage.
                self.cells as f64 / 8.0,
            ),
        };
        let s =
            s.with_kernel(self.kernel).with_collision(self.collision).with_backend(self.backend);
        match self.skew {
            Some(f) => s.with_skewed_balance(f),
            None => s,
        }
    }

    /// Total lattice cells the job touches per step.
    ///
    /// # Panics
    /// If the count does not fit a `u64`, which [`JobSpec::from_json`]
    /// rejects.
    pub fn total_cells(&self) -> u64 {
        self.checked_total_cells().expect("a validated spec's cell count fits a u64")
    }

    fn checked_total_cells(&self) -> Option<u64> {
        let c = u64::try_from(self.cells).ok()?;
        let cube = c.checked_mul(c)?.checked_mul(c)?;
        match self.family {
            GeometryFamily::Cavity => Some(cube),
            GeometryFamily::Channel | GeometryFamily::VonKarman => cube.checked_mul(2),
        }
    }

    /// Estimated memory traffic of the whole job in bytes — lattice
    /// updates priced by the D3Q19 roofline traffic model. This is the
    /// block-cost figure admission control compares against the pool
    /// budget: crude, but monotone in problem size and steps, which is
    /// all a reject/park decision needs.
    pub fn cost_estimate(&self) -> f64 {
        self.total_cells() as f64 * self.steps as f64 * bytes_per_lup(19)
    }

    /// Stable key grouping jobs that run the same workload — the unit
    /// the scheduler's measured-cost model learns per. Two jobs with the
    /// same template key are expected to cost the same wall time.
    pub fn template_key(&self) -> u64 {
        // FNV-1a over the fields that determine the work done.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        eat(match self.family {
            GeometryFamily::Cavity => 1,
            GeometryFamily::Channel => 2,
            GeometryFamily::VonKarman => 3,
        });
        eat(self.cells as u64);
        eat(self.blocks as u64);
        eat(self.steps);
        eat(u64::from(self.ranks));
        eat(match self.schedule {
            Schedule::Sync => 1,
            Schedule::Overlapped => 2,
            Schedule::Rebalanced => 3,
            Schedule::Resilient => 4,
        });
        // Operator and backend change the per-step cost (MRT's moment
        // transform, backend-dependent sweep rates), so jobs differing in
        // either must not share a learned cost template.
        eat(match self.collision {
            Collision::Srt => 1,
            Collision::Trt => 2,
            Collision::Mrt => 3,
            Collision::MrtLes => 4,
        });
        eat(match self.backend {
            BackendKind::Portable => 1,
            BackendKind::Avx2 => 2,
            BackendKind::Workgroup => 3,
        });
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_parses_with_defaults() {
        let s = JobSpec::parse(r#"{"name": "j1", "family": "cavity"}"#).unwrap();
        assert_eq!(s.name, "j1");
        assert_eq!(s.family, GeometryFamily::Cavity);
        assert_eq!(s.cells, 16);
        assert_eq!(s.ranks, 2);
        assert_eq!(s.schedule, Schedule::Sync);
        assert_eq!(s.collision, Collision::Trt);
        assert_eq!(s.backend, BackendKind::default());
        assert!(s.fault.is_none());
        assert!(s.collect_pdfs);
    }

    #[test]
    fn collision_and_backend_keys_round_trip() {
        for (label, want) in [
            ("srt", Collision::Srt),
            ("trt", Collision::Trt),
            ("mrt", Collision::Mrt),
            ("mrt-les", Collision::MrtLes),
        ] {
            let s = JobSpec::parse(&format!(
                r#"{{"name": "x", "family": "cavity", "collision": "{label}"}}"#
            ))
            .unwrap();
            assert_eq!(s.collision, want, "label {label}");
            assert_eq!(s.to_scenario().collision, want);
        }
        for (label, want) in [
            ("portable", BackendKind::Portable),
            ("avx2", BackendKind::Avx2),
            ("workgroup", BackendKind::Workgroup),
        ] {
            let s = JobSpec::parse(&format!(
                r#"{{"name": "x", "family": "cavity", "backend": "{label}"}}"#
            ))
            .unwrap();
            assert_eq!(s.backend, want, "label {label}");
            assert_eq!(s.to_scenario().backend, want);
        }
    }

    #[test]
    fn von_karman_family_requires_the_mrt_family() {
        // TRT (and the default) are rejected with the offending field...
        assert_eq!(
            JobSpec::parse(r#"{"name": "x", "family": "von-karman"}"#).unwrap_err(),
            SpecError::Invalid("collision"),
        );
        assert_eq!(
            JobSpec::parse(r#"{"name": "x", "family": "von-karman", "collision": "srt"}"#)
                .unwrap_err(),
            SpecError::Invalid("collision"),
        );
        // ...while both MRT variants run end-to-end.
        for label in ["mrt", "mrt-les"] {
            let s = JobSpec::parse(&format!(
                r#"{{"name": "x", "family": "von-karman", "collision": "{label}", "cells": 8}}"#
            ))
            .unwrap();
            let sc = s.to_scenario();
            // 16×8×8 global cells over 4×2×2 blocks → 4³ per block.
            assert_eq!(sc.cells, [4, 4, 4]);
            assert_eq!(sc.blocks, [4, 2, 2]);
            assert!(sc.collision.is_mrt());
        }
        // The spanwise-periodic axis needs >= 2 blocks.
        assert_eq!(
            JobSpec::parse(
                r#"{"name": "x", "family": "von-karman", "collision": "mrt", "blocks": 1, "cells": 8}"#
            )
            .unwrap_err(),
            SpecError::Invalid("blocks"),
        );
    }

    #[test]
    fn collision_and_backend_distinguish_cost_templates() {
        let base = r#"{"name": "x", "family": "cavity"}"#;
        let mrt = r#"{"name": "x", "family": "cavity", "collision": "mrt"}"#;
        let wg = r#"{"name": "x", "family": "cavity", "backend": "workgroup"}"#;
        let a = JobSpec::parse(base).unwrap().template_key();
        assert_ne!(a, JobSpec::parse(mrt).unwrap().template_key());
        assert_ne!(a, JobSpec::parse(wg).unwrap().template_key());
    }

    #[test]
    fn full_spec_round_trips_every_field() {
        let s = JobSpec::parse(
            r#"{
                "name": "soak-42", "family": "channel", "cells": 8, "blocks": 1,
                "viscosity": 0.06, "velocity": 0.05, "kernel": "inplace",
                "steps": 6, "ranks": 2, "threads": 1, "priority": 3,
                "schedule": "resilient",
                "fault": {"seed": 9, "crash_rank": 1, "crash_step": 3, "recover": false}
            }"#,
        )
        .unwrap();
        assert_eq!(s.family, GeometryFamily::Channel);
        assert_eq!(s.kernel, KernelChoice::InPlace);
        assert_eq!(s.priority, 3);
        assert_eq!(s.schedule, Schedule::Resilient);
        assert_eq!(s.fault, Some(FaultSpec { seed: 9, crash: Some((1, 3)), recover: false }));
        assert_eq!(s.total_cells(), 2 * 8 * 8 * 8);
    }

    #[test]
    fn bad_specs_are_rejected_with_the_offending_field() {
        let cases = [
            (r#"{"family": "cavity"}"#, SpecError::Missing("name")),
            (r#"{"name": "x", "family": "torus"}"#, SpecError::Invalid("family")),
            (r#"{"name": "x", "family": "cavity", "cells": 0}"#, SpecError::Invalid("cells")),
            (r#"{"name": "x", "family": "cavity", "cells": 15}"#, SpecError::Invalid("cells")),
            (r#"{"name": "x", "family": "cavity", "ranks": 0}"#, SpecError::Invalid("ranks")),
            (
                r#"{"name": "x", "family": "cavity", "collision": "bgk"}"#,
                SpecError::Invalid("collision"),
            ),
            (
                r#"{"name": "x", "family": "cavity", "backend": "cuda"}"#,
                SpecError::Invalid("backend"),
            ),
            // A fault plan outside the resilient schedule would hang,
            // not degrade; refuse it up front.
            (
                r#"{"name": "x", "family": "cavity", "fault": {"seed": 1}}"#,
                SpecError::Invalid("fault"),
            ),
            (
                r#"{"name": "x", "family": "cavity", "schedule": "resilient",
                    "fault": {"crash_rank": 5, "crash_step": 1}}"#,
                SpecError::Invalid("fault.crash_rank"),
            ),
            // Sizes whose cell count overflows a u64 (2^66 and 2^64),
            // counts a u32 cannot hold (2^32 + 2 is not rank 2), and
            // viscosities no relaxation time exists for.
            (
                r#"{"name": "x", "family": "cavity", "cells": 4194304, "blocks": 1}"#,
                SpecError::Invalid("cells"),
            ),
            (
                r#"{"name": "x", "family": "channel", "cells": 2097152, "blocks": 1}"#,
                SpecError::Invalid("cells"),
            ),
            (
                r#"{"name": "x", "family": "cavity", "ranks": 4294967298}"#,
                SpecError::Invalid("ranks"),
            ),
            (
                r#"{"name": "x", "family": "cavity", "schedule": "resilient",
                    "fault": {"crash_rank": 4294967296, "crash_step": 1}}"#,
                SpecError::Invalid("fault.crash_rank"),
            ),
            (
                r#"{"name": "x", "family": "cavity", "viscosity": 0}"#,
                SpecError::Invalid("viscosity"),
            ),
            (
                r#"{"name": "x", "family": "cavity", "viscosity": -0.05}"#,
                SpecError::Invalid("viscosity"),
            ),
            (
                r#"{"name": "x", "family": "cavity", "viscosity": 1e-300}"#,
                SpecError::Invalid("viscosity"),
            ),
            (
                r#"{"name": "x", "family": "cavity", "viscosity": 1e999}"#,
                SpecError::Invalid("viscosity"),
            ),
            (
                r#"{"name": "x", "family": "cavity", "velocity": -1e999}"#,
                SpecError::Invalid("velocity"),
            ),
        ];
        for (doc, want) in cases {
            assert_eq!(JobSpec::parse(doc).unwrap_err(), want, "doc: {doc}");
        }
    }

    /// One spelling per scheme and schedule; a document without a kernel
    /// and "auto" (the spelling older documents use) get the default
    /// scheme, in place.
    #[test]
    fn kernel_and_schedule_spellings_round_trip() {
        let kernel = |doc: &str| JobSpec::parse(doc).unwrap().kernel;
        assert_eq!(kernel(r#"{"name": "x", "family": "cavity"}"#), KernelChoice::InPlace);
        assert_eq!(
            kernel(r#"{"name": "x", "family": "cavity", "kernel": "auto"}"#),
            KernelChoice::InPlace
        );
        for k in [KernelChoice::Pull, KernelChoice::InPlace] {
            let doc = format!(r#"{{"name": "x", "family": "cavity", "kernel": "{}"}}"#, k.label());
            assert_eq!(kernel(&doc), k);
        }
        for sched in Schedule::ALL {
            let doc =
                format!(r#"{{"name": "x", "family": "cavity", "schedule": "{}"}}"#, sched.label());
            assert_eq!(JobSpec::parse(&doc).unwrap().schedule, sched);
        }
        let doc = r#"{"name": "x", "family": "cavity", "kernel": "in-place"}"#;
        assert_eq!(JobSpec::parse(doc).unwrap_err(), SpecError::Invalid("kernel"));
    }

    /// Whatever a client submits, parsing answers with a typed error or
    /// with a spec admission can price and the driver can build: 1 000
    /// seeded mutations of the six document shapes of the benchmark's job
    /// mix, each replacing, adding or dropping one or two fields.
    #[test]
    fn mutated_specs_never_panic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const TEMPLATES: [&str; 6] = [
            r#"{"name":"a","velocity":0.08,"priority":1,"family":"cavity","cells":16,"blocks":2,"steps":12,"ranks":2}"#,
            r#"{"name":"b","velocity":0.08,"priority":2,"family":"cavity","cells":16,"blocks":2,"steps":12,"ranks":2,"kernel":"inplace","schedule":"overlapped"}"#,
            r#"{"name":"c","velocity":0.05,"priority":0,"family":"channel","cells":12,"blocks":1,"steps":8,"ranks":2}"#,
            r#"{"name":"d","velocity":0.08,"priority":4,"family":"cavity","cells":16,"blocks":2,"steps":6,"ranks":1,"threads":2}"#,
            r#"{"name":"e","velocity":0.08,"priority":3,"family":"cavity","cells":16,"blocks":2,"steps":20,"ranks":2,"schedule":"rebalanced","skew":0.75}"#,
            r#"{"name":"f","velocity":0.08,"priority":1,"family":"cavity","cells":12,"blocks":2,"steps":10,"ranks":2,"schedule":"resilient","fault":{"seed":11,"crash_rank":1,"crash_step":6,"recover":true}}"#,
        ];
        const KEYS: [&str; 17] = [
            "name",
            "family",
            "cells",
            "blocks",
            "viscosity",
            "velocity",
            "kernel",
            "collision",
            "backend",
            "steps",
            "ranks",
            "threads",
            "priority",
            "schedule",
            "fault",
            "skew",
            "collect_pdfs",
        ];
        // Values on and beyond the edges of what `validate` admits.
        const VALUES: [&str; 32] = [
            "0",
            "1",
            "2",
            "3",
            "-1",
            "8",
            "12",
            "16",
            "2097152",
            "4194304",
            "4294967298",
            "18446744073709551615",
            "99999999999999999999999",
            "0.05",
            "-0.05",
            "0.75",
            "1.5",
            "1e-300",
            "1e300",
            "1e999",
            "-1e999",
            "true",
            "null",
            "[]",
            "\"auto\"",
            "\"inplace\"",
            "\"resilient\"",
            "\"mrt\"",
            "\"von-karman\"",
            "\"channel\"",
            r#"{"crash_rank":1,"crash_step":2}"#,
            r#"{"crash_rank":4294967297,"crash_step":1}"#,
        ];
        let mut rng = StdRng::seed_from_u64(0x5bec);
        let (mut admitted, mut rejected) = (0, 0);
        for _ in 0..1000 {
            let template = serde_json::from_str(TEMPLATES[rng.gen_range(0..6)]).unwrap();
            let mut fields: Vec<(String, String)> = template
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.to_string()))
                .collect();
            for _ in 0..rng.gen_range(1..3) {
                let key = KEYS[rng.gen_range(0..KEYS.len())];
                fields.retain(|(k, _)| k != key);
                if rng.gen_bool(0.9) {
                    fields.push((key.to_string(), VALUES[rng.gen_range(0..VALUES.len())].into()));
                }
            }
            let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            let doc = format!("{{{}}}", body.join(","));
            match JobSpec::parse(&doc) {
                Err(_) => rejected += 1,
                Ok(spec) => {
                    assert!(spec.cost_estimate().is_finite(), "{doc}");
                    spec.to_scenario();
                    admitted += 1;
                }
            }
        }
        assert!(admitted > 100 && rejected > 100, "{admitted} admitted, {rejected} rejected");
    }

    #[test]
    fn cost_estimate_is_monotone_in_size_and_steps() {
        let small = JobSpec::parse(r#"{"name": "s", "family": "cavity", "cells": 8}"#).unwrap();
        let big = JobSpec::parse(r#"{"name": "b", "family": "cavity", "cells": 32}"#).unwrap();
        let long = JobSpec::parse(r#"{"name": "l", "family": "cavity", "cells": 8, "steps": 100}"#)
            .unwrap();
        assert!(big.cost_estimate() > small.cost_estimate());
        assert!(long.cost_estimate() > small.cost_estimate());
        assert_eq!(small.template_key(), small.template_key());
        assert_ne!(small.template_key(), big.template_key());
    }

    #[test]
    fn scenario_construction_matches_the_family() {
        // `Scenario::cells` is per block: 16³ over 2³ blocks → 8³ each.
        let s = JobSpec::parse(r#"{"name": "x", "family": "cavity", "cells": 16, "blocks": 2}"#)
            .unwrap()
            .to_scenario();
        assert_eq!(s.cells, [8, 8, 8]);
        assert_eq!(s.blocks, [2, 2, 2]);
        // Channel doubles the x extent: 32×16×16 over 2×1×1 blocks.
        let c = JobSpec::parse(r#"{"name": "x", "family": "channel", "cells": 16, "blocks": 1}"#)
            .unwrap()
            .to_scenario();
        assert_eq!(c.cells, [16, 16, 16]);
        assert_eq!(c.blocks, [2, 1, 1]);
    }
}
