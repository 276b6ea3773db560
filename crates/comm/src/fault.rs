//! Deterministic, seed-driven fault injection for the rank substrate.
//!
//! The paper's trillion-cell runs occupy full machines where component
//! failure over a multi-hour run is expected, not exceptional. The
//! thread-backed [`crate::World`] makes failures *reproducible* in the
//! FoundationDB deterministic-simulation sense: every injected fault is a
//! pure function of `(seed, sender rank, destination, message sequence
//! number)`, so the same [`FaultConfig`] produces the identical failure
//! trace on every run regardless of thread scheduling. The supported
//! faults are message **drop**, **duplication**, **delay/reordering**
//! (hold a message back for a bounded number of subsequent sends to the
//! same destination), and a fail-stop **rank crash at step N**.
//!
//! Decisions are made sender-side in [`FaultPlan::decide`]; the
//! mechanics (limbo queues, duplicate suppression, crash notification)
//! live in [`crate::runtime`].

/// A fail-stop crash of one rank at the start of one time step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// Rank that crashes.
    pub rank: u32,
    /// Step at whose start the crash fires (before any sends).
    pub step: u64,
}

/// Seed-driven fault-injection configuration, shared by every rank of a
/// faulted cohort ([`crate::World::run_fallible`], [`crate::World::connect`]).
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Probability that a message is silently dropped.
    pub drop_prob: f64,
    /// Probability that a message is delivered twice (the duplicate
    /// carries the same sequence number and must be suppressed by the
    /// receiver).
    pub dup_prob: f64,
    /// Probability that a message is held back (reordered past later
    /// sends to the same destination).
    pub delay_prob: f64,
    /// Maximum hold-back, in subsequent sends to the same destination.
    pub max_delay: u32,
    /// Cap on the total number of injected message faults per rank
    /// (drop + duplicate + delay). `None` = unlimited. A finite cap
    /// guarantees that checkpoint/restart recovery converges: replayed
    /// traffic eventually runs fault-free.
    pub max_faults: Option<u32>,
    /// Optional fail-stop crash (one-shot; the restarted rank does not
    /// re-crash).
    pub crash: Option<CrashSpec>,
}

impl FaultConfig {
    /// A quiet plan (no faults) with the given seed; compose with the
    /// `with_*` builders.
    pub fn new(seed: u64) -> Self {
        FaultConfig {
            seed,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            max_delay: 3,
            max_faults: None,
            crash: None,
        }
    }

    /// Drops each message with probability `p`.
    pub fn with_drops(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// Duplicates each message with probability `p`.
    pub fn with_duplicates(mut self, p: f64) -> Self {
        self.dup_prob = p;
        self
    }

    /// Delays each message with probability `p` by 1..=`max_delay`
    /// subsequent sends to the same destination.
    pub fn with_reordering(mut self, p: f64, max_delay: u32) -> Self {
        self.delay_prob = p;
        self.max_delay = max_delay.max(1);
        self
    }

    /// Crashes `rank` at the start of `step` (fail-stop).
    pub fn with_crash(mut self, rank: u32, step: u64) -> Self {
        self.crash = Some(CrashSpec { rank, step });
        self
    }

    /// Caps the total injected message faults per rank.
    pub fn with_fault_cap(mut self, n: u32) -> Self {
        self.max_faults = Some(n);
        self
    }

    /// True if any fault kind can fire.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0 || self.dup_prob > 0.0 || self.delay_prob > 0.0 || self.crash.is_some()
    }
}

/// One injected fault, in the order the sending rank injected it. The
/// per-rank event list is the *failure trace*: bitwise reproducible for a
/// given seed because every decision is a pure hash of
/// `(seed, from, to, seq)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Message `seq` to rank `to` was dropped.
    Dropped {
        /// Destination rank.
        to: u32,
        /// Per-destination sequence number of the dropped message.
        seq: u64,
    },
    /// Message `seq` to rank `to` was delivered twice.
    Duplicated {
        /// Destination rank.
        to: u32,
        /// Sequence number of the duplicated message.
        seq: u64,
    },
    /// Message `seq` to rank `to` was held back past `by` later sends.
    Delayed {
        /// Destination rank.
        to: u32,
        /// Sequence number of the delayed message.
        seq: u64,
        /// Hold-back, in subsequent sends to the same destination.
        by: u32,
    },
    /// This rank crashed (fail-stop) at the start of `step`.
    Crashed {
        /// Step at whose start the crash fired.
        step: u64,
    },
}

/// What the fault layer does with one outgoing message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SendAction {
    /// Deliver normally.
    Deliver,
    /// Silently discard.
    Drop,
    /// Deliver twice (same sequence number).
    Duplicate,
    /// Hold back past `n` subsequent sends to the same destination.
    Delay(u32),
}

/// Per-rank instantiation of a [`FaultConfig`]: makes the decisions and
/// records the failure trace.
pub(crate) struct FaultPlan {
    cfg: FaultConfig,
    rank: u32,
    injected: u32,
    crashed: bool,
    events: Vec<FaultEvent>,
}

/// SplitMix64 — the decision hash. Statistically fine for probabilities
/// and fully deterministic.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultPlan {
    pub(crate) fn new(cfg: FaultConfig, rank: u32) -> Self {
        FaultPlan { cfg, rank, injected: 0, crashed: false, events: Vec::new() }
    }

    /// Uniform `[0, 1)` draw for message (`to`, `seq`), salted by `salt`.
    fn draw(&self, to: u32, seq: u64, salt: u64) -> f64 {
        let key = self.cfg.seed.wrapping_mul(0x2545_f491_4f6c_dd1d)
            ^ ((self.rank as u64) << 40)
            ^ ((to as u64) << 20)
            ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ salt.wrapping_mul(0xd6e8_feb8_6659_fd93);
        (splitmix64(key) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Decides the fate of message `seq` to rank `to` and records the
    /// event. Pure in `(seed, rank, to, seq)` — timing-independent.
    pub(crate) fn decide(&mut self, to: u32, seq: u64) -> SendAction {
        if let Some(cap) = self.cfg.max_faults {
            if self.injected >= cap {
                return SendAction::Deliver;
            }
        }
        let u = self.draw(to, seq, 0);
        let action = if u < self.cfg.drop_prob {
            self.events.push(FaultEvent::Dropped { to, seq });
            SendAction::Drop
        } else if u < self.cfg.drop_prob + self.cfg.dup_prob {
            self.events.push(FaultEvent::Duplicated { to, seq });
            SendAction::Duplicate
        } else if u < self.cfg.drop_prob + self.cfg.dup_prob + self.cfg.delay_prob {
            let by = 1
                + (splitmix64(self.draw(to, seq, 1).to_bits()) % self.cfg.max_delay as u64) as u32;
            self.events.push(FaultEvent::Delayed { to, seq, by });
            SendAction::Delay(by)
        } else {
            return SendAction::Deliver;
        };
        self.injected += 1;
        action
    }

    /// True exactly once: when this rank's configured crash step starts.
    pub(crate) fn crash_due(&mut self, step: u64) -> bool {
        match self.cfg.crash {
            Some(c) if !self.crashed && c.rank == self.rank && c.step == step => {
                self.crashed = true;
                self.events.push(FaultEvent::Crashed { step });
                true
            }
            _ => false,
        }
    }

    pub(crate) fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let cfg = FaultConfig::new(42).with_drops(0.2).with_duplicates(0.2).with_reordering(0.2, 4);
        let run = |cfg: FaultConfig| {
            let mut plan = FaultPlan::new(cfg, 1);
            let acts: Vec<SendAction> = (0..200).map(|s| plan.decide(0, s)).collect();
            (acts, plan.events.clone())
        };
        let (a1, e1) = run(cfg.clone());
        let (a2, e2) = run(cfg);
        assert_eq!(a1, a2);
        assert_eq!(e1, e2);
        assert!(e1.iter().any(|e| matches!(e, FaultEvent::Dropped { .. })));
        assert!(e1.iter().any(|e| matches!(e, FaultEvent::Delayed { .. })));
    }

    #[test]
    fn different_seeds_differ() {
        let mut p1 = FaultPlan::new(FaultConfig::new(1).with_drops(0.5), 0);
        let mut p2 = FaultPlan::new(FaultConfig::new(2).with_drops(0.5), 0);
        let a1: Vec<SendAction> = (0..64).map(|s| p1.decide(1, s)).collect();
        let a2: Vec<SendAction> = (0..64).map(|s| p2.decide(1, s)).collect();
        assert_ne!(a1, a2);
    }

    #[test]
    fn fault_cap_silences_the_plan() {
        let mut plan = FaultPlan::new(FaultConfig::new(7).with_drops(1.0).with_fault_cap(3), 0);
        let dropped = (0..100).filter(|&s| plan.decide(1, s) == SendAction::Drop).count();
        assert_eq!(dropped, 3);
        assert_eq!(plan.events().len(), 3);
    }

    #[test]
    fn crash_fires_exactly_once_for_the_right_rank_and_step() {
        let cfg = FaultConfig::new(0).with_crash(2, 17);
        let mut victim = FaultPlan::new(cfg.clone(), 2);
        let mut other = FaultPlan::new(cfg, 1);
        assert!(!victim.crash_due(16));
        assert!(victim.crash_due(17));
        assert!(!victim.crash_due(17), "one-shot: a restarted rank does not re-crash");
        assert!(!other.crash_due(17));
        assert_eq!(victim.events(), &[FaultEvent::Crashed { step: 17 }]);
    }
}
