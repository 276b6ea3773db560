//! Collective operations built on the point-to-point layer.
//!
//! Simple linear (root-based) algorithms: the thread substrate has no
//! network, so collective *performance* does not matter here — only the
//! semantics the framework code relies on. Every collective consumes one
//! sequence number so back-to-back collectives with identical shapes
//! cannot cross-match.
//!
//! Each collective has a fallible `try_*` core returning [`CommError`]
//! when a participant is down or a frame is torn, plus the historical
//! infallible wrapper that converts failure into a panic. The resilient
//! driver and the multi-tenant job runner use the `try_*` forms so a
//! dead cohort degrades into an error its own controller handles,
//! instead of a panic that poisons every other tenant of the process.

use crate::runtime::{CommError, Communicator, COLLECTIVE_TAG_BASE};

/// Parses an exactly-8-byte frame; anything else is a torn collective.
fn frame_u64(b: &[u8]) -> Result<u64, CommError> {
    b.try_into().map(u64::from_le_bytes).map_err(|_| CommError::Protocol)
}

/// Parses an exactly-8-byte frame as `f64`.
fn frame_f64(b: &[u8]) -> Result<f64, CommError> {
    b.try_into().map(f64::from_le_bytes).map_err(|_| CommError::Protocol)
}

impl Communicator {
    fn next_coll_tag(&mut self) -> u64 {
        let tag = COLLECTIVE_TAG_BASE + self.coll_seq;
        self.coll_seq += 1;
        tag
    }

    /// Reports a collective failure the way the infallible wrappers
    /// always have: by panicking with the rank and operation attached.
    fn coll_panic<T>(&self, op: &str, e: CommError) -> T {
        panic!("rank {}: collective {op}: {e}", self.rank())
    }

    /// Fallible [`Communicator::barrier`].
    pub fn try_barrier(&mut self) -> Result<(), CommError> {
        let tag = self.next_coll_tag();
        if self.rank() == 0 {
            for r in 1..self.size() {
                let _ = self.try_recv_raw(r, tag)?;
            }
            for r in 1..self.size() {
                self.send_raw(r, tag, Vec::new());
            }
        } else {
            self.send_raw(0, tag, Vec::new());
            let _ = self.try_recv_raw(0, tag)?;
        }
        Ok(())
    }

    /// Synchronizes all ranks: no rank leaves before every rank entered.
    pub fn barrier(&mut self) {
        if let Err(e) = self.try_barrier() {
            self.coll_panic("barrier", e)
        }
    }

    /// Fallible [`Communicator::broadcast`].
    pub fn try_broadcast(
        &mut self,
        root: u32,
        data: Option<Vec<u8>>,
    ) -> Result<Vec<u8>, CommError> {
        let tag = self.next_coll_tag();
        if self.rank() == root {
            let data = data.expect("root must provide the broadcast payload");
            for r in 0..self.size() {
                if r != root {
                    self.send_raw(r, tag, data.clone());
                }
            }
            Ok(data)
        } else {
            self.try_recv_raw(root, tag)
        }
    }

    /// Broadcasts `data` from `root` to every rank; returns the payload on
    /// all ranks. This mirrors the paper's setup where one process reads
    /// the block-structure file or the surface mesh and broadcasts the
    /// bytes.
    pub fn broadcast(&mut self, root: u32, data: Option<Vec<u8>>) -> Vec<u8> {
        self.try_broadcast(root, data).unwrap_or_else(|e| self.coll_panic("broadcast", e))
    }

    /// Fallible [`Communicator::allgather_f64`].
    pub fn try_allgather_f64(&mut self, value: f64) -> Result<Vec<f64>, CommError> {
        let bytes = self.try_allgather_bytes(value.to_le_bytes().to_vec())?;
        bytes.into_iter().map(|b| frame_f64(&b)).collect()
    }

    /// Gathers one `f64` from every rank onto all ranks (allgather),
    /// ordered by rank.
    pub fn allgather_f64(&mut self, value: f64) -> Vec<f64> {
        self.try_allgather_f64(value).unwrap_or_else(|e| self.coll_panic("allgather_f64", e))
    }

    /// Fallible [`Communicator::allgather_bytes`].
    pub fn try_allgather_bytes(&mut self, data: Vec<u8>) -> Result<Vec<Vec<u8>>, CommError> {
        let tag = self.next_coll_tag();
        if self.rank() == 0 {
            let mut all = vec![Vec::new(); self.size() as usize];
            all[0] = data;
            for r in 1..self.size() {
                all[r as usize] = self.try_recv_raw(r, tag)?;
            }
            // Concatenate with a tiny length-prefixed framing for redistribution.
            let mut frame = Vec::new();
            for a in &all {
                frame.extend_from_slice(&(a.len() as u64).to_le_bytes());
                frame.extend_from_slice(a);
            }
            for r in 1..self.size() {
                self.send_raw(r, tag, frame.clone());
            }
            Ok(all)
        } else {
            self.send_raw(0, tag, data);
            let frame = self.try_recv_raw(0, tag)?;
            let mut all = Vec::with_capacity(self.size() as usize);
            let mut off = 0usize;
            for _ in 0..self.size() {
                let len_bytes = frame.get(off..off + 8).ok_or(CommError::Protocol)?;
                let len = frame_u64(len_bytes)? as usize;
                off += 8;
                all.push(frame.get(off..off + len).ok_or(CommError::Protocol)?.to_vec());
                off += len;
            }
            Ok(all)
        }
    }

    /// Gathers one byte payload from every rank onto all ranks, ordered by
    /// rank.
    pub fn allgather_bytes(&mut self, data: Vec<u8>) -> Vec<Vec<u8>> {
        self.try_allgather_bytes(data).unwrap_or_else(|e| self.coll_panic("allgather_bytes", e))
    }

    /// Fallible [`Communicator::allreduce_sum_f64`].
    pub fn try_allreduce_sum_f64(&mut self, value: f64) -> Result<f64, CommError> {
        Ok(self.try_allgather_f64(value)?.iter().sum())
    }

    /// All-reduce of a single `f64` with summation.
    pub fn allreduce_sum_f64(&mut self, value: f64) -> f64 {
        self.try_allreduce_sum_f64(value).unwrap_or_else(|e| self.coll_panic("allreduce_sum", e))
    }

    /// Fallible [`Communicator::allreduce_minmaxsum_f64`].
    pub fn try_allreduce_minmaxsum_f64(
        &mut self,
        value: f64,
    ) -> Result<(f64, f64, f64), CommError> {
        let all = self.try_allgather_f64(value)?;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for v in all {
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        Ok((min, max, sum))
    }

    /// Fused all-reduce of a single `f64` under min, max, and sum at once
    /// (one collective round instead of three). This is the load-imbalance
    /// probe: with per-rank epoch cost `t`, the imbalance ratio is
    /// `max * size / sum` and the spread is `max / min`.
    pub fn allreduce_minmaxsum_f64(&mut self, value: f64) -> (f64, f64, f64) {
        self.try_allreduce_minmaxsum_f64(value)
            .unwrap_or_else(|e| self.coll_panic("allreduce_minmaxsum", e))
    }

    /// Fallible [`Communicator::allreduce_sum_u64`].
    pub fn try_allreduce_sum_u64(&mut self, value: u64) -> Result<u64, CommError> {
        let tag = self.next_coll_tag();
        if self.rank() == 0 {
            let mut sum = value;
            for r in 1..self.size() {
                let b = self.try_recv_raw(r, tag)?;
                sum += frame_u64(&b)?;
            }
            for r in 1..self.size() {
                self.send_raw(r, tag, sum.to_le_bytes().to_vec());
            }
            Ok(sum)
        } else {
            self.send_raw(0, tag, value.to_le_bytes().to_vec());
            let b = self.try_recv_raw(0, tag)?;
            frame_u64(&b)
        }
    }

    /// All-reduce of a single `u64` with summation.
    pub fn allreduce_sum_u64(&mut self, value: u64) -> u64 {
        self.try_allreduce_sum_u64(value)
            .unwrap_or_else(|e| self.coll_panic("allreduce_sum_u64", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::World;

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let phase1 = AtomicU32::new(0);
        let violations = AtomicU32::new(0);
        World::run(8, |mut c| {
            phase1.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier, every rank must have completed phase 1.
            if phase1.load(Ordering::SeqCst) != 8 {
                violations.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(violations.load(std::sync::atomic::Ordering::SeqCst), 0);
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let out = World::run(4, |mut c| {
            let payload = if c.rank() == 2 { Some(vec![9, 8, 7]) } else { None };
            c.broadcast(2, payload)
        });
        for o in out {
            assert_eq!(o, vec![9, 8, 7]);
        }
    }

    #[test]
    fn allgather_is_rank_ordered() {
        let out = World::run(5, |mut c| c.allgather_f64(c.rank() as f64 * 1.5));
        for o in out {
            assert_eq!(o, vec![0.0, 1.5, 3.0, 4.5, 6.0]);
        }
    }

    #[test]
    fn reductions() {
        let sums = World::run(6, |mut c| c.allreduce_sum_f64((c.rank() + 1) as f64));
        assert!(sums.iter().all(|&s| s == 21.0));
        let usums = World::run(4, |mut c| c.allreduce_sum_u64(1 << c.rank()));
        assert!(usums.iter().all(|&s| s == 0b1111));
    }

    #[test]
    fn fused_minmaxsum_reduction() {
        let out = World::run(5, |mut c| c.allreduce_minmaxsum_f64((c.rank() + 1) as f64));
        for (min, max, sum) in out {
            assert_eq!(min, 1.0);
            assert_eq!(max, 5.0);
            assert_eq!(sum, 15.0);
        }
    }

    #[test]
    fn consecutive_collectives_do_not_cross_match() {
        let out = World::run(3, |mut c| {
            let a = c.allreduce_sum_f64(1.0);
            let b = c.allreduce_sum_f64(10.0);
            c.barrier();
            let d = c.allreduce_sum_f64(c.rank() as f64);
            (a, b, d)
        });
        for (a, b, d) in out {
            assert_eq!(a, 3.0);
            assert_eq!(b, 30.0);
            assert_eq!(d, 3.0);
        }
    }

    /// The fallible collectives surface a dead peer as `CommError`
    /// instead of a panic: the cohort degrades, the process survives.
    ///
    /// Collective failure is *not uniform* (exactly as in MPI): a rank
    /// that errors out of a collective stops relaying, so survivors must
    /// never be made to wait on each other across a failed collective.
    /// Both scenarios below keep every survivor's failure path rooted
    /// directly at the dead rank.
    #[test]
    fn try_collectives_degrade_on_a_dead_peer() {
        // Scenario A: the root survives its (only) peer — every recv in
        // the root arm of each collective hits the dead rank directly.
        let out = World::run_fallible(2, None, |mut c| {
            if c.rank() == 1 {
                panic!("injected rank failure");
            }
            // Wait for the down note so the failure is already known.
            let r = c.recv_timeout(1, 1, std::time::Duration::from_secs(20));
            assert!(r.is_err(), "rank 1 never sends");
            let barrier = c.try_barrier();
            let gather = c.try_allgather_bytes(vec![c.rank() as u8]);
            let reduce = c.try_allreduce_sum_u64(1);
            (barrier, gather.map(|v| v.len()), reduce)
        });
        let (barrier, gather, reduce) = out[0].as_ref().expect("root returns cleanly");
        assert!(
            matches!(barrier, Err(CommError::RankDown(1) | CommError::WorldDown)),
            "{barrier:?}"
        );
        assert!(gather.is_err() && reduce.is_err());

        // Scenario B: the root dies; each non-root survivor waits only
        // on the dead root (sends to it are dropped, never block), so
        // the survivors degrade independently of one another.
        let out = World::run_fallible(3, None, |mut c| {
            if c.rank() == 0 {
                panic!("injected root failure");
            }
            let r = c.recv_timeout(0, 1, std::time::Duration::from_secs(20));
            assert!(r.is_err(), "rank 0 never sends");
            let barrier = c.try_barrier();
            let gather = c.try_allgather_bytes(vec![c.rank() as u8]);
            let reduce = c.try_allreduce_sum_u64(1);
            (barrier, gather.map(|v| v.len()), reduce)
        });
        for r in [1, 2] {
            let (barrier, gather, reduce) = out[r].as_ref().expect("survivors return cleanly");
            assert!(
                matches!(barrier, Err(CommError::RankDown(0) | CommError::WorldDown)),
                "{barrier:?}"
            );
            assert!(gather.is_err() && reduce.is_err());
        }
    }

    /// A torn length-prefixed allgather frame parses to
    /// `CommError::Protocol` instead of slicing out of bounds.
    #[test]
    fn torn_allgather_frame_is_a_protocol_error() {
        let out = World::run(2, |mut c| {
            if c.rank() == 0 {
                // Rank 0 impersonates the allgather root but sends a
                // frame whose length prefix overruns the payload.
                let _ = c.try_recv_raw(1, COLLECTIVE_TAG_BASE);
                let mut frame = Vec::new();
                frame.extend_from_slice(&1000u64.to_le_bytes());
                frame.extend_from_slice(&[1, 2, 3]);
                c.send_raw(1, COLLECTIVE_TAG_BASE, frame);
                Ok(0usize)
            } else {
                c.try_allgather_bytes(vec![7]).map(|v| v.len())
            }
        });
        assert_eq!(out[1], Err(CommError::Protocol), "{:?}", out[1]);
    }
}
