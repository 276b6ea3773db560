//! Ranked threads with tagged, buffered point-to-point messaging.
//!
//! Every receive goes through one matching engine, an indexed set of
//! posted receives ([`Communicator::post`]) whose messages are taken in
//! arrival order ([`Communicator::poll`], [`Communicator::wait`]);
//! `recv`, `recv_any` and the collectives post one key or a list.
//!
//! Beyond the MPI-like happy path, the runtime carries the failure
//! machinery the resilient driver builds on:
//!
//! * every blocking receive has a fallible core returning
//!   [`CommError`] — the public infallible wrappers convert failures
//!   into an immediate panic instead of the silent deadlock a crashed
//!   peer used to cause;
//! * timeout variants ([`Communicator::recv_timeout`],
//!   [`Communicator::recv_any_within`]) bound every wait;
//! * a poisoned-communicator state: once a peer is known dead (its
//!   panic guard or fail-stop crash broadcast a control note), receives
//!   from it fail fast with [`CommError::RankDown`];
//! * a deterministic fault-injection layer ([`crate::fault`]) threaded
//!   through `send`, plus the control-plane collectives
//!   ([`Communicator::agree_all`], [`Communicator::recovery_sync`]) the
//!   checkpoint/restart protocol uses. Control messages (tags at or
//!   above [`CTRL_TAG_BASE`]) bypass fault injection — they model the
//!   out-of-band failure detector of the host runtime.

use crate::fault::{FaultConfig, FaultEvent, FaultPlan, SendAction};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// A tagged message between ranks.
#[derive(Debug)]
struct Message {
    from: u32,
    /// Per-(sender, destination) sequence number; lets receivers suppress
    /// injected duplicates (TCP-style) without touching tag matching.
    seq: u64,
    tag: u64,
    payload: Vec<u8>,
}

/// Why a receive could not complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommError {
    /// The peer is known to be down (panic guard or fail-stop crash
    /// notification); the awaited message can never arrive.
    RankDown(u32),
    /// No matching message arrived within the timeout.
    Timeout,
    /// The deadline expired while a cohort recovery was pending — a
    /// [`CommError::Timeout`] with a known cause; the caller should
    /// abandon the current step and join recovery.
    Interrupted,
    /// Every channel endpoint is gone: the whole world unwound, so no
    /// message can ever arrive again. Unlike [`CommError::RankDown`]
    /// this blames no specific peer — there is none left to blame.
    WorldDown,
    /// A received frame failed to parse as the protocol message the
    /// receiver expected — a truncated collective frame or a control
    /// note from the wrong epoch. The transport itself is healthy, but
    /// the operation cannot complete; callers treat it like a torn
    /// round and fall back to recovery.
    Protocol,
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RankDown(r) => write!(f, "rank {r} is down"),
            CommError::Timeout => write!(f, "receive timed out"),
            CommError::Interrupted => write!(f, "interrupted by a recovery request"),
            CommError::WorldDown => write!(f, "every rank is gone"),
            CommError::Protocol => write!(f, "malformed protocol frame"),
        }
    }
}

impl std::error::Error for CommError {}

/// Tags at or above this value are reserved for collectives.
pub(crate) const COLLECTIVE_TAG_BASE: u64 = 1 << 48;

/// Tags at or above this value are reserved for the control plane
/// (failure notes and the recovery protocol). Control messages bypass
/// fault injection and duplicate suppression.
pub(crate) const CTRL_TAG_BASE: u64 = 1 << 52;

/// Per-sender duplicate-suppression window. One sender's sequence
/// numbers arrive *almost* in order: only injected delays (bounded by
/// the plan's `max_delay` subsequent sends) and duplicates (enqueued
/// adjacent to their original) perturb the stream. Remembering every
/// delivered `(from, seq)` pair would therefore grow linearly with the
/// message count of a long faulted run; instead `recent` keeps only the
/// delivered seqs at or above a moving `frontier` that trails the
/// highest delivery by a span far exceeding the worst-case reorder
/// distance — anything older is final and pruned.
#[derive(Clone, Debug, Default)]
struct DedupWindow {
    /// Seqs below this are settled: delivered (and since pruned) or
    /// dropped by injection — never a fresh arrival.
    frontier: u64,
    /// Delivered seqs at or above `frontier`.
    recent: BTreeSet<u64>,
    /// The highest delivered seq (0 before the first delivery).
    highest: u64,
}

/// The posted-receive set, which every receive goes through — the
/// `MPI_Irecv` / `MPI_Waitany` analogue: unmatched receives indexed by
/// `(from, tag)`, and the messages matched to one, in arrival order.
#[derive(Debug, Default)]
struct Posted {
    /// The caller's token per unmatched `(from, tag)`.
    want: HashMap<(u32, u64), usize>,
    /// Unmatched receives per sender rank (the dead-peer check).
    waiting: Vec<u32>,
    /// Matched messages in arrival order: `(key, token, payload)`.
    ready: VecDeque<((u32, u64), usize, Vec<u8>)>,
}

const K_RANKDOWN: u64 = 0;
const K_RECOVER_REQ: u64 = 1;
const K_JOIN: u64 = 2;
const K_GO: u64 = 3;
const K_DONE: u64 = 4;
const K_RESUME: u64 = 5;
const K_AGREE_UP: u64 = 6;
const K_AGREE_DOWN: u64 = 7;
const K_READY: u64 = 8;

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Checked read of the `i`-th little-endian u64 field of a control
/// payload. Control payloads are built by this module, but a stale or
/// truncated note (replayed across a recovery epoch by a slow peer,
/// or surviving a torn round) must not bring the receiving rank down —
/// callers skip malformed payloads instead of indexing past the end.
fn ctrl_u64(buf: &[u8], i: usize) -> Option<u64> {
    buf.get(i * 8..i * 8 + 8).and_then(|b| b.try_into().ok()).map(u64::from_le_bytes)
}

/// Cumulative send-side traffic counters of one rank, as reported by
/// [`Communicator::counters`]. Counts what this rank *attempted* to
/// send (before fault injection drops anything), which is the load a
/// real network would see.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommCounters {
    /// Data and collective messages passed to the send path.
    pub messages_sent: u64,
    /// Payload bytes of those messages.
    pub bytes_sent: u64,
    /// Control-plane messages (failure notes, recovery barrier).
    pub ctrl_messages_sent: u64,
}

/// Per-rank communication endpoint — the `MPI_Comm` analogue.
pub struct Communicator {
    rank: u32,
    size: u32,
    senders: Vec<Sender<Message>>,
    receiver: Receiver<Message>,
    /// Messages that arrived with no receive posted for them; a key
    /// leaves with its last message.
    pending: HashMap<(u32, u64), VecDeque<Vec<u8>>>,
    /// The posted receives (empty outside a receive or a drain).
    posted: Posted,
    /// Sequence counter making collective tags unique per operation.
    pub(crate) coll_seq: u64,
    /// Upper bound on each blocking receive inside a collective
    /// (None = wait until the message or a known failure).
    coll_timeout: Option<Duration>,
    /// Fault-injection plan for this rank's sends (None = clean).
    plan: Option<FaultPlan>,
    /// True when any rank of this world injects faults: enables
    /// receiver-side duplicate suppression.
    dedup: bool,
    /// Next outgoing sequence number per destination.
    seq_out: Vec<u64>,
    /// Data sends per destination (the clock delayed messages are
    /// measured against).
    sends_to: Vec<u64>,
    /// Held-back (delayed) messages per destination: `(due, message)`
    /// where `due` is the `sends_to` count at which to release.
    limbo: Vec<VecDeque<(u64, Message)>>,
    /// Per-sender delivery windows for duplicate suppression (memory
    /// bounded by `dedup_span` per sender, not by total message count).
    seen: Vec<DedupWindow>,
    /// How far each window's frontier trails its highest delivered seq.
    dedup_span: u64,
    /// Peers known to be down.
    dead: HashSet<u32>,
    /// Set when any rank requested a cohort recovery.
    recover_flag: bool,
    /// Parked recovery-protocol messages: `(from, kind, payload)`.
    ctrl: VecDeque<(u32, u64, Vec<u8>)>,
    /// Completed recovery rounds (all ranks agree: rounds are serialized
    /// by the recovery barrier itself).
    recovery_epoch: u64,
    /// Sequence counter for [`Communicator::agree_all`] rounds.
    agree_round: u64,
    /// Send-side traffic totals (see [`CommCounters`]).
    counters: CommCounters,
}

impl Communicator {
    /// This process's rank in `0..size`.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Total number of ranks.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Cumulative send-side traffic of this rank so far.
    pub fn counters(&self) -> CommCounters {
        self.counters
    }

    // ---- send path ----------------------------------------------------

    /// Sends `payload` to `to` with a user `tag` (non-blocking, buffered).
    pub fn send(&mut self, to: u32, tag: u64, payload: Vec<u8>) {
        assert!(tag < COLLECTIVE_TAG_BASE, "user tags must stay below the collective range");
        self.send_raw(to, tag, payload);
    }

    pub(crate) fn send_raw(&mut self, to: u32, tag: u64, payload: Vec<u8>) {
        self.counters.messages_sent += 1;
        self.counters.bytes_sent += payload.len() as u64;
        let t = to as usize;
        let seq = self.seq_out[t];
        self.seq_out[t] += 1;
        let msg = Message { from: self.rank, seq, tag, payload };
        if let Some(plan) = self.plan.as_mut().filter(|_| tag < CTRL_TAG_BASE) {
            let action = plan.decide(to, seq);
            self.sends_to[t] += 1;
            match action {
                SendAction::Drop => {}
                SendAction::Duplicate => {
                    let dup = Message { from: msg.from, seq, tag, payload: msg.payload.clone() };
                    self.push_raw(to, msg);
                    self.push_raw(to, dup);
                }
                SendAction::Delay(k) => {
                    let due = self.sends_to[t] + k as u64;
                    self.limbo[t].push_back((due, msg));
                }
                SendAction::Deliver => self.push_raw(to, msg),
            }
            self.flush_due(to);
            return;
        }
        self.push_raw(to, msg);
    }

    /// Raw channel push. A gone receiver means the peer's thread
    /// unwound (panic): record it as down instead of panicking here.
    fn push_raw(&mut self, to: u32, msg: Message) {
        if self.senders[to as usize].send(msg).is_err() {
            self.dead.insert(to);
        }
    }

    /// Releases limbo messages whose hold-back expired for destination
    /// `to`, preserving their relative order.
    fn flush_due(&mut self, to: u32) {
        let t = to as usize;
        let count = self.sends_to[t];
        let mut i = 0;
        while i < self.limbo[t].len() {
            if self.limbo[t][i].0 <= count {
                if let Some((_, m)) = self.limbo[t].remove(i) {
                    self.push_raw(to, m);
                }
            } else {
                i += 1;
            }
        }
    }

    /// Releases every message still held back by the delay fault. Called
    /// before any blocking receive: a rank about to wait has nothing left
    /// to reorder against, and holding messages across a blocking wait
    /// could deadlock an otherwise correct exchange. Drivers also call it
    /// at the end of a send phase, so injected reordering stays *within*
    /// the phase: which messages are in limbo when a rank later fails is
    /// then a function of program points alone, never of receive timing
    /// — a requirement for reproducible failure traces.
    pub fn flush_delayed(&mut self) {
        for t in 0..self.limbo.len() {
            while let Some((_, m)) = self.limbo[t].pop_front() {
                self.push_raw(t as u32, m);
            }
        }
    }

    /// Drops every held-back message (fail-stop crash / recovery entry:
    /// the messages are stale by definition).
    fn discard_limbo(&mut self) {
        for q in &mut self.limbo {
            q.clear();
        }
    }

    fn send_ctrl(&mut self, to: u32, kind: u64, payload: Vec<u8>) {
        self.counters.ctrl_messages_sent += 1;
        let t = to as usize;
        let seq = self.seq_out[t];
        self.seq_out[t] += 1;
        self.push_raw(to, Message { from: self.rank, seq, tag: CTRL_TAG_BASE + kind, payload });
    }

    /// A control note outside the per-destination sequence: it takes no
    /// sequence number, so the data messages after it keep theirs, and
    /// with them every decision of a fault plan (drawn per number).
    fn send_note(&mut self, to: u32, kind: u64) {
        self.counters.ctrl_messages_sent += 1;
        let tag = CTRL_TAG_BASE + kind;
        self.push_raw(to, Message { from: self.rank, seq: u64::MAX, tag, payload: Vec::new() });
    }

    fn broadcast_ctrl(&mut self, kind: u64, payload: &[u8]) {
        for r in 0..self.size {
            if r != self.rank {
                self.send_ctrl(r, kind, payload.to_vec());
            }
        }
    }

    // ---- receive path -------------------------------------------------

    /// The error for an expired deadline: [`CommError::Interrupted`]
    /// when a cohort recovery is pending (the wait was doomed),
    /// plain [`CommError::Timeout`] otherwise.
    fn timeout_error(&self) -> CommError {
        if self.recover_flag {
            CommError::Interrupted
        } else {
            CommError::Timeout
        }
    }

    /// Classifies one raw arrival: control notes update failure state
    /// and return `None`; injected duplicates are suppressed; everything
    /// else passes through for tag matching.
    fn classify(&mut self, m: Message) -> Option<Message> {
        if m.tag >= CTRL_TAG_BASE {
            match m.tag - CTRL_TAG_BASE {
                K_RANKDOWN => {
                    self.dead.insert(m.from);
                }
                K_RECOVER_REQ => {
                    self.recover_flag = true;
                }
                kind => self.ctrl.push_back((m.from, kind, m.payload)),
            }
            return None;
        }
        if self.dedup && self.is_duplicate(m.from, m.seq) {
            return None;
        }
        Some(m)
    }

    /// Receiver-side duplicate test for data message (`from`, `seq`),
    /// recording the delivery. A seq below the sender's frontier, or
    /// already in its window, is a duplicate. The frontier advances to
    /// `highest - dedup_span` on every delivery, pruning the window;
    /// the span comfortably exceeds the worst-case reorder distance
    /// (injected delays hold a message back at most `max_delay`
    /// subsequent sends and limbo is flushed before every blocking
    /// wait; duplicates arrive back-to-back), so a fresh message never
    /// lands behind the frontier.
    fn is_duplicate(&mut self, from: u32, seq: u64) -> bool {
        let w = &mut self.seen[from as usize];
        if seq < w.frontier || !w.recent.insert(seq) {
            return true;
        }
        w.highest = w.highest.max(seq);
        let lo = w.highest.saturating_sub(self.dedup_span);
        if lo > w.frontier {
            w.frontier = lo;
            w.recent = w.recent.split_off(&lo);
        }
        false
    }

    /// Takes the oldest message parked for `key`; a key leaves the map
    /// with its last message (collective tags are unique per operation).
    fn take_pending(&mut self, key: (u32, u64)) -> Option<Vec<u8>> {
        let q = self.pending.get_mut(&key)?;
        let m = q.pop_front();
        if q.is_empty() {
            self.pending.remove(&key);
        }
        m
    }

    /// Routes one raw arrival past [`Communicator::classify`]: to the
    /// receive posted for its `(from, tag)` — one lookup — or, with none
    /// posted, to the pending buffer.
    fn route(&mut self, m: Message) {
        let Some(m) = self.classify(m) else { return };
        let key = (m.from, m.tag);
        match self.posted.want.remove(&key) {
            Some(token) => {
                self.posted.waiting[m.from as usize] -= 1;
                self.posted.ready.push_back((key, token, m.payload));
            }
            None => self.pending.entry(key).or_default().push_back(m.payload),
        }
    }

    /// Posts a receive for the next message from `from` with `tag` — the
    /// `MPI_Irecv` analogue. [`Communicator::poll`] and
    /// [`Communicator::wait`] return its message with `token`, in arrival
    /// order among all posted receives. A message already parked is
    /// matched at once; otherwise the key is indexed, so matching an
    /// arrival costs one lookup however many receives are posted. Panics
    /// if the key already has an unmatched receive.
    pub fn post(&mut self, from: u32, tag: u64, token: usize) {
        assert!(tag < COLLECTIVE_TAG_BASE, "user tags must stay below the collective range");
        let fresh = self.post_raw((from, tag), token);
        assert!(fresh, "rank {}: receive (from={from}, tag={tag}) already posted", self.rank);
    }

    /// [`Communicator::post`] for any tag; false, posting nothing, if
    /// `key` already has an unmatched receive.
    fn post_raw(&mut self, key: (u32, u64), token: usize) -> bool {
        assert!(key.0 < self.size, "rank {}: no rank {} to receive from", self.rank, key.0);
        if let Some(payload) = self.take_pending(key) {
            self.posted.ready.push_back((key, token, payload));
        } else if let Entry::Vacant(v) = self.posted.want.entry(key) {
            v.insert(token);
            self.posted.waiting[key.0 as usize] += 1;
        } else {
            return false;
        }
        true
    }

    /// The next message matched to a posted receive, in arrival order,
    /// without blocking: `(token, payload)`, or `None` if none has one.
    pub fn poll(&mut self) -> Option<(usize, Vec<u8>)> {
        while self.posted.ready.is_empty() {
            let Ok(m) = self.receiver.try_recv() else { break };
            self.route(m);
        }
        self.posted.ready.pop_front().map(|(_, token, payload)| (token, payload))
    }

    /// Blocking [`Communicator::poll`], the `MPI_Waitany` analogue:
    /// without `patience` it blocks until a match or a known failure;
    /// with one it fails with [`CommError::Timeout`] once it runs out
    /// ([`CommError::Interrupted`] when a cohort recovery is pending).
    /// Panics if no receive is posted.
    ///
    /// Delivery is **availability-first**: a dead peer is only reported
    /// (the lowest dead rank with an unmatched receive) once everything
    /// deliverable has been matched or parked, so whether a receive
    /// succeeds depends on what its peer sent before failing, never on
    /// how fast the failure note raced the data. Reproducible fault
    /// traces rest on it.
    pub fn wait(&mut self, patience: Option<Duration>) -> Result<(usize, Vec<u8>), CommError> {
        let deadline = patience.map(|d| Instant::now() + d);
        loop {
            if let Some(hit) = self.poll() {
                return Ok(hit);
            }
            assert!(!self.posted.want.is_empty(), "rank {}: nothing posted", self.rank);
            let awaited = |r: &&u32| self.posted.waiting.get(**r as usize).is_some_and(|&n| n > 0);
            if let Some(&r) = self.dead.iter().filter(awaited).min() {
                return Err(CommError::RankDown(r));
            }
            // About to block: release held-back sends first.
            self.flush_delayed();
            let arrival = match deadline {
                None => self.receiver.recv().map_err(|_| {
                    // Every sender dropped: the whole cohort unwound.
                    CommError::WorldDown
                })?,
                Some(dl) => {
                    let now = Instant::now();
                    if now >= dl {
                        return Err(self.timeout_error());
                    }
                    match self.receiver.recv_timeout(dl - now) {
                        Ok(m) => m,
                        Err(RecvTimeoutError::Timeout) => return Err(self.timeout_error()),
                        Err(RecvTimeoutError::Disconnected) => return Err(CommError::WorldDown),
                    }
                }
            };
            self.route(arrival);
        }
    }

    /// Withdraws every posted receive. A message already matched goes
    /// back to the front of its pending queue, so per-`(from, tag)` FIFO
    /// holds. The receive set is empty between steps: a failed drain
    /// calls this.
    pub fn withdraw(&mut self) {
        self.posted.want.clear();
        self.posted.waiting.fill(0);
        while let Some((key, _, payload)) = self.posted.ready.pop_back() {
            self.pending.entry(key).or_default().push_front(payload);
        }
    }

    /// The receive behind `recv`, `recv_any` and the collectives: posts
    /// `keys` with their list indices as tokens, takes one message and
    /// withdraws the rest. Posting stops at the first key with a parked
    /// message, so parked messages win in list order; a repeated key
    /// keeps its first index.
    fn recv_keys(
        &mut self,
        keys: &[(u32, u64)],
        patience: Option<Duration>,
    ) -> Result<(usize, Vec<u8>), CommError> {
        assert!(!keys.is_empty(), "receive needs at least one expected message");
        let idle = self.posted.want.is_empty() && self.posted.ready.is_empty();
        assert!(idle, "rank {}: blocking receive with receives posted", self.rank);
        for (i, &key) in keys.iter().enumerate() {
            if self.post_raw(key, i) && !self.posted.ready.is_empty() {
                break;
            }
        }
        let got = self.wait(patience);
        self.withdraw();
        got
    }

    /// Blocking receive of the next message from `from` with `tag`;
    /// messages with other (from, tag) pairs are buffered, so receives in
    /// any order cannot deadlock as long as the matching sends happen.
    ///
    /// Panics (instead of hanging forever) if `from` is known to be
    /// down — use [`Communicator::recv_result`] or
    /// [`Communicator::recv_timeout`] to handle failures.
    pub fn recv(&mut self, from: u32, tag: u64) -> Vec<u8> {
        assert!(tag < COLLECTIVE_TAG_BASE, "user tags must stay below the collective range");
        self.recv_result(from, tag)
            .unwrap_or_else(|e| panic!("rank {}: recv(from={from}, tag={tag}): {e}", self.rank))
    }

    /// Fallible [`Communicator::recv`]: fails fast with
    /// [`CommError::RankDown`] when the peer is known dead instead of
    /// blocking forever.
    pub fn recv_result(&mut self, from: u32, tag: u64) -> Result<Vec<u8>, CommError> {
        self.recv_keys(&[(from, tag)], None).map(|(_, m)| m)
    }

    /// [`Communicator::recv_result`] with an upper bound on the wait.
    pub fn recv_timeout(
        &mut self,
        from: u32,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<u8>, CommError> {
        self.recv_keys(&[(from, tag)], Some(timeout)).map(|(_, m)| m)
    }

    /// Fallible collective receive: the core every `try_*` collective
    /// builds on. A dead peer or unwound world surfaces as a
    /// [`CommError`] the caller can degrade on, instead of the panic
    /// that would poison every other tenant of the process.
    pub(crate) fn try_recv_raw(&mut self, from: u32, tag: u64) -> Result<Vec<u8>, CommError> {
        self.recv_keys(&[(from, tag)], self.coll_timeout).map(|(_, m)| m)
    }

    /// Bounds every blocking receive inside the `try_*` collectives by
    /// `timeout`, so a collective frame lost to a fault surfaces as
    /// [`CommError::Timeout`] instead of a hang. Collective frames
    /// travel the data plane — injected drops apply to them — so a
    /// caller that runs collectives under a fault plan must set this
    /// and be prepared to roll back.
    pub fn set_collective_timeout(&mut self, timeout: Option<Duration>) {
        self.coll_timeout = timeout;
    }

    /// Blocking receive of the *first available* message among `expected`
    /// `(from, tag)` pairs — the `MPI_Waitany` analogue over a list.
    /// Returns the index of the matched pair and its payload.
    ///
    /// Already-buffered messages are preferred (in list order);
    /// otherwise the call blocks and returns messages in arrival order,
    /// buffering non-matching ones. FIFO order per `(from, tag)` is
    /// preserved in all cases. Panics if an expected peer is down.
    pub fn recv_any(&mut self, expected: &[(u32, u64)]) -> (usize, Vec<u8>) {
        self.recv_any_within(expected, None)
            .unwrap_or_else(|e| panic!("rank {}: recv_any: {e}", self.rank))
    }

    /// Fallible [`Communicator::recv_any`], bounded by `patience` when
    /// there is one.
    pub fn recv_any_within(
        &mut self,
        expected: &[(u32, u64)],
        patience: Option<Duration>,
    ) -> Result<(usize, Vec<u8>), CommError> {
        for &(_, tag) in expected {
            assert!(tag < COLLECTIVE_TAG_BASE, "user tags must stay below the collective range");
        }
        self.recv_keys(expected, patience)
    }

    // ---- failure state and the recovery protocol ----------------------

    /// Ranks currently known to be down, ascending.
    pub fn dead_ranks(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.dead.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// True once any rank requested a cohort recovery (or a fail-stop
    /// crash was observed and converted into a request).
    pub fn recovery_requested(&self) -> bool {
        self.recover_flag
    }

    /// The failure trace injected by this rank's fault plan so far.
    pub fn fault_events(&self) -> Vec<FaultEvent> {
        self.plan.as_ref().map(|p| p.events().to_vec()).unwrap_or_default()
    }

    /// Completed recovery rounds.
    pub fn recovery_epoch(&self) -> u64 {
        self.recovery_epoch
    }

    /// True exactly when this rank's fault plan schedules its fail-stop
    /// crash at the start of `step`. Fires once; the crash is announced
    /// to every peer (the emulated failure detector) and converted into
    /// a recovery request, after which the caller must discard its
    /// volatile state and join [`Communicator::recovery_sync`].
    pub fn crash_due(&mut self, step: u64) -> bool {
        let due = match &mut self.plan {
            Some(p) => p.crash_due(step),
            None => false,
        };
        if due {
            self.discard_limbo();
            self.broadcast_ctrl(K_RANKDOWN, &[]);
            self.broadcast_ctrl(K_RECOVER_REQ, &[]);
            self.recover_flag = true;
        }
        due
    }

    /// Asks the whole cohort to roll back: broadcast a recovery request
    /// (peers observe it via [`CommError::Interrupted`] or
    /// [`Communicator::recovery_requested`]) and mark it locally.
    pub fn request_recovery(&mut self) {
        self.recover_flag = true;
        self.broadcast_ctrl(K_RECOVER_REQ, &[]);
    }

    /// Control-plane receive: first parked message of `kind` (optionally
    /// from a specific rank), pumping the channel until the deadline
    /// (none: until the message). Data messages arriving meanwhile are
    /// routed like any arrival. With no such message parked, a `doomed`
    /// communicator (the wait can no longer succeed) ends the wait as the
    /// deadline would.
    fn recv_ctrl(
        &mut self,
        kind: u64,
        from: Option<u32>,
        deadline: Option<Instant>,
        doomed: fn(&Self) -> bool,
    ) -> Result<(u32, Vec<u8>), CommError> {
        loop {
            if let Some(pos) =
                self.ctrl.iter().position(|&(f, k, _)| k == kind && from.map_or(true, |x| x == f))
            {
                if let Some((f, _, p)) = self.ctrl.remove(pos) {
                    return Ok((f, p));
                }
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| now >= d) || doomed(self) {
                return Err(CommError::Timeout);
            }
            let next = match deadline {
                Some(d) => self.receiver.recv_timeout(d - now),
                None => self.receiver.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match next {
                Ok(m) => self.route(m),
                Err(RecvTimeoutError::Timeout) => return Err(CommError::Timeout),
                Err(RecvTimeoutError::Disconnected) => return Err(CommError::WorldDown),
            }
        }
    }

    /// Returns once every rank of the cohort has called it: the barrier
    /// that ends rank construction. It runs on the control plane, as
    /// [`Communicator::agree_all`] does, with notes that take no sequence
    /// number: no fault plan touches it or decides differently after it,
    /// and it adds nothing to [`CommCounters::messages_sent`]. It has no
    /// deadline, since a slow build is not a failure; a peer known to be
    /// down ends the wait as [`CommError::RankDown`].
    pub fn await_cohort(&mut self) -> Result<(), CommError> {
        // Rank 0 gathers and then releases. No rank leaves before the
        // release, so a peer down before it is a failure. A released
        // peer may finish and leave before another rank's release
        // arrives, so the others wait for rank 0 alone: it releases
        // them, or fails and leaves, which they see as its down note.
        let waited = if self.rank == 0 {
            let doomed = |c: &Self| !c.dead.is_empty();
            let heard = (1..self.size)
                .try_for_each(|_| self.recv_ctrl(K_READY, None, None, doomed).map(drop));
            if heard.is_ok() {
                for r in 1..self.size {
                    self.send_note(r, K_READY);
                }
            }
            heard
        } else {
            self.send_note(0, K_READY);
            self.recv_ctrl(K_READY, Some(0), None, |c| c.dead.contains(&0)).map(drop)
        };
        waited.map_err(|e| match e {
            CommError::Timeout => CommError::RankDown(self.dead.iter().copied().min().unwrap_or(0)),
            e => e,
        })
    }

    /// Global agreement that the step interval completed cleanly: the
    /// all-ranks AND of `ok`, with every wait bounded by `timeout`. Used
    /// at checkpoint epochs — a `true` verdict means every rank reached
    /// this epoch, so the per-rank checkpoints taken right after form a
    /// globally consistent cut (no data message can be in flight across
    /// it). Runs on the control plane: immune to injected faults and
    /// safe to call while ordinary traffic is failing.
    pub fn agree_all(&mut self, ok: bool, timeout: Duration) -> Result<bool, CommError> {
        // A rank at an agreement point has completed its step interval:
        // nothing is left to reorder against, so release any held-back
        // data first — a neighbor may still be waiting on it.
        self.flush_delayed();
        let deadline = Instant::now() + timeout;
        let round = self.agree_round;
        self.agree_round += 1;
        let mut payload = Vec::with_capacity(16);
        put_u64(&mut payload, round);
        put_u64(&mut payload, ok as u64);
        if self.rank == 0 {
            let mut verdict = ok;
            let mut heard = 1u32;
            // A requested recovery or a voter known down fails the round
            // at once, as its deadline would.
            let doomed = |c: &Self| c.recover_flag || !c.dead.is_empty();
            while heard < self.size {
                match self.recv_ctrl(K_AGREE_UP, None, Some(deadline), doomed) {
                    Ok((_, p)) => {
                        let (Some(r), Some(v)) = (ctrl_u64(&p, 0), ctrl_u64(&p, 1)) else {
                            continue; // truncated vote: ignore like a stale one
                        };
                        if r != round {
                            continue; // stale round: ignore
                        }
                        verdict &= v != 0;
                        heard += 1;
                    }
                    Err(_) => {
                        verdict = false;
                        break;
                    }
                }
            }
            let mut down = Vec::with_capacity(16);
            put_u64(&mut down, round);
            put_u64(&mut down, verdict as u64);
            for r in 1..self.size {
                self.send_ctrl(r, K_AGREE_DOWN, down.clone());
            }
            Ok(verdict)
        } else {
            self.send_ctrl(0, K_AGREE_UP, payload);
            // The verdict for this round is guaranteed to be sent
            // eventually: rank 0 either completes the round or aborts it
            // with `false`, and control notes are never dropped. A
            // timeout therefore only means rank 0 has not reached the
            // round yet — keep waiting, unless a cohort recovery was
            // requested (the round is abandoned; the caller must roll
            // back) or rank 0 is known gone, either of which ends the
            // wait at once. Giving up otherwise is what would
            // de-synchronize checkpoints: this rank would skip a
            // snapshot its peers committed.
            let doomed = |c: &Self| c.recover_flag || c.dead.contains(&0);
            loop {
                match self.recv_ctrl(K_AGREE_DOWN, Some(0), Some(Instant::now() + timeout), doomed)
                {
                    Ok((_, p)) => {
                        if ctrl_u64(&p, 0) == Some(round) {
                            // A truncated verdict counts as `false`:
                            // forcing the rollback path is safe, the
                            // panic it used to cause was not.
                            return Ok(ctrl_u64(&p, 1).unwrap_or(0) != 0);
                        }
                    }
                    Err(CommError::Timeout) => {
                        if self.recover_flag {
                            return Err(CommError::Interrupted);
                        }
                        if self.dead.contains(&0) {
                            return Err(CommError::RankDown(0));
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }

    /// The cohort recovery barrier. Every rank (including a fail-stop
    /// "crashed" rank, which models a replacement process restarted from
    /// the pool) must call this; it returns once the whole cohort is
    /// synchronized on a clean slate:
    ///
    /// 1. **join** — all ranks report to rank 0 with their collective
    ///    counters; rank 0 releases them with the counter maximum, so
    ///    post-recovery collectives match up even though the ranks had
    ///    drifted;
    /// 2. **drain** — each rank discards every stale data message (all
    ///    pre-recovery traffic is, by construction, already enqueued
    ///    when the release arrives, because every sender stopped sending
    ///    before it joined), clears the pending buffer, the posted
    ///    receives, duplicate table, dead set and recovery flag;
    /// 3. **resume** — a second barrier so no rank re-enters the time
    ///    loop (and sends fresh messages) while a peer is still
    ///    draining.
    ///
    /// The protocol runs entirely on the control plane; `timeout` bounds
    /// every individual wait, so an unrecoverable cohort (a genuinely
    /// panicked rank) surfaces as an error instead of a hang.
    ///
    /// `held_steps` are the checkpoint steps this rank holds locally
    /// (any order); the returned step is the **newest step held by the
    /// whole cohort** — the step every rank must restore. The
    /// intersection is what makes rollback consistent when checkpoint
    /// agreements were torn by failures: consecutive partial commits
    /// can leave the per-rank histories staggered (a rank that kept
    /// committing prunes steps a stalled rank still depends on), so the
    /// negotiation walks the full held sets rather than trusting
    /// newest-minus-one to exist everywhere. If the intersection is
    /// empty (impossible while every rank retains its rollback anchor,
    /// but kept as a defined fallback) the cohort minimum of the
    /// per-rank newest steps is returned; callers must verify they hold
    /// the negotiated step.
    pub fn recovery_sync(
        &mut self,
        timeout: Duration,
        held_steps: &[u64],
    ) -> Result<u64, CommError> {
        let deadline = Instant::now() + timeout;
        self.discard_limbo();
        let epoch = self.recovery_epoch;
        let newest = held_steps.iter().copied().max().unwrap_or(0);
        let mut join = Vec::with_capacity(40 + 8 * held_steps.len());
        put_u64(&mut join, epoch);
        put_u64(&mut join, self.coll_seq);
        put_u64(&mut join, self.agree_round);
        put_u64(&mut join, held_steps.len() as u64);
        for &s in held_steps {
            put_u64(&mut join, s);
        }
        let restore_step;
        if self.rank == 0 {
            let mut max_coll = self.coll_seq;
            let mut max_agree = self.agree_round;
            let mut min_newest = newest;
            let mut common: std::collections::BTreeSet<u64> = held_steps.iter().copied().collect();
            let mut heard = 1u32;
            while heard < self.size {
                let (_, p) = self.recv_ctrl(K_JOIN, None, Some(deadline), |_| false)?;
                // Recovery epochs are serialized by the barrier itself,
                // but a join from an *older* epoch can linger when a
                // peer timed out of an earlier round this rank never
                // completed — skip it like any stale note. A *newer*
                // epoch means this rank missed a round it cannot lead:
                // the cohort's protocol state is torn beyond repair.
                match ctrl_u64(&p, 0) {
                    Some(e) if e == epoch => {}
                    Some(e) if e > epoch => return Err(CommError::Protocol),
                    _ => continue,
                }
                max_coll = max_coll.max(ctrl_u64(&p, 1).unwrap_or(0));
                max_agree = max_agree.max(ctrl_u64(&p, 2).unwrap_or(0));
                let count = ctrl_u64(&p, 3).unwrap_or(0) as usize;
                let held: std::collections::BTreeSet<u64> =
                    (0..count).filter_map(|i| ctrl_u64(&p, 4 + i)).collect();
                min_newest = min_newest.min(held.iter().copied().max().unwrap_or(0));
                common.retain(|s| held.contains(s));
                heard += 1;
            }
            restore_step = common.iter().copied().max().unwrap_or(min_newest);
            let mut go = Vec::with_capacity(32);
            put_u64(&mut go, epoch);
            put_u64(&mut go, max_coll);
            put_u64(&mut go, max_agree);
            put_u64(&mut go, restore_step);
            for r in 1..self.size {
                self.send_ctrl(r, K_GO, go.clone());
            }
            self.coll_seq = max_coll;
            self.agree_round = max_agree;
        } else {
            self.send_ctrl(0, K_JOIN, join);
            restore_step = loop {
                let (_, p) = self.recv_ctrl(K_GO, Some(0), Some(deadline), |_| false)?;
                match ctrl_u64(&p, 0) {
                    Some(e) if e == epoch => {
                        // Conservative fallbacks for a torn frame: keep
                        // the local counters (the maximum rule only ever
                        // raises them) and the newest local step.
                        self.coll_seq = ctrl_u64(&p, 1).unwrap_or(self.coll_seq);
                        self.agree_round = ctrl_u64(&p, 2).unwrap_or(self.agree_round);
                        break ctrl_u64(&p, 3).unwrap_or(newest);
                    }
                    Some(e) if e > epoch => return Err(CommError::Protocol),
                    _ => continue, // stale round: ignore
                }
            };
        }
        self.drain_stale();
        if self.rank == 0 {
            for _ in 1..self.size {
                self.recv_ctrl(K_DONE, None, Some(deadline), |_| false)?;
            }
            for r in 1..self.size {
                self.send_ctrl(r, K_RESUME, Vec::new());
            }
        } else {
            self.send_ctrl(0, K_DONE, Vec::new());
            self.recv_ctrl(K_RESUME, Some(0), Some(deadline), |_| false)?;
        }
        self.recovery_epoch += 1;
        Ok(restore_step)
    }

    /// Discards all stale pre-recovery state: queued data messages, the
    /// pending buffer, posted receives (a torn drain's included),
    /// duplicate table, dead set and failure flags.
    /// In-flight `DONE` notes of the running protocol are preserved;
    /// stale failure notes and agreement rounds are dropped (processing
    /// them after the slate is clean would re-trigger recovery forever).
    fn drain_stale(&mut self) {
        while let Ok(m) = self.receiver.try_recv() {
            if m.tag >= CTRL_TAG_BASE && m.tag - CTRL_TAG_BASE == K_DONE {
                self.ctrl.push_back((m.from, K_DONE, m.payload));
            }
        }
        self.ctrl.retain(|&(_, k, _)| k == K_DONE);
        self.pending.clear();
        self.posted = Posted { waiting: vec![0; self.size as usize], ..Default::default() };
        // Post-recovery seqs only grow, so an empty window (frontier 0)
        // behaves exactly like the pre-recovery full reset did.
        self.seen.fill_with(DedupWindow::default);
        self.dead.clear();
        self.recover_flag = false;
    }
}

impl Drop for Communicator {
    /// The network eventually delivers: any message still held back by
    /// the delay fault when this rank finishes is released, so a
    /// delayed message can be reordered but never lost. (A fail-stop
    /// crash explicitly discards its limbo before this runs.)
    ///
    /// The departure is then announced to every peer. A rank that has
    /// left — whether it panicked or returned cleanly — can never
    /// deliver another message, so peers still blocked on it must
    /// observe [`CommError::RankDown`] instead of hanging; this is what
    /// lets a failure *cascade*: a survivor that errors out and returns
    /// early is itself detected by the ranks waiting on it. Everything
    /// the rank actually sent is already enqueued ahead of the note, so
    /// no deliverable message is lost.
    fn drop(&mut self) {
        self.flush_delayed();
        self.broadcast_ctrl(K_RANKDOWN, &[]);
    }
}

/// A set of ranks executing a closure in parallel — the `MPI_COMM_WORLD`
/// plus `mpirun` analogue.
pub struct World;

impl World {
    /// Spawns `size` ranks, runs `f` on each with its communicator, and
    /// returns the per-rank results, ordered by rank. Panics in any rank
    /// propagate — but a panicking rank first broadcasts a down note, so
    /// surviving ranks blocked on it fail fast instead of deadlocking.
    pub fn run<T, F>(size: u32, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Communicator) -> T + Send + Sync,
    {
        Self::run_inner(size, None, f)
            .into_iter()
            .map(|r| match r {
                Ok(t) => t,
                Err(e) => std::panic::resume_unwind(e),
            })
            .collect()
    }

    /// Panic-tolerant [`World::run`]: a rank that panics yields
    /// `Err(message)` instead of aborting the whole world, and its
    /// panic guard notifies the survivors so their receives fail fast.
    /// `fault`, if any, is the deterministic fault plan installed on
    /// every rank.
    pub fn run_fallible<T, F>(size: u32, fault: Option<FaultConfig>, f: F) -> Vec<Result<T, String>>
    where
        T: Send,
        F: Fn(Communicator) -> T + Send + Sync,
    {
        Self::run_inner(size, fault, f)
            .into_iter()
            .map(|r| {
                r.map_err(|e| {
                    if let Some(s) = e.downcast_ref::<&str>() {
                        (*s).to_string()
                    } else if let Some(s) = e.downcast_ref::<String>() {
                        s.clone()
                    } else {
                        "rank panicked".to_string()
                    }
                })
            })
            .collect()
    }

    /// Builds the communicator mesh of a fresh `size`-rank cohort
    /// **without spawning any threads** — the re-entrant entry point
    /// multi-tenant schedulers build on. Every call wires a fully
    /// independent world out of its own channels; no process-global
    /// state exists, so any number of cohorts can be constructed and
    /// run concurrently in one process, and their tag spaces, failure
    /// notes and fault plans can never bleed into each other.
    ///
    /// The caller takes over what [`World::run`] otherwise does: move
    /// each communicator onto its own worker (they are `Send`), contain
    /// panics with `catch_unwind` (dropping a communicator mid-unwind
    /// broadcasts the down note, so cohort peers fail fast instead of
    /// hanging), and join the per-rank results.
    pub fn connect(size: u32, fault: Option<FaultConfig>) -> Vec<Communicator> {
        assert!(size > 0);
        let mut senders = Vec::with_capacity(size as usize);
        let mut receivers = Vec::with_capacity(size as usize);
        for _ in 0..size {
            let (s, r) = unbounded();
            senders.push(s);
            receivers.push(r);
        }
        let dedup = fault.as_ref().map_or(false, FaultConfig::is_active);
        // Window span: generous slack over the maximum injected
        // hold-back (measured in subsequent sends, each consuming one
        // seq) plus any control traffic interleaved before a flush.
        let dedup_span = fault.as_ref().map_or(0, |c| 1024 + 64 * c.max_delay as u64);
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| Communicator {
                rank: rank as u32,
                size,
                senders: senders.clone(),
                receiver,
                pending: HashMap::new(),
                posted: Posted { waiting: vec![0; size as usize], ..Default::default() },
                coll_seq: 0,
                coll_timeout: None,
                plan: fault.clone().map(|cfg| FaultPlan::new(cfg, rank as u32)),
                dedup,
                seq_out: vec![0; size as usize],
                sends_to: vec![0; size as usize],
                limbo: (0..size).map(|_| VecDeque::new()).collect(),
                seen: vec![DedupWindow::default(); size as usize],
                dedup_span,
                dead: HashSet::new(),
                recover_flag: false,
                ctrl: VecDeque::new(),
                recovery_epoch: 0,
                agree_round: 0,
                counters: CommCounters::default(),
            })
            .collect()
        // `senders` drops here: only the per-rank communicators keep
        // endpoints alive, so a fully unwound cohort is observable as
        // [`CommError::WorldDown`].
    }

    fn run_inner<T, F>(
        size: u32,
        fault: Option<FaultConfig>,
        f: F,
    ) -> Vec<Result<T, Box<dyn std::any::Any + Send>>>
    where
        T: Send,
        F: Fn(Communicator) -> T + Send + Sync,
    {
        let comms = Self::connect(size, fault);
        std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    // The panic guard's lifeline: clones of every sender,
                    // surviving the communicator's death mid-unwind.
                    let guard = comm.senders.clone();
                    let (rank, size) = (comm.rank, comm.size);
                    scope.spawn(move || {
                        let out =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(comm)));
                        if out.is_err() {
                            for r in 0..size {
                                if r != rank {
                                    let _ = guard[r as usize].send(Message {
                                        from: rank,
                                        seq: u64::MAX,
                                        tag: CTRL_TAG_BASE + K_RANKDOWN,
                                        payload: Vec::new(),
                                    });
                                }
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("rank thread died outside f")).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world under the fault plan `cfg` whose ranks must not panic.
    fn run_faulted<T: Send>(
        size: u32,
        cfg: FaultConfig,
        f: impl Fn(Communicator) -> T + Send + Sync,
    ) -> Vec<T> {
        let results = World::run_fallible(size, Some(cfg), f);
        results.into_iter().map(|r| r.expect("no rank panics")).collect()
    }

    #[test]
    fn ranks_and_sizes() {
        let out = World::run(5, |c| (c.rank(), c.size()));
        assert_eq!(out, vec![(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);
    }

    #[test]
    fn ring_send_recv() {
        let out = World::run(4, |mut c| {
            let next = (c.rank() + 1) % 4;
            let prev = (c.rank() + 3) % 4;
            c.send(next, 7, vec![c.rank() as u8]);
            let m = c.recv(prev, 7);
            m[0]
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let out = World::run(2, |mut c| {
            if c.rank() == 0 {
                // Send tag 2 first, then tag 1.
                c.send(1, 2, vec![22]);
                c.send(1, 1, vec![11]);
                0
            } else {
                // Receive in the opposite order.
                let a = c.recv(0, 1);
                let b = c.recv(0, 2);
                (a[0] as u32) * 100 + b[0] as u32
            }
        });
        assert_eq!(out[1], 11 * 100 + 22);
    }

    #[test]
    fn many_messages_preserve_fifo_per_tag() {
        let out = World::run(2, |mut c| {
            if c.rank() == 0 {
                for i in 0..100u8 {
                    c.send(1, 5, vec![i]);
                }
                vec![]
            } else {
                (0..100).map(|_| c.recv(0, 5)[0]).collect::<Vec<u8>>()
            }
        });
        assert_eq!(out[1], (0..100).collect::<Vec<u8>>());
    }

    /// Same-tag messages must stay FIFO even when they detour through the
    /// pending buffer because an out-of-order receive ran first. The
    /// ghost-exchange correctness of step-parity tags rests on this.
    #[test]
    fn fifo_preserved_through_pending_buffer() {
        let out = World::run(2, |mut c| {
            if c.rank() == 0 {
                c.send(1, 5, vec![0]);
                c.send(1, 5, vec![1]);
                c.send(1, 6, vec![66]);
                c.send(1, 5, vec![2]);
                vec![]
            } else {
                // Receiving tag 6 first forces the first two tag-5
                // messages through the pending buffer.
                let six = c.recv(0, 6);
                assert_eq!(six, vec![66]);
                (0..3).map(|_| c.recv(0, 5)[0]).collect::<Vec<u8>>()
            }
        });
        assert_eq!(out[1], vec![0, 1, 2]);
    }

    /// `recv_any` returns messages in *arrival* order, not in the order
    /// the expected list happens to enumerate them.
    #[test]
    fn recv_any_matches_arrival_order() {
        let out = World::run(2, |mut c| {
            if c.rank() == 0 {
                c.send(1, 10, vec![10]);
                c.send(1, 11, vec![11]);
                0
            } else {
                // Tag 10 was sent first, so it arrives first even though
                // it is listed second.
                let expected = [(0u32, 11u64), (0u32, 10u64)];
                let (i1, m1) = c.recv_any(&expected);
                let (i2, m2) = c.recv_any(&[expected[0]]);
                assert_eq!((i1, m1), (1, vec![10]));
                assert_eq!((i2, m2), (0, vec![11]));
                1
            }
        });
        assert_eq!(out, vec![0, 1]);
    }

    /// `recv_any` finds messages already parked in the pending buffer
    /// without touching the channel.
    #[test]
    fn recv_any_prefers_pending_messages() {
        let out = World::run(2, |mut c| {
            if c.rank() == 0 {
                c.send(1, 3, vec![33]);
                c.send(1, 4, vec![44]);
                0
            } else {
                // Receiving tag 4 first parks the tag-3 message in the
                // pending buffer; recv_any must then return it instantly.
                assert_eq!(c.recv(0, 4), vec![44]);
                let (i, m) = c.recv_any(&[(0, 3)]);
                assert_eq!((i, m), (0, vec![33]));
                1
            }
        });
        assert_eq!(out, vec![0, 1]);
    }

    /// `poll` returns already-matched messages and never blocks.
    #[test]
    fn poll_any_does_not_block() {
        let out = World::run(2, |mut c| {
            if c.rank() == 0 {
                // Rank 1 sends nothing until told to: must be None.
                c.post(1, 7, 0);
                let empty = c.poll().is_none();
                c.withdraw();
                c.send(1, 1, vec![]);
                // Receiving tag 8 parks the earlier tag-7 message in the
                // pending buffer, where posting must find it.
                let m = c.recv(1, 8);
                assert_eq!(m, vec![88]);
                c.post(1, 7, 0);
                let found = c.poll();
                empty && found == Some((0, vec![77]))
            } else {
                c.recv(0, 1);
                c.send(0, 7, vec![77]);
                c.send(0, 8, vec![88]);
                true
            }
        });
        assert!(out[0]);
    }

    #[test]
    fn poll_does_not_block() {
        let out = World::run(2, |mut c| {
            if c.rank() == 0 {
                // Nothing sent yet — rank 1 waits for the go below, so
                // this holds under any thread schedule: must be None.
                c.post(1, 9, 0);
                let empty = c.poll().is_none();
                c.send(1, 8, Vec::new());
                // Synchronize: wait for the real message.
                let (_, m) = c.wait(None).unwrap();
                empty && m == vec![1]
            } else {
                c.recv(0, 8);
                c.send(0, 9, vec![1]);
                true
            }
        });
        assert!(out[0]);
    }

    /// A non-blocking probe of one key through the posted set.
    fn probe(c: &mut Communicator, from: u32, tag: u64) -> Option<Vec<u8>> {
        c.post(from, tag, 0);
        let hit = c.poll();
        c.withdraw();
        hit.map(|(_, m)| m)
    }

    /// The arrival-order drain is O(N): 8 192 receives posted ahead of
    /// their sender, which sends in reverse posting order, 2 µs apart;
    /// the tokens come back in arrival order.
    /// A matcher that scans its expected list per arrival is quadratic
    /// here (over a second on a 2-vCPU host); the indexed set keeps the
    /// drain near the sender's own pace.
    #[test]
    fn arrival_drain_is_linear_in_the_posted_receives() {
        const N: u64 = 8_192;
        const GO: u64 = 1 << 20;
        let out = World::run(2, |mut c| {
            let mut drain = Duration::ZERO;
            for _round in 0..2 {
                if c.rank() == 0 {
                    c.recv(1, GO);
                    for k in (0..N).rev() {
                        c.send(1, k, vec![0; 8]);
                        let t = Instant::now();
                        while t.elapsed() < Duration::from_micros(2) {
                            std::hint::spin_loop();
                        }
                    }
                } else {
                    for k in 0..N {
                        c.post(0, k, k as usize);
                    }
                    c.send(0, GO, Vec::new());
                    let t = Instant::now();
                    for k in (0..N).rev() {
                        let (token, _) = c.wait(Some(Duration::from_secs(60))).unwrap();
                        assert_eq!(token, k as usize, "arrival order, not posting order");
                    }
                    // The first round warms the channel and the maps up.
                    drain = t.elapsed();
                }
                c.barrier();
            }
            drain
        });
        assert!(out[1] < Duration::from_millis(300), "drain of {N} messages took {:?}", out[1]);
    }

    /// A receive set torn by a timeout is cleared by the recovery
    /// barrier: the same keys posted again get only post-recovery
    /// messages.
    #[test]
    fn recovery_clears_the_posted_receives() {
        let out = World::run(2, |mut c| {
            let timeout = Duration::from_secs(20);
            if c.rank() == 0 {
                c.send(1, 1, b"stale".to_vec());
                c.send(1, 3, Vec::new());
                c.recovery_sync(timeout, &[0]).unwrap();
                c.send(1, 1, b"fresh1".to_vec());
                c.send(1, 2, b"fresh2".to_vec());
                Vec::new()
            } else {
                // Receiving tag 3 parks the stale tag-1 message. A torn
                // drain: tag 2 times out, tag 1 is matched from the park.
                c.recv(0, 3);
                c.post(0, 2, 2);
                assert_eq!(c.wait(Some(Duration::from_millis(50))), Err(CommError::Timeout));
                c.post(0, 1, 1);
                assert!(!c.posted.want.is_empty() && !c.posted.ready.is_empty());
                c.recovery_sync(timeout, &[0]).unwrap();
                assert!(c.posted.want.is_empty() && c.posted.ready.is_empty());
                assert!(c.pending.is_empty());
                c.post(0, 1, 1);
                c.post(0, 2, 2);
                let got: Vec<_> = (0..2).map(|_| c.wait(Some(timeout)).unwrap()).collect();
                assert!(c.poll().is_none());
                got
            }
        });
        assert_eq!(out[1], vec![(1, b"fresh1".to_vec()), (2, b"fresh2".to_vec())]);
    }

    /// Withdrawn messages go back to the front of their pending queues:
    /// `recv_any` over two parked keys takes one, and a withdrawn set
    /// with two matched keys gives both back, FIFO per key intact.
    #[test]
    fn withdraw_restores_order() {
        let out = World::run(2, |mut c| {
            if c.rank() == 0 {
                for m in [[1u8, 0], [2, 0], [1, 1], [2, 1], [1, 2], [2, 2]] {
                    c.send(1, u64::from(m[0]), m.to_vec());
                }
                c.send(1, 9, Vec::new());
                Vec::new()
            } else {
                // Receiving tag 9 parks three messages on each key.
                c.recv(0, 9);
                let (i, m) = c.recv_any(&[(0, 2), (0, 1)]);
                assert_eq!((i, m), (0, vec![2, 0]));
                assert_eq!(c.recv(0, 1), vec![1, 0]);
                // Both keys matched from the pending buffer, then withdrawn.
                c.post(0, 1, 0);
                c.post(0, 2, 1);
                assert_eq!(c.poll(), Some((0, vec![1, 1])));
                c.withdraw();
                let got = vec![c.recv(0, 2), c.recv(0, 2), c.recv(0, 1)];
                assert!(c.posted.want.is_empty() && c.pending.is_empty());
                got
            }
        });
        assert_eq!(out[1], vec![vec![2, 1], vec![2, 2], vec![1, 2]]);
    }

    /// A key leaves the pending map with its last message: collective
    /// tags are unique per operation, so keeping emptied keys would grow
    /// the map by one per collective whose frame arrived early.
    #[test]
    fn pending_map_forgets_drained_keys() {
        const GO: u64 = 5;
        let out = World::run(3, |mut c| {
            for i in 0..100u64 {
                match c.rank() {
                    // Rank 0 pumps its channel until rank 2's allreduce
                    // frame is parked, and only then lets rank 1 join.
                    0 => {
                        while c.pending.is_empty() {
                            assert!(c.poll().is_none());
                            std::thread::yield_now();
                        }
                        c.send(1, GO, Vec::new());
                    }
                    1 => assert!(c.recv(0, GO).is_empty()),
                    _ => {}
                }
                assert_eq!(c.allreduce_sum_f64(i as f64), 3.0 * i as f64);
            }
            c.pending.len()
        });
        assert_eq!(out, vec![0, 0, 0], "pending keys left behind");
    }

    // ---- failure semantics -------------------------------------------

    /// Regression for the silent deadlock: a peer that panics mid-run
    /// used to leave every other rank blocked in `recv` forever (its
    /// senders stayed alive inside the other communicators). Now the
    /// panic guard broadcasts a down note and survivors fail fast.
    #[test]
    fn peer_panic_fails_receives_fast_instead_of_hanging() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let out = World::run_fallible(3, None, |mut c| {
                if c.rank() == 1 {
                    panic!("injected rank failure");
                }
                // Both survivors block on the dead rank.
                c.recv_result(1, 5)
            });
            tx.send(out).expect("watchdog channel");
        });
        let out =
            rx.recv_timeout(Duration::from_secs(30)).expect("survivors must error out, not hang");
        assert!(out[1].as_ref().is_err_and(|e| e.contains("injected rank failure")));
        for r in [0, 2] {
            assert_eq!(out[r].as_ref().unwrap(), &Err(CommError::RankDown(1)));
        }
    }

    /// The infallible wrappers convert a down peer into a panic (caught
    /// by `run_fallible`) rather than a hang — and the panic cascades
    /// through ranks that were waiting on the survivors.
    #[test]
    fn rank_down_cascades_through_infallible_recv() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let out = World::run_fallible(3, None, |mut c| {
                match c.rank() {
                    2 => panic!("boom"),
                    // Rank 1 waits on the victim with the *infallible*
                    // API: it must panic (not hang), which in turn downs
                    // rank 0's wait on rank 1.
                    1 => c.recv(2, 5),
                    _ => c.recv(1, 6),
                }
            });
            tx.send(out).expect("watchdog channel");
        });
        let out = rx.recv_timeout(Duration::from_secs(30)).expect("cascade must terminate");
        assert!(out.iter().all(Result::is_err), "every rank must terminate with an error");
        assert!(out[1].as_ref().unwrap_err().contains("rank 2 is down"));
    }

    #[test]
    fn recv_timeout_expires_without_a_sender() {
        let out = World::run(2, |mut c| {
            if c.rank() == 0 {
                let r = c.recv_timeout(1, 3, Duration::from_millis(50));
                // Synchronize so rank 1 cannot finish before the timeout.
                c.send(1, 1, vec![]);
                r == Err(CommError::Timeout)
            } else {
                c.recv(0, 1);
                true
            }
        });
        assert!(out[0]);
    }

    #[test]
    fn dropped_messages_time_out_and_are_traced() {
        let cfg = FaultConfig::new(9).with_drops(1.0).with_fault_cap(1);
        let out = run_faulted(2, cfg, |mut c| {
            if c.rank() == 0 {
                c.send(1, 2, vec![1]); // dropped (first fault)
                c.send(1, 2, vec![2]); // delivered (cap reached)
                c.fault_events().len()
            } else {
                let first = c.recv_timeout(0, 2, Duration::from_millis(2000));
                assert_eq!(first, Ok(vec![2]), "only the second message survives");
                0
            }
        });
        assert_eq!(out[0], 1);
    }

    /// The duplicate-suppression window must not grow with the total
    /// message count: the frontier prunes delivered seqs far behind the
    /// newest one, while every message is still delivered exactly once.
    #[test]
    fn dedup_memory_stays_bounded_over_long_runs() {
        const N: u64 = 20_000;
        let cfg = FaultConfig::new(11).with_duplicates(0.3).with_reordering(0.2, 4);
        let out = run_faulted(2, cfg, |mut c| {
            if c.rank() == 0 {
                for i in 0..N {
                    c.send(1, 1, i.to_le_bytes().to_vec());
                }
                c.flush_delayed();
                c.recv(1, 2);
                0
            } else {
                // Delays reorder same-tag payloads, so check the sum,
                // not the order: dedup must deliver each exactly once.
                let mut sum = 0u64;
                for _ in 0..N {
                    let m = c.recv(0, 1);
                    sum += u64::from_le_bytes(m[..8].try_into().unwrap());
                }
                assert_eq!(sum, N * (N - 1) / 2, "every message exactly once");
                assert!(probe(&mut c, 0, 1).is_none(), "no stray duplicate survives");
                c.send(0, 2, vec![]);
                c.seen[0].recent.len() as u64
            }
        });
        let window = out[1];
        assert!(window > 0, "deliveries must be recorded");
        assert!(window <= 2_000, "window must stay bounded, got {window} entries after {N} msgs");
    }

    /// Injected duplicates are suppressed by the receiver-side sequence
    /// table: every message is delivered exactly once.
    #[test]
    fn duplicates_are_suppressed() {
        let cfg = FaultConfig::new(5).with_duplicates(1.0);
        let out = run_faulted(2, cfg, |mut c| {
            if c.rank() == 0 {
                for i in 0..20u8 {
                    c.send(1, 4, vec![i]);
                }
                c.recv(1, 9);
                vec![]
            } else {
                let got: Vec<u8> = (0..20).map(|_| c.recv(0, 4)[0]).collect();
                // No 21st copy may exist.
                assert!(probe(&mut c, 0, 4).is_none());
                c.send(0, 9, vec![]);
                got
            }
        });
        assert_eq!(out[1], (0..20).collect::<Vec<u8>>());
    }

    /// Delayed messages are reordered but never lost: tag matching
    /// absorbs the reordering and FIFO per (from, seq) is restored by
    /// the flush-before-block rule.
    #[test]
    fn reordering_preserves_delivery() {
        for seed in 0..8 {
            let cfg = FaultConfig::new(seed).with_reordering(0.5, 3);
            let out = run_faulted(2, cfg, |mut c| {
                if c.rank() == 0 {
                    for i in 0..30u8 {
                        c.send(1, i as u64, vec![i]);
                    }
                    0u32
                } else {
                    let mut sum = 0u32;
                    for i in 0..30u8 {
                        sum += c.recv(0, i as u64)[0] as u32;
                    }
                    sum
                }
            });
            assert_eq!(out[1], (0..30u32).sum::<u32>(), "seed {seed}");
        }
    }

    /// `agree_all` is the all-ranks AND with bounded waits.
    #[test]
    fn agree_all_ands_votes() {
        let out = World::run(4, |mut c| {
            let first = c.agree_all(true, Duration::from_secs(20)).unwrap();
            let second = c.agree_all(c.rank() != 2, Duration::from_secs(20)).unwrap();
            let third = c.agree_all(true, Duration::from_secs(20)).unwrap();
            (first, second, third)
        });
        for (a, b, d) in out {
            assert!(a);
            assert!(!b);
            assert!(d, "a failed round must not poison later rounds");
        }
    }

    /// `await_cohort` releases no rank before the last one arrives, sends
    /// nothing `messages_sent` counts, leaves the fault plan's decisions
    /// on later data messages as they were (the same payloads arrive), and
    /// ends in `RankDown` when a peer dies before it arrives, whether the
    /// peer is rank 0 or not.
    #[test]
    fn await_cohort_is_a_control_plane_barrier() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let arrived = AtomicU32::new(0);
        let delivered = |barrier: bool| {
            run_faulted(3, FaultConfig::new(5).with_drops(0.5), |mut c| {
                if barrier {
                    if c.rank() == 2 {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    arrived.fetch_add(1, Ordering::SeqCst);
                    c.await_cohort().unwrap();
                    assert_eq!(arrived.load(Ordering::SeqCst), 3, "rank {} left early", c.rank());
                    assert_eq!(c.counters().messages_sent, 0);
                }
                for i in 0..40 {
                    c.send((c.rank() + 1) % 3, 7, vec![i]);
                }
                c.flush_delayed();
                // Every rank sent before it arrived here, so after the
                // release every surviving message is queued.
                c.await_cohort().unwrap();
                let from = (c.rank() + 2) % 3;
                std::iter::from_fn(|| probe(&mut c, from, 7)).map(|m| m[0]).collect::<Vec<u8>>()
            })
        };
        let (plain, waited) = (delivered(false), delivered(true));
        assert!(plain.iter().all(|got| !got.is_empty() && got.len() < 40), "{plain:?}");
        assert_eq!(plain, waited, "the barrier moved the fault plan's decisions");

        for victim in [0, 2] {
            let out = World::run_fallible(3, None, |mut c| {
                if c.rank() == victim {
                    panic!("rank {victim} fails during its build");
                }
                c.await_cohort()
            });
            for (rank, r) in out.into_iter().enumerate() {
                match r {
                    Err(_) => assert_eq!(rank as u32, victim),
                    Ok(r) => assert!(matches!(r, Err(CommError::RankDown(_))), "{r:?}"),
                }
            }
        }
    }

    /// A fail-stop crash plus recovery barrier leaves every rank on a
    /// clean slate: stale traffic is drained, the dead set is cleared,
    /// and collective counters line up again.
    #[test]
    fn crash_recovery_cleans_the_slate() {
        let cfg = FaultConfig::new(3).with_crash(1, 0);
        let out = run_faulted(3, cfg, |mut c| {
            let timeout = Duration::from_secs(20);
            if c.crash_due(0) {
                // Victim: volatile state is gone; join recovery directly.
                assert_eq!(c.recovery_sync(timeout, &[0, 5]).unwrap(), 5);
            } else {
                // Survivors: send some soon-stale traffic, then observe
                // the failure and join recovery.
                let peer = if c.rank() == 0 { 2 } else { 0 };
                c.send(peer, 7, vec![c.rank() as u8]);
                let r = c.recv_timeout(1, 9, timeout);
                assert!(matches!(r, Err(CommError::RankDown(1) | CommError::Interrupted)));
                assert_eq!(c.recovery_sync(timeout, &[0, 5]).unwrap(), 5);
            }
            // Clean slate: no stale message may match, no rank is dead,
            // and collectives work again.
            assert!(probe(&mut c, 0, 7).is_none() && probe(&mut c, 2, 7).is_none());
            assert!(c.dead_ranks().is_empty());
            assert!(!c.recovery_requested());
            assert_eq!(c.recovery_epoch(), 1);
            c.agree_all(true, timeout).unwrap()
        });
        assert_eq!(out, vec![true, true, true]);
    }

    /// The recovery negotiation picks the newest step held by *every*
    /// rank, even when torn checkpoint commits have staggered the
    /// per-rank histories; with no common step it degrades to the old
    /// min-of-newest rule.
    #[test]
    fn recovery_sync_negotiates_over_held_intersections() {
        let out = World::run(3, |mut c| {
            let timeout = Duration::from_secs(20);
            let held: &[u64] = match c.rank() {
                0 => &[10, 20, 30],
                1 => &[0, 10, 20],
                _ => &[20, 30],
            };
            let common = c.recovery_sync(timeout, held).unwrap();
            let disjoint: &[u64] = match c.rank() {
                0 => &[30],
                1 => &[10],
                _ => &[20],
            };
            let fallback = c.recovery_sync(timeout, disjoint).unwrap();
            (common, fallback)
        });
        for (common, fallback) in out {
            assert_eq!(common, 20, "newest step in everyone's history");
            assert_eq!(fallback, 10, "empty intersection degrades to min-of-newest");
        }
    }
}
