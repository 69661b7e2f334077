//! Point-to-point communication endpoint with exact byte accounting.
//!
//! Every payload is a real byte buffer ([`bytes::Bytes`]); the endpoint
//! counts what it sends and receives and charges modelled transfer time
//! (see [`crate::cost`]). Messages carry a `(from, tag)` pair and `recv`
//! matches on both, buffering out-of-order arrivals, so interleaved
//! protocol phases cannot steal each other's messages.
//!
//! Loopback sends (to self) are delivered directly and charged nothing —
//! a worker talking to itself never touches the network.
//!
//! # Failure semantics
//!
//! `send`/`recv` return [`CommError`] instead of panicking. Under a
//! [`FaultPlan`] a send may be dropped (retried with a modelled ack-timeout
//! charge, up to the plan's retry budget), duplicated (the receiver detects
//! the repeated `(from, tag, seq)` and discards it after accounting its
//! transfer), or delayed (modelled seconds only). With no plan attached the
//! fast path is byte-for-byte identical to the historical accounting.
//!
//! A shared cancel flag plus a control envelope lets the run supervisor
//! wake any blocked `recv` promptly when a peer fails, and a generous
//! receive deadline bounds the wait even if cancellation is never
//! delivered.

#![deny(clippy::panic, clippy::unimplemented, clippy::todo, clippy::indexing_slicing)]

use crate::cost::NetworkCostModel;
use crate::fault::{CommError, FaultPlan};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use protocol::Tag;

/// One in-flight message.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sender rank (or [`CONTROL_FROM`] for supervisor control messages).
    pub from: u32,
    /// Protocol tag (collectives auto-allocate from a high namespace).
    pub tag: u64,
    /// Per-`(sender, destination)` sequence number; lets the receiver
    /// discard duplicated deliveries.
    pub seq: u64,
    /// Serialized payload.
    pub payload: Bytes,
}

/// Pseudo-rank used by supervisor control envelopes (cancellation).
pub const CONTROL_FROM: u32 = u32::MAX;

/// Default bound on how long a `recv` or `recv_any` waits before reporting
/// [`CommError::Timeout`], counted from the call: frames for other
/// receives arriving meanwhile do not restart it. Generous: real protocol
/// messages arrive in microseconds; this only fires when a peer is truly
/// gone and cancellation was never delivered.
pub const RECV_PATIENCE: Duration = Duration::from_secs(30);

/// The wall clock, read for receive deadlines only.
#[expect(
    clippy::disallowed_methods,
    reason = "a receive deadline bounds liveness and never reaches bytes or a model"
)]
fn now() -> Instant {
    Instant::now()
}

/// Default bound on the out-of-order pending buffer. Every message that
/// arrives while a `recv`/`recv_any` waits for something else is parked
/// here; a slow consumer under a dup-heavy fault plan would otherwise grow
/// it without limit. Overflow surfaces as
/// [`CommError::PendingOverflow`] and is counted in
/// [`CommCounters::pending_overflows`].
pub const PENDING_CAP: usize = 4096;

/// Communication counters folded into [`crate::stats::WorkerStats`] after a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct CommCounters {
    /// Exact bytes sent over the (simulated) network.
    pub bytes_sent: u64,
    /// Exact bytes received.
    pub bytes_received: u64,
    /// Messages sent.
    pub messages_sent: u64,
    /// Modelled communication seconds.
    pub comm_seconds: f64,
    /// Logical (decoded, 8 bytes/element) size of every codec-mediated f64
    /// payload sent — what the dense wire would have cost.
    pub logical_f64_bytes: u64,
    /// Encoded size of those same payloads as actually sent. The ratio
    /// `logical / wire` is the codec's compression factor.
    pub wire_f64_bytes: u64,
    /// Send attempts that were dropped by fault injection and retried.
    pub retries: u64,
    /// Duplicated deliveries detected and discarded by the receiver.
    pub duplicates_dropped: u64,
    /// Times the bounded pending buffer refused a message (backpressure).
    pub pending_overflows: u64,
}

/// A worker's endpoint into the in-process fabric.
pub struct Comm {
    rank: usize,
    world: usize,
    senders: Vec<Sender<Envelope>>,
    receiver: Receiver<Envelope>,
    pending: RefCell<Vec<Envelope>>,
    counters: RefCell<CommCounters>,
    next_collective_tag: Cell<u64>,
    cost: NetworkCostModel,
    faults: Option<FaultPlan>,
    /// `(from, tag, seq)` triples already delivered — duplicate detection.
    /// Only populated when a fault plan is attached.
    #[expect(
        clippy::disallowed_types,
        reason = "membership only: the set is never iterated, so its order reaches nothing"
    )]
    seen: RefCell<std::collections::HashSet<(u32, u64, u64)>>,
    /// Next sequence number per destination rank.
    send_seq: RefCell<Vec<u64>>,
    cancel: Arc<AtomicBool>,
    recv_patience: Cell<Duration>,
    pending_cap: Cell<usize>,
}

/// Supervisor-side handle onto a mesh: retains a sender for every rank so a
/// failed run can be cancelled even after worker endpoints are gone.
pub struct MeshControl {
    senders: Vec<Sender<Envelope>>,
    cancel: Arc<AtomicBool>,
}

impl MeshControl {
    /// Cancels the run: sets the shared flag and wakes every endpoint that
    /// is blocked in `recv` with a control envelope.
    pub fn cancel_all(&self) {
        self.cancel.store(true, Ordering::SeqCst);
        for sender in &self.senders {
            // Endpoint may already be gone; waking the rest still matters.
            let _ = sender.send(Envelope {
                from: CONTROL_FROM,
                tag: 0,
                seq: 0,
                payload: Bytes::new(),
            });
        }
    }

    /// Whether the run has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }
}

impl Comm {
    /// Builds a fully connected mesh of `world` endpoints (no faults).
    pub fn mesh(world: usize, cost: NetworkCostModel) -> Vec<Comm> {
        Self::mesh_with(world, cost, None).0
    }

    /// Builds a mesh with an optional fault plan, returning the supervisor
    /// control handle alongside the endpoints.
    pub fn mesh_with(
        world: usize,
        cost: NetworkCostModel,
        faults: Option<FaultPlan>,
    ) -> (Vec<Comm>, MeshControl) {
        assert!(world >= 1, "need at least one worker");
        let mut senders = Vec::with_capacity(world);
        let mut receivers = Vec::with_capacity(world);
        for _ in 0..world {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let cancel = Arc::new(AtomicBool::new(false));
        let comms = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| Comm {
                rank,
                world,
                senders: senders.clone(),
                receiver,
                pending: RefCell::new(Vec::new()),
                counters: RefCell::new(CommCounters::default()),
                next_collective_tag: Cell::new(COLLECTIVE_TAG_BASE),
                cost,
                faults,
                seen: RefCell::default(),
                send_seq: RefCell::new(vec![0; world]),
                cancel: Arc::clone(&cancel),
                recv_patience: Cell::new(RECV_PATIENCE),
                pending_cap: Cell::new(PENDING_CAP),
            })
            .collect();
        (comms, MeshControl { senders, cancel })
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of workers in the mesh.
    pub fn world(&self) -> usize {
        self.world
    }

    /// The fault plan attached to this mesh, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Overrides the receive deadline (tests exercise short timeouts; the
    /// serving router runs its event loop on a short tick).
    pub fn set_recv_patience(&self, patience: Duration) {
        self.recv_patience.set(patience);
    }

    /// Overrides the pending-buffer bound (tests exercise tiny caps).
    pub fn set_pending_cap(&self, cap: usize) {
        self.pending_cap.set(cap.max(1));
    }

    /// Parks an out-of-order envelope, honoring the pending bound.
    fn buffer_pending(&self, envelope: Envelope) -> Result<(), CommError> {
        let mut pending = self.pending.borrow_mut();
        let cap = self.pending_cap.get();
        if pending.len() >= cap {
            drop(pending);
            self.counters.borrow_mut().pending_overflows += 1;
            return Err(CommError::PendingOverflow { capacity: cap });
        }
        pending.push(envelope);
        Ok(())
    }

    /// Discards every buffered and queued message without accounting —
    /// the serving plane's crash simulation: a process that dies loses
    /// whatever was parked in its socket buffers. The duplicate-detection
    /// seen-set survives (like a transport-persisted sequence cache), so
    /// post-recovery duplicate suppression still works.
    pub fn purge_pending(&self) {
        self.pending.borrow_mut().clear();
        while self.receiver.try_recv().is_ok() {}
    }

    #[expect(clippy::indexing_slicing, reason = "one entry per rank; `send` asserts `to < world`")]
    fn next_seq(&self, to: usize) -> u64 {
        let mut seqs = self.send_seq.borrow_mut();
        let seq = seqs[to];
        seqs[to] += 1;
        seq
    }

    /// Sends `payload` to `to` under `tag`. A send takes a [`Tag`] itself,
    /// not a frame kind that maps to one, so a protocol that types its
    /// frames by the receiving role (the serving plane's inboxes) chooses
    /// the target's frame kind in a helper of its own.
    pub fn send(&self, to: usize, tag: Tag, payload: Bytes) -> Result<(), CommError> {
        self.send_raw(to, tag.id(), payload)
    }

    /// [`Comm::send`] under any id, a collective's allocated tags included.
    #[expect(clippy::indexing_slicing, reason = "one entry per rank; `send` asserts `to < world`")]
    pub(crate) fn send_raw(&self, to: usize, tag: u64, payload: Bytes) -> Result<(), CommError> {
        assert!(to < self.world, "rank {to} out of range");
        if self.cancel.load(Ordering::Relaxed) {
            return Err(CommError::Cancelled);
        }
        let seq = self.next_seq(to);
        if to == self.rank {
            // Loopback: free, reliable, delivered immediately (but still
            // subject to the pending bound — loopback backpressure too).
            self.buffer_pending(Envelope { from: self.rank as u32, tag, seq, payload })?;
            return Ok(());
        }
        let len = payload.len();
        let Some(plan) = self.faults else {
            // Fault-free fast path: byte accounting identical to the
            // historical panic-on-failure implementation.
            let envelope = Envelope { from: self.rank as u32, tag, seq, payload };
            self.senders[to].send(envelope).map_err(|_| CommError::PeerGone { to })?;
            let mut c = self.counters.borrow_mut();
            c.bytes_sent += len as u64;
            c.messages_sent += 1;
            c.comm_seconds += self.cost.message_time(len);
            return Ok(());
        };
        for attempt in 0..plan.max_attempts {
            // Every attempt physically occupies the wire.
            {
                let mut c = self.counters.borrow_mut();
                c.bytes_sent += len as u64;
                c.messages_sent += 1;
                c.comm_seconds += self.cost.message_time(len);
            }
            if plan.should_drop(self.rank, to, tag, seq, attempt) {
                // Lost in transit: wait out the modelled ack timeout, retry.
                let mut c = self.counters.borrow_mut();
                c.comm_seconds += 2.0 * self.cost.latency_s;
                c.retries += 1;
                continue;
            }
            self.counters.borrow_mut().comm_seconds +=
                plan.delay_for(self.rank, to, tag, seq, attempt);
            let envelope =
                Envelope { from: self.rank as u32, tag, seq, payload: payload.clone() };
            self.senders[to].send(envelope).map_err(|_| CommError::PeerGone { to })?;
            if plan.should_dup(self.rank, to, tag, seq, attempt) {
                // The network delivers a second physical copy with the same
                // sequence number; the receiver will discard it.
                let mut c = self.counters.borrow_mut();
                c.bytes_sent += len as u64;
                c.messages_sent += 1;
                c.comm_seconds += self.cost.message_time(len);
                drop(c);
                let dup = Envelope { from: self.rank as u32, tag, seq, payload };
                let _ = self.senders[to].send(dup);
            }
            return Ok(());
        }
        Err(CommError::RetriesExhausted { to, tag, attempts: plan.max_attempts })
    }

    /// Encodes `vals` under `codec` and sends to `to`, recording the
    /// logical-vs-wire byte pair (loopback stays free and unrecorded).
    pub(crate) fn send_f64s(
        &self,
        to: usize,
        tag: u64,
        codec: crate::wire::WireCodec,
        vals: &[f64],
    ) -> Result<(), CommError> {
        let payload = crate::wire::encode(codec, vals);
        if to != self.rank {
            let mut c = self.counters.borrow_mut();
            c.logical_f64_bytes += crate::wire::logical_bytes(vals.len());
            c.wire_f64_bytes += payload.len() as u64;
        }
        self.send_raw(to, tag, payload)
    }

    /// Receives the message from `from` with `tag`, blocking until it
    /// arrives, the run is cancelled, or the receive deadline passes.
    /// Other messages arriving meanwhile are buffered; duplicated
    /// deliveries are accounted and discarded. `tag` is a [`Tag`] or a
    /// frame kind that maps to one.
    pub fn recv(&self, from: usize, tag: impl Into<Tag>) -> Result<Bytes, CommError> {
        self.recv_raw(from, tag.into().id())
    }

    /// [`Comm::recv`] under any id, a collective's allocated tags included.
    pub(crate) fn recv_raw(&self, from: usize, tag: u64) -> Result<Bytes, CommError> {
        // Check the out-of-order buffer first.
        {
            let mut pending = self.pending.borrow_mut();
            if let Some(pos) =
                pending.iter().position(|e| e.from as usize == from && e.tag == tag)
            {
                let envelope = pending.swap_remove(pos);
                self.account_recv(from, envelope.payload.len());
                return Ok(envelope.payload);
            }
        }
        let deadline = now() + self.recv_patience.get();
        loop {
            if self.cancel.load(Ordering::Relaxed) {
                return Err(CommError::Cancelled);
            }
            let left = deadline.saturating_duration_since(now());
            let envelope = match self.receiver.recv_timeout(left) {
                Ok(envelope) => envelope,
                Err(RecvTimeoutError::Timeout) => return Err(CommError::Timeout { from, tag }),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::PeerGone { to: from })
                }
            };
            if envelope.from == CONTROL_FROM {
                return Err(CommError::Cancelled);
            }
            if self.faults.is_some() && !self.admit(&envelope) {
                continue;
            }
            if envelope.from as usize == from && envelope.tag == tag {
                self.account_recv(from, envelope.payload.len());
                return Ok(envelope.payload);
            }
            self.buffer_pending(envelope)?;
        }
    }

    /// Receives the next message carrying **any** of `tags`, from any rank,
    /// returning `(from, tag, payload)`. `tags` are [`Tag`]s or frame kinds
    /// that map to one; the match comes back as the one given.
    ///
    /// This is the serving-loop primitive: a server rank multiplexing
    /// prediction requests, model publishes, and shutdowns from many client
    /// ranks cannot know which `(from, tag)` pair arrives next, and a
    /// fixed-order `recv` chain would starve whichever client it is not
    /// currently blocked on. Buffered out-of-order messages are drained
    /// first (oldest first), so no request is starved by later arrivals.
    pub fn recv_any<T: Copy + Into<Tag>>(
        &self,
        tags: &[T],
    ) -> Result<(usize, T, Bytes), CommError> {
        let wanted =
            |envelope: &Envelope| tags.iter().copied().find(|&t| t.into().id() == envelope.tag);
        {
            let mut pending = self.pending.borrow_mut();
            if let Some((pos, tag)) =
                pending.iter().enumerate().find_map(|(pos, e)| Some((pos, wanted(e)?)))
            {
                let envelope = pending.remove(pos); // oldest match, FIFO
                self.account_recv(envelope.from as usize, envelope.payload.len());
                return Ok((envelope.from as usize, tag, envelope.payload));
            }
        }
        let deadline = now() + self.recv_patience.get();
        loop {
            if self.cancel.load(Ordering::Relaxed) {
                return Err(CommError::Cancelled);
            }
            let left = deadline.saturating_duration_since(now());
            let envelope = match self.receiver.recv_timeout(left) {
                Ok(envelope) => envelope,
                Err(RecvTimeoutError::Timeout) => {
                    return Err(CommError::Timeout {
                        from: usize::MAX,
                        tag: tags.first().map_or(0, |&t| t.into().id()),
                    })
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::PeerGone { to: usize::MAX })
                }
            };
            if envelope.from == CONTROL_FROM {
                return Err(CommError::Cancelled);
            }
            if self.faults.is_some() && !self.admit(&envelope) {
                continue;
            }
            if let Some(tag) = wanted(&envelope) {
                self.account_recv(envelope.from as usize, envelope.payload.len());
                return Ok((envelope.from as usize, tag, envelope.payload));
            }
            self.buffer_pending(envelope)?;
        }
    }

    /// Duplicate detection at envelope intake: returns `false` (after
    /// accounting the wasted transfer) when `(from, tag, seq)` was already
    /// delivered, so a duplicate can never satisfy a later `recv`.
    fn admit(&self, envelope: &Envelope) -> bool {
        let key = (envelope.from, envelope.tag, envelope.seq);
        if self.seen.borrow_mut().insert(key) {
            return true;
        }
        let mut c = self.counters.borrow_mut();
        c.bytes_received += envelope.payload.len() as u64;
        c.comm_seconds += envelope.payload.len() as f64 / self.cost.bandwidth_bytes_per_s;
        c.duplicates_dropped += 1;
        false
    }

    /// The smallest `(from, tag)` among the messages this endpoint still
    /// holds, parked or queued, once its worker has returned; `None` when
    /// every message sent here was received. Under a fault plan a queued
    /// envelope passes duplicate detection first, so a late copy of a
    /// message already received is not a leftover.
    pub(crate) fn unconsumed(&self) -> Option<(usize, u64)> {
        let mut left: Vec<(usize, u64)> =
            self.pending.borrow().iter().map(|e| (e.from as usize, e.tag)).collect();
        while let Ok(envelope) = self.receiver.try_recv() {
            if envelope.from == CONTROL_FROM || (self.faults.is_some() && !self.admit(&envelope)) {
                continue;
            }
            left.push((envelope.from as usize, envelope.tag));
        }
        left.into_iter().min()
    }

    fn account_recv(&self, from: usize, len: usize) {
        if from == self.rank {
            return; // loopback is free
        }
        let mut c = self.counters.borrow_mut();
        c.bytes_received += len as u64;
        c.comm_seconds += len as f64 / self.cost.bandwidth_bytes_per_s;
    }

    /// Allocates the next collective tag. All workers execute collectives in
    /// the same program order, so the counters stay aligned across ranks.
    pub(crate) fn alloc_collective_tag(&self) -> u64 {
        let tag = self.next_collective_tag.get();
        self.next_collective_tag.set(tag + 1);
        tag
    }

    /// Snapshot of the accumulated counters.
    pub fn counters(&self) -> CommCounters {
        *self.counters.borrow()
    }

    /// Folds the counters into worker stats (called at end of a run).
    pub fn fold_into(&self, stats: &mut crate::stats::WorkerStats) {
        let c = self.counters();
        stats.bytes_sent += c.bytes_sent;
        stats.bytes_received += c.bytes_received;
        stats.messages_sent += c.messages_sent;
        stats.comm_seconds += c.comm_seconds;
        stats.logical_f64_bytes += c.logical_f64_bytes;
        stats.wire_f64_bytes += c.wire_f64_bytes;
        stats.retries += c.retries;
        stats.duplicates_dropped += c.duplicates_dropped;
        stats.pending_overflows += c.pending_overflows;
    }
}

/// Collective tags live in the top half of the tag space, which no
/// [`Tag`] id (a `u32`) can reach.
pub const COLLECTIVE_TAG_BASE: u64 = 1 << 63;

/// The registry of every manual point-to-point message tag.
///
/// Messages match on `(from, tag)`, so two concurrently in-flight protocols
/// sharing a tag can cross-deliver. [`Comm::send`], [`Comm::recv`] and
/// [`Comm::recv_any`] take a [`Tag`], so a point-to-point tag exists only
/// here; a repeated id is rustc error E0081, and a `u32` id stays below
/// [`COLLECTIVE_TAG_BASE`].
pub mod protocol {
    /// Declares [`Tag`]: each entry is a variant, its id and its name in
    /// the `tag=` grammar of [`crate::fault::FaultPlan::parse`].
    macro_rules! registry {
        ($($(#[$doc:meta])* $variant:ident = $id:literal, $name:literal;)+) => {
            /// A point-to-point message tag.
            #[derive(Debug, Clone, Copy, PartialEq, Eq)]
            #[repr(u32)]
            pub enum Tag {
                $($(#[$doc])* $variant = $id,)+
            }

            impl Tag {
                /// Every registered tag, in declaration order.
                pub const ALL: &'static [Tag] = &[$(Tag::$variant),+];

                /// The tag's name in the `tag=` grammar.
                pub const fn name(self) -> &'static str {
                    match self {
                        $(Tag::$variant => $name,)+
                    }
                }
            }
        };
    }

    registry! {
        /// All-to-all repartition payload: one message per `(sender,
        /// receiver)` pair during `horizontal_to_vertical` (the row→column
        /// transform of §3.1.1): the sketch batches of steps 1–2, then the
        /// receiver's vertical shard in step 4.
        Repartition = 0x7261_7274, "repartition"; // "rprt"
        /// Prediction request: client → router, a `gbdt-serve` wire-framed
        /// batch of dense feature rows (request id, row count, f32 cells).
        ServeRequest = 0x7376_7271, "serve_request"; // "svrq"
        /// Prediction response: router → client, scores for one request
        /// (request id, model version, f64 scores row-major), or a publish
        /// ack.
        ServeResponse = 0x7376_7270, "serve_response"; // "svrp"
        /// Model publish: client → router, a `GbdtModel::encode_bytes`
        /// payload to hot-swap in; router → replica, the same model under
        /// its router-assigned version.
        ServePublish = 0x7376_7062, "serve_publish"; // "svpb"
        /// Serving shutdown: client → router after the client's last
        /// request, router → replica at the end of the session.
        ServeStop = 0x7376_7374, "serve_stop"; // "svst"
        /// Routed prediction request: router → replica, the client's request
        /// re-framed under a router-assigned routing id (plus a degraded-mode
        /// tree budget when the replica's queue is past the high-water mark).
        ServeRoute = 0x7376_7275, "serve_route"; // "svru"
        /// Replica reply: replica → router, scores for one routed request
        /// (routing id, version, mode, scores); the router rewrites the id and
        /// forwards to the owning client.
        ServeReply = 0x7376_7279, "serve_reply"; // "svry"
        /// Publish application ack: replica → router, the version a replica
        /// just compiled and swapped in (a stale apply acks the version it
        /// keeps serving).
        ServeAck = 0x7376_616b, "serve_ack"; // "svak"
        /// Crash-recovery resync: replica → router, sent when a replica comes
        /// back from a (simulated) crash and needs the current model; answered
        /// with a versioned publish frame.
        ServeRecover = 0x7376_7263, "serve_recover"; // "svrc"
        /// Health probe: router → replica, an empty heartbeat frame; a live
        /// replica answers with a pong.
        ServeHealthPing = 0x7376_6870, "health_ping"; // "svhp"
        /// Health reply: replica → router, carrying the replica's currently
        /// served model version.
        ServeHealthPong = 0x7376_6871, "health_pong"; // "svhq"
    }

    impl Tag {
        /// The id carried on the wire and hashed by fault plans.
        pub const fn id(self) -> u64 {
            self as u32 as u64
        }

        /// Resolves a `tag=` name to its tag.
        pub fn by_name(name: &str) -> Option<Tag> {
            Tag::ALL.iter().copied().find(|tag| tag.name() == name)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recv_any_multiplexes_senders_and_tags() {
        let mesh =
            Comm::mesh(3, NetworkCostModel { latency_s: 0.0, bandwidth_bytes_per_s: 1e9 });
        let (server, c1, c2) = (&mesh[0], &mesh[1], &mesh[2]);
        let (one, two, other) = (Tag::ServeRequest, Tag::ServeReply, Tag::ServeStop);
        c1.send(0, one, Bytes::from_static(b"one")).unwrap();
        c2.send(0, two, Bytes::from_static(b"two")).unwrap();
        c1.send(0, other, Bytes::from_static(b"ignored-tag")).unwrap();
        c1.send(0, one, Bytes::from_static(b"three")).unwrap();
        let mut got = Vec::new();
        for _ in 0..3 {
            let (from, tag, payload) = server.recv_any(&[one, two]).unwrap();
            got.push((from, tag.id(), payload.to_vec()));
        }
        got.sort();
        assert_eq!(
            got,
            vec![
                (1, one.id(), b"one".to_vec()),
                (1, one.id(), b"three".to_vec()),
                (2, two.id(), b"two".to_vec()),
            ]
        );
        // The non-matching tag stayed buffered for a targeted recv.
        assert_eq!(&server.recv(1, other).unwrap()[..], b"ignored-tag");
        // Nothing left: recv_any times out with a typed error.
        server.set_recv_patience(std::time::Duration::from_millis(10));
        assert!(matches!(server.recv_any(&[one, two]), Err(CommError::Timeout { .. })));
    }

    /// A receive's patience counts from the call: frames for other receives
    /// arriving every millisecond do not restart it.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "the test bounds a receive's wall time")]
    fn a_stream_of_other_frames_does_not_extend_the_deadline() {
        let mut mesh = Comm::mesh(2, NetworkCostModel::infinite());
        let (b, a) = (mesh.pop().unwrap(), mesh.pop().unwrap());
        let patience = Duration::from_millis(100);
        b.set_recv_patience(patience);
        let stop = AtomicBool::new(false);
        let outcomes = std::thread::scope(|s| {
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = a.send_raw(1, 99, Bytes::new());
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            let start = Instant::now();
            let recv = b.recv(0, Tag::ServeRequest).map(drop);
            let recv_took = start.elapsed();
            let start = Instant::now();
            let any = b.recv_any(&[Tag::ServeRequest]).map(drop);
            let any_took = start.elapsed();
            stop.store(true, Ordering::Relaxed);
            [("recv", recv, recv_took), ("recv_any", any, any_took)]
        });
        for (what, result, took) in outcomes {
            assert!(matches!(result, Err(CommError::Timeout { .. })), "{what}: {result:?}");
            assert!(
                took >= patience && took < patience + Duration::from_millis(50),
                "{what} returned after {took:?}, patience {patience:?}"
            );
        }
    }

    #[test]
    fn pending_buffer_is_bounded() {
        let mesh = Comm::mesh(2, NetworkCostModel::infinite());
        let (a, b) = (&mesh[0], &mesh[1]);
        b.set_pending_cap(4);
        // Flood with frames on a tag the receiver is not asking for: each one
        // lands in the pending buffer until the bound trips.
        for i in 0..6u64 {
            a.send_raw(1, 99, Bytes::from(vec![i as u8])).unwrap();
        }
        b.set_recv_patience(std::time::Duration::from_millis(50));
        let err = b.recv_raw(0, 77).unwrap_err();
        assert!(
            matches!(err, CommError::PendingOverflow { capacity: 4 }),
            "expected PendingOverflow, got {err:?}"
        );
        assert_eq!(b.counters().pending_overflows, 1);
        // The buffered (non-overflowing) frames are still deliverable.
        assert_eq!(&b.recv_raw(0, 99).unwrap()[..], &[0u8]);
        // Overflow folds into worker stats.
        let mut stats = crate::stats::WorkerStats::default();
        b.fold_into(&mut stats);
        assert_eq!(stats.pending_overflows, 1);
    }

    #[test]
    fn purge_pending_discards_buffered_and_queued_frames() {
        let mesh = Comm::mesh(2, NetworkCostModel::infinite());
        let (a, b) = (&mesh[0], &mesh[1]);
        a.send_raw(1, 5, Bytes::from_static(b"buffered")).unwrap();
        // Pull tag 5 into the pending buffer by asking for a different tag.
        b.set_recv_patience(std::time::Duration::from_millis(10));
        assert!(matches!(b.recv_raw(0, 6), Err(CommError::Timeout { .. })));
        a.send_raw(1, 5, Bytes::from_static(b"queued")).unwrap();
        b.purge_pending();
        assert!(matches!(b.recv_raw(0, 5), Err(CommError::Timeout { .. })));
    }

    #[test]
    fn send_recv_roundtrip_with_accounting() {
        let mesh = Comm::mesh(2, NetworkCostModel { latency_s: 0.001, bandwidth_bytes_per_s: 1000.0 });
        let (a, b) = (&mesh[0], &mesh[1]);
        a.send_raw(1, 7, Bytes::from_static(b"hello")).unwrap();
        let got = b.recv_raw(0, 7).unwrap();
        assert_eq!(&got[..], b"hello");
        let ca = a.counters();
        assert_eq!(ca.bytes_sent, 5);
        assert_eq!(ca.messages_sent, 1);
        assert!((ca.comm_seconds - 0.006).abs() < 1e-12);
        let cb = b.counters();
        assert_eq!(cb.bytes_received, 5);
        assert!((cb.comm_seconds - 0.005).abs() < 1e-12);
    }

    #[test]
    fn tag_matching_buffers_out_of_order() {
        let mesh = Comm::mesh(2, NetworkCostModel::infinite());
        let (a, b) = (&mesh[0], &mesh[1]);
        a.send_raw(1, 1, Bytes::from_static(b"first")).unwrap();
        a.send_raw(1, 2, Bytes::from_static(b"second")).unwrap();
        // Receive in reverse tag order.
        assert_eq!(&b.recv_raw(0, 2).unwrap()[..], b"second");
        assert_eq!(&b.recv_raw(0, 1).unwrap()[..], b"first");
    }

    #[test]
    fn loopback_is_free() {
        let mesh = Comm::mesh(1, NetworkCostModel::lab_cluster());
        let a = &mesh[0];
        a.send_raw(0, 3, Bytes::from_static(b"self")).unwrap();
        assert_eq!(&a.recv_raw(0, 3).unwrap()[..], b"self");
        let c = a.counters();
        assert_eq!(c.bytes_sent, 0);
        assert_eq!(c.bytes_received, 0);
        assert_eq!(c.comm_seconds, 0.0);
    }

    #[test]
    fn cross_thread_transfer() {
        let mut mesh = Comm::mesh(2, NetworkCostModel::infinite());
        let b = mesh.pop().unwrap();
        let a = mesh.pop().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                a.send_raw(1, 9, Bytes::from(vec![1u8, 2, 3])).unwrap();
            });
            s.spawn(move || {
                assert_eq!(&b.recv_raw(0, 9).unwrap()[..], &[1, 2, 3]);
            });
        });
    }

    #[test]
    fn fold_into_accumulates_stats() {
        let mesh = Comm::mesh(2, NetworkCostModel::infinite());
        mesh[0].send_raw(1, 1, Bytes::from_static(b"xy")).unwrap();
        let mut stats = crate::stats::WorkerStats::default();
        mesh[0].fold_into(&mut stats);
        assert_eq!(stats.bytes_sent, 2);
        assert_eq!(stats.messages_sent, 1);
    }

    #[test]
    fn recv_times_out_with_typed_error() {
        let mesh = Comm::mesh(2, NetworkCostModel::infinite());
        mesh[1].set_recv_patience(Duration::from_millis(20));
        assert_eq!(mesh[1].recv_raw(0, 1), Err(CommError::Timeout { from: 0, tag: 1 }));
    }

    #[test]
    fn cancellation_wakes_blocked_recv() {
        let (mut mesh, control) = Comm::mesh_with(2, NetworkCostModel::infinite(), None);
        let b = mesh.pop().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                assert_eq!(b.recv_raw(0, 1), Err(CommError::Cancelled));
            });
            std::thread::sleep(Duration::from_millis(10));
            control.cancel_all();
        });
        assert!(control.is_cancelled());
        // Sends after cancellation fail fast too.
        assert_eq!(mesh[0].send_raw(1, 1, Bytes::new()), Err(CommError::Cancelled));
    }

    #[test]
    fn dropped_sends_retry_and_charge_overhead() {
        let plan = FaultPlan::new(11).with_drop(0.5);
        let cost = NetworkCostModel { latency_s: 0.001, bandwidth_bytes_per_s: 1000.0 };
        let (mesh, _control) = Comm::mesh_with(2, cost, Some(plan));
        let (a, b) = (&mesh[0], &mesh[1]);
        let n = 200;
        for i in 0..n {
            a.send_raw(1, i, Bytes::from_static(b"payload!")).unwrap();
            assert_eq!(&b.recv_raw(0, i).unwrap()[..], b"payload!");
        }
        let c = a.counters();
        assert!(c.retries > 0, "expected some dropped attempts at p=0.5");
        // Every retry re-sent the full message and waited out an ack timeout.
        assert_eq!(c.messages_sent, n + c.retries);
        assert_eq!(c.bytes_sent, 8 * (n + c.retries));
        let clean = n as f64 * cost.message_time(8);
        let overhead = c.retries as f64 * (cost.message_time(8) + 2.0 * cost.latency_s);
        assert!((c.comm_seconds - clean - overhead).abs() < 1e-9);
    }

    #[test]
    fn duplicates_are_accounted_then_discarded() {
        let plan = FaultPlan::new(5).with_dup(0.5);
        let (mesh, _control) = Comm::mesh_with(2, NetworkCostModel::infinite(), Some(plan));
        let (a, b) = (&mesh[0], &mesh[1]);
        let n = 200u64;
        for i in 0..n {
            a.send_raw(1, i, Bytes::from_static(b"x")).unwrap();
        }
        for i in 0..n {
            assert_eq!(&b.recv_raw(0, i).unwrap()[..], b"x");
        }
        // Drain any trailing duplicates still queued.
        b.set_recv_patience(Duration::from_millis(10));
        assert!(b.recv_raw(0, n + 1).is_err());
        let cb = b.counters();
        assert!(cb.duplicates_dropped > 0, "expected duplicates at p=0.5");
        assert_eq!(cb.bytes_received, n + cb.duplicates_dropped);
        let ca = a.counters();
        assert_eq!(ca.messages_sent, n + cb.duplicates_dropped);
    }

    #[test]
    fn retries_exhausted_is_reported() {
        let plan = FaultPlan::new(1).with_drop(1.0).with_max_attempts(3);
        let (mesh, _control) = Comm::mesh_with(2, NetworkCostModel::infinite(), Some(plan));
        assert_eq!(
            mesh[0].send_raw(1, 9, Bytes::from_static(b"doomed")),
            Err(CommError::RetriesExhausted { to: 1, tag: 9, attempts: 3 })
        );
        assert_eq!(mesh[0].counters().retries, 3);
    }

    #[test]
    fn inactive_fault_plan_matches_fault_free_accounting() {
        let cost = NetworkCostModel { latency_s: 0.001, bandwidth_bytes_per_s: 1000.0 };
        let (faulty, _c1) = Comm::mesh_with(2, cost, Some(FaultPlan::new(3)));
        let clean = Comm::mesh(2, cost);
        for mesh in [&faulty, &clean] {
            mesh[0].send_raw(1, 7, Bytes::from_static(b"hello")).unwrap();
            mesh[1].recv_raw(0, 7).unwrap();
        }
        let (cf, cc) = (faulty[0].counters(), clean[0].counters());
        assert_eq!(cf.bytes_sent, cc.bytes_sent);
        assert_eq!(cf.messages_sent, cc.messages_sent);
        assert_eq!(cf.comm_seconds, cc.comm_seconds);
    }
}
