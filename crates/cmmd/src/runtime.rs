//! The SPMD node runtime.
//!
//! [`try_run_spmd`] launches one OS thread per simulated CM-5 node and
//! hands each a [`Node`] handle carrying its rank, its point-to-point
//! channel endpoints, the shared collective context, and its virtual
//! clock. The node program is the same closure on every rank — exactly the
//! CMMD "hostless" execution model the paper's F77 code used.
//!
//! Every communication call is fallible. An optional [`FaultPlan`] arms
//! deterministic fault injection on every point-to-point link, and the
//! node program returns `Result`, so a [`Fault`] that escapes the built-in
//! retry machinery aborts the run cleanly (collectives are poisoned, peers
//! cascade out via disconnected channels) instead of panicking or
//! deadlocking. Without a plan no call fails. When a plan is armed,
//! payloads travel in CRC-framed, sequence-numbered form and the runtime
//! retransmits on (deterministically simulated) loss or corruption,
//! charging the retry timeout in virtual time — so surviving runs produce
//! exactly the fault-free byte stream, just later on the clock.

use crate::channel::Msg;
use crate::collectives::{CollectiveCtx, Poisoned};
use crate::fault::{
    decode_frame, encode_frame, Fault, FaultCounters, FaultEvent, FaultKind, FaultPlan,
    FRAME_HEADER_LEN,
};
use crate::time::TimeParams;
use crate::trace::{TraceEvent, TraceKind};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::Arc;

/// Result of an SPMD run.
#[derive(Debug, Clone)]
pub struct SpmdResult<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank final virtual clocks, seconds.
    pub node_seconds: Vec<f64>,
    /// Makespan: the maximum final clock, seconds.
    pub max_seconds: f64,
    /// Injected-fault and recovery events, concatenated in rank order
    /// (empty without a fault plan).
    pub fault_events: Vec<FaultEvent>,
    /// Aggregate fault counters over all nodes.
    pub fault_counters: FaultCounters,
    /// Causal trace events, concatenated in rank order (empty unless the
    /// node program armed [`Node::set_tracing`]).
    pub trace_events: Vec<TraceEvent>,
}

/// An SPMD run that aborted: at least one node program returned a
/// [`Fault`] the retry machinery could not absorb. The whole group winds
/// down deterministically (no partial results survive).
#[derive(Debug, Clone)]
pub struct SpmdAbort {
    /// The faults that terminated node programs, by rank.
    pub faults: Vec<(usize, Fault)>,
    /// Fault/recovery events recorded up to the abort, in rank order.
    pub fault_events: Vec<FaultEvent>,
    /// Aggregate fault counters up to the abort.
    pub fault_counters: FaultCounters,
}

impl std::fmt::Display for SpmdAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SPMD run aborted:")?;
        for (rank, fault) in &self.faults {
            write!(f, " [node {rank}: {fault}]")?;
        }
        Ok(())
    }
}

/// A node's handle onto the simulated machine.
pub struct Node {
    rank: usize,
    size: usize,
    params: TimeParams,
    clock_ns: f64,
    msgs_sent: u64,
    bytes_sent: u64,
    comm_rounds: u64,
    /// `to[d]` sends to rank `d`.
    to: Vec<Sender<Msg>>,
    /// `from[s]` receives from rank `s`.
    from: Vec<Receiver<Msg>>,
    collectives: Arc<CollectiveCtx>,
    /// Armed fault schedule; `None` runs the original lossless fabric.
    plan: Option<Arc<FaultPlan>>,
    /// Next transport sequence number per destination.
    next_seq: Vec<u64>,
    /// Next expected sequence number per source.
    expect_seq: Vec<u64>,
    /// Fault/recovery events recorded by this node (sender side).
    fault_events: Vec<FaultEvent>,
    fault_counters: FaultCounters,
    /// Fixed compute-slowdown factor from the plan (1.0 = none).
    slowdown: f64,
    /// Communication calls made (drives the stall sampler).
    comm_ops: u64,
    /// Whether causal tracing is armed (off by default: untraced runs pay
    /// one branch per communication call).
    tracing: bool,
    /// Recorded trace events (empty unless tracing).
    trace_events: Vec<TraceEvent>,
    /// Program-point tag stamped onto trace events.
    trace_stream: &'static str,
    /// Logical send ordinal per destination (independent of the chaos
    /// transport's frame sequence numbers).
    trace_send_seq: Vec<u64>,
    /// Accepted-receive ordinal per source.
    trace_recv_seq: Vec<u64>,
    /// Collective-participation ordinal.
    trace_coll_seq: u64,
}

impl Node {
    /// This node's rank in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of nodes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The machine's time parameters.
    pub fn params(&self) -> &TimeParams {
        &self.params
    }

    /// Current virtual time, nanoseconds.
    pub fn clock_ns(&self) -> f64 {
        self.clock_ns
    }

    /// Current virtual time, seconds.
    pub fn clock_seconds(&self) -> f64 {
        self.clock_ns / 1e9
    }

    /// Charges local computation: `work` abstract units (pixel visits,
    /// element operations) at `t_cpu` each, scaled by the node's injected
    /// slowdown factor (1.0 without a fault plan).
    pub fn compute(&mut self, work: u64) {
        self.clock_ns += work as f64 * self.params.t_cpu_ns * self.slowdown;
    }

    /// Charges an explicit number of nanoseconds (for modelled costs that
    /// are not per-element).
    pub fn charge_ns(&mut self, ns: f64) {
        self.clock_ns += ns;
    }

    /// Advances the clock to at least `ts_ns` (used by receive paths).
    fn sync_to(&mut self, ts_ns: f64) {
        if ts_ns > self.clock_ns {
            self.clock_ns = ts_ns;
        }
    }

    /// Arms (or disarms) causal tracing: every subsequent send, receive
    /// and collective records a [`TraceEvent`] stamped with the virtual
    /// clock. Off by default; untraced runs pay one branch per call.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Sets the program-point tag stamped onto subsequent trace events
    /// (e.g. `"boundary"`, `"merge:stats"`). SPMD symmetry keeps sender
    /// and receiver tags agreeing: both ranks pass the same program point
    /// before touching the same logical message.
    pub fn set_trace_stream(&mut self, stream: &'static str) {
        self.trace_stream = stream;
    }

    /// Drains the node's recorded trace events.
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace_events)
    }

    fn trace_send(&mut self, dst: usize, bytes: usize, retry_wait_ns: f64) {
        let seq = self.trace_send_seq[dst];
        self.trace_send_seq[dst] += 1;
        self.trace_events.push(TraceEvent {
            kind: TraceKind::Send,
            stream: self.trace_stream,
            src: self.rank as u32,
            dst: dst as u32,
            seq,
            bytes: bytes as u64,
            t_ns: self.clock_ns,
            wait_ns: retry_wait_ns,
        });
    }

    fn trace_recv(&mut self, src: usize, bytes: usize, wait_ns: f64) {
        let seq = self.trace_recv_seq[src];
        self.trace_recv_seq[src] += 1;
        self.trace_events.push(TraceEvent {
            kind: TraceKind::Recv,
            stream: self.trace_stream,
            src: src as u32,
            dst: self.rank as u32,
            seq,
            bytes: bytes as u64,
            t_ns: self.clock_ns,
            wait_ns,
        });
    }

    fn trace_coll(&mut self, bytes: usize, wait_ns: f64) {
        let seq = self.trace_coll_seq;
        self.trace_coll_seq += 1;
        let rank = self.rank as u32;
        self.trace_events.push(TraceEvent {
            kind: TraceKind::Collective,
            stream: self.trace_stream,
            src: rank,
            dst: rank,
            seq,
            bytes: bytes as u64,
            t_ns: self.clock_ns,
            wait_ns: wait_ns.max(0.0),
        });
    }

    /// Records a fault/recovery event at the current virtual time.
    fn record(&mut self, kind: FaultKind, dst: usize, seq: u64) {
        self.fault_events.push(FaultEvent {
            kind,
            src: self.rank as u32,
            dst: dst as u32,
            seq,
            ts_ns: self.clock_ns,
        });
    }

    /// Samples (and charges) a per-node stall ahead of a communication
    /// call. No-op without a fault plan.
    fn apply_stall(&mut self) {
        let Some(plan) = self.plan.clone() else {
            return;
        };
        self.comm_ops += 1;
        if let Some(ns) = plan.sample_stall(self.rank, self.comm_ops) {
            self.clock_ns += ns;
            self.fault_counters.stalls += 1;
            let me = self.rank;
            self.record(FaultKind::Stall, me, 0);
        }
    }

    /// Blocking (synchronous) send: charges the rendezvous setup plus
    /// bandwidth, then enqueues the message stamped with the post-charge
    /// clock. Under a fault plan the payload travels as a CRC-framed,
    /// sequence-numbered frame; simulated drops and corruptions charge the
    /// retry timeout and retransmit, up to
    /// [`crate::fault::RetryPolicy::max_retries`] — past that the link is
    /// declared dead.
    pub fn try_send_sync(&mut self, dst: usize, payload: Bytes) -> Result<(), Fault> {
        self.send_impl(dst, payload, true)
    }

    /// Asynchronous send: cheaper setup; bandwidth is charged to the
    /// receiver side (the NI drains the buffer while the CPU continues).
    /// Fails like [`Node::try_send_sync`].
    pub fn try_send_async(&mut self, dst: usize, payload: Bytes) -> Result<(), Fault> {
        self.send_impl(dst, payload, false)
    }

    fn send_impl(&mut self, dst: usize, payload: Bytes, sync: bool) -> Result<(), Fault> {
        let Some(plan) = self.plan.clone() else {
            let len = payload.len();
            if sync {
                self.clock_ns +=
                    self.params.alpha_sync_ns + len as f64 * self.params.beta_ns_per_byte;
            } else {
                self.clock_ns += self.params.alpha_async_ns;
            }
            self.post(dst, payload, 0.0);
            if self.tracing {
                self.trace_send(dst, len, 0.0);
            }
            return Ok(());
        };
        self.apply_stall();
        let seq = self.next_seq[dst];
        self.next_seq[dst] += 1;
        let len = payload.len();
        let frame_bytes = (FRAME_HEADER_LEN + len) as f64;
        let mut retry_wait_ns = 0.0;
        for attempt in 0..=plan.retry.max_retries {
            if sync {
                self.clock_ns +=
                    self.params.alpha_sync_ns + frame_bytes * self.params.beta_ns_per_byte;
            } else {
                self.clock_ns += self.params.alpha_async_ns;
            }
            let o = plan.sample_link(self.rank, dst, seq, attempt);
            if o.drop {
                self.fault_counters.drops += 1;
                self.record(FaultKind::Drop, dst, seq);
                self.clock_ns += plan.retry.timeout_ns;
                retry_wait_ns += plan.retry.timeout_ns;
                self.fault_counters.retries += 1;
                self.record(FaultKind::Retry, dst, seq);
                continue;
            }
            if o.delay_ns > 0.0 {
                self.fault_counters.delays += 1;
                self.record(FaultKind::Delay, dst, seq);
            }
            let frame = encode_frame(seq, &payload, o.corrupt);
            self.post(dst, frame.clone(), o.delay_ns);
            if o.corrupt {
                // The receiver discards the frame on its CRC check; the
                // sender deterministically knows, charges the timeout,
                // and retransmits.
                self.fault_counters.corruptions += 1;
                self.record(FaultKind::Corrupt, dst, seq);
                self.clock_ns += plan.retry.timeout_ns;
                retry_wait_ns += plan.retry.timeout_ns;
                self.fault_counters.retries += 1;
                self.record(FaultKind::Retry, dst, seq);
                continue;
            }
            if o.dup {
                self.fault_counters.duplicates += 1;
                self.record(FaultKind::Duplicate, dst, seq);
                self.post(dst, frame, o.delay_ns);
            }
            if self.tracing {
                self.trace_send(dst, len, retry_wait_ns);
            }
            return Ok(());
        }
        self.fault_counters.links_dead += 1;
        self.record(FaultKind::LinkDead, dst, seq);
        Err(Fault::LinkDead {
            src: self.rank,
            dst,
            seq,
        })
    }

    /// Point-to-point messages sent so far (physical frames under chaos,
    /// including retransmissions and duplicates).
    pub fn msgs_sent(&self) -> u64 {
        self.msgs_sent
    }

    /// Point-to-point payload bytes sent so far (frame bytes under chaos).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Records one communication round (see
    /// [`crate::alltomany::try_all_to_many`]: LP counts each of its `Q−1`
    /// permutation rounds, Async counts one round per exchange).
    pub fn note_comm_round(&mut self) {
        self.comm_rounds += 1;
    }

    /// Communication rounds recorded so far.
    pub fn comm_rounds(&self) -> u64 {
        self.comm_rounds
    }

    /// Drains the node's recorded fault/recovery events.
    pub fn take_fault_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.fault_events)
    }

    /// Poisons the collective context so peers blocked in collectives
    /// cascade out. Called by the runtime when the node program aborts.
    pub fn poison_collectives(&self) {
        self.collectives.poison();
    }

    fn post(&mut self, dst: usize, payload: Bytes, delay_ns: f64) {
        self.msgs_sent += 1;
        self.bytes_sent += payload.len() as u64;
        let msg = Msg {
            src: self.rank,
            ts_ns: self.clock_ns + delay_ns,
            payload,
        };
        if self.plan.is_some() {
            // Under fault injection a peer may legitimately be gone (it
            // aborted); the cascade surfaces on this node's next blocking
            // call, not here.
            let _ = self.to[dst].send(msg);
        } else {
            self.to[dst]
                .send(msg)
                .expect("peer node hung up — node program panicked?");
        }
    }

    /// Blocking receive of the next message from `src`. The clock advances
    /// to the message's arrival time (sender timestamp + latency +
    /// bandwidth) if that is later than local time. Under a fault plan
    /// this runs the receiver half of the reliable transport: corrupted
    /// frames (CRC mismatch) and duplicates (stale sequence numbers) are
    /// charged for and silently discarded until the expected frame
    /// arrives; a disconnected peer yields [`Fault::PeerDown`].
    pub fn try_recv_from(&mut self, src: usize) -> Result<Bytes, Fault> {
        let mut wait_ns = 0.0;
        loop {
            let msg = self.from[src].recv().map_err(|_| Fault::PeerDown {
                rank: self.rank,
                peer: src,
            })?;
            debug_assert_eq!(msg.src, src);
            let arrival = msg.ts_ns
                + self.params.net_latency_ns
                + msg.payload.len() as f64 * self.params.beta_ns_per_byte;
            // Blocked-waiting portion: how far the arrival timestamp pulls
            // the local clock forward (the receive overhead below is CPU
            // work, not waiting).
            wait_ns += (arrival - self.clock_ns).max(0.0);
            self.sync_to(arrival);
            self.clock_ns += self.params.recv_overhead_ns;
            if self.plan.is_none() {
                if self.tracing {
                    self.trace_recv(src, msg.payload.len(), wait_ns);
                }
                return Ok(msg.payload);
            }
            match decode_frame(msg.payload) {
                // Corrupted frame: discard and wait for the retransmit.
                Err(_) => continue,
                Ok((seq, payload)) => {
                    let expect = self.expect_seq[src];
                    if seq < expect {
                        // Duplicate of an already-accepted frame.
                        continue;
                    }
                    debug_assert_eq!(seq, expect, "transport hole on link {src}->{}", self.rank);
                    self.expect_seq[src] = seq + 1;
                    if self.tracing {
                        self.trace_recv(src, payload.len(), wait_ns);
                    }
                    return Ok(payload);
                }
            }
        }
    }

    /// The skeleton every control-network collective shares: sample the
    /// stall, deposit this rank's entry stamped with its clock, synchronise
    /// to the latest arrival, charge one control-tree traversal plus `β`
    /// per charged byte, and record the collective trace event. `bytes`
    /// maps the gathered entries to `(charged, traced)` payload bytes.
    fn collective<T>(
        &mut self,
        exchange: impl FnOnce(&CollectiveCtx, usize, f64) -> Result<Vec<(f64, T)>, Poisoned>,
        bytes: impl FnOnce(&[(f64, T)]) -> (usize, usize),
    ) -> Result<Vec<T>, Fault> {
        self.apply_stall();
        let entered = self.clock_ns;
        let parts = exchange(&self.collectives, self.rank, entered)
            .map_err(|_| Fault::CollectivePoisoned { rank: self.rank })?;
        let max_ts = parts.iter().map(|(t, _)| *t).fold(f64::MIN, f64::max);
        let (charged, traced) = bytes(&parts);
        self.clock_ns = max_ts
            + (self.size.max(2) as f64).log2() * self.params.tree_stage_ns
            + charged as f64 * self.params.beta_ns_per_byte;
        if self.tracing {
            self.trace_coll(traced, max_ts - entered);
        }
        Ok(parts.into_iter().map(|(_, v)| v).collect())
    }

    /// Barrier across all nodes; clocks synchronise to the latest arrival
    /// plus the control-tree latency.
    pub fn try_barrier(&mut self) -> Result<(), Fault> {
        self.collective(|c, rank, t| c.try_exchange_u64(rank, t, 0), |_| (0, 0))?;
        Ok(())
    }

    /// Global concatenation: every node contributes a payload; every node
    /// receives all payloads indexed by rank. This is CMMD's
    /// `CMMD_concat_with_nodes`, the primitive the paper's LP scheme uses
    /// to build the communication matrix.
    pub fn try_concat(&mut self, payload: Bytes) -> Result<Vec<Bytes>, Fault> {
        self.collective(
            |c, rank, t| c.try_exchange_bytes(rank, t, payload),
            |parts| {
                let total = total_len(parts);
                (total, total)
            },
        )
    }

    /// Global reduction of a `u64` with an associative-commutative `op`;
    /// every node receives the result.
    pub fn try_allreduce_u64(
        &mut self,
        v: u64,
        op: impl Fn(u64, u64) -> u64,
    ) -> Result<u64, Fault> {
        let parts = self.collective(|c, rank, t| c.try_exchange_u64(rank, t, v), |_| (0, 8))?;
        Ok(parts.into_iter().reduce(op).unwrap())
    }

    /// Global OR — the merge loop's "does any node still have active
    /// edges?" test.
    pub fn try_allreduce_or(&mut self, v: bool) -> Result<bool, Fault> {
        Ok(self.try_allreduce_u64(v as u64, |a, b| a | b)? != 0)
    }

    /// Broadcast from `root`: every node receives the root's payload
    /// (CMMD's `CMMD_bc_from_node`). Built on the control-network
    /// exchange; charged one tree traversal plus the payload bandwidth.
    pub fn try_broadcast(&mut self, root: usize, payload: Bytes) -> Result<Bytes, Fault> {
        assert!(root < self.size, "broadcast root out of range");
        let contribution = if self.rank == root {
            payload
        } else {
            Bytes::new()
        };
        let mut parts = self.collective(
            |c, rank, t| c.try_exchange_bytes(rank, t, contribution),
            |parts| {
                let len = parts[root].1.len();
                (len, len)
            },
        )?;
        Ok(parts.swap_remove(root))
    }

    /// Exclusive prefix over ranks: node `k` receives
    /// `op(v_0, …, v_{k-1})` (`init` for rank 0) — CMMD's scan on the
    /// control network.
    pub fn try_scan_exclusive_u64(
        &mut self,
        v: u64,
        init: u64,
        op: impl Fn(u64, u64) -> u64,
    ) -> Result<u64, Fault> {
        let parts = self.collective(|c, rank, t| c.try_exchange_u64(rank, t, v), |_| (0, 8))?;
        Ok(parts[..self.rank].iter().fold(init, |acc, &x| op(acc, x)))
    }

    /// Gather to `root`: the root receives every node's payload indexed by
    /// rank; other nodes receive an empty vector. Charged like a
    /// concatenation whose bandwidth lands on the root.
    pub fn try_gather_to(&mut self, root: usize, payload: Bytes) -> Result<Vec<Bytes>, Fault> {
        assert!(root < self.size, "gather root out of range");
        let is_root = self.rank == root;
        let parts = self.collective(
            |c, rank, t| c.try_exchange_bytes(rank, t, payload),
            |parts| {
                let total = total_len(parts);
                (if is_root { total } else { 0 }, total)
            },
        )?;
        Ok(if is_root { parts } else { Vec::new() })
    }
}

/// Total payload bytes of a byte-slot snapshot.
fn total_len(parts: &[(f64, Bytes)]) -> usize {
    parts.iter().map(|(_, b)| b.len()).sum()
}

/// Runs `f` on `nodes` SPMD nodes, one thread each, under an optional
/// [`FaultPlan`], and collects results and virtual times.
///
/// A node program that returns `Err` poisons the collectives and drops
/// its channel endpoints, so every peer blocked on it cascades out with
/// its own `Err` ([`Fault::CollectivePoisoned`] or [`Fault::PeerDown`])
/// instead of deadlocking; the run then reports [`SpmdAbort`]. Because a
/// node's abort point is a pure function of the fault plan and the node
/// program's data, aborts — like everything else in the simulator — are
/// deterministic under host scheduling.
pub fn try_run_spmd<R, F>(
    nodes: usize,
    params: TimeParams,
    plan: Option<FaultPlan>,
    f: F,
) -> Result<SpmdResult<R>, SpmdAbort>
where
    R: Send,
    F: Fn(&mut Node) -> Result<R, Fault> + Sync,
{
    assert!(nodes > 0, "need at least one node");
    // Build the P×P channel matrix: endpoint (s, d).
    let mut senders: Vec<Vec<Option<Sender<Msg>>>> = (0..nodes)
        .map(|_| (0..nodes).map(|_| None).collect())
        .collect();
    let mut receivers: Vec<Vec<Option<Receiver<Msg>>>> = (0..nodes)
        .map(|_| (0..nodes).map(|_| None).collect())
        .collect();
    for s in 0..nodes {
        for d in 0..nodes {
            let (tx, rx) = unbounded();
            senders[s][d] = Some(tx);
            receivers[d][s] = Some(rx);
        }
    }
    let collectives = Arc::new(CollectiveCtx::new(nodes));
    let plan = plan.map(Arc::new);

    let mut handles: Vec<Node> = Vec::with_capacity(nodes);
    for (rank, (snd_row, rcv_row)) in senders.into_iter().zip(receivers).enumerate() {
        handles.push(Node {
            rank,
            size: nodes,
            params,
            clock_ns: 0.0,
            msgs_sent: 0,
            bytes_sent: 0,
            comm_rounds: 0,
            to: snd_row.into_iter().map(Option::unwrap).collect(),
            from: rcv_row.into_iter().map(Option::unwrap).collect(),
            collectives: Arc::clone(&collectives),
            slowdown: plan.as_ref().map_or(1.0, |p| p.node_slowdown(rank)),
            plan: plan.clone(),
            next_seq: vec![0; nodes],
            expect_seq: vec![0; nodes],
            fault_events: Vec::new(),
            fault_counters: FaultCounters::default(),
            comm_ops: 0,
            tracing: false,
            trace_events: Vec::new(),
            trace_stream: "setup",
            trace_send_seq: vec![0; nodes],
            trace_recv_seq: vec![0; nodes],
            trace_coll_seq: 0,
        });
    }

    type NodeExit<R> = (
        Result<R, Fault>,
        f64,
        Vec<FaultEvent>,
        FaultCounters,
        Vec<TraceEvent>,
    );
    let f = &f;
    let mut out: Vec<Option<NodeExit<R>>> = (0..nodes).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut joins = Vec::with_capacity(nodes);
        for mut node in handles {
            joins.push(scope.spawn(move || {
                let r = f(&mut node);
                if r.is_err() {
                    // Wake peers blocked in collectives; peers blocked in
                    // receives wake when this node's senders drop below.
                    node.poison_collectives();
                }
                let events = node.take_fault_events();
                let trace = node.take_trace_events();
                (
                    node.rank,
                    r,
                    node.clock_ns,
                    events,
                    node.fault_counters,
                    trace,
                )
            }));
        }
        for j in joins {
            let (rank, r, clock, events, counters, trace) =
                j.join().expect("node program panicked");
            out[rank] = Some((r, clock, events, counters, trace));
        }
    });

    let mut results = Vec::with_capacity(nodes);
    let mut faults = Vec::new();
    let mut node_seconds = Vec::with_capacity(nodes);
    let mut fault_events = Vec::new();
    let mut fault_counters = FaultCounters::default();
    let mut trace_events = Vec::new();
    for (rank, slot) in out.into_iter().enumerate() {
        let (r, clock, events, counters, trace) = slot.expect("missing node result");
        node_seconds.push(clock / 1e9);
        fault_events.extend(events);
        fault_counters.merge(&counters);
        trace_events.extend(trace);
        match r {
            Ok(v) => results.push(v),
            Err(fault) => faults.push((rank, fault)),
        }
    }
    if !faults.is_empty() {
        return Err(SpmdAbort {
            faults,
            fault_events,
            fault_counters,
        });
    }
    let max_seconds = node_seconds.iter().copied().fold(0.0, f64::max);
    Ok(SpmdResult {
        results,
        node_seconds,
        max_seconds,
        fault_events,
        fault_counters,
        trace_events,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::channel::{encode_u32s, try_decode_u32s};

    /// A fault-free run of `f` on `nodes` nodes; no call can fail.
    pub(crate) fn spmd<R: Send>(
        nodes: usize,
        f: impl Fn(&mut Node) -> Result<R, Fault> + Sync,
    ) -> SpmdResult<R> {
        try_run_spmd(nodes, TimeParams::default(), None, f).expect("fault-free run")
    }

    /// Decodes a payload known to be well formed.
    pub(crate) fn u32s(b: Bytes) -> Vec<u32> {
        try_decode_u32s(b).unwrap()
    }

    #[test]
    fn ring_pass() {
        // Each node sends its rank to the right neighbour; receives from
        // the left.
        let res = spmd(8, |node| {
            let right = (node.rank() + 1) % node.size();
            let left = (node.rank() + node.size() - 1) % node.size();
            node.try_send_sync(right, encode_u32s(&[node.rank() as u32]))?;
            let got = u32s(node.try_recv_from(left)?);
            Ok(got[0])
        });
        assert_eq!(res.results, vec![7, 0, 1, 2, 3, 4, 5, 6]);
        assert!(res.max_seconds > 0.0);
        assert!(res.fault_events.is_empty());
        assert_eq!(res.fault_counters, FaultCounters::default());
    }

    #[test]
    fn clocks_synchronise_on_recv() {
        // Node 0 computes a long time, then sends to node 1; node 1's
        // receive must push its clock past node 0's send time.
        let res = spmd(2, |node| {
            if node.rank() == 0 {
                node.compute(1_000_000);
                node.try_send_sync(1, encode_u32s(&[42]))?;
            } else {
                node.try_recv_from(0)?;
            }
            Ok(node.clock_seconds())
        });
        assert!(res.results[1] > res.results[0] * 0.99);
        assert!(res.results[1] >= 1_000_000.0 * 150.0 / 1e9);
    }

    #[test]
    fn barrier_equalises_clocks() {
        let res = spmd(4, |node| {
            node.compute(node.rank() as u64 * 10_000);
            node.try_barrier()?;
            Ok(node.clock_seconds())
        });
        let first = res.results[0];
        for &c in &res.results {
            assert!((c - first).abs() < 1e-12, "{c} vs {first}");
        }
    }

    #[test]
    fn concat_gathers_in_rank_order() {
        let res = spmd(4, |node| {
            let parts = node.try_concat(encode_u32s(&[node.rank() as u32 * 10]))?;
            Ok(parts.into_iter().flat_map(u32s).collect::<Vec<u32>>())
        });
        for r in res.results {
            assert_eq!(r, vec![0, 10, 20, 30]);
        }
    }

    #[test]
    fn allreduce_or_and_max() {
        let res = spmd(4, |node| {
            let any = node.try_allreduce_or(node.rank() == 2)?;
            let none = node.try_allreduce_or(false)?;
            let max = node.try_allreduce_u64(node.rank() as u64, u64::max)?;
            Ok((any, none, max))
        });
        for (any, none, max) in res.results {
            assert!(any);
            assert!(!none);
            assert_eq!(max, 3);
        }
    }

    #[test]
    fn async_send_cheaper_than_sync() {
        let time_of = |sync: bool| {
            spmd(2, move |node| {
                if node.rank() == 0 {
                    let payload = encode_u32s(&vec![7u32; 100]);
                    if sync {
                        node.try_send_sync(1, payload)?;
                    } else {
                        node.try_send_async(1, payload)?;
                    }
                } else {
                    node.try_recv_from(0)?;
                }
                Ok(node.clock_seconds())
            })
            .results[0]
        };
        assert!(time_of(false) < time_of(true));
    }

    #[test]
    fn deterministic_virtual_time() {
        let run = || {
            spmd(6, |node| {
                node.compute((node.rank() as u64 + 1) * 1000);
                let parts = node.try_concat(encode_u32s(&[node.rank() as u32]))?;
                node.try_barrier()?;
                Ok((parts.len(), node.clock_ns()))
            })
        };
        let a = run();
        let b = run();
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x, y);
        }
        assert_eq!(a.max_seconds, b.max_seconds);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::tests::spmd;
    use super::*;
    use crate::channel::encode_u32s;
    use crate::trace::TraceKind;

    fn traced_ring(plan: Option<FaultPlan>) -> SpmdResult<()> {
        try_run_spmd(4, TimeParams::default(), plan, |node| {
            node.set_tracing(true);
            node.set_trace_stream("ring");
            let right = (node.rank() + 1) % node.size();
            let left = (node.rank() + node.size() - 1) % node.size();
            node.try_send_sync(right, encode_u32s(&[node.rank() as u32]))?;
            let _ = node.try_recv_from(left)?;
            node.set_trace_stream("sync");
            node.try_barrier()?;
            Ok(())
        })
        .expect("ring must survive")
    }

    #[test]
    fn untraced_runs_record_nothing() {
        let res = spmd(4, |node| {
            node.try_send_sync((node.rank() + 1) % node.size(), encode_u32s(&[1]))?;
            node.try_recv_from((node.rank() + node.size() - 1) % node.size())?;
            node.try_barrier()
        });
        assert!(res.trace_events.is_empty());
    }

    #[test]
    fn traced_ring_pairs_sends_and_recvs() {
        let res = traced_ring(None);
        let sends: Vec<_> = res
            .trace_events
            .iter()
            .filter(|e| e.kind == TraceKind::Send)
            .collect();
        let recvs: Vec<_> = res
            .trace_events
            .iter()
            .filter(|e| e.kind == TraceKind::Recv)
            .collect();
        let colls: Vec<_> = res
            .trace_events
            .iter()
            .filter(|e| e.kind == TraceKind::Collective)
            .collect();
        assert_eq!(sends.len(), 4);
        assert_eq!(recvs.len(), 4);
        assert_eq!(colls.len(), 4);
        for s in &sends {
            assert_eq!(s.stream, "ring");
            assert!(
                recvs
                    .iter()
                    .any(|r| (r.src, r.dst, r.seq) == (s.src, s.dst, s.seq)),
                "unpaired send {s:?}"
            );
            // Recv completion must not precede the paired send.
            let r = recvs
                .iter()
                .find(|r| (r.src, r.dst, r.seq) == (s.src, s.dst, s.seq))
                .unwrap();
            assert!(r.t_ns >= s.t_ns);
        }
        // Collective ordinals align across ranks and at least one rank
        // waited for a peer (clocks differ before the barrier).
        for c in &colls {
            assert_eq!(c.seq, 0);
            assert_eq!(c.stream, "sync");
        }
        assert!(colls.iter().any(|c| c.wait_ns == 0.0));
    }

    #[test]
    fn trace_seq_is_logical_under_retransmission() {
        // A storm plan retransmits frames, but logical trace pairing must
        // be unaffected and retry waits must be attributed to sends.
        let res = traced_ring(Some(FaultPlan::new(5, "storm").unwrap()));
        let sends: Vec<_> = res
            .trace_events
            .iter()
            .filter(|e| e.kind == TraceKind::Send)
            .collect();
        assert_eq!(sends.len(), 4);
        for s in &sends {
            assert_eq!(s.seq, 0, "one logical send per edge");
            assert!(
                res.trace_events
                    .iter()
                    .any(|r| r.kind == TraceKind::Recv
                        && (r.src, r.dst, r.seq) == (s.src, s.dst, s.seq)),
                "unpaired send {s:?}"
            );
        }
        if res.fault_counters.retries > 0 {
            assert!(sends.iter().any(|s| s.wait_ns > 0.0));
        }
    }
}

#[cfg(test)]
mod collective_tests {
    use super::tests::{spmd, u32s};
    use crate::channel::encode_u32s;

    #[test]
    fn broadcast_delivers_root_payload() {
        let res = spmd(5, |node| {
            let payload = if node.rank() == 2 {
                encode_u32s(&[41, 42])
            } else {
                encode_u32s(&[99]) // ignored: only the root's bytes matter
            };
            Ok(u32s(node.try_broadcast(2, payload)?))
        });
        for r in res.results {
            assert_eq!(r, vec![41, 42]);
        }
    }

    #[test]
    fn exclusive_scan_over_ranks() {
        let res = spmd(6, |node| {
            node.try_scan_exclusive_u64(node.rank() as u64 + 1, 0, |a, b| a + b)
        });
        // Node k gets sum of 1..=k.
        assert_eq!(res.results, vec![0, 1, 3, 6, 10, 15]);
    }

    #[test]
    fn gather_lands_on_root_only() {
        let res = spmd(4, |node| {
            let got = node.try_gather_to(1, encode_u32s(&[node.rank() as u32 * 7]))?;
            Ok(got.into_iter().flat_map(u32s).collect::<Vec<_>>())
        });
        assert!(res.results[0].is_empty());
        assert_eq!(res.results[1], vec![0, 7, 14, 21]);
        assert!(res.results[2].is_empty());
    }

    #[test]
    fn send_counters_track_traffic() {
        let res = spmd(3, |node| {
            if node.rank() == 0 {
                node.try_send_sync(1, encode_u32s(&[1, 2, 3]))?;
                node.try_send_async(2, encode_u32s(&[4]))?;
            } else {
                node.try_recv_from(0)?;
            }
            Ok((node.msgs_sent(), node.bytes_sent()))
        });
        assert_eq!(res.results[0], (2, 16));
        assert_eq!(res.results[1], (0, 0));
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::tests::{spmd, u32s};
    use super::*;
    use crate::channel::encode_u32s;
    use crate::fault::FaultPlan;

    /// A ring exchange under the given plan: payloads must survive intact.
    fn chaos_ring(plan: FaultPlan) -> Result<SpmdResult<Vec<u32>>, SpmdAbort> {
        try_run_spmd(6, TimeParams::default(), Some(plan), |node| {
            let right = (node.rank() + 1) % node.size();
            let left = (node.rank() + node.size() - 1) % node.size();
            for k in 0..20u32 {
                node.try_send_sync(right, encode_u32s(&[node.rank() as u32, k]))?;
            }
            let mut got = Vec::new();
            for _ in 0..20 {
                got.extend(u32s(node.try_recv_from(left)?));
            }
            node.try_barrier()?;
            Ok(got)
        })
    }

    #[test]
    fn survivable_profiles_deliver_identical_payloads() {
        let baseline = chaos_ring(FaultPlan::new(0, "none").unwrap()).unwrap();
        for profile in ["drop", "dup", "corrupt", "delay", "slow", "storm"] {
            for seed in [1u64, 2, 0xC0FFEE] {
                let res = chaos_ring(FaultPlan::new(seed, profile).unwrap())
                    .unwrap_or_else(|a| panic!("{profile}/{seed} aborted: {a}"));
                assert_eq!(res.results, baseline.results, "{profile}/{seed}");
            }
        }
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let plan = || FaultPlan::new(77, "storm").unwrap();
        let a = chaos_ring(plan()).unwrap();
        let b = chaos_ring(plan()).unwrap();
        assert_eq!(a.results, b.results);
        assert_eq!(a.node_seconds, b.node_seconds);
        assert_eq!(a.fault_events, b.fault_events);
        assert_eq!(a.fault_counters, b.fault_counters);
    }

    #[test]
    fn faults_cost_virtual_time() {
        let clean = chaos_ring(FaultPlan::new(0, "none").unwrap()).unwrap();
        let noisy = chaos_ring(FaultPlan::new(5, "storm").unwrap()).unwrap();
        assert!(noisy.fault_counters.total_faults() > 0);
        assert!(noisy.fault_counters.retries > 0);
        assert!(
            noisy.max_seconds > clean.max_seconds,
            "retries must show up on the clock: {} vs {}",
            noisy.max_seconds,
            clean.max_seconds
        );
    }

    #[test]
    fn blackhole_aborts_without_deadlock() {
        let abort =
            chaos_ring(FaultPlan::new(9, "blackhole").unwrap()).expect_err("blackhole must abort");
        assert!(!abort.faults.is_empty());
        assert!(abort
            .faults
            .iter()
            .any(|(_, f)| matches!(f, Fault::LinkDead { .. })));
        assert!(abort.fault_counters.links_dead > 0);
    }

    #[test]
    fn single_fault_cascades_to_all_nodes() {
        // Rank 0 aborts immediately; everyone else is blocked on a
        // collective and must cascade out rather than deadlock.
        let abort = try_run_spmd(
            4,
            TimeParams::default(),
            Some(FaultPlan::new(1, "none").unwrap()),
            |node| {
                if node.rank() == 0 {
                    return Err(Fault::LinkDead {
                        src: 0,
                        dst: 1,
                        seq: 0,
                    });
                }
                node.try_barrier()?;
                Ok(())
            },
        )
        .expect_err("must abort");
        assert_eq!(abort.faults.len(), 4);
        for (rank, fault) in &abort.faults[1..] {
            assert_eq!(
                fault,
                &Fault::CollectivePoisoned { rank: *rank },
                "rank {rank}"
            );
        }
    }

    #[test]
    fn peer_death_wakes_blocked_receiver() {
        let abort = try_run_spmd(
            2,
            TimeParams::default(),
            Some(FaultPlan::new(1, "none").unwrap()),
            |node| {
                if node.rank() == 0 {
                    return Err(Fault::LinkDead {
                        src: 0,
                        dst: 1,
                        seq: 0,
                    });
                }
                // Blocks forever unless node 0's death disconnects us.
                let _ = node.try_recv_from(0)?;
                Ok(())
            },
        )
        .expect_err("must abort");
        assert!(abort
            .faults
            .iter()
            .any(|(r, f)| *r == 1 && matches!(f, Fault::PeerDown { peer: 0, .. })));
    }

    #[test]
    fn framing_only_applies_under_a_plan() {
        // The fault-free path must keep raw payloads (and exact byte
        // counters); the chaos path frames every payload.
        let plain = spmd(2, |node| {
            if node.rank() == 0 {
                node.try_send_sync(1, encode_u32s(&[1, 2, 3]))?;
            } else {
                node.try_recv_from(0)?;
            }
            Ok(node.bytes_sent())
        });
        assert_eq!(plain.results[0], 12);
        let framed = try_run_spmd(
            2,
            TimeParams::default(),
            Some(FaultPlan::new(0, "none").unwrap()),
            |node| {
                if node.rank() == 0 {
                    node.try_send_sync(1, encode_u32s(&[1, 2, 3]))?;
                } else {
                    let _ = node.try_recv_from(0)?;
                }
                Ok(node.bytes_sent())
            },
        )
        .unwrap();
        assert_eq!(framed.results[0], 12 + FRAME_HEADER_LEN as u64);
    }
}
