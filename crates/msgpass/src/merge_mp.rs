//! The distributed merge stage (paper steps 3–5).
//!
//! One iteration, from a node's point of view:
//!
//! 1. **Stats exchange** (all-to-many): for every half-edge `(s → d)` with
//!    a remote target, the *owner of `d`* holds the mirror half-edge
//!    `(d → s)` and therefore knows to send `d`'s fresh statistics to us;
//!    symmetrically we send ours. No request round is needed.
//! 2. **De-activation**: half-edges whose endpoints no longer satisfy the
//!    criterion are dropped (weights only grow under the pixel-range
//!    criterion, so this mirrors the paper's permanent de-activation). A
//!    global OR then decides termination.
//! 3. **Choice**: each owned region picks its best neighbour under
//!    `(weight, tie-key, tie-key₂, id)` — identical keys to every other
//!    engine.
//! 4. **Choice exchange** (all-to-many): each choice targeting a remote
//!    region is sent to its owner; both endpoint owners can then detect
//!    mutual selection locally.
//! 5. **Merge**: for a mutual pair, the smaller ID is the representative;
//!    its owner folds the statistics (the loser's stats are on hand as a
//!    ghost); the loser's owner retires the region and records the
//!    redirect.
//! 6. **Redirect exchange + relabel + half-edge transfer** (all-to-many ×2):
//!    owners of dead regions notify every node holding an edge to them;
//!    all half-edges relabel through the (single-level) redirects,
//!    self-loops vanish, and half-edges whose new source moved to another
//!    owner are shipped there.
//!
//! The paper's two communication schemes (LP / Async) plug in at every
//! all-to-many step.

use crate::boundary::LocalRag;
use crate::decomp::Decomposition;
use cmmd_sim::channel::{encode_u32s, try_decode_u32s};
use cmmd_sim::{try_all_to_many, CommScheme, Fault, Node, Routed};
use rg_core::kernels::{stats_from_words, stats_to_words, STATS_WIRE_WORDS};
use rg_core::merge::{choice_key, CandKey};
use rg_core::telemetry::Histogram;
use rg_core::{Config, RegionStats, TieBreak};
use std::collections::{BTreeMap, HashMap};

/// Work units swept per tile pixel per merge iteration (the F77 code is a
/// "hand-coded translation of the data parallel one": it sweeps its static
/// tile-sized arrays every iteration).
pub const MERGE_SWEEP_UNITS_PER_PX: u64 = 320;
/// Work units per live half-edge per iteration.
pub const MERGE_UNITS_PER_EDGE: u64 = 12;
/// Work units per owned region per iteration.
pub const MERGE_UNITS_PER_REGION: u64 = 6;

/// Number of all-to-many exchanges one merge iteration executes, in
/// order: stats, choice, redirect, half-edge transfer.
pub const EXCHANGES_PER_ITERATION: usize = 4;

/// This node's communication deltas for one all-to-many exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExchangeComm {
    /// Communication rounds executed (LP: `Q−1` per exchange; Async: 1).
    pub rounds: u64,
    /// Point-to-point messages this node sent.
    pub messages: u64,
    /// Payload bytes this node sent.
    pub bytes: u64,
}

impl ExchangeComm {
    /// Folds `other` into `self` (the driver sums across nodes).
    pub fn fold(&mut self, other: &ExchangeComm) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.bytes += other.bytes;
    }
}

/// Outcome of the distributed merge on one node.
#[derive(Debug, Clone)]
pub struct MpMergeOutcome {
    /// Merge iterations executed (identical on every node).
    pub iterations: u32,
    /// Global merges per iteration (identical on every node).
    pub merges_per_iteration: Vec<u32>,
    /// This node's full retire history `(dead id, representative id)`.
    pub redirects: Vec<(u32, u32)>,
    /// Regions this node still owns at termination.
    pub num_regions_local: usize,
    /// This node's per-iteration, per-exchange communication deltas
    /// (one `[ExchangeComm; 4]` per completed iteration, exchange order
    /// per [`EXCHANGES_PER_ITERATION`]). The terminating pass — a stats
    /// exchange followed by the global OR that ends the loop — is not an
    /// iteration and is counted only in the node totals.
    pub comm_per_iteration: Vec<[ExchangeComm; EXCHANGES_PER_ITERATION]>,
    /// Sizes (bytes) of every point-to-point payload this node sent
    /// during the merge, as a log₂ histogram (the per-round message-size
    /// distribution the paper's LP-vs-Async comparison turns on).
    pub msg_bytes_hist: Histogram,
}

/// Runs one all-to-many exchange, recording outgoing payload sizes into
/// `hist` and returning the received messages plus this node's
/// communication deltas for the exchange. `stream` tags the exchange's
/// flow events (every node passes the same tag at the same program point,
/// so send and recv halves agree).
fn traced_exchange(
    node: &mut Node,
    outgoing: Vec<Routed>,
    scheme: CommScheme,
    hist: &mut Histogram,
    stream: &'static str,
) -> Result<(Vec<Routed>, ExchangeComm), Fault> {
    node.set_trace_stream(stream);
    for (_, payload) in &outgoing {
        hist.record(payload.len() as u64);
    }
    let (r0, m0, b0) = (node.comm_rounds(), node.msgs_sent(), node.bytes_sent());
    let received = try_all_to_many(node, outgoing, scheme)?;
    let comm = ExchangeComm {
        rounds: node.comm_rounds() - r0,
        messages: node.msgs_sent() - m0,
        bytes: node.bytes_sent() - b0,
    };
    Ok((received, comm))
}

/// Runs the distributed merge loop; mutates `rag` in place.
///
/// Fallible: under an armed fault plan an unhealable link or a poisoned
/// collective surfaces as `Err` (the driver then degrades to the host
/// pipeline); without a plan the loop never fails.
pub fn merge_mp(
    node: &mut Node,
    decomp: &Decomposition,
    rag: &mut LocalRag,
    config: &Config,
    scheme: CommScheme,
) -> Result<MpMergeOutcome, Fault> {
    let me = node.rank();
    let malformed = |what: &'static str| Fault::Malformed { rank: me, what };
    let tile = decomp.tile(me);
    let tile_px = (tile.w * tile.h) as u64;
    let crit = config.criterion;
    let t = config.threshold;

    let mut iterations = 0u32;
    let mut merges_per_iteration: Vec<u32> = Vec::new();
    let mut stalls = 0u32;
    let mut redirect_history: Vec<(u32, u32)> = Vec::new();
    let mut comm_per_iteration: Vec<[ExchangeComm; EXCHANGES_PER_ITERATION]> = Vec::new();
    let mut msg_bytes_hist = Histogram::new();

    loop {
        let mut iter_comm = [ExchangeComm::default(); EXCHANGES_PER_ITERATION];
        // ---- 1. stats exchange -------------------------------------------
        // Send each owned region's stats once per remote owner that holds a
        // mirror half-edge to it.
        let mut per_dst: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        {
            let mut sent: std::collections::HashSet<(usize, u32)> =
                std::collections::HashSet::new();
            for &(s, d) in rag.half_edges.iter() {
                let owner_d = decomp.owner_of_id(d);
                if owner_d != me && sent.insert((owner_d, s)) {
                    per_dst
                        .entry(owner_d)
                        .or_default()
                        .extend_from_slice(&stats_to_words(s, &rag.store[&s]));
                }
            }
        }
        let outgoing = per_dst
            .into_iter()
            .map(|(dst, words)| (dst, encode_u32s(&words)))
            .collect();
        rag.ghosts.clear();
        let (received, comm) =
            traced_exchange(node, outgoing, scheme, &mut msg_bytes_hist, "merge:stats")?;
        iter_comm[0] = comm;
        for (_, payload) in received {
            let words = try_decode_u32s(&payload).map_err(|_| malformed("stats payload"))?;
            for c in words.chunks_exact(STATS_WIRE_WORDS) {
                let (id, stats) = stats_from_words(c);
                rag.ghosts.insert(id, stats);
            }
        }

        // ---- 2. de-activation + termination test -------------------------
        let stats_of = |id: u32,
                        store: &BTreeMap<u32, RegionStats<u32>>,
                        ghosts: &HashMap<u32, RegionStats<u32>>|
         -> RegionStats<u32> {
            if let Some(s) = store.get(&id) {
                *s
            } else {
                *ghosts
                    .get(&id)
                    .unwrap_or_else(|| panic!("missing ghost stats for region {id}"))
            }
        };
        {
            let store = &rag.store;
            let ghosts = &rag.ghosts;
            rag.half_edges
                .retain(|&(s, d)| crit.satisfies(&store[&s], &stats_of(d, store, ghosts), t));
        }
        node.compute(rag.half_edges.len() as u64 * MERGE_UNITS_PER_EDGE);

        let active = !rag.half_edges.is_empty();
        node.set_trace_stream("merge:term");
        if !node.try_allreduce_or(active)? {
            break;
        }

        // The hand-translated F77 merge sweeps its static arrays once per
        // iteration regardless of how much is still alive.
        node.compute(tile_px * MERGE_SWEEP_UNITS_PER_PX);
        node.compute(rag.store.len() as u64 * MERGE_UNITS_PER_REGION);

        // ---- 3. choices ---------------------------------------------------
        let used_fallback =
            matches!(config.tie_break, TieBreak::Random { .. }) && stalls >= config.max_stall;
        let policy = if used_fallback {
            TieBreak::SmallestId
        } else {
            config.tie_break
        };
        let mut choice: BTreeMap<u32, u32> = BTreeMap::new();
        {
            let store = &rag.store;
            let ghosts = &rag.ghosts;
            let mut best: Option<CandKey> = None;
            let mut cur: Option<u32> = None;
            let flush =
                |src: Option<u32>, best: &mut Option<CandKey>, choice: &mut BTreeMap<u32, u32>| {
                    if let (Some(s), Some(b)) = (src, best.take()) {
                        choice.insert(s, b.3);
                    }
                };
            for &(s, d) in rag.half_edges.iter() {
                if cur != Some(s) {
                    flush(cur, &mut best, &mut choice);
                    cur = Some(s);
                }
                let w = crit.weight(&store[&s], &stats_of(d, store, ghosts));
                let key = choice_key(policy, iterations, s as u64, d as u64, w, d);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            flush(cur, &mut best, &mut choice);
        }

        // ---- 4. choice exchange ------------------------------------------
        let mut per_dst: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for (&u, &v) in &choice {
            let owner_v = decomp.owner_of_id(v);
            if owner_v != me {
                per_dst
                    .entry(owner_v)
                    .or_default()
                    .extend_from_slice(&[u, v]);
            }
        }
        let outgoing = per_dst
            .into_iter()
            .map(|(dst, words)| (dst, encode_u32s(&words)))
            .collect();
        // Remote claims (u chose v) targeting my regions v.
        let mut remote_claims: Vec<(u32, u32)> = Vec::new();
        let (received, comm) =
            traced_exchange(node, outgoing, scheme, &mut msg_bytes_hist, "merge:choice")?;
        iter_comm[1] = comm;
        for (_, payload) in received {
            let words = try_decode_u32s(&payload).map_err(|_| malformed("choice payload"))?;
            for c in words.chunks_exact(2) {
                remote_claims.push((c[0], c[1]));
            }
        }

        // ---- 5. merges ----------------------------------------------------
        // Mutual pairs I can see: local-local pairs, plus (remote u, my v)
        // where my choice[v] == u, plus (my u → remote v) confirmed by the
        // incoming claim (v, u).
        let mut mutual: Vec<(u32, u32)> = Vec::new(); // (rep, dead), rep < dead
        for (&u, &v) in &choice {
            if u < v && choice.get(&v) == Some(&u) {
                mutual.push((u, v)); // both mine
            }
        }
        for &(u, v) in &remote_claims {
            debug_assert_eq!(decomp.owner_of_id(v), me);
            if choice.get(&v) == Some(&u) {
                mutual.push((u.min(v), u.max(v)));
            }
        }
        mutual.sort_unstable();
        mutual.dedup();

        let mut my_merges = 0u64;
        let mut newly_dead: Vec<(u32, u32)> = Vec::new(); // (dead, rep), dead mine
        for &(rep, dead) in &mutual {
            let dead_stats = stats_of(dead, &rag.store, &rag.ghosts);
            if let Some(rs) = rag.store.get_mut(&rep) {
                *rs = rs.fold(dead_stats);
                my_merges += 1; // counted once, by the representative's owner
            }
            if rag.store.remove(&dead).is_some() {
                newly_dead.push((dead, rep));
                redirect_history.push((dead, rep));
            }
        }

        // ---- 6. redirect exchange ------------------------------------------
        // Notify owners of every region adjacent to a dead one.
        let mut per_dst: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        {
            let dead_map: HashMap<u32, u32> = newly_dead.iter().copied().collect();
            let mut sent: std::collections::HashSet<(usize, u32)> =
                std::collections::HashSet::new();
            for &(s, d) in rag.half_edges.iter() {
                if let Some(&rep) = dead_map.get(&s) {
                    let owner_d = decomp.owner_of_id(d);
                    if owner_d != me && sent.insert((owner_d, s)) {
                        per_dst
                            .entry(owner_d)
                            .or_default()
                            .extend_from_slice(&[s, rep]);
                    }
                }
            }
        }
        let outgoing = per_dst
            .into_iter()
            .map(|(dst, words)| (dst, encode_u32s(&words)))
            .collect();
        let mut redir: HashMap<u32, u32> = newly_dead.iter().copied().collect();
        let (received, comm) = traced_exchange(
            node,
            outgoing,
            scheme,
            &mut msg_bytes_hist,
            "merge:redirect",
        )?;
        iter_comm[2] = comm;
        for (_, payload) in received {
            let words = try_decode_u32s(&payload).map_err(|_| malformed("redirect payload"))?;
            for c in words.chunks_exact(2) {
                redir.insert(c[0], c[1]);
            }
        }

        // ---- 6 (cont.): relabel, drop self-loops, transfer -----------------
        let resolve = |id: u32| *redir.get(&id).unwrap_or(&id);
        let mut keep: Vec<(u32, u32)> = Vec::new();
        let mut per_dst: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for &(s, d) in rag.half_edges.iter() {
            let (s2, d2) = (resolve(s), resolve(d));
            if s2 == d2 {
                continue;
            }
            let owner_s2 = decomp.owner_of_id(s2);
            if owner_s2 == me {
                keep.push((s2, d2));
            } else {
                per_dst
                    .entry(owner_s2)
                    .or_default()
                    .extend_from_slice(&[s2, d2]);
            }
        }
        let outgoing = per_dst
            .into_iter()
            .map(|(dst, words)| (dst, encode_u32s(&words)))
            .collect();
        let (received, comm) = traced_exchange(
            node,
            outgoing,
            scheme,
            &mut msg_bytes_hist,
            "merge:transfer",
        )?;
        iter_comm[3] = comm;
        for (_, payload) in received {
            let words = try_decode_u32s(&payload).map_err(|_| malformed("transfer payload"))?;
            for c in words.chunks_exact(2) {
                keep.push((c[0], c[1]));
            }
        }
        keep.sort_unstable();
        keep.dedup();
        rag.half_edges = keep;
        node.compute(rag.half_edges.len() as u64 * MERGE_UNITS_PER_EDGE);

        // ---- bookkeeping ----------------------------------------------------
        node.set_trace_stream("merge:term");
        let global_merges = node.try_allreduce_u64(my_merges, |a, b| a + b)? as u32;
        iterations += 1;
        merges_per_iteration.push(global_merges);
        comm_per_iteration.push(iter_comm);
        if global_merges == 0 {
            stalls += 1;
        } else {
            stalls = 0;
        }
    }

    Ok(MpMergeOutcome {
        iterations,
        merges_per_iteration,
        redirects: redirect_history,
        num_regions_local: rag.store.len(),
        comm_per_iteration,
        msg_bytes_hist,
    })
}
