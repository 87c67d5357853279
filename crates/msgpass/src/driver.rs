//! End-to-end message-passing driver: the F77 + CMMD node program.

use crate::boundary::build_local_rag;
use crate::decomp::Decomposition;
use crate::merge_mp::{merge_mp, ExchangeComm, MpMergeOutcome, EXCHANGES_PER_ITERATION};
use cmmd_sim::channel::{encode_u32s, try_decode_u32s};
use cmmd_sim::{
    try_run_spmd, CommScheme, Fault, FaultCounters, FaultEvent, FaultKind, FaultPlan, SpmdAbort,
    TimeParams, TraceEvent, TraceKind,
};
use rg_core::driver::{
    run_driver, EngineBackend, GraphStage, LabelStage, MergeCx, MergeStage, RunSummary, SplitInfo,
    SplitStage, StageStats,
};
use rg_core::labels::compact_first_appearance;
use rg_core::telemetry::{
    derive_merge_iterations, CommRecord, FaultRecord, FlowKind, FlowRecord, Histogram,
    NullTelemetry, SpanGuard, SpanKind, Telemetry,
};
use rg_core::{Config, Segmentation};
use rg_imaging::{Image, Intensity};
use std::collections::HashMap;
use std::time::Instant;

/// Work units to resolve one pixel's final label.
const LABEL_UNITS_PER_PX: u64 = 3;

/// A message-passing run's outputs.
#[derive(Debug, Clone)]
pub struct MsgPassOutcome {
    /// The segmentation (identical to the host engine given the same
    /// square cap).
    pub seg: Segmentation,
    /// Simulated seconds for the split stage (synchronised makespan).
    pub split_seconds: f64,
    /// Simulated seconds for graph setup + boundary exchange.
    pub graph_seconds: f64,
    /// Simulated seconds for the merge stage.
    pub merge_seconds: f64,
    /// Communication scheme used.
    pub scheme: CommScheme,
    /// Node count.
    pub nodes: usize,
    /// The square-size cap actually applied (the decomposition's safe cap,
    /// possibly lowered by the config).
    pub cap_used: u8,
    /// Total point-to-point messages sent across all nodes.
    pub total_messages: u64,
    /// Total point-to-point payload bytes sent across all nodes.
    pub total_bytes: u64,
    /// Total communication rounds across all nodes (LP runs `Q−1` rounds
    /// per exchange on every node, traffic or not; Async counts one per
    /// exchange — the structural difference the paper's comparison hinges
    /// on).
    pub total_comm_rounds: u64,
    /// Per-merge-iteration, per-exchange communication totals summed
    /// across all nodes (exchange order per [`EXCHANGES_PER_ITERATION`]:
    /// stats, choice, redirect, transfer).
    pub merge_comm_per_iteration: Vec<[ExchangeComm; EXCHANGES_PER_ITERATION]>,
    /// Distribution of point-to-point payload sizes (bytes) during the
    /// merge stage, merged across all nodes.
    pub merge_msg_bytes: Histogram,
    /// True when a chaos run aborted and the segmentation was recomputed
    /// by the sequential host engine (graceful degradation). Simulated
    /// times and communication totals are zeroed in that case.
    pub degraded: bool,
    /// Every injected-fault / recovery event observed during the run, in
    /// deterministic (rank, sequence) order. Empty for fault-free runs.
    pub fault_events: Vec<FaultEvent>,
    /// Aggregate fault counters across all nodes.
    pub fault_counters: FaultCounters,
    /// Causal flow events (send/recv/collective) captured by the CMMD
    /// trace layer, concatenated in rank order. Empty unless the run was
    /// executed with tracing on (the telemetry entry points enable it when
    /// the sink is live); also empty on degraded chaos runs, whose
    /// history aborted mid-flight.
    pub flows: Vec<TraceEvent>,
}

impl MsgPassOutcome {
    /// Merge-stage time as the paper reports it (graph setup + merging).
    pub fn merge_seconds_as_reported(&self) -> f64 {
        self.graph_seconds + self.merge_seconds
    }
}

/// Per-node results shipped back to the front end.
struct NodeOut {
    tile_labels: Vec<u32>, // raw representative ids per tile pixel
    split_iterations: u32,
    num_squares_local: usize,
    merge: MpMergeOutcome,
    t_split: f64,
    t_graph: f64,
    t_merge: f64,
    msgs_sent: u64,
    bytes_sent: u64,
    comm_rounds: u64,
}

/// Runs the full message-passing split-and-merge program on `nodes`
/// simulated CM-5 nodes with the given communication scheme.
///
/// The split stage is structurally capped at squares that fit a node's
/// sub-image ([`Decomposition::max_safe_square_log2`]); pass the same cap
/// to the other engines to compare segmentations bit for bit.
pub fn segment_msgpass<P: Intensity>(
    img: &Image<P>,
    config: &Config,
    nodes: usize,
    scheme: CommScheme,
) -> MsgPassOutcome {
    segment_msgpass_with_telemetry(img, config, nodes, scheme, &mut NullTelemetry)
}

/// [`segment_msgpass`] reporting into the given [`Telemetry`] sink: stage
/// spans carry simulated seconds, and a [`CommRecord`] carries the LP
/// round count / Async message totals from the `cmmd-sim` runtime.
pub fn segment_msgpass_with_telemetry<P: Intensity>(
    img: &Image<P>,
    config: &Config,
    nodes: usize,
    scheme: CommScheme,
    tel: &mut dyn Telemetry,
) -> MsgPassOutcome {
    let mut backend = MsgPassBackend::new(img, config, nodes, scheme);
    let mut out = Segmentation::default();
    run_driver(&mut backend, tel, &mut out);
    backend.into_outcome(out)
}

/// [`segment_msgpass_chaos`] reporting into the given [`Telemetry`] sink.
///
/// Chaos runs attribute **zero** wall seconds to every stage so that two
/// runs with the same `--chaos` seed produce byte-identical journals (the
/// simulated times, fault events and counters are all deterministic; host
/// wall time is not). Pair with a logical-clock journal sink
/// ([`rg_core::Streaming::with_logical_clock`] over
/// [`rg_core::jsonl_writer`]) for full byte stability.
pub fn segment_msgpass_chaos_with_telemetry<P: Intensity>(
    img: &Image<P>,
    config: &Config,
    nodes: usize,
    scheme: CommScheme,
    plan: &FaultPlan,
    tel: &mut dyn Telemetry,
) -> MsgPassOutcome {
    let mut backend = MsgPassBackend::new(img, config, nodes, scheme).with_chaos(plan);
    let mut out = Segmentation::default();
    run_driver(&mut backend, tel, &mut out);
    backend.into_outcome(out)
}

/// The message-passing engine as a stage-driver backend — the replay
/// shape: [`EngineBackend::prepare`] runs the whole SPMD node program on
/// the simulated cluster (with the CMMD trace layer on iff the sink is
/// live), and the stage methods then re-emit the recorded history as a
/// balanced span tree (run ▸ stage ▸ iter ▸ comm_round), zero-duration
/// markers nested exactly as journal validation requires.
///
/// Host wall time is not meaningful per simulated stage (all nodes run
/// concurrently on OS threads), so the whole run's wall time is attributed
/// proportionally to the simulated stage times through
/// [`StageStats::replayed`]. Under a fault plan ([`MsgPassBackend::with_chaos`])
/// an unsurvivable schedule aborts the SPMD run, and `prepare` degrades to
/// a sequential host re-run under the same square cap.
pub struct MsgPassBackend<'a, P: Intensity> {
    img: &'a Image<P>,
    config: &'a Config,
    nodes: usize,
    scheme: CommScheme,
    plan: Option<&'a FaultPlan>,
    outcome: Option<MsgPassOutcome>,
    wall_total: f64,
}

impl<'a, P: Intensity> MsgPassBackend<'a, P> {
    /// A backend over `img` on `nodes` simulated CM-5 nodes with the given
    /// communication scheme and the default CM-5 time parameters.
    pub fn new(img: &'a Image<P>, config: &'a Config, nodes: usize, scheme: CommScheme) -> Self {
        Self {
            img,
            config,
            nodes,
            scheme,
            plan: None,
            outcome: None,
            wall_total: 0.0,
        }
    }

    /// Arms the backend with a seeded deterministic fault-injection plan;
    /// unsurvivable schedules degrade to a host re-run instead of
    /// panicking.
    pub fn with_chaos(mut self, plan: &'a FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Consumes the backend into the full [`MsgPassOutcome`], attaching
    /// the driver-assembled segmentation.
    pub fn into_outcome(self, seg: Segmentation) -> MsgPassOutcome {
        let mut out = self.outcome.expect("prepare ran");
        out.seg = seg;
        out
    }

    fn out(&self) -> &MsgPassOutcome {
        self.outcome.as_ref().expect("prepare ran")
    }

    /// Proportional wall attribution for a replayed stage with `sim`
    /// simulated seconds.
    fn replayed_stage(&self, sim: f64) -> StageStats {
        let out = self.out();
        let sim_total =
            (out.split_seconds + out.graph_seconds + out.merge_seconds).max(f64::MIN_POSITIVE);
        StageStats::replayed(self.wall_total * (sim / sim_total), Some(sim))
    }

    /// Graceful degradation: the cluster aborted under injected faults, so
    /// the segmentation is recomputed by the sequential host engine under
    /// the same square cap, flagged via [`MsgPassOutcome::degraded`] and a
    /// `degraded` fault event. Simulated times and communication totals
    /// are zeroed.
    fn degrade(&mut self, abort: SpmdAbort) {
        let decomp = Decomposition::for_nodes(self.nodes, self.img.width(), self.img.height());
        let safe_cap = decomp.max_safe_square_log2();
        let cap_used = self
            .config
            .max_square_log2
            .map(|c| c.min(safe_cap))
            .unwrap_or(safe_cap);
        let host_cfg = Config {
            max_square_log2: Some(cap_used),
            ..*self.config
        };
        let seg = rg_core::segment(self.img, &host_cfg);
        let mut fault_events = abort.fault_events;
        fault_events.push(FaultEvent {
            kind: FaultKind::Degraded,
            src: 0,
            dst: 0,
            seq: 0,
            ts_ns: 0.0,
        });
        self.outcome = Some(MsgPassOutcome {
            seg,
            split_seconds: 0.0,
            graph_seconds: 0.0,
            merge_seconds: 0.0,
            scheme: self.scheme,
            nodes: decomp.nodes(),
            cap_used,
            total_messages: 0,
            total_bytes: 0,
            total_comm_rounds: 0,
            merge_comm_per_iteration: Vec::new(),
            merge_msg_bytes: Histogram::new(),
            degraded: true,
            fault_events,
            fault_counters: abort.fault_counters,
            flows: Vec::new(),
        });
    }
}

impl<P: Intensity> SplitStage for MsgPassBackend<'_, P> {
    fn split(&mut self, _tel: &mut dyn Telemetry) -> StageStats {
        self.replayed_stage(self.out().split_seconds)
    }
}

impl<P: Intensity> GraphStage for MsgPassBackend<'_, P> {
    fn graph(&mut self, _tel: &mut dyn Telemetry) -> StageStats {
        self.replayed_stage(self.out().graph_seconds)
    }
}

impl<P: Intensity> MergeStage for MsgPassBackend<'_, P> {
    fn merge(&mut self, cx: &mut MergeCx<'_>) -> StageStats {
        let out = self.outcome.as_ref().expect("prepare ran");
        if cx.enabled() {
            let (mut cum_rounds, mut cum_msgs, mut cum_bytes) = (0u64, 0u64, 0u64);
            for rec in derive_merge_iterations(
                &out.seg.merges_per_iteration,
                self.config.tie_break,
                self.config.max_stall,
            ) {
                cx.iteration(rec.iteration, |tel| {
                    if let Some(exchanges) =
                        out.merge_comm_per_iteration.get(rec.iteration as usize)
                    {
                        for (k, ex) in exchanges.iter().enumerate() {
                            {
                                let _span =
                                    SpanGuard::enter(&mut *tel, SpanKind::CommRound(k as u32));
                            }
                            cum_rounds += ex.rounds;
                            cum_msgs += ex.messages;
                            cum_bytes += ex.bytes;
                        }
                        // Cumulative counter tracks, one sample per
                        // iteration (Chrome/Perfetto renders them as the
                        // merge stage's communication ramps; the report
                        // keeps the final value).
                        tel.counter("comm.rounds", cum_rounds as f64);
                        tel.counter("comm.messages", cum_msgs as f64);
                        tel.counter("comm.bytes", cum_bytes as f64);
                    }
                    rec
                });
            }
        }
        self.replayed_stage(self.out().merge_seconds)
    }

    fn merge_report(&mut self, tel: &mut dyn Telemetry) {
        tel.histogram("comm.msg_bytes", &self.out().merge_msg_bytes);
    }
}

impl<P: Intensity> LabelStage for MsgPassBackend<'_, P> {
    fn label(&mut self, _tel: &mut dyn Telemetry, out: &mut Segmentation) -> (StageStats, usize) {
        // Host-side label compaction happened inside the SPMD run's
        // harness; its wall time is folded into the proportional
        // attribution of the other stages, so the Label span carries none.
        let seg = &mut self.outcome.as_mut().expect("prepare ran").seg;
        std::mem::swap(&mut out.labels, &mut seg.labels);
        (StageStats::replayed(0.0, None), seg.num_regions)
    }
}

impl<P: Intensity> EngineBackend for MsgPassBackend<'_, P> {
    fn engine(&self) -> String {
        let out = self.out();
        format!("msgpass:{}:{}", out.scheme.label(), out.nodes)
    }

    fn dims(&self) -> (usize, usize) {
        (self.img.width(), self.img.height())
    }

    fn config(&self) -> &Config {
        self.config
    }

    fn prepare(&mut self, telemetry_enabled: bool) {
        // A live sink turns the CMMD trace layer on, so the journal
        // carries the causal flow events analysis needs; untraced runs
        // skip the capture entirely (the zero-cost telemetry contract).
        // Chaos runs never measure wall time: their journals must be
        // byte-identical for a given seed.
        let wall = (telemetry_enabled && self.plan.is_none()).then(Instant::now);
        match try_segment_msgpass_impl(
            self.img,
            self.config,
            self.nodes,
            self.scheme,
            TimeParams::cm5_mp(),
            self.plan.cloned(),
            telemetry_enabled,
        ) {
            Ok(out) => {
                self.wall_total = wall.map(|t| t.elapsed().as_secs_f64()).unwrap_or(0.0);
                self.outcome = Some(out);
            }
            Err(abort) if self.plan.is_some() => self.degrade(abort),
            Err(abort) => panic!("fault-free msgpass run aborted: {abort}"),
        }
    }

    fn split_info(&self) -> SplitInfo {
        let seg = &self.out().seg;
        SplitInfo {
            iterations: seg.split_iterations,
            num_squares: seg.num_squares,
        }
    }

    fn summary(&self) -> RunSummary<'_> {
        let seg = &self.out().seg;
        RunSummary {
            split_iterations: seg.split_iterations,
            num_squares: seg.num_squares,
            merge_iterations: seg.merge_iterations,
            merges_per_iteration: &seg.merges_per_iteration,
            num_regions: seg.num_regions,
        }
    }

    fn run_report(&mut self, tel: &mut dyn Telemetry) {
        let out = self.out();
        tel.comm(CommRecord {
            scheme: out.scheme.label().to_string(),
            nodes: out.nodes,
            rounds: out.total_comm_rounds,
            messages: out.total_messages,
            bytes: out.total_bytes,
        });
        tel.counter("cap_used_log2", out.cap_used as f64);

        // Fault / chaos telemetry: each injected fault and recovery
        // event becomes an instant record; counters summarise the
        // schedule. Fault-free runs emit none of this, keeping their
        // journals unchanged.
        if !out.fault_events.is_empty() {
            for ev in &out.fault_events {
                tel.fault(FaultRecord {
                    kind: ev.kind.label().to_string(),
                    src: ev.src,
                    dst: ev.dst,
                    seq: ev.seq,
                    ts_ns: ev.ts_ns,
                });
            }
            tel.counter("faults.total", out.fault_counters.total_faults() as f64);
            tel.counter("faults.retries", out.fault_counters.retries as f64);
        }

        // Causal flow events, interleaved so every receive follows its
        // matching send (what the strict journal validator and the
        // cross-rank analyzer expect). Untraced runs carry none and
        // their journals are unchanged.
        for f in causal_order(&out.flows) {
            tel.flow(FlowRecord {
                kind: match f.kind {
                    TraceKind::Send => FlowKind::Send,
                    TraceKind::Recv => FlowKind::Recv,
                    TraceKind::Collective => FlowKind::Collective,
                },
                stream: f.stream.to_string(),
                src: f.src,
                dst: f.dst,
                seq: f.seq,
                bytes: f.bytes,
                t_ns: f.t_ns,
                wait_ns: f.wait_ns,
            });
        }
    }
}

/// Orders rank-concatenated trace events so that every receive follows its
/// matching send while each rank's events keep their program order — the
/// interleaving the strict journal validator checks. The traced execution
/// completed, so its dependency graph is acyclic and the greedy schedule
/// always drains; a truncated or damaged capture with orphan receives is
/// flushed in rank order at the end (tolerant consumers report those as
/// unmatched rather than failing).
fn causal_order(flows: &[TraceEvent]) -> Vec<&TraceEvent> {
    let mut queues: Vec<Vec<&TraceEvent>> = Vec::new();
    let mut last_rank: Option<u32> = None;
    for f in flows {
        if last_rank != Some(f.rank()) {
            last_rank = Some(f.rank());
            queues.push(Vec::new());
        }
        queues.last_mut().expect("queue just pushed").push(f);
    }
    let mut out: Vec<&TraceEvent> = Vec::with_capacity(flows.len());
    let mut sent: HashMap<(&str, u32, u32, u64), u32> = HashMap::new();
    let mut heads: Vec<usize> = vec![0; queues.len()];
    loop {
        let mut progress = false;
        for (q, queue) in queues.iter().enumerate() {
            while let Some(&ev) = queue.get(heads[q]) {
                let ready = match ev.kind {
                    TraceKind::Recv => match sent.get_mut(&(ev.stream, ev.src, ev.dst, ev.seq)) {
                        Some(n) if *n > 0 => {
                            *n -= 1;
                            true
                        }
                        _ => false,
                    },
                    _ => true,
                };
                if !ready {
                    break;
                }
                if ev.kind == TraceKind::Send {
                    *sent.entry((ev.stream, ev.src, ev.dst, ev.seq)).or_insert(0) += 1;
                }
                out.push(ev);
                heads[q] += 1;
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }
    for (q, queue) in queues.iter().enumerate() {
        out.extend(queue[heads[q]..].iter());
    }
    out
}

/// [`segment_msgpass`] under a seeded deterministic fault-injection plan.
///
/// Survivable schedules (faults the ack/retry protocol absorbs) produce a
/// segmentation **bit-identical** to the fault-free run, with the injected
/// faults reported in [`MsgPassOutcome::fault_events`]. Unsurvivable
/// schedules (a link declared dead, a peer down) degrade gracefully: the
/// cluster aborts and the segmentation is recomputed by the sequential
/// host engine under the same square cap, flagged via
/// [`MsgPassOutcome::degraded`] and a `degraded` fault event.
pub fn segment_msgpass_chaos<P: Intensity>(
    img: &Image<P>,
    config: &Config,
    nodes: usize,
    scheme: CommScheme,
    plan: &FaultPlan,
) -> MsgPassOutcome {
    segment_msgpass_chaos_with_telemetry(img, config, nodes, scheme, plan, &mut NullTelemetry)
}

/// The SPMD node program, fallible end to end: any [`Fault`] a node hits
/// aborts the whole cluster deterministically (see
/// [`cmmd_sim::try_run_spmd`]).
fn try_segment_msgpass_impl<P: Intensity>(
    img: &Image<P>,
    config: &Config,
    nodes: usize,
    scheme: CommScheme,
    params: TimeParams,
    plan: Option<FaultPlan>,
    trace: bool,
) -> Result<MsgPassOutcome, SpmdAbort> {
    let decomp = Decomposition::for_nodes(nodes, img.width(), img.height());
    let safe_cap = decomp.max_safe_square_log2();
    let cap_used = config
        .max_square_log2
        .map(|c| c.min(safe_cap))
        .unwrap_or(safe_cap);

    let res = try_run_spmd(decomp.nodes(), params, plan, |node| {
        node.set_tracing(trace);
        // Steps 0–2: receive the sub-image, split it, build the local
        // graph with boundary exchange (split time captured inside).
        let mut rag = build_local_rag(node, &decomp, img, config, cap_used)?;
        let t_split = rag.split_done_seconds;
        node.set_trace_stream("graph");
        node.try_barrier()?;
        let t_graph = node.clock_seconds();

        // Steps 3–5: cooperative merge.
        let merge = merge_mp(node, &decomp, &mut rag, config, scheme)?;
        node.set_trace_stream("merge:post");
        node.try_barrier()?;
        let t_merge = node.clock_seconds();

        // Final label resolution: gather the global redirect history and
        // chase each tile pixel's square to its representative.
        let me = node.rank();
        let mut words = Vec::with_capacity(merge.redirects.len() * 2);
        for &(dead, rep) in &merge.redirects {
            words.push(dead);
            words.push(rep);
        }
        node.set_trace_stream("label");
        let all = node.try_concat(encode_u32s(&words))?;
        let mut redirect: HashMap<u32, u32> = HashMap::new();
        for payload in all {
            let part = try_decode_u32s(payload).map_err(|_| Fault::Malformed {
                rank: me,
                what: "redirect history payload",
            })?;
            for c in part.chunks_exact(2) {
                redirect.insert(c[0], c[1]);
            }
        }
        let resolve = |mut id: u32| {
            while let Some(&nxt) = redirect.get(&id) {
                id = nxt;
            }
            id
        };
        let tile_labels: Vec<u32> = rag.pixel_square.iter().map(|&q| resolve(q)).collect();
        node.compute(tile_labels.len() as u64 * LABEL_UNITS_PER_PX);

        Ok(NodeOut {
            tile_labels,
            split_iterations: rag.split_iterations,
            num_squares_local: rag.store.len() + merge.redirects.len(),
            merge,
            t_split,
            t_graph,
            t_merge,
            msgs_sent: node.msgs_sent(),
            bytes_sent: node.bytes_sent(),
            comm_rounds: node.comm_rounds(),
        })
    })?;

    // Assemble the global label image.
    let (w, h) = (img.width(), img.height());
    let mut raw = vec![0u32; w * h];
    for (rank, out) in res.results.iter().enumerate() {
        let t = decomp.tile(rank);
        for ty in 0..t.h {
            raw[(t.y0 + ty) * w + t.x0..(t.y0 + ty) * w + t.x0 + t.w]
                .copy_from_slice(&out.tile_labels[ty * t.w..(ty + 1) * t.w]);
        }
    }
    let (labels, num_regions) = compact_first_appearance(&raw);

    let split_iterations = res
        .results
        .iter()
        .map(|o| o.split_iterations)
        .max()
        .unwrap();
    let num_squares = res.results.iter().map(|o| o.num_squares_local).sum();
    let merge0 = &res.results[0].merge;
    debug_assert_eq!(
        num_regions,
        res.results
            .iter()
            .map(|o| o.merge.num_regions_local)
            .sum::<usize>()
    );

    let t_split = res.results[0].t_split;
    let t_graph = res.results[0].t_graph;
    let t_merge = res.results[0].t_merge;
    let total_messages: u64 = res.results.iter().map(|o| o.msgs_sent).sum();
    let total_bytes: u64 = res.results.iter().map(|o| o.bytes_sent).sum();
    let total_comm_rounds: u64 = res.results.iter().map(|o| o.comm_rounds).sum();

    // Fold the per-node merge communication telemetry: exchange deltas sum
    // across nodes (the loop is collective, so every node records the same
    // iteration count) and payload-size histograms merge exactly.
    let mut merge_comm_per_iteration =
        vec![[ExchangeComm::default(); EXCHANGES_PER_ITERATION]; merge0.iterations as usize];
    let mut merge_msg_bytes = Histogram::new();
    for out in &res.results {
        debug_assert_eq!(
            out.merge.comm_per_iteration.len(),
            merge0.iterations as usize
        );
        for (acc, node_iter) in merge_comm_per_iteration
            .iter_mut()
            .zip(out.merge.comm_per_iteration.iter())
        {
            for (a, b) in acc.iter_mut().zip(node_iter.iter()) {
                a.fold(b);
            }
        }
        merge_msg_bytes.merge(&out.merge.msg_bytes_hist);
    }

    Ok(MsgPassOutcome {
        seg: Segmentation {
            labels,
            num_regions,
            num_squares,
            split_iterations,
            merge_iterations: merge0.iterations,
            merges_per_iteration: merge0.merges_per_iteration.clone(),
            width: w,
            height: h,
        },
        split_seconds: t_split,
        graph_seconds: t_graph - t_split,
        merge_seconds: t_merge - t_graph,
        scheme,
        nodes: decomp.nodes(),
        cap_used,
        total_messages,
        total_bytes,
        total_comm_rounds,
        merge_comm_per_iteration,
        merge_msg_bytes,
        degraded: false,
        fault_events: res.fault_events,
        fault_counters: res.fault_counters,
        flows: res.trace_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rg_core::{segment, Connectivity, TieBreak};
    use rg_imaging::synth;

    /// Host config with the MP-safe cap applied, for bit-exact comparison.
    fn capped(config: &Config, nodes: usize, w: usize, h: usize) -> Config {
        let d = Decomposition::for_nodes(nodes, w, h);
        Config {
            max_square_log2: Some(
                config
                    .max_square_log2
                    .map(|c| c.min(d.max_safe_square_log2()))
                    .unwrap_or(d.max_safe_square_log2()),
            ),
            ..*config
        }
    }

    fn check_matches_host(img: &Image<u8>, config: &Config, nodes: usize) {
        let host_cfg = capped(config, nodes, img.width(), img.height());
        let host = segment(img, &host_cfg);
        for scheme in [CommScheme::LinearPermutation, CommScheme::Async] {
            let mp = segment_msgpass(img, config, nodes, scheme);
            assert_eq!(mp.seg, host, "{scheme:?} nodes={nodes}");
        }
    }

    #[test]
    fn figure1_matches_host_on_4_nodes() {
        let img = synth::figure1_image();
        check_matches_host(
            &img,
            &Config::with_threshold(3).tie_break(TieBreak::SmallestId),
            4,
        );
    }

    #[test]
    fn paper_style_images_match_host() {
        check_matches_host(&synth::nested_rects(64), &Config::with_threshold(10), 8);
        check_matches_host(&synth::rect_collection(64), &Config::with_threshold(10), 16);
    }

    #[test]
    fn random_scenes_match_host_all_policies() {
        for seed in 0..2 {
            let img = synth::random_rects(32, 32, 6, seed);
            for tie in [
                TieBreak::SmallestId,
                TieBreak::LargestId,
                TieBreak::Random { seed: 5 },
            ] {
                check_matches_host(&img, &Config::with_threshold(20).tie_break(tie), 4);
            }
        }
    }

    #[test]
    fn eight_connectivity_matches_host() {
        let img = synth::circle_collection(64);
        check_matches_host(
            &img,
            &Config::with_threshold(10).connectivity(Connectivity::Eight),
            4,
        );
    }

    #[test]
    fn non_divisible_image_matches_host() {
        let img = synth::uniform_noise(50, 38, 80, 140, 2);
        check_matches_host(&img, &Config::with_threshold(15), 6);
    }

    #[test]
    fn single_node_matches_host() {
        let img = synth::rect_collection(32);
        check_matches_host(&img, &Config::with_threshold(10), 1);
    }

    #[test]
    fn more_nodes_than_rows_matches_host() {
        // 8 nodes on a 64x2 image force an 8x1 grid: every tile spans the
        // full image height and boundary exchange runs only horizontally.
        let img = synth::uniform_noise(64, 2, 60, 200, 9);
        check_matches_host(&img, &Config::with_threshold(25), 8);
    }

    #[test]
    fn one_pixel_tall_image_matches_host() {
        // 1xN degenerates to a pure horizontal pipeline of 1-row tiles.
        let img = synth::uniform_noise(64, 1, 60, 200, 9);
        check_matches_host(&img, &Config::with_threshold(25), 4);
    }

    #[test]
    fn one_pixel_wide_image_matches_host() {
        // Nx1 is the transpose: a vertical strip of 1-column tiles.
        let img = synth::uniform_noise(1, 64, 60, 200, 9);
        check_matches_host(&img, &Config::with_threshold(25), 4);
    }

    #[test]
    fn near_pixel_limit_cluster_matches_host() {
        // 16 nodes on 5x5 pixels: one- and two-pixel tiles, every region
        // initially a singleton square.
        let img = synth::uniform_noise(5, 5, 60, 200, 9);
        check_matches_host(&img, &Config::with_threshold(25), 16);
    }

    #[test]
    fn single_node_odd_shape_matches_host() {
        // A 1x1 grid on a non-square, non-power-of-two image: the merge
        // loop runs without any remote traffic at all.
        let img = synth::uniform_noise(40, 3, 60, 200, 9);
        check_matches_host(&img, &Config::with_threshold(25), 1);
    }

    #[test]
    fn async_is_faster_than_lp_on_merge() {
        let img = synth::circle_collection(128);
        let cfg = Config::with_threshold(10);
        let lp = segment_msgpass(&img, &cfg, 32, CommScheme::LinearPermutation);
        let asy = segment_msgpass(&img, &cfg, 32, CommScheme::Async);
        assert_eq!(lp.seg, asy.seg);
        assert!(
            asy.merge_seconds_as_reported() < lp.merge_seconds_as_reported(),
            "async {} should beat LP {}",
            asy.merge_seconds_as_reported(),
            lp.merge_seconds_as_reported()
        );
    }

    #[test]
    fn telemetry_carries_comm_counters() {
        use rg_core::telemetry::{Recorder, Stage};
        let img = synth::rect_collection(64);
        let cfg = Config::with_threshold(10);
        let mut rec = Recorder::new();
        let out =
            segment_msgpass_with_telemetry(&img, &cfg, 8, CommScheme::LinearPermutation, &mut rec);
        let r = rec.report();
        assert!(rec.is_finished());
        assert_eq!(r.engine, "msgpass:LP:8");
        let comm = r.comm.as_ref().expect("msgpass must emit a CommRecord");
        assert_eq!(comm.scheme, "LP");
        assert_eq!(comm.nodes, 8);
        assert_eq!(comm.messages, out.total_messages);
        assert_eq!(comm.bytes, out.total_bytes);
        assert_eq!(comm.rounds, out.total_comm_rounds);
        assert!(comm.rounds > 0);
        assert_eq!(r.stage_seconds(Stage::Split), Some(out.split_seconds));
        assert_eq!(
            r.merge_seconds_as_reported(),
            Some(out.merge_seconds_as_reported())
        );
        assert_eq!(r.merges_per_iteration(), out.seg.merges_per_iteration);
        assert_eq!(r.num_regions, out.seg.num_regions);
        assert_eq!(r.counter("cap_used_log2"), Some(out.cap_used as f64));
    }

    #[test]
    fn traced_run_emits_strictly_valid_flow_journal() {
        let img = synth::rect_collection(64);
        let cfg = Config::with_threshold(10);
        let mut log = rg_core::EventLog::in_memory();
        let out = segment_msgpass_with_telemetry(&img, &cfg, 4, CommScheme::Async, &mut log);
        assert!(!out.flows.is_empty());
        let events = log.into_events();
        // Strict validation covers flow pairing and per-rank clock
        // monotonicity — the causal interleave must satisfy both.
        rg_core::validate_journal(&events).unwrap();
        let fp = rg_core::flow_pairing(&events);
        assert!(fp.any() && fp.fully_paired(), "{fp:?}");
        assert_eq!(fp.sends, fp.recvs);
        assert_eq!(fp.sends as u64, out.total_messages);
        let a = rg_core::analyze_run(&events).expect("flows present");
        assert_eq!(a.nodes, 4);
        assert!(a.critical_path_ns <= a.wall_ns + 1e-6);
        assert!(a.critical_path_ns >= a.max_busy_ns() - 1e-6);
        assert!(a.wall_ns > 0.0);
        // Stage tags from every phase of the program reached the journal.
        let streams: std::collections::HashSet<&str> = out.flows.iter().map(|f| f.stream).collect();
        for s in [
            "split",
            "boundary",
            "graph",
            "merge:stats",
            "merge:term",
            "label",
        ] {
            assert!(streams.contains(s), "missing stream {s:?} in {streams:?}");
        }
    }

    #[test]
    fn untraced_run_captures_no_flows() {
        let img = synth::rect_collection(32);
        let out = segment_msgpass(&img, &Config::with_threshold(10), 4, CommScheme::Async);
        assert!(out.flows.is_empty());
    }

    #[test]
    fn traced_chaos_run_attributes_retry_waits() {
        use cmmd_sim::FaultPlan;
        let img = synth::rect_collection(64);
        let cfg = Config::with_threshold(10);
        // The storm profile drops and corrupts aggressively; every retry
        // burns a timeout the trace must attribute to the affected edge.
        let plan = FaultPlan::new(2, "storm").expect("known profile");
        let mut log = rg_core::EventLog::in_memory();
        let out =
            segment_msgpass_chaos_with_telemetry(&img, &cfg, 4, CommScheme::Async, &plan, &mut log);
        assert!(!out.degraded, "storm seed 2 must be survivable");
        assert!(out.fault_counters.retries > 0);
        let events = log.into_events();
        rg_core::validate_journal(&events).unwrap();
        let a = rg_core::analyze_run(&events).expect("flows present");
        assert!(
            a.retry_wait_ns > 0.0,
            "retries must surface as retry-wait: {a:?}"
        );
        assert!(a.edges.iter().any(|e| e.retry_wait_ns > 0.0));
        assert!(a.critical_path_ns <= a.wall_ns + 1e-6);
        assert!(a.critical_path_ns >= a.max_busy_ns() - 1e-6);
    }

    #[test]
    fn lp_executes_more_rounds_than_async() {
        // The structural cost the paper blames for LP's slower merge: all
        // Q−1 permutation rounds run per exchange whether or not a pair
        // has traffic, while Async posts everything in one round.
        let img = synth::rect_collection(64);
        let cfg = Config::with_threshold(10);
        let lp = segment_msgpass(&img, &cfg, 8, CommScheme::LinearPermutation);
        let asy = segment_msgpass(&img, &cfg, 8, CommScheme::Async);
        assert!(
            lp.total_comm_rounds > asy.total_comm_rounds,
            "LP rounds {} should exceed Async rounds {}",
            lp.total_comm_rounds,
            asy.total_comm_rounds
        );
    }

    #[test]
    fn comm_volume_identical_across_schemes() {
        // LP and Async move the same payloads; only the timing differs.
        let img = synth::rect_collection(64);
        let cfg = Config::with_threshold(10);
        let lp = segment_msgpass(&img, &cfg, 8, CommScheme::LinearPermutation);
        let asy = segment_msgpass(&img, &cfg, 8, CommScheme::Async);
        assert_eq!(lp.total_messages, asy.total_messages);
        assert_eq!(lp.total_bytes, asy.total_bytes);
        assert!(lp.total_messages > 0);
    }

    #[test]
    fn reports_paper_like_metadata() {
        let img = synth::nested_rects(128);
        let out = segment_msgpass(&img, &Config::with_threshold(10), 32, CommScheme::Async);
        assert_eq!(out.nodes, 32);
        assert_eq!(out.cap_used, 4); // 16-pixel squares on 128² / 32 nodes
        assert_eq!(out.seg.split_iterations, 4); // the paper's number
        assert_eq!(out.seg.num_regions, 2);
        assert!(out.split_seconds > 0.0);
        assert!(out.merge_seconds > 0.0);
    }
}
