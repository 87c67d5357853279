//! Data-parallel merge stage (the paper's steps 3–5).
//!
//! All state is flat 1-D fields: vertex statistics, canonical IDs, a
//! parent pointer per vertex, and the two edge-endpoint arrays. One
//! iteration is a fixed sequence of machine primitives:
//!
//! 1. gather endpoint statistics (router gets), compute edge weights and
//!    re-test the criterion (elementwise), de-activating failed edges;
//! 2. three cascaded combining-send minima resolve every vertex's best
//!    neighbour under `(weight, tie-key, tie-key₂, neighbour)` — the
//!    lexicographic refinement the CM's `send-with-min` supports natively;
//! 3. a gather of `choice[choice[v]]` detects mutual selections; losers
//!    (the larger dense index of each pair) send their statistics to the
//!    winners with combining sends and point their parent at the winner;
//! 4. edge endpoints relabel through the parent map (gets), self-loops
//!    de-activate, and a global OR on the remaining active edges decides
//!    whether to iterate.
//!
//! Duplicate (parallel) edges appear after relabelling and are left in
//! place — the arrays are statically sized, exactly the flat-array
//! discipline of the paper; duplicates never change a minimum.
//!
//! After the loop, parents are resolved to roots by pointer jumping
//! (`parent ← parent[parent]` until fixpoint), and per-pixel labels come
//! from one final gather through the pixel→vertex field.

use crate::fields::NONE;
use crate::graph_dp::DpGraph;
use cm_sim::{Field, Machine, Shape};
use rg_core::config::{mean_satisfies, mean_weight_fp16, range_satisfies, range_weight_fp16};
use rg_core::merge::tie_key;
use rg_core::{Config, Criterion, MergeSummary, TieBreak};

/// Result of the data-parallel merge stage.
pub struct DpMerge {
    /// Per-pixel representative vertex (dense index), machine-resident.
    pub pixel_rep: Field<u32>,
    /// Stage summary (iterations, merges, final region count).
    pub summary: MergeSummary,
}

/// Edge-endpoint views of a vertex field.
fn gather_ends<T: cm_sim::Elem>(
    m: &Machine,
    table: &Field<T>,
    e_u: &Field<u32>,
    e_v: &Field<u32>,
    default: T,
) -> (Field<T>, Field<T>) {
    (
        m.get(table, e_u, None, default),
        m.get(table, e_v, None, default),
    )
}

/// Runs the merge loop.
pub fn merge_dp(m: &Machine, g: &DpGraph, config: &Config) -> DpMerge {
    // Vertex arrays are slot-indexed over the whole pixel grid (dead slots
    // masked), and edge arrays are K·N² long — the CM Fortran static
    // layout. Reshape vertex state to 1-D for the graph phase.
    let nv = g.v_alive.len();
    let vshape = Shape::one_d(nv);
    let as_1d_u32 = |f: &Field<u32>| Field::from_vec(vshape, f.as_slice().to_vec());
    let as_1d_u64 = |f: &Field<u64>| Field::from_vec(vshape, f.as_slice().to_vec());
    let mut v_min = as_1d_u32(&g.v_stats.min);
    let mut v_max = as_1d_u32(&g.v_stats.max);
    let mut v_sum = as_1d_u64(&g.v_stats.sum);
    let mut v_cnt = as_1d_u64(&g.v_stats.cnt);
    // The slot index is the canonical region ID.
    let v_id = m.map(&m.iota(vshape), |i| i as u64);
    let mut parent = m.iota(vshape);

    let e_u0 = g.e_u.clone();
    let e_v0 = g.e_v.clone();
    let mut e_u = e_u0;
    let mut e_v = e_v0;
    let mut e_active = g.e_valid.clone();

    let crit = config.criterion;
    let t = config.threshold;

    // Initial de-activation (step 2's "edges that do not satisfy the
    // homogeneity criterion are de-activated").
    refresh_active(
        m,
        crit,
        t,
        &v_min,
        &v_max,
        &v_sum,
        &v_cnt,
        &e_u,
        &e_v,
        &mut e_active,
    );

    let mut iterations = 0u32;
    let mut merges_per_iteration = Vec::new();
    let mut stalls = 0u32;
    let vertex_self = m.iota(vshape);

    while m.any(&e_active) {
        let used_fallback =
            matches!(config.tie_break, TieBreak::Random { .. }) && stalls >= config.max_stall;
        let policy = if used_fallback {
            TieBreak::SmallestId
        } else {
            config.tie_break
        };

        // ---- step 3: best-neighbour selection -------------------------
        let (min_u, min_v) = gather_ends(m, &v_min, &e_u, &e_v, u32::MAX);
        let (max_u, max_v) = gather_ends(m, &v_max, &e_u, &e_v, 0);
        let (sum_u, sum_v) = gather_ends(m, &v_sum, &e_u, &e_v, 0);
        let (cnt_u, cnt_v) = gather_ends(m, &v_cnt, &e_u, &e_v, 0);
        let (id_u, id_v) = gather_ends(m, &v_id, &e_u, &e_v, 0);

        let w = match crit {
            Criterion::PixelRange => {
                let lo = m.zip(&min_u, &min_v, u32::min);
                let hi = m.zip(&max_u, &max_v, u32::max);
                m.zip(&lo, &hi, range_weight_fp16)
            }
            Criterion::MeanDifference => {
                let a = m.zip(&sum_u, &cnt_u, |s, c| (s, c));
                let b = m.zip(&sum_v, &cnt_v, |s, c| (s, c));
                m.zip(&a, &b, |a, b| mean_weight_fp16(a.0, a.1, b.0, b.1))
            }
        };

        // Phase 1: per-vertex minimum weight (both edge directions).
        let mut best_w = Field::constant(vshape, u64::MAX);
        m.send_combine(&e_u, &w, Some(&e_active), &mut best_w, u64::min);
        m.send_combine(&e_v, &w, Some(&e_active), &mut best_w, u64::min);

        // Phase 2: among weight-ties, minimum primary tie key.
        let (bw_u, bw_v) = gather_ends(m, &best_w, &e_u, &e_v, u64::MAX);
        let tie_u = {
            let hit = m.zip(&w, &bw_u, |a, b| a == b);
            m.zip(&hit, &e_active, |a, b| a && b)
        };
        let tie_v = {
            let hit = m.zip(&w, &bw_v, |a, b| a == b);
            m.zip(&hit, &e_active, |a, b| a && b)
        };
        let iter = iterations;
        let k_uv = m.zip(&id_u, &id_v, move |cu, cv| tie_key(policy, iter, cu, cv));
        let k_vu = m.zip(&id_v, &id_u, move |cv, cu| tie_key(policy, iter, cv, cu));
        let k0_uv = m.map(&k_uv, |k| k.0);
        let k0_vu = m.map(&k_vu, |k| k.0);
        let mut best_k0 = Field::constant(vshape, u64::MAX);
        m.send_combine(&e_u, &k0_uv, Some(&tie_u), &mut best_k0, u64::min);
        m.send_combine(&e_v, &k0_vu, Some(&tie_v), &mut best_k0, u64::min);

        // Phase 3: among (weight, k0) ties, minimum secondary key.
        let (bk0_u, bk0_v) = gather_ends(m, &best_k0, &e_u, &e_v, u64::MAX);
        let tie2_u = m.zip3(&tie_u, &k0_uv, &bk0_u, |t, k, b| t && k == b);
        let tie2_v = m.zip3(&tie_v, &k0_vu, &bk0_v, |t, k, b| t && k == b);
        let k1_uv = m.map(&k_uv, |k| k.1);
        let k1_vu = m.map(&k_vu, |k| k.1);
        let mut best_k1 = Field::constant(vshape, u64::MAX);
        m.send_combine(&e_u, &k1_uv, Some(&tie2_u), &mut best_k1, u64::min);
        m.send_combine(&e_v, &k1_vu, Some(&tie2_v), &mut best_k1, u64::min);

        // Phase 4: among full ties, minimum neighbour index = the choice.
        let (bk1_u, bk1_v) = gather_ends(m, &best_k1, &e_u, &e_v, u64::MAX);
        let tie3_u = m.zip3(&tie2_u, &k1_uv, &bk1_u, |t, k, b| t && k == b);
        let tie3_v = m.zip3(&tie2_v, &k1_vu, &bk1_v, |t, k, b| t && k == b);
        let mut choice = Field::constant(vshape, NONE);
        m.send_combine(&e_u, &e_v, Some(&tie3_u), &mut choice, u32::min);
        m.send_combine(&e_v, &e_u, Some(&tie3_v), &mut choice, u32::min);

        // ---- step 3 (cont.): mutual selection --------------------------
        let has_choice = m.map(&choice, |c| c != NONE);
        let safe_choice = m.select(&has_choice, &choice, &vertex_self);
        let back = m.get(&choice, &safe_choice, Some(&has_choice), NONE);
        let mutual = m.zip3(&back, &vertex_self, &has_choice, |b, s, h| h && b == s);
        // Loser: the larger dense index of a mutual pair.
        let loser = {
            let bigger = m.zip(&vertex_self, &choice, |s, c| s > c);
            m.zip(&mutual, &bigger, |a, b| a && b)
        };
        let merges = m.count_true(&loser) as u32;

        // ---- step 4: update vertices ----------------------------------
        // Rust needs the read snapshot split from the written array; on
        // the CM the router reads source VPs while writing destinations.
        let (src_min, src_max) = (v_min.clone(), v_max.clone());
        let (src_sum, src_cnt) = (v_sum.clone(), v_cnt.clone());
        m.send_combine(&choice, &src_min, Some(&loser), &mut v_min, u32::min);
        m.send_combine(&choice, &src_max, Some(&loser), &mut v_max, u32::max);
        m.send_combine(&choice, &src_sum, Some(&loser), &mut v_sum, |a, b| a + b);
        m.send_combine(&choice, &src_cnt, Some(&loser), &mut v_cnt, |a, b| a + b);
        m.update_where(&mut parent, &loser, &choice, |_, c| c);

        // ---- step 4 (cont.): update edges ------------------------------
        // One level of indirection suffices: edges always reference
        // current representatives, and a representative never loses to a
        // larger index within the same iteration.
        let rep = m.select(&loser, &choice, &vertex_self);
        e_u = m.get(&rep, &e_u, None, 0);
        e_v = m.get(&rep, &e_v, None, 0);
        let not_loop = m.zip(&e_u, &e_v, |a, b| a != b);
        e_active = m.zip(&e_active, &not_loop, |a, b| a && b);
        refresh_active(
            m,
            crit,
            t,
            &v_min,
            &v_max,
            &v_sum,
            &v_cnt,
            &e_u,
            &e_v,
            &mut e_active,
        );

        iterations += 1;
        merges_per_iteration.push(merges);
        if merges == 0 {
            stalls += 1;
        } else {
            stalls = 0;
        }
    }

    // ---- resolve parents by pointer jumping -----------------------------
    loop {
        let hop = m.get(&parent, &parent, None, 0);
        let changed = m.zip(&parent, &hop, |a, b| a != b);
        parent = hop;
        if !m.any(&changed) {
            break;
        }
    }
    let is_root = m.zip(&parent, &vertex_self, |p, s| p == s);
    let alive_1d = Field::from_vec(vshape, g.v_alive.as_slice().to_vec());
    let roots = m.zip(&is_root, &alive_1d, |r, a| r && a);
    let num_regions = m.count_true(&roots);

    // Per-pixel representative: one gather through the pixel→vertex field.
    let pixel_rep = m.get(&parent, &g.sq_of, None, 0);

    DpMerge {
        pixel_rep,
        summary: MergeSummary {
            iterations,
            merges_per_iteration,
            num_regions,
        },
    }
}

/// Re-tests the criterion on every edge and de-activates failures.
#[allow(clippy::too_many_arguments)]
fn refresh_active(
    m: &Machine,
    crit: Criterion,
    t: u32,
    v_min: &Field<u32>,
    v_max: &Field<u32>,
    v_sum: &Field<u64>,
    v_cnt: &Field<u64>,
    e_u: &Field<u32>,
    e_v: &Field<u32>,
    e_active: &mut Field<bool>,
) {
    let sat = match crit {
        Criterion::PixelRange => {
            let (min_u, min_v) = (
                m.get(v_min, e_u, None, u32::MAX),
                m.get(v_min, e_v, None, u32::MAX),
            );
            let (max_u, max_v) = (m.get(v_max, e_u, None, 0), m.get(v_max, e_v, None, 0));
            let lo = m.zip(&min_u, &min_v, u32::min);
            let hi = m.zip(&max_u, &max_v, u32::max);
            m.zip(&lo, &hi, move |l, h| range_satisfies(l, h, t))
        }
        Criterion::MeanDifference => {
            let a = m.zip(
                &m.get(v_sum, e_u, None, 0),
                &m.get(v_cnt, e_u, None, 0),
                |s, c| (s, c),
            );
            let b = m.zip(
                &m.get(v_sum, e_v, None, 0),
                &m.get(v_cnt, e_v, None, 0),
                |s, c| (s, c),
            );
            m.zip(&a, &b, move |a, b| mean_satisfies(a.0, a.1, b.0, b.1, t))
        }
    };
    *e_active = m.zip(e_active, &sat, |a, b| a && b);
}
