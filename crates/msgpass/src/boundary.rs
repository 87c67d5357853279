//! Local graph setup with boundary exchange (paper steps 1–2).
//!
//! Each node splits its sub-image independently, builds the vertices and
//! internal edges of its local graph, then exchanges boundary strips with
//! its grid neighbours so that *"edges connected to vertices in other
//! processors are created"*.
//!
//! Regions are identified by their canonical ID (linear index of the
//! top-left pixel in the **global** image) and owned by the node whose
//! tile contains that pixel. The graph is stored as *directed half-edges*
//! `(owned source, target)`; every undirected edge appears exactly once at
//! each endpoint's owner — the symmetry the distributed merge relies on to
//! route stats, choices, and redirects without extra handshakes.

use crate::decomp::{Decomposition, Tile};
use cmmd_sim::channel::{encode_u32s, try_decode_u32s};
use cmmd_sim::{Fault, Node};
use rg_core::graph::square_adjacency_into;
use rg_core::kernels::{stats_from_words, stats_to_words, STATS_WIRE_WORDS};
use rg_core::{split, Config, Connectivity, RegionStats};
use rg_imaging::{Image, Intensity};
use std::collections::{BTreeMap, HashMap};

/// Work-unit constants (abstract units × `t_cpu`): the F77 code's per-pass
/// costs, calibrated with the paper's split-stage rows.
pub const SPLIT_UNITS_PER_PX_PER_LEVEL: u64 = 12;
/// Work units per pixel for the local graph construction.
pub const RAG_UNITS_PER_PX: u64 = 8;
/// Work units per boundary-strip element.
pub const STRIP_UNITS_PER_ELEM: u64 = 4;

/// A node's share of the distributed region adjacency graph.
#[derive(Debug)]
pub struct LocalRag {
    /// Owned regions by canonical ID.
    pub store: BTreeMap<u32, RegionStats<u32>>,
    /// Directed half-edges `(owned source id, target id)`, sorted, unique.
    pub half_edges: Vec<(u32, u32)>,
    /// Statistics of remote regions adjacent to ours (refreshed every
    /// merge iteration; this is the initial snapshot from the boundary
    /// exchange).
    pub ghosts: HashMap<u32, RegionStats<u32>>,
    /// Per tile pixel (row-major within the tile), the global ID of its
    /// square.
    pub pixel_square: Vec<u32>,
    /// Productive split iterations on this node's sub-image.
    pub split_iterations: u32,
    /// Synchronised virtual time at the end of the split stage, seconds.
    pub split_done_seconds: f64,
}

/// Encodes `(id, stats)` entries as a u32 stream of
/// [`STATS_WIRE_WORDS`]-word records.
fn encode_entries(entries: &[(u32, RegionStats<u32>)]) -> Vec<u32> {
    let mut out = Vec::with_capacity(entries.len() * STATS_WIRE_WORDS);
    for (id, s) in entries {
        out.extend_from_slice(&stats_to_words(*id, s));
    }
    out
}

/// Inverse of [`encode_entries`]; `None` for a length that is not a whole
/// number of entries (a corrupted payload on a chaos run).
fn try_decode_entries(words: &[u32]) -> Option<Vec<(u32, RegionStats<u32>)>> {
    if !words.len().is_multiple_of(STATS_WIRE_WORDS) {
        return None;
    }
    Some(
        words
            .chunks_exact(STATS_WIRE_WORDS)
            .map(stats_from_words)
            .collect(),
    )
}

/// Splits the node's sub-image and assembles its local share of the graph,
/// exchanging boundary strips with grid neighbours.
///
/// `cap` is the square-size cap actually used (already clamped to the
/// decomposition's safe cap by the driver).
///
/// Fallible: under an armed fault plan, an unhealable link or a poisoned
/// collective surfaces as `Err` so the driver can degrade to the host
/// pipeline; without a plan the communication never fails.
pub fn build_local_rag<P: Intensity>(
    node: &mut Node,
    decomp: &Decomposition,
    img: &Image<P>,
    config: &Config,
    cap: u8,
) -> Result<LocalRag, Fault> {
    let me = node.rank();
    let malformed = |what: &'static str| Fault::Malformed { rank: me, what };
    let tile = decomp.tile(me);
    let sub = img.crop(tile.x0, tile.y0, tile.w, tile.h);

    // --- step 1: independent local split --------------------------------
    let local_cfg = Config {
        max_square_log2: Some(cap),
        ..*config
    };
    let s = split(&sub, &local_cfg);
    node.compute(
        tile.w as u64 * tile.h as u64 * SPLIT_UNITS_PER_PX_PER_LEVEL * (s.iterations as u64 + 1),
    );
    // The split stage ends with a synchronisation point: the paper times
    // the stages separately.
    node.set_trace_stream("split");
    node.try_barrier()?;
    let split_done_seconds = node.clock_seconds();

    // Owned regions with global IDs.
    let gid_of_square: Vec<u32> = s
        .squares
        .iter()
        .map(|sq| ((sq.y as usize + tile.y0) * decomp.width + sq.x as usize + tile.x0) as u32)
        .collect();
    let mut store = BTreeMap::new();
    for (sq_idx, &gid) in gid_of_square.iter().enumerate() {
        let st = s.stats[sq_idx];
        store.insert(
            gid,
            RegionStats {
                min: st.min.to_u32(),
                max: st.max.to_u32(),
                sum: st.sum,
                count: st.count,
            },
        );
    }
    let pixel_square: Vec<u32> = s
        .square_of
        .iter()
        .map(|&q| gid_of_square[q as usize])
        .collect();

    // --- step 2: internal edges ------------------------------------------
    let mut local_edges = Vec::new();
    square_adjacency_into(&s, config.connectivity, &mut Vec::new(), &mut local_edges);
    let mut half_edges: Vec<(u32, u32)> = Vec::new();
    for (a, b) in local_edges {
        let (ga, gb) = (gid_of_square[a as usize], gid_of_square[b as usize]);
        half_edges.push((ga, gb));
        half_edges.push((gb, ga));
    }
    node.compute(tile.w as u64 * tile.h as u64 * RAG_UNITS_PER_PX);

    // --- step 2 (cont.): boundary exchange --------------------------------
    let (tx, ty) = decomp.grid_coords(node.rank());
    let mut ghosts: HashMap<u32, RegionStats<u32>> = HashMap::new();

    // Strip of (id, stats) for one side of the tile.
    let strip = |side: Side| -> Vec<(u32, RegionStats<u32>)> {
        let coords: Vec<(usize, usize)> = match side {
            Side::Left => (0..tile.h).map(|y| (0, y)).collect(),
            Side::Right => (0..tile.h).map(|y| (tile.w - 1, y)).collect(),
            Side::Top => (0..tile.w).map(|x| (x, 0)).collect(),
            Side::Bottom => (0..tile.w).map(|x| (x, tile.h - 1)).collect(),
        };
        coords
            .into_iter()
            .map(|(x, y)| {
                let gid = pixel_square[y * tile.w + x];
                (gid, store[&gid])
            })
            .collect()
    };

    #[derive(Clone, Copy, PartialEq)]
    enum Side {
        Left,
        Right,
        Top,
        Bottom,
    }

    // (side to send, neighbour offset, the side of *my* tile the received
    // strip pairs against, axis length)
    let neighbours: Vec<(Side, isize, isize)> = vec![
        (Side::Right, 1, 0),
        (Side::Left, -1, 0),
        (Side::Bottom, 0, 1),
        (Side::Top, 0, -1),
    ];

    // Send strips to existing neighbours first (buffered), then receive.
    node.set_trace_stream("boundary");
    let mut expected: Vec<(usize, Side)> = Vec::new();
    for &(side, dx, dy) in &neighbours {
        let nx = tx as isize + dx;
        let ny = ty as isize + dy;
        if nx < 0 || ny < 0 || nx >= decomp.p1 as isize || ny >= decomp.p2 as isize {
            continue;
        }
        let peer = decomp.rank_of(nx as usize, ny as usize);
        let entries = strip(side);
        node.compute(entries.len() as u64 * STRIP_UNITS_PER_ELEM);
        node.try_send_sync(peer, encode_u32s(&encode_entries(&entries)))?;
        expected.push((peer, side));
    }
    for (peer, my_side) in expected {
        let words = try_decode_u32s(node.try_recv_from(peer)?)
            .map_err(|_| malformed("boundary strip payload"))?;
        let theirs =
            try_decode_entries(&words).ok_or_else(|| malformed("boundary strip entries"))?;
        node.compute(theirs.len() as u64 * STRIP_UNITS_PER_ELEM);
        // My border pixels facing this neighbour, in strip order.
        let mine: Vec<u32> = match my_side {
            Side::Right => (0..tile.h)
                .map(|y| pixel_square[y * tile.w + tile.w - 1])
                .collect(),
            Side::Left => (0..tile.h).map(|y| pixel_square[y * tile.w]).collect(),
            Side::Bottom => (0..tile.w)
                .map(|x| pixel_square[(tile.h - 1) * tile.w + x])
                .collect(),
            Side::Top => (0..tile.w).map(|x| pixel_square[x]).collect(),
        };
        debug_assert_eq!(mine.len(), theirs.len());
        let mut pair = |m: u32, t: usize| {
            let (gid, st) = theirs[t];
            ghosts.insert(gid, st);
            half_edges.push((m, gid));
        };
        for (i, &m) in mine.iter().enumerate() {
            pair(m, i);
            if config.connectivity == Connectivity::Eight {
                if i > 0 {
                    pair(m, i - 1);
                }
                if i + 1 < theirs.len() {
                    pair(m, i + 1);
                }
            }
        }
    }

    // Diagonal corner exchange for 8-connectivity.
    if config.connectivity == Connectivity::Eight {
        node.set_trace_stream("corner");
        let mut expected: Vec<usize> = Vec::new();
        for (dx, dy) in [(1isize, 1isize), (-1, 1), (1, -1), (-1, -1)] {
            let nx = tx as isize + dx;
            let ny = ty as isize + dy;
            if nx < 0 || ny < 0 || nx >= decomp.p1 as isize || ny >= decomp.p2 as isize {
                continue;
            }
            let peer = decomp.rank_of(nx as usize, ny as usize);
            // My corner pixel facing this diagonal neighbour.
            let cx = if dx > 0 { tile.w - 1 } else { 0 };
            let cy = if dy > 0 { tile.h - 1 } else { 0 };
            let gid = pixel_square[cy * tile.w + cx];
            node.try_send_sync(peer, encode_u32s(&encode_entries(&[(gid, store[&gid])])))?;
            expected.push(peer);
        }
        for peer in expected {
            let words = try_decode_u32s(node.try_recv_from(peer)?)
                .map_err(|_| malformed("corner stats payload"))?;
            let theirs =
                try_decode_entries(&words).ok_or_else(|| malformed("corner stats entries"))?;
            let (gid, st) = *theirs
                .first()
                .ok_or_else(|| malformed("empty corner stats"))?;
            ghosts.insert(gid, st);
            // Which of my corners faces this peer?
            let (ptx, pty) = decomp.grid_coords(peer);
            let cx = if ptx > tx { tile.w - 1 } else { 0 };
            let cy = if pty > ty { tile.h - 1 } else { 0 };
            half_edges.push((pixel_square[cy * tile.w + cx], gid));
        }
    }

    half_edges.sort_unstable();
    half_edges.dedup();

    Ok(LocalRag {
        store,
        half_edges,
        ghosts,
        pixel_square,
        split_iterations: s.iterations,
        split_done_seconds,
    })
}

/// Re-exported for the driver: a tile's pixel rectangle.
pub type TileRect = Tile;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_entry_roundtrip() {
        let entries = vec![
            (
                7u32,
                RegionStats {
                    min: 3u32,
                    max: 250,
                    sum: 0x1_2345_6789,
                    count: 0x2_0000_0001,
                },
            ),
            (
                9,
                RegionStats {
                    min: 0,
                    max: 0,
                    sum: 0,
                    count: 1,
                },
            ),
        ];
        assert_eq!(try_decode_entries(&encode_entries(&entries)), Some(entries));
    }

    #[test]
    fn try_decode_surfaces_bad_length_as_none() {
        assert!(try_decode_entries(&[1, 2, 3]).is_none());
        assert_eq!(try_decode_entries(&[]), Some(Vec::new()));
    }
}
