//! Property tests of the control-network collectives: for arbitrary node
//! counts (1..=16) and seeded per-node inputs, every collective agrees
//! with a scalar reference computed outside the simulator, on every rank.

use bytes::Bytes;
use cmmd_sim::channel::{encode_u32s, try_decode_u32s};
use cmmd_sim::{try_run_spmd, Fault, Node, SpmdResult, TimeParams};
use proptest::prelude::*;

/// A fault-free run of `f` on `q` nodes; no call can fail.
fn spmd<R: Send>(q: usize, f: impl Fn(&mut Node) -> Result<R, Fault> + Sync) -> SpmdResult<R> {
    try_run_spmd(q, TimeParams::default(), None, f).expect("fault-free run")
}

/// Decodes a payload known to be well formed.
fn u32s(b: Bytes) -> Vec<u32> {
    try_decode_u32s(b).unwrap()
}

/// Deterministic per-(seed, rank) test value.
fn val(seed: u64, rank: usize) -> u64 {
    let mut z = seed
        .wrapping_add(rank as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-rank payload: a rank-tagged word list of rank-dependent length.
fn payload(seed: u64, rank: usize) -> Vec<u32> {
    let n = (val(seed, rank) % 4) as usize + 1;
    (0..n)
        .map(|k| (rank as u32) << 16 | (k as u32) << 8 | (val(seed, rank + k) & 0xFF) as u32)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allreduce_u64_matches_scalar_fold(q in 1usize..=16, seed in any::<u64>()) {
        let res = spmd(q, |node| {
            node.try_allreduce_u64(val(seed, node.rank()), |a, b| a.wrapping_add(b))
        });
        let want = (0..q).map(|r| val(seed, r)).fold(0u64, u64::wrapping_add);
        for (rank, got) in res.results.iter().enumerate() {
            prop_assert_eq!(*got, want, "rank {} of {}", rank, q);
        }
    }

    #[test]
    fn allreduce_max_and_min_match(q in 1usize..=16, seed in any::<u64>()) {
        let res = spmd(q, |node| {
            let v = val(seed, node.rank());
            Ok((node.try_allreduce_u64(v, u64::max)?, node.try_allreduce_u64(v, u64::min)?))
        });
        let want_max = (0..q).map(|r| val(seed, r)).max().unwrap();
        let want_min = (0..q).map(|r| val(seed, r)).min().unwrap();
        for &(max, min) in &res.results {
            prop_assert_eq!(max, want_max);
            prop_assert_eq!(min, want_min);
        }
    }

    #[test]
    fn allreduce_or_matches_any(q in 1usize..=16, seed in any::<u64>()) {
        // Roughly one node in four holds `true`.
        let res = spmd(q, |node| {
            node.try_allreduce_or(val(seed, node.rank()).is_multiple_of(4))
        });
        let want = (0..q).any(|r| val(seed, r).is_multiple_of(4));
        for &got in &res.results {
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn scan_exclusive_matches_prefix_sum(q in 1usize..=16, seed in any::<u64>()) {
        let res = spmd(q, |node| {
            node.try_scan_exclusive_u64(val(seed, node.rank()) % 1000, 0, |a, b| a + b)
        });
        let mut want = 0u64;
        for (rank, &got) in res.results.iter().enumerate() {
            prop_assert_eq!(got, want, "rank {} of {}", rank, q);
            want += val(seed, rank) % 1000;
        }
    }

    #[test]
    fn broadcast_delivers_root_payload_everywhere(q in 1usize..=16, seed in any::<u64>()) {
        let root = (val(seed, 777) % q as u64) as usize;
        let res = spmd(q, move |node| {
            let words = payload(seed, node.rank());
            Ok(u32s(node.try_broadcast(root, encode_u32s(&words))?))
        });
        let want = payload(seed, root);
        for got in &res.results {
            prop_assert_eq!(got, &want);
        }
    }

    #[test]
    fn concat_collects_every_rank_in_order(q in 1usize..=16, seed in any::<u64>()) {
        let res = spmd(q, move |node| {
            let words = payload(seed, node.rank());
            Ok(node.try_concat(encode_u32s(&words))?
                .into_iter()
                .map(u32s)
                .collect::<Vec<_>>())
        });
        let want: Vec<Vec<u32>> = (0..q).map(|r| payload(seed, r)).collect();
        for got in &res.results {
            prop_assert_eq!(got, &want);
        }
    }

    #[test]
    fn gather_to_collects_on_root_only(q in 1usize..=16, seed in any::<u64>()) {
        let root = (val(seed, 31) % q as u64) as usize;
        let res = spmd(q, move |node| {
            let words = payload(seed, node.rank());
            Ok(node.try_gather_to(root, encode_u32s(&words))?
                .into_iter()
                .map(u32s)
                .collect::<Vec<_>>())
        });
        let want: Vec<Vec<u32>> = (0..q).map(|r| payload(seed, r)).collect();
        for (rank, got) in res.results.iter().enumerate() {
            if rank == root {
                prop_assert_eq!(got, &want);
            } else {
                prop_assert!(got.is_empty(), "non-root rank {} got {} parts", rank, got.len());
            }
        }
    }

    #[test]
    fn empty_payloads_are_legal_everywhere(q in 1usize..=16) {
        let res = spmd(q, |node| {
            let parts = node.try_concat(Bytes::new())?;
            let bc = node.try_broadcast(0, Bytes::new())?;
            Ok((parts.len(), parts.iter().all(|b| b.is_empty()), bc.is_empty()))
        });
        for &(n, all_empty, bc_empty) in &res.results {
            prop_assert_eq!(n, q);
            prop_assert!(all_empty);
            prop_assert!(bc_empty);
        }
    }

    #[test]
    fn collectives_are_deterministic(q in 1usize..=16, seed in any::<u64>()) {
        let run = || {
            spmd(q, |node| {
                let v = val(seed, node.rank());
                let sum = node.try_allreduce_u64(v, |a, b| a.wrapping_add(b))?;
                let pre = node.try_scan_exclusive_u64(v, 0, u64::wrapping_add)?;
                let all = node.try_concat(encode_u32s(&payload(seed, node.rank())))?;
                Ok((sum, pre, all))
            })
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.results, b.results);
        prop_assert!((a.max_seconds - b.max_seconds).abs() < 1e-15);
    }
}
