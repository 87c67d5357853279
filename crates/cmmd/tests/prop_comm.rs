//! Property tests of the all-to-many schemes: for arbitrary communication
//! patterns, LP and Async deliver exactly the same messages, and the
//! virtual-time makespan never favours LP.

use cmmd_sim::channel::{encode_u32s, try_decode_u32s};
use cmmd_sim::{try_all_to_many, try_run_spmd, CommScheme, TimeParams};
use proptest::prelude::*;

/// Pattern: for each (src, dst) pair, how many messages (0..3).
fn run_pattern(q: usize, pattern: &[Vec<u8>], scheme: CommScheme) -> (Vec<Vec<(usize, u32)>>, f64) {
    let pattern = pattern.to_vec();
    let res = try_run_spmd(q, TimeParams::default(), None, move |node| {
        let me = node.rank();
        let mut out = Vec::new();
        for (dst, &count) in pattern[me].iter().enumerate() {
            for k in 0..count {
                out.push((
                    dst,
                    encode_u32s(&[(me * 1000 + dst * 10 + k as usize) as u32]),
                ));
            }
        }
        let got = try_all_to_many(node, out, scheme)?;
        Ok(got
            .into_iter()
            .map(|(src, b)| (src, try_decode_u32s(b).unwrap()[0]))
            .collect::<Vec<_>>())
    })
    .expect("fault-free run");
    (res.results, res.max_seconds)
}

prop_compose! {
    fn pattern()(q in 2usize..9)(
        counts in proptest::collection::vec(proptest::collection::vec(0u8..3, q), q),
        q in Just(q),
    ) -> (usize, Vec<Vec<u8>>) {
        (q, counts)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lp_and_async_deliver_identically((q, pat) in pattern()) {
        let (lp, t_lp) = run_pattern(q, &pat, CommScheme::LinearPermutation);
        let (asy, t_async) = run_pattern(q, &pat, CommScheme::Async);
        prop_assert_eq!(&lp, &asy);
        // Every expected message arrives.
        for dst in 0..q {
            let expect: usize = (0..q).map(|src| pat[src][dst] as usize).sum();
            prop_assert_eq!(lp[dst].len(), expect);
        }
        // Async never loses to LP on virtual time.
        prop_assert!(t_async <= t_lp + 1e-12, "async {t_async} vs lp {t_lp}");
    }

    #[test]
    fn delivery_is_deterministic((q, pat) in pattern()) {
        let a = run_pattern(q, &pat, CommScheme::Async);
        let b = run_pattern(q, &pat, CommScheme::Async);
        prop_assert_eq!(a.0, b.0);
        prop_assert!((a.1 - b.1).abs() < 1e-15);
    }
}
