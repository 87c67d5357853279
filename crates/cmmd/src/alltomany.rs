//! All-to-many personalized communication.
//!
//! The merge stage's irregular communication — *"each of the node
//! processors sends zero or more messages to other processors in an
//! irregular fashion"* — is served by two schemes, exactly the two the
//! paper compares:
//!
//! * **Linear Permutation (LP)** (Ranka, Wang & Fox 1992): every node first
//!   obtains the full communication matrix by global concatenation, then in
//!   round `i` (for `0 < i < Q`) node `k` sends to `(k+i) mod Q` and
//!   receives from `(k−i) mod Q`, using synchronous message passing. All
//!   `Q−1` rounds are executed whether or not a given pair has traffic —
//!   the looping overhead the paper blames for LP's slower times.
//! * **Async**: the communication matrix is still exchanged (receivers must
//!   know how many messages to expect), but messages are posted with
//!   asynchronous sends and drained in arrival order.
//!
//! Both schemes deliver the identical multiset of `(source, payload)`
//! pairs; results are returned sorted by source so downstream processing is
//! deterministic regardless of arrival order.

use crate::channel::{encode_u32s, try_decode_u32s};
use crate::fault::Fault;
use crate::runtime::Node;

/// A payload and its peer rank: the destination when sent, the source
/// when received.
pub type Routed = (usize, Vec<u8>);

/// Which all-to-many scheme to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommScheme {
    /// Synchronous Linear Permutation.
    LinearPermutation,
    /// Asynchronous sends.
    Async,
}

impl CommScheme {
    /// Short label used in reports ("LP" / "Async"), matching the paper's
    /// table rows.
    pub fn label(&self) -> &'static str {
        match self {
            CommScheme::LinearPermutation => "LP",
            CommScheme::Async => "Async",
        }
    }
}

/// Exchanges `outgoing` messages (destination, payload) with every other
/// node; returns the received messages sorted by source rank (stable for
/// multiple messages from one source).
///
/// Messages to self are delivered locally without network charges. Sends
/// and receives ride the reliable transport, so injected faults either
/// heal transparently (costing virtual retry time) or surface as a
/// [`Fault`] for the caller to abort on.
pub fn try_all_to_many(
    node: &mut Node,
    outgoing: Vec<Routed>,
    scheme: CommScheme,
) -> Result<Vec<Routed>, Fault> {
    let q = node.size();
    let me = node.rank();

    // Communication matrix: my outgoing message count per destination.
    let mut my_counts = vec![0u32; q];
    for (dst, _) in &outgoing {
        assert!(*dst < q, "destination {dst} out of range");
        my_counts[*dst] += 1;
    }
    // Global concatenation — both schemes need it (LP per the cited
    // algorithm; Async so receivers know how many messages to expect).
    let matrix: Vec<Vec<u32>> = node
        .try_concat(encode_u32s(&my_counts))?
        .into_iter()
        .map(|b| {
            try_decode_u32s(&b).map_err(|_| Fault::Malformed {
                rank: me,
                what: "all-to-many count matrix",
            })
        })
        .collect::<Result<_, _>>()?;
    // Small local cost for scanning the matrix.
    node.compute((q * q) as u64 / 8);

    // Buckets of my messages per destination, preserving order.
    let mut buckets: Vec<Vec<Vec<u8>>> = vec![Vec::new(); q];
    for (dst, payload) in outgoing {
        buckets[dst].push(payload);
    }

    let mut received: Vec<Routed> = Vec::new();
    // Self-delivery is free of network costs.
    for payload in buckets[me].drain(..) {
        received.push((me, payload));
    }

    match scheme {
        CommScheme::LinearPermutation => {
            for i in 1..q {
                let dst = (me + i) % q;
                let src = (me + q - i) % q;
                // The LP loop body runs every round, traffic or not.
                node.note_comm_round();
                node.charge_ns(node.params().round_overhead_ns);
                for payload in buckets[dst].drain(..) {
                    node.try_send_sync(dst, payload)?;
                }
                for _ in 0..matrix[src][me] {
                    let payload = node.try_recv_from(src)?;
                    received.push((src, payload));
                }
            }
        }
        CommScheme::Async => {
            // One logical round: everything is posted up front and drained
            // as it arrives.
            node.note_comm_round();
            // Post all sends asynchronously...
            for (dst, bucket) in buckets.iter_mut().enumerate() {
                if dst == me {
                    continue;
                }
                for payload in bucket.drain(..) {
                    node.try_send_async(dst, payload)?;
                }
            }
            // ...then drain the expected number from each source. Virtual
            // time is order-independent (max over arrivals), so polling
            // source-by-source is equivalent to CMMD's receive-any.
            for (src, row) in matrix.iter().enumerate() {
                if src == me {
                    continue;
                }
                for _ in 0..row[me] {
                    let payload = node.try_recv_from(src)?;
                    received.push((src, payload));
                }
            }
        }
    }

    received.sort_by_key(|&(src, _)| src);
    Ok(received)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::encode_u32s;
    use crate::runtime::tests::{spmd, u32s};
    use crate::runtime::try_run_spmd;
    use crate::time::TimeParams;

    /// The first word of a well-formed `u32` payload.
    fn first_u32(b: &[u8]) -> u32 {
        u32s(b)[0]
    }

    /// Every node sends `rank*100 + dst` to each odd destination.
    fn workload(node: &Node) -> Vec<Routed> {
        (0..node.size())
            .filter(|d| d % 2 == 1)
            .map(|d| (d, encode_u32s(&[(node.rank() * 100 + d) as u32])))
            .collect()
    }

    fn run_scheme(scheme: CommScheme) -> (Vec<Vec<(usize, u32)>>, f64) {
        let res = spmd(8, move |node| {
            let out = workload(node);
            let got = try_all_to_many(node, out, scheme)?;
            Ok(got
                .into_iter()
                .map(|(src, b)| (src, first_u32(&b)))
                .collect::<Vec<_>>())
        });
        (res.results, res.max_seconds)
    }

    #[test]
    fn both_schemes_deliver_identical_messages() {
        let (lp, _) = run_scheme(CommScheme::LinearPermutation);
        let (async_, _) = run_scheme(CommScheme::Async);
        assert_eq!(lp, async_);
        // Odd ranks receive one message from every node; even ranks none.
        for (rank, msgs) in lp.iter().enumerate() {
            if rank % 2 == 1 {
                assert_eq!(msgs.len(), 8);
                for (src, v) in msgs {
                    assert_eq!(*v as usize, src * 100 + rank);
                }
            } else {
                assert!(msgs.is_empty());
            }
        }
    }

    #[test]
    fn async_is_faster_than_lp() {
        let (_, t_lp) = run_scheme(CommScheme::LinearPermutation);
        let (_, t_async) = run_scheme(CommScheme::Async);
        assert!(
            t_async < t_lp,
            "async {t_async} should beat LP {t_lp} (the paper's observation)"
        );
    }

    #[test]
    fn round_counters_reflect_schemes() {
        // One exchange on Q nodes: LP executes Q−1 rounds per node whether
        // or not a pair has traffic; Async always counts exactly one.
        for (scheme, expect) in [
            (CommScheme::LinearPermutation, 7u64),
            (CommScheme::Async, 1u64),
        ] {
            let res = spmd(8, move |node| {
                let out = workload(node);
                try_all_to_many(node, out, scheme)?;
                Ok(node.comm_rounds())
            });
            assert!(
                res.results.iter().all(|&r| r == expect),
                "{scheme:?}: {:?}",
                res.results
            );
        }
    }

    #[test]
    fn empty_exchange_works() {
        for scheme in [CommScheme::LinearPermutation, CommScheme::Async] {
            let res = spmd(4, move |node| {
                Ok(try_all_to_many(node, Vec::new(), scheme)?.len())
            });
            assert!(res.results.iter().all(|&n| n == 0));
        }
    }

    #[test]
    fn self_messages_are_delivered() {
        let res = spmd(3, |node| {
            let out = vec![(node.rank(), encode_u32s(&[9]))];
            let got = try_all_to_many(node, out, CommScheme::Async)?;
            Ok((got.len(), got[0].0))
        });
        for (rank, &(n, src)) in res.results.iter().enumerate() {
            assert_eq!(n, 1);
            assert_eq!(src, rank);
        }
    }

    #[test]
    fn chaos_exchange_matches_fault_free() {
        use crate::fault::FaultPlan;
        let run_with = |plan: Option<FaultPlan>, scheme: CommScheme| {
            try_run_spmd(6, TimeParams::default(), plan, move |node| {
                let out = workload(node);
                let got = try_all_to_many(node, out, scheme)?;
                Ok(got
                    .into_iter()
                    .map(|(src, b)| (src, first_u32(&b)))
                    .collect::<Vec<_>>())
            })
            .expect("survivable schedule aborted")
            .results
        };
        for scheme in [CommScheme::LinearPermutation, CommScheme::Async] {
            let clean = run_with(None, scheme);
            for profile in ["drop", "dup", "corrupt", "delay", "storm"] {
                for seed in [3u64, 11] {
                    let plan = FaultPlan::new(seed, profile).unwrap();
                    assert_eq!(
                        run_with(Some(plan), scheme),
                        clean,
                        "{scheme:?} {profile}/{seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn multiple_messages_per_destination() {
        let res = spmd(4, |node| {
            // Everyone sends two messages to node 0.
            let out = vec![
                (0, encode_u32s(&[node.rank() as u32])),
                (0, encode_u32s(&[node.rank() as u32 + 100])),
            ];
            let got = try_all_to_many(node, out, CommScheme::LinearPermutation)?;
            Ok(got
                .into_iter()
                .map(|(s, b)| (s, first_u32(&b)))
                .collect::<Vec<_>>())
        });
        let at0 = &res.results[0];
        assert_eq!(at0.len(), 8);
        // Sorted by source, order preserved within a source.
        assert_eq!(at0[0], (0, 0));
        assert_eq!(at0[1], (0, 100));
        assert_eq!(at0[2], (1, 1));
        assert_eq!(at0[3], (1, 101));
    }
}
