//! Shared state behind the control-network collectives.
//!
//! A [`CollectiveCtx`] implements the all-gather skeleton every collective
//! reduces to: each rank deposits `(timestamp, value)` in its slot, waits
//! for the group, snapshots all slots, and waits again before slots are
//! reused. Two barrier phases make the slot array race-free without
//! generation counters on the slots themselves. There are two slot arrays,
//! one of `u64` values and one of byte payloads, behind the one
//! rendezvous body; a barrier rides the `u64` slots and reads only the
//! timestamps.
//!
//! The rendezvous barrier is *poisonable*: when a node program aborts on a
//! [`crate::fault::Fault`], the runtime calls [`CollectiveCtx::poison`],
//! which wakes every current and future waiter with [`Poisoned`] instead
//! of leaving them blocked forever on a peer that will never arrive. Since
//! a collective round can only complete with **all** nodes present, every
//! round either completes on every rank or poisons on every rank —
//! deterministically, regardless of host scheduling.

use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::{Condvar, Mutex as StdMutex};

/// Error: the collective context was poisoned because some node aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Poisoned;

/// A reusable generation-counting barrier whose waiters can be released
/// early (with an error) when the group is known never to re-form.
struct PoisonBarrier {
    n: usize,
    state: StdMutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

impl PoisonBarrier {
    fn new(n: usize) -> Self {
        Self {
            n,
            state: StdMutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) -> Result<(), Poisoned> {
        let mut s = self.state.lock().expect("barrier mutex");
        if s.poisoned {
            return Err(Poisoned);
        }
        s.arrived += 1;
        if s.arrived == self.n {
            s.arrived = 0;
            s.generation += 1;
            self.cv.notify_all();
            return Ok(());
        }
        let gen = s.generation;
        while s.generation == gen && !s.poisoned {
            s = self.cv.wait(s).expect("barrier mutex");
        }
        if s.generation != gen {
            // This round completed: every rank arrived, so the snapshot it
            // guards is fully formed. A poison flag observed here was set
            // by a node that died *after* this round — it belongs to a
            // later rendezvous and surfaces on the next wait. Failing here
            // instead would make a node's abort point depend on host
            // scheduling (whether it woke before or after the poisoner),
            // breaking replay determinism.
            Ok(())
        } else {
            Err(Poisoned)
        }
    }

    fn poison(&self) {
        let mut s = self.state.lock().expect("barrier mutex");
        s.poisoned = true;
        self.cv.notify_all();
    }
}

/// Rendezvous state shared by all nodes of one SPMD run.
pub struct CollectiveCtx {
    barrier: PoisonBarrier,
    u64_slots: Mutex<Vec<(f64, u64)>>,
    byte_slots: Mutex<Vec<(f64, Bytes)>>,
}

impl CollectiveCtx {
    /// Context for `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            barrier: PoisonBarrier::new(n),
            u64_slots: Mutex::new(vec![(0.0, 0); n]),
            byte_slots: Mutex::new(vec![(0.0, Bytes::new()); n]),
        }
    }

    /// Poisons the rendezvous: every blocked or future collective call on
    /// any rank returns [`Poisoned`]. Called by the runtime when a node
    /// program aborts so its peers cascade out instead of deadlocking.
    pub fn poison(&self) {
        self.barrier.poison();
    }

    /// All-gather of timestamped `u64` values (reductions, scans and
    /// barriers); fallible under poisoning.
    pub fn try_exchange_u64(
        &self,
        rank: usize,
        clock_ns: f64,
        v: u64,
    ) -> Result<Vec<(f64, u64)>, Poisoned> {
        self.rendezvous(&self.u64_slots, rank, (clock_ns, v))
    }

    /// All-gather of timestamped byte payloads (concatenation, broadcast,
    /// gather); fallible under poisoning.
    pub fn try_exchange_bytes(
        &self,
        rank: usize,
        clock_ns: f64,
        payload: Bytes,
    ) -> Result<Vec<(f64, Bytes)>, Poisoned> {
        self.rendezvous(&self.byte_slots, rank, (clock_ns, payload))
    }

    /// The all-gather skeleton: deposit, wait, snapshot, wait.
    fn rendezvous<T: Clone>(
        &self,
        slots: &Mutex<Vec<T>>,
        rank: usize,
        entry: T,
    ) -> Result<Vec<T>, Poisoned> {
        slots.lock()[rank] = entry;
        self.barrier.wait()?;
        let snapshot = slots.lock().clone();
        self.barrier.wait()?;
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn exchange_is_consistent_across_threads() {
        let n = 6;
        let ctx = Arc::new(CollectiveCtx::new(n));
        let results: Vec<Vec<(f64, u64)>> = std::thread::scope(|s| {
            let mut joins = Vec::new();
            for rank in 0..n {
                let ctx = Arc::clone(&ctx);
                joins.push(s.spawn(move || {
                    ctx.try_exchange_u64(rank, rank as f64, rank as u64 * 7)
                        .unwrap()
                }));
            }
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        for r in &results {
            assert_eq!(r, &results[0]);
            for (i, &(ts, v)) in r.iter().enumerate() {
                assert_eq!(ts, i as f64);
                assert_eq!(v, i as u64 * 7);
            }
        }
    }

    #[test]
    fn repeated_rounds_do_not_bleed() {
        let n = 4;
        let ctx = Arc::new(CollectiveCtx::new(n));
        std::thread::scope(|s| {
            for rank in 0..n {
                let ctx = Arc::clone(&ctx);
                s.spawn(move || {
                    for round in 0..50u64 {
                        let got = ctx
                            .try_exchange_u64(rank, 0.0, round * 10 + rank as u64)
                            .unwrap();
                        for (i, &(_, v)) in got.iter().enumerate() {
                            assert_eq!(v, round * 10 + i as u64, "round {round}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn poison_releases_blocked_waiters() {
        // Three nodes, but only two ever arrive; the third poisons
        // instead. Without poisoning this would deadlock.
        let ctx = Arc::new(CollectiveCtx::new(3));
        let results: Vec<Result<Vec<(f64, u64)>, Poisoned>> = std::thread::scope(|s| {
            let mut joins = Vec::new();
            for rank in 0..2 {
                let ctx = Arc::clone(&ctx);
                joins.push(s.spawn(move || ctx.try_exchange_u64(rank, 0.0, rank as u64)));
            }
            let poisoner = Arc::clone(&ctx);
            s.spawn(move || {
                // Give the waiters a moment to block, then kill the group.
                std::thread::sleep(std::time::Duration::from_millis(20));
                poisoner.poison();
            });
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        for r in results {
            assert_eq!(r, Err(Poisoned));
        }
    }

    #[test]
    fn poison_after_completed_round_does_not_retract_it() {
        // A node that completes an exchange and then immediately dies must
        // not be able to retract the completed round from a peer that has
        // not woken up yet — otherwise the peer's abort point depends on
        // host scheduling. Hammer the window: rank 0 poisons right after
        // its exchange returns, while rank 1 may still be inside the
        // barrier wake-up path.
        for _ in 0..200 {
            let ctx = Arc::new(CollectiveCtx::new(2));
            let results: Vec<Result<Vec<(f64, u64)>, Poisoned>> = std::thread::scope(|s| {
                let mut joins = Vec::new();
                for rank in 0..2 {
                    let ctx = Arc::clone(&ctx);
                    joins.push(s.spawn(move || {
                        let r = ctx.try_exchange_u64(rank, 0.0, rank as u64);
                        if rank == 0 {
                            ctx.poison();
                        }
                        r
                    }));
                }
                joins.into_iter().map(|j| j.join().unwrap()).collect()
            });
            for r in results {
                assert_eq!(r, Ok(vec![(0.0, 0), (0.0, 1)]));
            }
        }
    }

    #[test]
    fn poisoned_context_rejects_future_calls() {
        let ctx = CollectiveCtx::new(1);
        assert!(ctx.try_exchange_u64(0, 1.0, 0).is_ok());
        ctx.poison();
        assert_eq!(ctx.try_exchange_u64(0, 2.0, 0), Err(Poisoned));
        assert!(ctx.try_exchange_bytes(0, 0.0, Bytes::new()).is_err());
    }
}
