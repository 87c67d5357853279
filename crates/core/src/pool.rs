//! The one worker pool behind [`crate::batch::run_batch`] and
//! [`crate::tiles::TiledRunner`]: both fan independent items (images,
//! tiles) out over per-worker state, then reconcile on the caller's thread.
//!
//! One worker runs inline: every item runs on the caller's thread with the
//! caller's sink, so a traced run nests each item's spans in item order.
//! More workers run on scoped threads that pull items off one shared
//! iterator and report to [`NullTelemetry`]. The pool catches no panics; a
//! client that isolates failures does so in its item body.

use crate::telemetry::{NullTelemetry, Telemetry};
use std::sync::Mutex;

/// Workers to run `items` items on when the caller asked for `requested`:
/// one on an enabled sink (a journal is one strictly nested stream, so
/// item subtrees must not interleave), otherwise `requested` capped at the
/// item count, and never zero.
pub(crate) fn worker_count(requested: usize, items: usize, tel: &dyn Telemetry) -> usize {
    if tel.enabled() {
        1
    } else {
        requested.min(items).max(1)
    }
}

/// Runs `body(worker, item, tel)` once per item, one thread per entry of
/// `workers` (size it with [`worker_count`]). Each worker's state stays
/// with its thread; items go to whichever worker is free next.
pub(crate) fn run<W, I>(
    workers: &mut [W],
    items: impl Iterator<Item = I> + Send,
    tel: &mut dyn Telemetry,
    body: impl Fn(&mut W, I, &mut dyn Telemetry) + Sync,
) where
    W: Send,
    I: Send,
{
    if let [worker] = workers {
        return items.for_each(|item| body(worker, item, tel));
    }
    debug_assert!(!tel.enabled(), "an enabled sink runs on one worker");
    let queue = Mutex::new(items);
    std::thread::scope(|scope| {
        for worker in workers {
            let (queue, body) = (&queue, &body);
            scope.spawn(move || loop {
                // The guard drops at the end of this statement: items run
                // unlocked, so a panicking item cannot poison the queue.
                let next = queue.lock().expect("no item runs under the lock").next();
                let Some(item) = next else { break };
                body(worker, item, &mut NullTelemetry);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{EventKind, EventLog};
    use crate::telemetry::{SpanGuard, SpanKind};
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn every_item_runs_exactly_once() {
        for jobs in [1, 4] {
            let runs: Vec<AtomicU32> = (0..23).map(|_| AtomicU32::new(0)).collect();
            let mut workers = vec![0usize; worker_count(jobs, runs.len(), &NullTelemetry)];
            assert_eq!(workers.len(), jobs);
            run(
                &mut workers,
                runs.iter(),
                &mut NullTelemetry,
                |done, item, tel| {
                    assert!(!tel.enabled());
                    item.fetch_add(1, Ordering::Relaxed);
                    *done += 1;
                },
            );
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
            assert_eq!(workers.iter().sum::<usize>(), runs.len(), "jobs={jobs}");
        }
        assert_eq!(worker_count(8, 3, &NullTelemetry), 3);
        assert_eq!(worker_count(8, 0, &NullTelemetry), 1);
        assert_eq!(worker_count(0, 5, &NullTelemetry), 1);
    }

    #[test]
    fn enabled_sink_runs_inline_and_sees_spans_in_order() {
        let mut log = EventLog::in_memory();
        let jobs = worker_count(4, 5, &log);
        assert_eq!(jobs, 1);
        let caller = std::thread::current().id();
        let mut workers = vec![(); jobs];
        run(&mut workers, 0..5u32, &mut log, |_, i, tel| {
            assert_eq!(std::thread::current().id(), caller);
            let _span = SpanGuard::enter(tel, SpanKind::BatchImage(i));
        });
        let begun: Vec<String> = log
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::SpanBegin { span } => Some(span.label()),
                _ => None,
            })
            .collect();
        assert_eq!(
            begun,
            ["image:0", "image:1", "image:2", "image:3", "image:4"]
        );
    }
}
