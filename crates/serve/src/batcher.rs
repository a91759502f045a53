//! Request micro-batching: the grouping of a call's requests, the one loop
//! that walks the groups, and the one admission check in front of it.

use std::ops::Range;

use crate::Request;
use wr_data::PAD_ITEM;
use wr_obs::{Telemetry, TraceContext};

/// Splits a call's requests into bounded groups, *in arrival order* — no
/// reordering, no length-bucketing — so responses can be stitched back
/// positionally and results are independent of queue timing. Each group
/// is at most `max_batch` rows. Padding and truncation to the served
/// model's `max_seq` happen in the encode (`wr_train::ModelSnapshot::users`
/// behind [`crate::HistoryEncoder`]), not here.
///
/// Empty histories (brand-new sessions) are mapped to the single-item
/// context `[PAD_ITEM]`: the pad embedding is the model's "no signal"
/// vector, so cold users get the model's unconditional ranking instead of
/// a panic.
#[derive(Debug, Clone, Copy)]
pub struct MicroBatcher {
    max_batch: usize,
}

/// The fallback context for an empty history.
const EMPTY_HISTORY: [usize; 1] = [PAD_ITEM];

impl MicroBatcher {
    pub fn new(max_batch: usize) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        MicroBatcher { max_batch }
    }

    /// Substitute the pad-token context for empty histories.
    pub fn sanitize<'a>(history: &'a [usize]) -> &'a [usize] {
        if history.is_empty() {
            &EMPTY_HISTORY
        } else {
            history
        }
    }

    /// Split `n` requests (by index, arrival order) into batch-sized ranges.
    ///
    /// The decomposition depends only on `n` and `max_batch` — never on
    /// thread count or history contents — so a replay groups identically
    /// every time.
    fn plan(&self, n: usize) -> Vec<Range<usize>> {
        let mut groups = Vec::with_capacity(n.div_ceil(self.max_batch));
        let mut start = 0;
        while start < n {
            let end = (start + self.max_batch).min(n);
            groups.push(start..end);
            start = end;
        }
        groups
    }
}

/// The names one front end — the engine, the gateway — reports its
/// micro-batches and its refused calls under. Literals, so that a metric
/// name in a dashboard or in `scripts/check.sh` is found by grep, and so
/// that the serve path formats no string.
#[derive(Debug, Clone, Copy)]
pub struct FrontEnd {
    /// Category of the per-micro-batch `batch` span.
    pub category: &'static str,
    /// Counter: micro-batches run.
    pub batches: &'static str,
    /// Counter: requests those micro-batches carried.
    pub requests: &'static str,
    /// Gauge: requests of the call still waiting behind the current batch.
    pub queue_depth: &'static str,
    /// Counter: calls refused by [`FrontEnd::admits`].
    pub rejected_overload: &'static str,
    /// Flight-recorder site of the refusal note.
    pub admission: &'static str,
}

impl FrontEnd {
    /// The micro-batch loop: `requests` in `batcher`'s groups, each handed
    /// to `per_batch` with its trace identity inside a `batch` span, the
    /// answers concatenated in request order.
    pub fn each_batch<A>(
        &self,
        batcher: &MicroBatcher,
        requests: &[Request],
        telemetry: Option<&Telemetry>,
        mut per_batch: impl FnMut(&[Request], TraceContext) -> Vec<A>,
    ) -> Vec<A> {
        let mut answers = Vec::with_capacity(requests.len());
        for (batch_index, group) in batcher.plan(requests.len()).into_iter().enumerate() {
            // The plan covers 0..len by contract; the checked slice keeps
            // a buggy plan from panicking mid-batch.
            let Some(slice) = requests.get(group.clone()) else {
                continue;
            };
            // Deterministic trace identity for this micro-batch — pure
            // function of (first request id, batch index), so a replay
            // harness predicts it without plumbing state through us.
            let ctx = TraceContext::root(
                slice.first().map(|r| r.id).unwrap_or(0),
                batch_index as u64,
            );
            let span = telemetry.map(|tel| {
                tel.registry.counter(self.batches).inc();
                tel.registry.counter(self.requests).add(slice.len() as u64);
                tel.registry
                    .gauge(self.queue_depth)
                    .set((requests.len() - group.end) as f64);
                tel.tracer.span_ctx("batch", self.category, ctx)
            });
            answers.extend(per_batch(slice, ctx));
            drop(span);
        }
        answers
    }

    /// Admission control: whether a call carrying `depth` requests fits
    /// under `limit`. A refusal is counted, noted in the flight recorder
    /// and raised as its `overload` trigger; the caller owes its typed
    /// error and scores nothing.
    pub fn admits(&self, depth: usize, limit: usize, telemetry: Option<&Telemetry>) -> bool {
        if depth <= limit {
            return true;
        }
        if let Some(tel) = telemetry {
            tel.registry.counter(self.rejected_overload).inc();
            tel.flight.note(
                "overload",
                self.admission,
                TraceContext::UNTRACED,
                u64::MAX,
                u64::MAX,
                tel.clock.now_ns(),
            );
            tel.flight.trigger("overload");
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_all_requests_in_order() {
        let b = MicroBatcher::new(4);
        assert_eq!(b.plan(0), Vec::<std::ops::Range<usize>>::new());
        assert_eq!(b.plan(3), vec![0..3]);
        assert_eq!(b.plan(4), vec![0..4]);
        assert_eq!(b.plan(10), vec![0..4, 4..8, 8..10]);
    }

    #[test]
    fn empty_history_becomes_pad_context() {
        assert_eq!(MicroBatcher::sanitize(&[]), &[PAD_ITEM]);
        assert_eq!(MicroBatcher::sanitize(&[3, 1]), &[3, 1]);
    }

    #[test]
    fn plan_is_independent_of_thread_count() {
        let b = MicroBatcher::new(3);
        wr_runtime::set_threads(1);
        let p1 = b.plan(11);
        wr_runtime::set_threads(8);
        let p8 = b.plan(11);
        wr_runtime::set_threads(1);
        assert_eq!(p1, p8);
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_max_batch_rejected() {
        MicroBatcher::new(0);
    }
}
