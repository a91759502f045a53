//! Deterministic request-scoped trace identity.
//!
//! A [`TraceContext`] names one request batch's journey through the
//! serving stack: the gateway mints a root context per micro-batch
//! (`Gateway::serve` / `ServeEngine::serve`), derives a child per shard
//! fan-out call, and hands the ids down to the spans, histogram
//! exemplars, and flight-recorder events the batch produces — so a p99
//! bucket, a retry, or a quarantine can be joined back to the exact
//! exported span tree that owns it.
//!
//! Ids are **pure functions of `(request id, batch index)`** — hashed by
//! `wr_fault::splitmix`, the SplitMix64 finalizer fault schedules use too,
//! with no RNG state and no wall clock. Two replays of the
//! same query log mint the same trace ids at any `WR_THREADS`, which is
//! what lets the differential suites run bit-identically with tracing
//! armed, and lets a replay harness predict the trace id of any batch
//! without plumbing state through the engine.
//!
//! `0` is reserved as the "untraced" sentinel (plain spans, empty
//! exemplar slots); derivation remaps a zero hash to 1, so a minted id is
//! never 0.

/// Trace identity carried through one request batch. `Copy`, two words —
/// cheap to pass by value through every serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Identity of the whole request batch; shared by every span and
    /// event the batch produces. Never 0 for a minted context.
    pub trace_id: u64,
    /// Identity of the current operation within the trace. Never 0 for a
    /// minted context.
    pub span_id: u64,
}

use wr_fault::splitmix;

// Distinct salts keep the trace-id and span-id hash streams independent
// (same idiom as wr-fault's per-hook salts).
const SALT_TRACE: u64 = 0x7A5C_E001;
const SALT_SPAN: u64 = 0x7A5C_E002;

/// Reserve 0 as the untraced sentinel.
fn nonzero(v: u64) -> u64 {
    if v == 0 {
        1
    } else {
        v
    }
}

impl TraceContext {
    /// The "no trace" sentinel (both ids 0): spans stay plain, exemplar
    /// slots stay empty. Lets ctx-threaded call paths keep one signature
    /// whether or not the caller minted an identity.
    pub const UNTRACED: TraceContext = TraceContext {
        trace_id: 0,
        span_id: 0,
    };

    /// Mint the root context for a micro-batch: derived from the id of
    /// the batch's first request and the batch's index within the call.
    /// Deterministic — a replay harness computes the same ids without
    /// threading state through the engine.
    pub fn root(request_id: u64, batch_index: u64) -> Self {
        let trace_id = nonzero(splitmix(
            request_id
                ^ batch_index.wrapping_mul(0x9E3779B97F4A7C15)
                ^ SALT_TRACE.wrapping_mul(0xD1B54A32D192ED03),
        ));
        TraceContext {
            trace_id,
            span_id: nonzero(splitmix(trace_id ^ SALT_SPAN)),
        }
    }

    /// Derive the child context for sub-operation `seq` (e.g. shard
    /// index in a fan-out): same trace, new span id.
    pub fn child(&self, seq: u64) -> Self {
        TraceContext {
            trace_id: self.trace_id,
            span_id: nonzero(splitmix(
                self.span_id ^ seq.wrapping_mul(0x9E3779B97F4A7C15) ^ SALT_SPAN,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_are_deterministic_and_distinct() {
        assert_eq!(TraceContext::root(7, 0), TraceContext::root(7, 0));
        assert_ne!(
            TraceContext::root(7, 0).trace_id,
            TraceContext::root(8, 0).trace_id
        );
        assert_ne!(
            TraceContext::root(7, 0).trace_id,
            TraceContext::root(7, 1).trace_id
        );
    }

    #[test]
    fn ids_are_never_zero() {
        for req in 0..200u64 {
            for batch in 0..4u64 {
                let ctx = TraceContext::root(req, batch);
                assert_ne!(ctx.trace_id, 0);
                assert_ne!(ctx.span_id, 0);
                for s in 0..8u64 {
                    let child = ctx.child(s);
                    assert_ne!(child.span_id, 0);
                }
            }
        }
    }

    #[test]
    fn children_share_the_trace_and_get_fresh_spans() {
        let root = TraceContext::root(42, 3);
        let a = root.child(0);
        let b = root.child(1);
        assert_eq!(a.trace_id, root.trace_id);
        assert_eq!(b.trace_id, root.trace_id);
        assert_ne!(a.span_id, b.span_id);
        assert_ne!(a.span_id, root.span_id);
        // Re-deriving the same child gives the same id (replay stability).
        assert_eq!(root.child(0), a);
    }
}
