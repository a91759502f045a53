//! The serve suites' model / config / trace fixture, plus the digest of a
//! gateway answer.
#![allow(dead_code, reason = "each suite uses its own subset")]

#[path = "../../../serve/tests/common/mod.rs"]
mod fixture;

pub use fixture::*;

use wr_gateway::GatewayResponse;
use wr_serve::top1_digest;

pub fn digest_of(responses: &[GatewayResponse]) -> u64 {
    top1_digest(responses.iter().map(|r| (r.id, r.items.first().map(|s| s.item))))
}
