//! Recorded query traffic: JSONL persistence + synthetic trace generation.

use std::fmt::Write;
use std::io;
use std::path::Path;

use crate::Request;
use wr_tensor::json::{usize_array_to_string, MAX_EXACT_INT};
use wr_tensor::{Json, Rng64};

/// A recorded (or generated) sequence of serving requests, replayable via
/// [`crate::replay`]. On disk the log is JSON-lines, one request per line:
///
/// ```text
/// {"id":0,"history":[3,17,4]}
/// {"id":1,"history":[]}
/// ```
///
/// The format is append-friendly (a recorder can `>>` lines as queries
/// arrive) and line-diffable, matching the workspace's other sequence
/// files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryLog {
    pub queries: Vec<Request>,
}

/// Why a query log failed to save or load.
#[derive(Debug)]
pub enum QueryLogError {
    Io(io::Error),
    /// A line was not a well-formed request object (1-based line number).
    Parse { line: usize, message: String },
    /// A request id above 2⁵³ (1-based line it would occupy): the reader
    /// holds numbers as `f64`, so it could not load the id back exactly.
    IdTooLarge { line: usize, id: u64 },
}

impl std::fmt::Display for QueryLogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryLogError::Io(e) => write!(f, "query log io: {e}"),
            QueryLogError::Parse { line, message } => {
                write!(f, "query log line {line}: {message}")
            }
            QueryLogError::IdTooLarge { line, id } => {
                write!(f, "query log line {line}: id {id} is above 2^53 and would not load back")
            }
        }
    }
}

impl std::error::Error for QueryLogError {}

impl From<io::Error> for QueryLogError {
    fn from(e: io::Error) -> Self {
        QueryLogError::Io(e)
    }
}

/// Why a Zipf-skewed synthetic trace could not be generated.
#[derive(Debug, Clone, PartialEq)]
pub enum ZipfError {
    /// The exponent must be finite and strictly positive: `α ≤ 0` is a
    /// uniform (or inverted) distribution pretending to be a power law,
    /// and NaN/∞ silently degenerate the CDF — both rejected outright
    /// instead of producing a quietly meaningless trace.
    BadAlpha(f64),
    /// At least one user is required to sample from.
    NoUsers,
}

impl std::fmt::Display for ZipfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZipfError::BadAlpha(a) => {
                write!(f, "zipf exponent must be finite and > 0, got {a}")
            }
            ZipfError::NoUsers => write!(f, "zipf trace needs at least one user"),
        }
    }
}

impl std::error::Error for ZipfError {}

impl QueryLog {
    /// Generate a reproducible synthetic trace: `n` queries over a catalog
    /// of `n_items`, history lengths uniform in `[0, max_len]` (length 0
    /// exercises the cold-session path), items uniform over the real
    /// catalog `1..n_items` (`0` is the pad id). The same `(n, n_items,
    /// max_len, seed)` always yields the same trace.
    pub fn synthetic(n: usize, n_items: usize, max_len: usize, seed: u64) -> QueryLog {
        assert!(n_items >= 2, "need at least one real item besides pad");
        let mut rng = Rng64::seed_from(seed);
        let queries = (0..n)
            .map(|i| {
                let len = rng.below(max_len + 1);
                let history = (0..len).map(|_| 1 + rng.below(n_items - 1)).collect();
                Request {
                    id: i as u64,
                    history,
                }
            })
            .collect();
        QueryLog { queries }
    }

    /// Generate a reproducible *user-skewed* synthetic trace: `n` queries
    /// whose issuing users are drawn Zipf(`alpha`)-distributed over a
    /// universe of `n_users` (rank 1 most popular — the head users of a
    /// production gateway's traffic), catalog/history conventions as in
    /// [`QueryLog::synthetic`].
    ///
    /// Each query's `id` is its sampled user id (`0..n_users`), and a
    /// user's history is a pure function of `(seed, user)` — the same
    /// user always replays the same session, so repeated queries from hot
    /// users look like real repeat traffic rather than fresh sessions.
    /// The whole trace is a pure function of its arguments: same inputs →
    /// same trace, bit for bit.
    ///
    /// `alpha` must be finite and strictly positive ([`ZipfError`]);
    /// `alpha → 0⁺` approaches uniform, `alpha ≈ 1` is classic web-trace
    /// skew. The CDF table costs `O(n_users)` memory — a 1M-user universe
    /// is ~8 MB, built once per generation.
    pub fn synthetic_zipf(
        n: usize,
        n_users: usize,
        n_items: usize,
        max_len: usize,
        alpha: f64,
        seed: u64,
    ) -> Result<QueryLog, ZipfError> {
        if !alpha.is_finite() || alpha <= 0.0 {
            return Err(ZipfError::BadAlpha(alpha));
        }
        if n_users == 0 {
            return Err(ZipfError::NoUsers);
        }
        assert!(n_items >= 2, "need at least one real item besides pad");
        // Cumulative Zipf weights: cum[u] = Σ_{r ≤ u} (r+1)^-alpha,
        // normalized at sample time so the table stays a plain prefix sum.
        let mut cum = Vec::with_capacity(n_users);
        let mut total = 0.0f64;
        for rank in 0..n_users {
            total += ((rank + 1) as f64).powf(-alpha);
            cum.push(total);
        }
        let mut rng = Rng64::seed_from(seed);
        let queries = (0..n)
            .map(|_| {
                let target = rng.uniform() as f64 * total;
                // First rank whose cumulative mass exceeds the target;
                // clamp covers target == total (uniform() < 1 makes this
                // unreachable, but the clamp keeps the lookup total).
                let user = cum.partition_point(|&c| c <= target).min(n_users - 1);
                // Per-user deterministic session: seed mixed with the
                // user id through the golden-ratio multiplier so nearby
                // users get uncorrelated streams.
                let mut user_rng =
                    Rng64::seed_from(seed ^ (user as u64).wrapping_mul(0x9E3779B97F4A7C15));
                let len = user_rng.below(max_len + 1);
                let history = (0..len).map(|_| 1 + user_rng.below(n_items - 1)).collect();
                Request {
                    id: user as u64,
                    history,
                }
            })
            .collect();
        Ok(QueryLog { queries })
    }

    pub fn len(&self) -> usize {
        self.queries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Serialize to the JSONL wire form (one request per line, trailing
    /// newline). Ids are written as integers, exactly.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for q in &self.queries {
            let _ = write!(out, "{{\"id\":{},\"history\":", q.id);
            out.push_str(&usize_array_to_string(&q.history));
            out.push_str("}\n");
        }
        out
    }

    /// Save as sealed JSONL: the lines are suffixed with a `#crc32:`
    /// integrity footer and landed atomically (temp → fsync → rename),
    /// so a crash mid-save never tears a recorded trace. A log holding an
    /// id [`QueryLog::load`] could not read back exactly is refused
    /// ([`QueryLogError::IdTooLarge`]) before anything is written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), QueryLogError> {
        if let Some(i) = self.queries.iter().position(|q| q.id > MAX_EXACT_INT) {
            let id = self.queries[i].id;
            return Err(QueryLogError::IdTooLarge { line: i + 1, id });
        }
        wr_fault::write_atomic(path, wr_fault::seal_lines(self.to_jsonl()).as_bytes())?;
        Ok(())
    }

    fn parse_line(line: &str, number: usize) -> Result<Request, QueryLogError> {
        let parse_err = |message: String| QueryLogError::Parse {
            line: number,
            message,
        };
        let v = Json::parse(line).map_err(parse_err)?;
        let id = v
            .get("id")
            .and_then(|x| x.as_usize())
            .ok_or_else(|| parse_err("missing or non-integer \"id\"".into()))?;
        let history = v
            .get("history")
            .and_then(|x| x.as_usize_vec())
            .ok_or_else(|| parse_err("missing or malformed \"history\"".into()))?;
        Ok(Request {
            id: id as u64,
            history,
        })
    }

    /// Parse the JSONL wire form, strictly: the first malformed line is
    /// an error naming its position. Blank lines and `#` comments are
    /// skipped so hand-edited logs stay loadable.
    pub fn from_jsonl(text: &str) -> Result<QueryLog, QueryLogError> {
        let mut queries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            queries.push(QueryLog::parse_line(line, i + 1)?);
        }
        Ok(QueryLog { queries })
    }

    /// Strict load: integrity footer verified when present, first
    /// malformed line aborts.
    pub fn load(path: impl AsRef<Path>) -> Result<QueryLog, QueryLogError> {
        let text = std::fs::read_to_string(path)?;
        let body = wr_fault::verify_lines(&text)?;
        QueryLog::from_jsonl(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_reproducible_and_in_range() {
        let a = QueryLog::synthetic(100, 50, 12, 9);
        let b = QueryLog::synthetic(100, 50, 12, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert!(a.queries.iter().any(|q| q.history.is_empty()));
        for q in &a.queries {
            assert!(q.history.len() <= 12);
            for &item in &q.history {
                assert!((1..50).contains(&item));
            }
        }
        let c = QueryLog::synthetic(100, 50, 12, 10);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let a = QueryLog::synthetic_zipf(500, 1000, 50, 8, 1.1, 7).unwrap();
        let b = QueryLog::synthetic_zipf(500, 1000, 50, 8, 1.1, 7).unwrap();
        assert_eq!(a, b, "same seed → same trace");
        let c = QueryLog::synthetic_zipf(500, 1000, 50, 8, 1.1, 8).unwrap();
        assert_ne!(a, c, "different seeds should differ");
        for q in &a.queries {
            assert!((q.id as usize) < 1000);
            assert!(q.history.len() <= 8);
            for &item in &q.history {
                assert!((1..50).contains(&item));
            }
        }
    }

    #[test]
    fn zipf_skews_toward_head_users_and_replays_sessions() {
        let log = QueryLog::synthetic_zipf(4000, 500, 40, 6, 1.2, 11).unwrap();
        let mut counts = vec![0usize; 500];
        for q in &log.queries {
            counts[q.id as usize] += 1;
        }
        // Head users dominate the tail under α = 1.2.
        let head: usize = counts[..10].iter().sum();
        let tail: usize = counts[490..].iter().sum();
        assert!(
            head > 10 * tail.max(1),
            "head users got {head}, tail got {tail}"
        );
        // A user's history is a pure function of (seed, user): every
        // repeat query from the same user carries the same session.
        let mut first: std::collections::BTreeMap<u64, &Vec<usize>> = Default::default();
        for q in &log.queries {
            match first.get(&q.id) {
                Some(h) => assert_eq!(*h, &q.history, "user {} session drifted", q.id),
                None => {
                    first.insert(q.id, &q.history);
                }
            }
        }
        assert!(first.len() > 50, "universe barely sampled");
    }

    #[test]
    fn zipf_rejects_degenerate_exponents() {
        for alpha in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            match QueryLog::synthetic_zipf(10, 100, 20, 5, alpha, 1) {
                Err(ZipfError::BadAlpha(a)) => {
                    assert!(a.is_nan() == alpha.is_nan() && (a.is_nan() || a == alpha))
                }
                other => panic!("alpha {alpha} must be rejected, got {other:?}"),
            }
        }
        assert!(matches!(
            QueryLog::synthetic_zipf(10, 0, 20, 5, 1.0, 1),
            Err(ZipfError::NoUsers)
        ));
    }

    #[test]
    fn jsonl_round_trip() {
        let log = QueryLog::synthetic(40, 30, 6, 3);
        let text = log.to_jsonl();
        let back = QueryLog::from_jsonl(&text).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = "{\"id\":7,\"history\":[1,2]}\n\n{\"id\":8,\"history\":[]}\n";
        let log = QueryLog::from_jsonl(text).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.queries[0].id, 7);
        assert_eq!(log.queries[0].history, vec![1, 2]);
        assert!(log.queries[1].history.is_empty());
    }

    #[test]
    fn malformed_lines_report_position() {
        let err = QueryLog::from_jsonl("{\"id\":1,\"history\":[1]}\nnot json\n").unwrap_err();
        match err {
            QueryLogError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("wr_serve_querylog_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let log = QueryLog::synthetic(16, 20, 5, 1);
        log.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.lines().last().unwrap().starts_with("#crc32:"),
            "save must seal the trace"
        );
        let back = QueryLog::load(&path).unwrap();
        assert_eq!(log, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ids_up_to_2_pow_53_round_trip_and_larger_ones_are_refused() {
        let dir = std::env::temp_dir().join("wr_serve_querylog_ids");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let request = |id| Request { id, history: vec![3] };
        let edge = QueryLog { queries: vec![request(0), request(1 << 53)] };
        edge.save(&path).unwrap();
        assert_eq!(QueryLog::load(&path).unwrap(), edge);

        let over = QueryLog { queries: vec![request(1), request((1 << 53) + 1)] };
        match over.save(&path) {
            Err(QueryLogError::IdTooLarge { line, id }) => {
                assert_eq!((line, id), (2, (1 << 53) + 1));
            }
            other => panic!("an id above 2^53 must be refused, got {other:?}"),
        }
        assert_eq!(QueryLog::load(&path).unwrap(), edge, "a refused save writes nothing");
        std::fs::remove_file(&path).ok();

        let text = "{\"id\":1,\"history\":[]}\n{\"id\":1e20,\"history\":[2]}\n";
        match QueryLog::from_jsonl(text) {
            Err(QueryLogError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("an id of 1e20 must not load, got {other:?}"),
        }
    }

    #[test]
    fn tampered_sealed_trace_is_rejected() {
        let dir = std::env::temp_dir().join("wr_serve_querylog_tamper");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        QueryLog::synthetic(8, 20, 5, 2).save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("\"id\":0", "\"id\":7", 1)).unwrap();
        // A broken integrity footer means the whole file is suspect.
        assert!(matches!(QueryLog::load(&path), Err(QueryLogError::Io(_))));
        std::fs::remove_file(&path).ok();
    }
}
