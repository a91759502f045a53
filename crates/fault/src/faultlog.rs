//! The `wr-faultlog/v1` artifact: a [`FaultPlan`]'s decision log as a
//! CRC-sealed, crash-safe JSONL file.
//!
//! A chaos replay is only as useful as its evidence. [`FaultPlan`] already
//! records every injected fault in order ([`FaultPlan::records`]); this
//! module seals that log to disk so a failed run's exact fault schedule
//! can be attached to a bug report and *replayed*: re-running the same
//! seed over the same workload must reproduce identical per-kind counts —
//! the determinism assertion the chaos suites pin.
//!
//! Format, line-oriented like every text artifact in the workspace:
//!
//! ```text
//! {"format":"wr-faultlog/v1","seed":20240613,"records":3}
//! {"kind":"nan_poison","site":"cache.load","index":7}
//! {"kind":"panic","site":"serve.row","index":41}
//! {"kind":"panic","site":"serve.row","index":41}
//! #crc32:9a3f00c1
//! ```
//!
//! Header first, one record per line in injection order, then the shared
//! [`crate::seal_lines`] integrity footer. Written via
//! [`crate::write_atomic`], so a crash mid-dump leaves the previous
//! generation (or nothing), never a torn log. The loader rejects CRC
//! mismatches, malformed lines, unknown kinds, and header/record-count
//! disagreement — a damaged fault log is never silently accepted.

use std::io;
use std::path::Path;

use crate::atomic_io::{seal_lines, verify_lines, write_atomic};
use crate::plan::{FaultKind, FaultRecord};

/// Format tag in the header line.
pub const FAULTLOG_FORMAT: &str = "wr-faultlog/v1";

/// A loaded fault log: the seed that produced it plus every injected
/// fault in injection order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultLog {
    pub seed: u64,
    pub records: Vec<FaultRecord>,
}

impl FaultLog {
    /// Injection counts per kind, indexed in [`FaultKind::ALL`] order —
    /// the shape the replay-determinism assertions compare.
    pub fn counts_by_kind(&self) -> [u64; FaultKind::ALL.len()] {
        counts_by_kind(&self.records)
    }
}

/// Injection counts per kind over any record slice, indexed in
/// [`FaultKind::ALL`] order.
pub fn counts_by_kind(records: &[FaultRecord]) -> [u64; FaultKind::ALL.len()] {
    let mut counts = [0u64; FaultKind::ALL.len()];
    for record in records {
        for (count, kind) in counts.iter_mut().zip(FaultKind::ALL) {
            if record.kind == kind {
                *count += 1;
            }
        }
    }
    counts
}

/// JSON-escape a site name. Real sites are dotted identifiers; the escape
/// keeps a hostile or future site from breaking the line format.
fn escape(site: &str) -> String {
    let mut out = String::with_capacity(site.len());
    for c in site.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn unescape(site: &str) -> String {
    let mut out = String::with_capacity(site.len());
    let mut chars = site.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

fn kind_from_name(name: &str) -> Option<FaultKind> {
    FaultKind::ALL.into_iter().find(|k| k.name() == name)
}

/// Serialize `records` (produced under `seed`) in the `wr-faultlog/v1`
/// shape, sealed with the CRC footer.
pub fn render_fault_log(seed: u64, records: &[FaultRecord]) -> String {
    let mut body = String::with_capacity(64 + records.len() * 48);
    body.push_str(&format!(
        "{{\"format\":\"{FAULTLOG_FORMAT}\",\"seed\":{seed},\"records\":{}}}\n",
        records.len()
    ));
    for record in records {
        body.push_str(&format!(
            "{{\"kind\":\"{}\",\"site\":\"{}\",\"index\":{}}}\n",
            record.kind.name(),
            escape(&record.site),
            record.index
        ));
    }
    seal_lines(body)
}

/// Write `records` to `path` crash-safely (temp → fsync → rename).
pub fn save_fault_log(
    path: impl AsRef<Path>,
    seed: u64,
    records: &[FaultRecord],
) -> io::Result<()> {
    write_atomic(path, render_fault_log(seed, records).as_bytes())
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Extract the string value of `"key":"…"` from one record line. The
/// writer controls the shape, so a simple scan (escape-aware up to the
/// closing quote) is sufficient and keeps this crate dependency-free.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\":\"");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    let mut end = 0;
    let bytes = rest.as_bytes();
    while let Some(&byte) = bytes.get(end) {
        match byte {
            b'\\' => end += 2,
            b'"' => return rest.get(..end),
            _ => end += 1,
        }
    }
    None
}

/// Extract the unsigned value of `"key":N` from one line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Parse a `wr-faultlog/v1` document (CRC-verified first).
pub fn parse_fault_log(text: &str) -> io::Result<FaultLog> {
    let body = verify_lines(text)?;
    let mut lines = body.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or_else(|| bad("empty fault log"))?;
    match field_str(header, "format") {
        Some(FAULTLOG_FORMAT) => {}
        Some(other) => return Err(bad(format!("unknown fault-log format {other:?}"))),
        None => return Err(bad("fault log missing format header")),
    }
    let seed = field_u64(header, "seed").ok_or_else(|| bad("fault log header missing seed"))?;
    let declared =
        field_u64(header, "records").ok_or_else(|| bad("fault log header missing records"))?;
    let mut records = Vec::new();
    for line in lines {
        let kind_name =
            field_str(line, "kind").ok_or_else(|| bad(format!("record missing kind: {line}")))?;
        let kind = kind_from_name(kind_name)
            .ok_or_else(|| bad(format!("unknown fault kind {kind_name:?}")))?;
        let site =
            field_str(line, "site").ok_or_else(|| bad(format!("record missing site: {line}")))?;
        let index =
            field_u64(line, "index").ok_or_else(|| bad(format!("record missing index: {line}")))?;
        records.push(FaultRecord {
            kind,
            site: unescape(site),
            index,
        });
    }
    if records.len() as u64 != declared {
        return Err(bad(format!(
            "fault log declares {declared} records, found {}",
            records.len()
        )));
    }
    Ok(FaultLog { seed, records })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultInjector, FaultPlan, FaultRates};

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wr_faultlog_{}", std::process::id()));
        std::fs::create_dir_all(&dir).ok();
        dir.join(name)
    }

    fn drive(plan: &FaultPlan) {
        // A mixed workload touching every hook; outcomes are pure in
        // (seed, site, index) so two identical drives log identically.
        for i in 0..200u64 {
            let _ = plan.write_error("file.write", i);
            let mut bytes = vec![7u8; 32];
            let _ = plan.corrupt("file.bytes", i, &mut bytes);
            let mut row = vec![1.0f32; 8];
            let _ = plan.poison("cache.load", i, &mut row);
            let _ = std::panic::catch_unwind(|| plan.maybe_panic("serve.row", i, 0));
        }
    }

    #[test]
    fn round_trip_preserves_seed_order_and_counts() {
        let plan = FaultPlan::new(20240613);
        drive(&plan);
        let records = plan.records();
        assert!(!records.is_empty(), "default rates must inject something");
        let path = tmp_path("round_trip.jsonl");
        save_fault_log(&path, plan.seed(), &records).unwrap();
        let loaded = parse_fault_log(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(loaded.seed, 20240613);
        assert_eq!(loaded.records, records);
        assert_eq!(loaded.counts_by_kind(), counts_by_kind(&records));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replaying_the_seed_reproduces_the_logged_counts() {
        // The artifact's whole point: an independent process re-arming the
        // logged seed over the same workload matches the log per kind.
        let first = FaultPlan::new(99);
        drive(&first);
        let rendered = render_fault_log(first.seed(), &first.records());
        let log = parse_fault_log(&rendered).unwrap();

        let replay = FaultPlan::new(log.seed);
        drive(&replay);
        assert_eq!(counts_by_kind(&replay.records()), log.counts_by_kind());
        assert_eq!(replay.records(), log.records);
    }

    #[test]
    fn tampered_logs_are_rejected() {
        let plan = FaultPlan::with_rates(
            5,
            FaultRates {
                poison: 1.0,
                ..FaultRates::default()
            },
        );
        let mut row = vec![1.0f32; 4];
        plan.poison("cache.load", 3, &mut row);
        let sealed = render_fault_log(plan.seed(), &plan.records());
        assert!(parse_fault_log(&sealed).is_ok());
        // Flip a record: CRC catches it.
        let tampered = sealed.replace("\"index\":3", "\"index\":4");
        assert!(parse_fault_log(&tampered).is_err());
        // Unknown kind and count mismatch are typed errors too (re-seal so
        // the CRC passes and the structural check does the rejecting).
        let unknown = seal_lines(
            "{\"format\":\"wr-faultlog/v1\",\"seed\":1,\"records\":1}\n\
             {\"kind\":\"meteor\",\"site\":\"s\",\"index\":0}\n"
                .to_string(),
        );
        assert!(parse_fault_log(&unknown).is_err());
        let short = seal_lines("{\"format\":\"wr-faultlog/v1\",\"seed\":1,\"records\":2}\n".to_string());
        assert!(parse_fault_log(&short).is_err());
    }

    #[test]
    fn sites_with_hostile_characters_survive_the_round_trip() {
        let records = vec![FaultRecord {
            kind: FaultKind::IoError,
            site: "we\"ird\\site\nname".to_string(),
            index: 7,
        }];
        let log = parse_fault_log(&render_fault_log(1, &records)).unwrap();
        assert_eq!(log.records, records);
    }

    #[test]
    fn empty_log_is_valid() {
        let log = parse_fault_log(&render_fault_log(42, &[])).unwrap();
        assert_eq!(log.seed, 42);
        assert!(log.records.is_empty());
        assert_eq!(log.counts_by_kind(), [0; FaultKind::ALL.len()]);
    }
}
