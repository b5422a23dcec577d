//! Output checks: committed fingerprints and failure accounting.
//!
//! A report's fingerprint is the FNV-1a/64 digest of its JSON (with the
//! host profile, which only exists under tracing, left out) plus its
//! `total_cycles`. The simulated statistics are checks here, never
//! metrics: the model is not validated against hardware, so the
//! benchmark reports no error figure for it.

use aurora_core::SimReport;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The committed fingerprints, generated with `perfbench --write-golden`.
const GOLDEN_JSON: &str = include_str!("../golden.json");

/// FNV-1a/64 of `bytes`, as 16 hex digits.
pub fn fnv(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    pub report: String,
    pub cycles: u64,
}

/// The fingerprint of a report.
pub fn fingerprint(report: &SimReport) -> Fingerprint {
    let digest = if report.host_profile.is_some() {
        let mut plain = report.clone();
        plain.host_profile = None;
        fnv(serde_json::to_string(&plain)
            .expect("report serializes")
            .as_bytes())
    } else {
        fnv(serde_json::to_string(report)
            .expect("report serializes")
            .as_bytes())
    };
    Fingerprint {
        report: digest,
        cycles: report.total_cycles,
    }
}

/// Committed fingerprints, keyed by request digest (one-shot runs) or
/// by `session:<seed>` (a session stream's final report, whose
/// `report` field also carries the digest-chain head as
/// `<head>/<report digest>`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Golden {
    pub entries: BTreeMap<String, Fingerprint>,
}

impl Golden {
    /// The fingerprints committed beside the benchmark.
    pub fn committed() -> Golden {
        serde_json::from_str(GOLDEN_JSON).expect("golden.json parses")
    }

    pub fn get(&self, key: &str) -> Option<&Fingerprint> {
        self.entries.get(key)
    }

    pub fn session_key(seed: u64) -> String {
        format!("session:{seed}")
    }
}

/// Operations attempted and failed. An operation fails when it errors
/// or its output does not match what it must be; the first failure is
/// kept for the log.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }

    /// Records one simulation against its committed fingerprint.
    pub fn expect(&mut self, golden: &Golden, key: &str, got: &Fingerprint) {
        let ok = golden.get(key) == Some(got);
        self.record(ok, || match golden.get(key) {
            None => format!("{key}: no committed fingerprint"),
            Some(want) => format!("{key}: got {got:?}, committed {want:?}"),
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}
