//! The perf-history ledger: `BENCH_history.jsonl`.
//!
//! `perf_regress --record` appends one NDJSON [`HistoryRow`] per pinned
//! workload; `perf_trend` reads the ledger back and reports
//! per-workload trajectories. Rows are append-only and carry their own
//! provenance (git revision, unix timestamp), so the file doubles as a
//! machine-readable log of how host cost has moved across commits.
//! Simulated cycles in a row are exact (the generators are
//! fixed-seed); wall-ms and allocation counts track the recording host.

use serde::{Deserialize, Serialize};
use std::io::Write as IoWrite;

/// One recorded (run, workload) measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryRow {
    /// Unix seconds when the row was recorded.
    pub ts: u64,
    /// `git rev-parse --short HEAD` of the recording tree (suffixed
    /// `-dirty` when tracked files were modified), or `unknown` outside
    /// a checkout.
    pub git_rev: String,
    /// The `--name` of the recording run.
    pub name: String,
    /// PE-array radix of the pinned matrix.
    pub k: u64,
    /// Stable workload key, e.g. `gcn/rmat-4k`.
    pub workload: String,
    /// Simulated cycles (deterministic).
    pub cycles: u64,
    /// Host wall-time of the simulation, milliseconds.
    pub wall_ms: f64,
    /// Heap allocations attributed to the run by the counting
    /// allocator (0 when recording ran without it).
    pub allocs: u64,
    /// Heap allocations a *warmed-up* second run attributes to the
    /// steady-state stages (tile precompute + mapping + engine walk).
    /// The arena-backed engine core holds this near zero; growth here
    /// flags per-tile churn creeping back in. Absent in ledgers
    /// recorded before the column existed (defaults to 0).
    #[serde(default)]
    pub allocs_steady: u64,
    /// The run's dominant bound label.
    pub dominant: String,
}

/// Appends `rows` to the NDJSON ledger at `path`, one row per line.
pub fn append(path: &str, rows: &[HistoryRow]) -> std::io::Result<()> {
    let mut file = std::fs::File::options()
        .create(true)
        .append(true)
        .open(path)?;
    for row in rows {
        let line = serde_json::to_string(row).expect("history row serializes");
        writeln!(file, "{line}")?;
    }
    Ok(())
}

/// Loads every row of the ledger. Blank lines are skipped; any
/// unparseable line is an error naming its line number.
pub fn load(path: &str) -> Result<Vec<HistoryRow>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut rows = Vec::new();
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row: HistoryRow = serde_json::from_str(line)
            .map_err(|e| format!("{path}:{}: bad history row: {e:?}", i + 1))?;
        rows.push(row);
    }
    Ok(rows)
}

/// Checks the ledger invariant: timestamps never move backwards (the
/// file is append-only, so an out-of-order row means hand-editing or a
/// clock step worth investigating).
pub fn validate(rows: &[HistoryRow]) -> Result<(), String> {
    for (i, pair) in rows.windows(2).enumerate() {
        if pair[1].ts < pair[0].ts {
            return Err(format!(
                "row {}: timestamp {} is earlier than row {}'s {}",
                i + 2,
                pair[1].ts,
                i + 1,
                pair[0].ts
            ));
        }
    }
    Ok(())
}

/// Sustained wall-clock drift detector for one workload's rows (oldest
/// first): true when the last `recent` rows *all* run slower than
/// `ratio` × the median of the earlier rows. A single slow row — a
/// loaded host, a cold cache — never trips it; a trend does.
pub fn sustained_drift(walls: &[f64], recent: usize, ratio: f64) -> bool {
    if walls.len() < recent + 2 || recent == 0 {
        return false;
    }
    let (earlier, tail) = walls.split_at(walls.len() - recent);
    let base = median(earlier);
    base > 0.0 && tail.iter().all(|w| *w > ratio * base)
}

/// Median of a non-empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("walls are finite"));
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(ts: u64, workload: &str, wall_ms: f64) -> HistoryRow {
        HistoryRow {
            ts,
            git_rev: "abc1234".into(),
            name: "test".into(),
            k: 8,
            workload: workload.into(),
            cycles: 1_000,
            wall_ms,
            allocs: 5,
            allocs_steady: 0,
            dominant: "dram".into(),
        }
    }

    #[test]
    fn round_trips_through_the_ledger_file() {
        let path = std::env::temp_dir().join(format!("aurora-hist-{}.jsonl", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        append(&path, &[row(10, "a", 1.0), row(20, "b", 2.0)]).unwrap();
        append(&path, &[row(30, "a", 3.0)]).unwrap();
        let rows = load(&path).unwrap();
        assert_eq!(rows.len(), 3, "appends accumulate");
        assert_eq!(rows[2], row(30, "a", 3.0));
        assert!(validate(&rows).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rows_without_steady_column_still_load() {
        // Ledgers recorded before `allocs_steady` existed must parse.
        let old = "{\"ts\":10,\"git_rev\":\"abc1234\",\"name\":\"test\",\"k\":8,\
                   \"workload\":\"a\",\"cycles\":1000,\"wall_ms\":1.0,\
                   \"allocs\":5,\"dominant\":\"dram\"}";
        let parsed: HistoryRow = serde_json::from_str(old).unwrap();
        assert_eq!(parsed.allocs_steady, 0, "missing column defaults to 0");
        assert_eq!(parsed, row(10, "a", 1.0));
    }

    #[test]
    fn bad_lines_are_named() {
        let path =
            std::env::temp_dir().join(format!("aurora-hist-bad-{}.jsonl", std::process::id()));
        std::fs::write(&path, "{\"not\":\"a row\"}\n").unwrap();
        let err = load(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains(":1:"), "error names the line: {err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn validate_rejects_backwards_timestamps() {
        let rows = vec![row(20, "a", 1.0), row(10, "a", 1.0)];
        let err = validate(&rows).unwrap_err();
        assert!(err.contains("earlier"));
    }

    #[test]
    fn drift_needs_a_sustained_tail() {
        // Median of the earlier runs is 1.0; a single slow run is noise.
        assert!(!sustained_drift(&[1.0, 1.0, 1.0, 1.0, 3.0], 3, 1.25));
        // Three consecutive slow runs over a clean base: drift.
        assert!(sustained_drift(&[1.0, 1.0, 1.0, 2.0, 2.1, 2.2], 3, 1.25));
        // Too few rows to judge.
        assert!(!sustained_drift(&[1.0, 2.0, 2.0], 3, 1.25));
    }
}
