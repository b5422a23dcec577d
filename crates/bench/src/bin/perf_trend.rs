//! Perf-history ledger reader: per-workload trajectories and drift.
//!
//! ```text
//! perf_trend [--history BENCH_history.jsonl] [--check]
//!            [--drift RATIO] [--window N] [--json]
//! ```
//!
//! Reads the NDJSON ledger that `perf_regress --record` appends to and
//! prints one row per workload and radix: how many runs it has, its latest
//! simulated cycles (with the delta against its first recorded run —
//! exact, since cycles are deterministic), and its wall-clock
//! trajectory (median of the earlier runs vs the latest). A workload is
//! flagged for **sustained drift** when its last `--window` runs
//! (default 3) *all* exceed `--drift` (default 1.25) × the median of
//! the runs before them — one slow run on a loaded host is noise, a
//! trend is not.
//!
//! `--check` validates the ledger itself — every line parses as a
//! history row and timestamps never move backwards — and exits 1 on a
//! violation. `scripts/check.sh` runs this over the committed ledger.
//!
//! Drift is reported, never an exit code: the ledger mixes hosts and
//! build settings, so the wall gate lives in `perf_regress
//! --wall-gate`, which compares like against like.

use aurora_bench::cli::{fail, Args};
use aurora_bench::emit::{Cell, Table};
use aurora_bench::history::{self, HistoryRow};
use std::collections::BTreeMap;

fn main() {
    let mut history_path = "BENCH_history.jsonl".to_string();
    let mut check = false;
    let mut drift = 1.25f64;
    let mut window = 3usize;
    let mut json = false;

    let mut args = Args::from_env();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--history" => history_path = args.value("--history"),
            "--check" => check = true,
            "--drift" => drift = args.parse("--drift"),
            "--window" => window = args.parse("--window"),
            "--json" => json = true,
            other => fail(&format!("unknown flag {other}")),
        }
    }
    if drift <= 1.0 {
        fail("--drift must be > 1.0");
    }
    if window == 0 {
        fail("--window must be >= 1");
    }

    let rows = match history::load(&history_path) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("perf_trend: {e}");
            std::process::exit(1);
        }
    };
    if check {
        if let Err(e) = history::validate(&rows) {
            eprintln!("perf_trend: {history_path}: {e}");
            std::process::exit(1);
        }
        println!(
            "perf_trend: {history_path} ok — {} rows parse, timestamps monotonic",
            rows.len()
        );
    }
    if rows.is_empty() {
        println!("perf_trend: {history_path} holds no rows yet");
        return;
    }

    // Group by workload and radix, preserving append (time) order within
    // each.
    let mut by_workload: BTreeMap<(&str, u64), Vec<&HistoryRow>> = BTreeMap::new();
    for row in &rows {
        by_workload
            .entry((&row.workload, row.k))
            .or_default()
            .push(row);
    }

    let mut t = Table::new(format!(
        "perf_trend — {history_path} ({} rows; drift = last {window} all > {drift}x earlier median)",
        rows.len()
    ))
    .columns(&[
        "workload", "k", "runs", "cycles", "cycles Δ", "wall med ms", "wall last ms", "wall Δ",
        "allocs", "steady", "drift",
    ]);
    let mut drifting = Vec::new();
    for ((workload, k), runs) in &by_workload {
        let first = runs.first().expect("group is non-empty");
        let last = runs.last().expect("group is non-empty");
        let cycles_delta =
            100.0 * (last.cycles as f64 - first.cycles as f64) / first.cycles.max(1) as f64;
        let walls: Vec<f64> = runs.iter().map(|r| r.wall_ms).collect();
        let earlier_median = if walls.len() > 1 {
            history::median(&walls[..walls.len() - 1])
        } else {
            walls[0]
        };
        let wall_ratio = if earlier_median > 0.0 {
            last.wall_ms / earlier_median
        } else {
            1.0
        };
        let has_drift = history::sustained_drift(&walls, window, drift);
        if has_drift {
            drifting.push(format!(
                "{workload} (k={k}): last {window} runs all above {drift}x the earlier median \
                 ({earlier_median:.1} ms; latest {:.1} ms)",
                last.wall_ms
            ));
        }
        t.row(vec![
            (*workload).into(),
            (*k).into(),
            runs.len().into(),
            last.cycles.into(),
            Cell::percent(cycles_delta, 2),
            Cell::float(earlier_median, 1),
            Cell::float(last.wall_ms, 1),
            Cell::ratio(wall_ratio, 2),
            last.allocs.into(),
            last.allocs_steady.into(),
            Cell::Str(if has_drift { "DRIFT" } else { "ok" }.into()),
        ]);
    }
    t.note(
        "cycles Δ is latest vs first recorded run; wall med is the median of all but the latest",
    );
    t.note("allocs come from the counting allocator and are 0 for rows recorded without it");
    t.note("steady is the warmed second run's steady-stage allocations (0 for pre-column rows)");
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&t.to_json_value()).expect("serialize")
        );
    } else {
        t.print();
    }
    if !drifting.is_empty() {
        println!("sustained wall-clock drift:");
        for d in &drifting {
            println!("  {d}");
        }
    }
}
