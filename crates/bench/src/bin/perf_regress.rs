//! Performance-regression harness.
//!
//! ```text
//! perf_regress [--name NAME] [--k N]
//!              [--check --baseline BENCH_seed.json [--tolerance PCT]]
//!              [--record] [--history BENCH_history.jsonl]
//!              [--wall-gate RATIO]
//! ```
//!
//! Runs a pinned workload matrix — a two-layer GCN, GraphSAGE (mean)
//! and GIN on fixed-seed synthetic R-MAT graphs — and writes
//! `BENCH_<NAME>.json` at the invocation directory (the repo root when
//! run through `scripts/check.sh`). Each entry records the simulated
//! cycle count, the bound-attribution fractions and the dominant bound
//! from the profiler, plus host wall-time for context.
//!
//! The generators are deterministic, so simulated cycles are exact: any
//! drift is a code change, not noise. Under `--check` the run exits
//! non-zero when any workload's cycles regress more than `--tolerance`
//! percent (default 5) over the baseline file — wall-time is recorded
//! but never gated by default, since it tracks the host machine. Each
//! row also shows its wall-time ratio against the baseline host run,
//! and under `--check` any workload running slower than 2x baseline
//! wall time is called out informationally.
//!
//! `--record` appends one NDJSON row per workload — cycles, wall-ms,
//! allocation count, dominant bound, git revision, timestamp — to the
//! perf-history ledger (`--history`, default `BENCH_history.jsonl`).
//! Recording runs the matrix serially with the span profiler and the
//! counting allocator on, so each row's allocation count is that
//! workload's alone; simulated cycles are unaffected (the determinism
//! suite pins this). Each row also carries `allocs_steady`: the
//! allocations a second, warmed run attributes to the steady-state
//! stages (tile precompute + mapping + engine walk). The arena-backed
//! engine keeps this near zero, so the column is a churn regression
//! signal independent of first-run warm-up cost.
//!
//! `--wall-gate RATIO` (opt-in, needs `--baseline`) turns wall-clock
//! drift into an exit code: a workload fails when its wall time
//! exceeds `RATIO` × the baseline wall *and* the regression is
//! sustained — the majority of its last three ledger rows also exceed
//! the gate (a single noisy run never fails; with fewer than two prior
//! rows the current run decides alone). Wall-gate failures exit 3,
//! distinct from cycle regressions (exit 1), so callers can treat them
//! as advisory — `scripts/check.sh` does.
//!
//! Regenerate the committed baseline after an intentional model change:
//! `cargo run --release -p aurora-bench --bin perf_regress -- --name seed`

use aurora_bench::cli::{fail, Args};
use aurora_bench::emit::{dump_json, Cell, Table};
use aurora_bench::history::{self, HistoryRow};
use aurora_bench::run_inline;
use aurora_core::{AcceleratorConfig, AuroraSimulator, Bound};
use aurora_graph::generate;
use aurora_model::{LayerShape, ModelId};
use aurora_telemetry::{span, Stage};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One pinned workload's measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WorkloadResult {
    /// Stable key, e.g. `gcn/rmat-4k`.
    workload: String,
    /// Simulated cycles (deterministic; the gated metric).
    cycles: u64,
    /// Bound-attribution fractions of the run's tile slots.
    compute_frac: f64,
    noc_frac: f64,
    dram_frac: f64,
    imbalance_frac: f64,
    /// The run's dominant bound label.
    dominant: String,
    /// Host wall-time of the simulation (context only, never gated).
    wall_ms: f64,
}

/// The `BENCH_<name>.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchRecord {
    name: String,
    /// PE-array radix of the pinned matrix.
    k: usize,
    results: Vec<WorkloadResult>,
}

/// The pinned matrix: deterministic graphs × two-layer models. Returns
/// each workload's result plus its attributed allocation count and the
/// steady-state allocation count of a warmed second run (both 0 unless
/// `profiled`).
fn matrix(k: usize, profiled: bool) -> Vec<(WorkloadResult, u64, u64)> {
    let graphs = [
        (
            "rmat-1k",
            generate::rmat(1_024, 8_000, Default::default(), 3),
        ),
        (
            "rmat-4k",
            generate::rmat(4_096, 40_000, Default::default(), 7),
        ),
    ];
    let models = [
        ("gcn", ModelId::Gcn),
        ("sage-mean", ModelId::SageMean),
        ("gin", ModelId::Gin),
    ];
    let shapes = [LayerShape::new(64, 32), LayerShape::new(32, 16)];
    let cfg = AcceleratorConfig::small(k);

    let run = |(gname, g, mname, model): (&str, &aurora_graph::Csr, &str, ModelId)| {
        let start = Instant::now();
        let r = run_inline(&AuroraSimulator::new(cfg), g, model, &shapes, gname, 1.0);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let allocs = r
            .host_profile
            .as_ref()
            .map(|hp| hp.stages.iter().map(|s| s.alloc_count).sum())
            .unwrap_or(0);
        // Second, warmed run: the first run sized this thread's engine
        // arena, so allocations the span profiler now attributes to the
        // steady-state stages measure genuine per-tile churn rather than
        // warm-up growth. Only meaningful (and only paid for) under
        // `--record`, where the matrix runs serially with profiling on.
        let allocs_steady = if profiled {
            let mark = span::mark();
            let steady_start = Instant::now();
            let _ = run_inline(&AuroraSimulator::new(cfg), g, model, &shapes, gname, 1.0);
            let hp = span::collect(&mark, steady_start.elapsed());
            [Stage::TilePrecompute, Stage::Mapping, Stage::EngineWalk]
                .iter()
                .filter_map(|s| hp.stage(*s))
                .map(|h| h.alloc_count)
                .sum()
        } else {
            0
        };
        let p = &r.profile;
        (
            WorkloadResult {
                workload: format!("{mname}/{gname}"),
                cycles: r.total_cycles,
                compute_frac: p.mix.fraction(Bound::Compute),
                noc_frac: p.mix.fraction(Bound::Noc),
                dram_frac: p.mix.fraction(Bound::Dram),
                imbalance_frac: p.mix.fraction(Bound::Imbalance),
                dominant: p.dominant().label().to_string(),
                wall_ms,
            },
            allocs,
            allocs_steady,
        )
    };

    let combos: Vec<(&str, &aurora_graph::Csr, &str, ModelId)> = graphs
        .iter()
        .flat_map(|(gname, g)| models.iter().map(move |(mname, m)| (*gname, g, *mname, *m)))
        .collect();
    if profiled {
        // The span profiler and the counting allocator accumulate in
        // process-global state keyed only by the active stage, so
        // concurrent simulations would attribute into each other's
        // windows. Recording runs the matrix serially; the workloads are
        // deterministic, so the recorded cycles are identical either way.
        combos.into_iter().map(run).collect()
    } else {
        // The six (graph, model) workloads are independent simulations,
        // so they fan out over the worker pool (`AURORA_THREADS`). The
        // ordered collect keeps the result vector in the sequential
        // graphs-outer / models-inner order, and each simulation is
        // itself deterministic, so the recorded cycles are identical at
        // every thread count; wall-time is measured per workload inside
        // its task and stays informational.
        combos.into_par_iter().map(run).collect()
    }
}

/// `git rev-parse --short HEAD` of the working tree, suffixed `-dirty`
/// when tracked files differ from it, or `unknown`.
fn git_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
    };
    match git(&["rev-parse", "--short", "HEAD"]).filter(|s| !s.is_empty()) {
        Some(rev) => match git(&["status", "--porcelain", "--untracked-files=no"]) {
            Some(changes) if !changes.is_empty() => format!("{rev}-dirty"),
            _ => rev,
        },
        None => "unknown".to_string(),
    }
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn main() {
    let mut name = "run".to_string();
    let mut k = 8usize;
    let mut check = false;
    let mut record = false;
    let mut history_path = "BENCH_history.jsonl".to_string();
    let mut baseline_path: Option<String> = None;
    let mut tolerance = 5.0f64;
    let mut wall_gate: Option<f64> = None;

    let mut args = Args::from_env();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--name" => name = args.value("--name"),
            "--k" => k = args.parse("--k"),
            "--baseline" => baseline_path = Some(args.value("--baseline")),
            "--tolerance" => tolerance = args.parse("--tolerance"),
            "--check" => check = true,
            "--record" => record = true,
            "--history" => history_path = args.value("--history"),
            "--wall-gate" => wall_gate = Some(args.parse("--wall-gate")),
            other => fail(&format!("unknown flag {other}")),
        }
    }
    if check && baseline_path.is_none() {
        fail("--check needs --baseline <file>");
    }
    if let Some(gate) = wall_gate {
        if gate <= 1.0 {
            fail("--wall-gate must be > 1.0 (a ratio over the baseline wall time)");
        }
        if baseline_path.is_none() {
            fail("--wall-gate needs --baseline <file>");
        }
    }
    if record {
        // Attribute wall time and allocations per stage; cycles are
        // unaffected (`SimReport` stays byte-identical — pinned by the
        // determinism tests).
        aurora_core::host_init();
        aurora_core::span::set_span_profiling(true);
        aurora_telemetry::alloc::set_alloc_profiling(true);
    }

    // Prior ledger rows, for the sustained-drift filter of the wall
    // gate; read before this run appends its own.
    let prior_history: Vec<HistoryRow> = if std::path::Path::new(&history_path).exists() {
        history::load(&history_path).unwrap_or_else(|e| fail(&e))
    } else {
        Vec::new()
    };

    let measured = matrix(k, record);
    let record_doc = BenchRecord {
        name: name.clone(),
        k,
        results: measured.iter().map(|(r, _, _)| r.clone()).collect(),
    };

    let baseline: Option<BenchRecord> = baseline_path.as_ref().map(|p| {
        let body = std::fs::read_to_string(p).unwrap_or_else(|e| fail(&format!("read {p}: {e}")));
        serde_json::from_str(&body).unwrap_or_else(|e| fail(&format!("parse {p}: {e}")))
    });

    let mut t = Table::new(format!("perf_regress — k={k}, tolerance {tolerance}%")).columns(&[
        "workload", "cycles", "baseline", "delta", "dominant", "wall ms", "wall Δ",
    ]);
    let mut regressions = Vec::new();
    let mut wall_regressions = Vec::new();
    let mut wall_gate_failures = Vec::new();
    for (r, _, _) in &measured {
        let base = baseline
            .as_ref()
            .and_then(|b| b.results.iter().find(|x| x.workload == r.workload));
        let (base_cell, delta_cell, wall_cell) = match base {
            Some(b) => {
                let delta = 100.0 * (r.cycles as f64 - b.cycles as f64) / b.cycles as f64;
                if delta > tolerance {
                    regressions.push(format!(
                        "{}: {} -> {} cycles (+{delta:.2}% > {tolerance}%)",
                        r.workload, b.cycles, r.cycles
                    ));
                }
                // Wall-time ratio vs the baseline host run. Informational
                // only: the host machine and its load differ between runs,
                // so this never gates — but a >2x slowdown is worth a look.
                let wall_ratio = if b.wall_ms > 0.0 {
                    r.wall_ms / b.wall_ms
                } else {
                    1.0
                };
                if wall_ratio > 2.0 {
                    wall_regressions.push(format!(
                        "{}: {:.1} ms -> {:.1} ms ({wall_ratio:.2}x baseline wall time)",
                        r.workload, b.wall_ms, r.wall_ms
                    ));
                }
                if let Some(gate) = wall_gate {
                    if b.wall_ms > 0.0 && wall_ratio > gate {
                        // Sustained? The majority of the last three
                        // ledger rows for this workload must also exceed
                        // the gate; with fewer than two prior rows the
                        // current run decides alone.
                        let prior: Vec<f64> = prior_history
                            .iter()
                            .filter(|h| h.workload == r.workload)
                            .map(|h| h.wall_ms)
                            .collect();
                        let tail = &prior[prior.len().saturating_sub(3)..];
                        let sustained = tail.len() < 2
                            || tail.iter().filter(|w| **w > gate * b.wall_ms).count() * 2
                                >= tail.len();
                        if sustained {
                            wall_gate_failures.push(format!(
                                "{}: {:.1} ms vs baseline {:.1} ms \
                                 ({wall_ratio:.2}x > gate {gate}x, sustained over the ledger)",
                                r.workload, r.wall_ms, b.wall_ms
                            ));
                        } else {
                            println!(
                                "wall-gate: {} at {wall_ratio:.2}x is over the {gate}x gate but \
                                 not sustained in {history_path}; not failing",
                                r.workload
                            );
                        }
                    }
                }
                (
                    Cell::UInt(b.cycles),
                    Cell::percent(delta, 2),
                    Cell::ratio(wall_ratio, 2),
                )
            }
            None => (Cell::Missing, Cell::Missing, Cell::Missing),
        };
        t.row(vec![
            r.workload.clone().into(),
            r.cycles.into(),
            base_cell,
            delta_cell,
            r.dominant.clone().into(),
            Cell::float(r.wall_ms, 1),
            wall_cell,
        ]);
    }
    if let (Some(b), true) = (&baseline, check) {
        for missing in b
            .results
            .iter()
            .filter(|x| !record_doc.results.iter().any(|r| r.workload == x.workload))
        {
            regressions.push(format!("{}: missing from this run", missing.workload));
        }
    }
    t.note("cycles are deterministic (fixed-seed generators); wall-time is informational");
    t.print();

    let out = format!("BENCH_{name}.json");
    dump_json(&out, &record_doc);

    if record {
        let ts = unix_now();
        let rev = git_rev();
        let rows: Vec<HistoryRow> = measured
            .iter()
            .map(|(r, allocs, allocs_steady)| HistoryRow {
                ts,
                git_rev: rev.clone(),
                name: name.clone(),
                k: k as u64,
                workload: r.workload.clone(),
                cycles: r.cycles,
                wall_ms: r.wall_ms,
                allocs: *allocs,
                allocs_steady: *allocs_steady,
                dominant: r.dominant.clone(),
            })
            .collect();
        history::append(&history_path, &rows)
            .unwrap_or_else(|e| fail(&format!("append {history_path}: {e}")));
        println!(
            "history: {} rows appended to {history_path} (rev {rev}, ts {ts})",
            rows.len()
        );
    }

    if check {
        if !wall_regressions.is_empty() {
            println!("wall-time note (informational, never gated):");
            for w in &wall_regressions {
                println!("  {w}");
            }
        }
        if regressions.is_empty() {
            println!("perf check passed: no workload regressed more than {tolerance}%");
        } else {
            eprintln!("perf check FAILED:");
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
    }
    if !wall_gate_failures.is_empty() {
        eprintln!("wall-clock gate FAILED:");
        for w in &wall_gate_failures {
            eprintln!("  {w}");
        }
        std::process::exit(3);
    }
}
