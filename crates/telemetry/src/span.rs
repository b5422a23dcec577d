//! Host-side wall-clock span profiler.
//!
//! The rest of this crate observes the *simulated* machine in cycles;
//! this module observes the *host*: where the wall-clock milliseconds
//! and allocations of a run actually go, per canonical pipeline
//! [`Stage`]. The data feeds `SimReport.host_profile`, the
//! `aurora_sim --host-profile` table, and the `ROADMAP` item-5
//! zero-alloc work that needs per-stage churn numbers before anyone
//! touches the hot path.
//!
//! Design:
//!
//! * **Off by default, branch-cheap when off.** [`enter`] checks one
//!   relaxed atomic and returns an inert guard unless span or
//!   allocation profiling was switched on ([`set_span_profiling`],
//!   `AURORA_HOST_PROFILE=1` via [`host_init`]). Nothing here ever
//!   touches the simulated-cycle results: profiling on or off, the
//!   engine computes byte-identical reports (tested in
//!   `crates/bench/tests/host_profile.rs`).
//! * **Process-global accumulation.** Stage statistics live in a fixed
//!   array of atomics — no locks, no allocation (the counters are also
//!   written from inside the global allocator, which must not
//!   allocate). Per-run attribution takes a [`mark`] before the run and
//!   [`collect`]s the delta after; concurrent runs in one process (the
//!   serve daemon) therefore see *mixed* deltas — host profiles are a
//!   single-run-at-a-time tool, and the serve integration documents
//!   that caveat.
//! * **Thread-local stage nesting.** The active stage is a thread-local
//!   byte; [`SpanGuard`]s form the stack (each guard remembers its
//!   parent and restores it on drop), and a child's elapsed time is
//!   added to the parent's `child_ns` so self-time is `total − child`.
//!   Worker closures in parallel regions use [`stage_scope`] to tag
//!   their thread for allocation attribution without timing overhead,
//!   plus a real [`enter`] where per-stage CPU time is wanted
//!   ([`Stage::Mapping`] inside tile precompute).
//!
//! Stage semantics: every stage except [`Stage::Mapping`] and
//! [`Stage::Other`] is a **disjoint top-level** phase of one engine run
//! — their wall-µs sum is comparable to the run's total wall time and
//! [`HostProfile::coverage`] reports the ratio (the ≥90 % acceptance
//! gate). `Mapping` is worker-side CPU time *inside* `TilePrecompute`
//! (it can exceed the precompute wall time on a multi-core host), and
//! `Other` absorbs allocations made outside any span.

use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Once;
use std::time::{Duration, Instant};

/// Number of [`Stage`] variants (the profiler's fixed table size).
pub const STAGE_COUNT: usize = 10;

/// Canonical host-side pipeline stages of one engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Stage {
    /// Graph specification resolution (dataset/R-MAT/ring synthesis).
    GraphLoad,
    /// Workflow generation from the model description.
    Workflow,
    /// Interval partitioning + Algorithm-2 tile assignment.
    Partition,
    /// Worker-side per-tile mapping work inside tile precompute
    /// (CPU time across workers; **not** a disjoint top-level stage).
    Mapping,
    /// Per-`NocConfig` route-leg construction (the stage keeps its
    /// historical route-table name).
    RouteTableBuild,
    /// Parallel per-tile precompute (the `pres` region).
    TilePrecompute,
    /// NoC traffic kernels (miss binning + route-leg pushes).
    TrafficKernels,
    /// The stateful cycle-level engine walk.
    EngineWalk,
    /// Per-layer result assembly and report roll-up.
    Finalize,
    /// Fallback bucket: allocations outside any span land here.
    Other,
}

impl Stage {
    /// Every stage, in table order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::GraphLoad,
        Stage::Workflow,
        Stage::Partition,
        Stage::Mapping,
        Stage::RouteTableBuild,
        Stage::TilePrecompute,
        Stage::TrafficKernels,
        Stage::EngineWalk,
        Stage::Finalize,
        Stage::Other,
    ];

    /// Stable display label (also the metric `phase` label).
    pub fn label(self) -> &'static str {
        match self {
            Stage::GraphLoad => "graph_load",
            Stage::Workflow => "workflow",
            Stage::Partition => "partition",
            Stage::Mapping => "mapping",
            Stage::RouteTableBuild => "route_table_build",
            Stage::TilePrecompute => "tile_precompute",
            Stage::TrafficKernels => "traffic_kernels",
            Stage::EngineWalk => "engine_walk",
            Stage::Finalize => "finalize",
            Stage::Other => "other",
        }
    }

    /// Whether this stage is one of the disjoint top-level phases whose
    /// wall-time sum is comparable to the run's total wall time.
    /// `Mapping` (nested worker CPU time) and `Other` (no span) are not.
    pub fn is_top_level(self) -> bool {
        !matches!(self, Stage::Mapping | Stage::Other)
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// One stage's process-global accumulators. Plain relaxed atomics: the
/// numbers are observational (merged per-thread contributions), never
/// synchronization.
struct StageCell {
    calls: AtomicU64,
    total_ns: AtomicU64,
    child_ns: AtomicU64,
    alloc_count: AtomicU64,
    alloc_bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // const used only as array-repeat seed
const ZERO_CELL: StageCell = StageCell {
    calls: AtomicU64::new(0),
    total_ns: AtomicU64::new(0),
    child_ns: AtomicU64::new(0),
    alloc_count: AtomicU64::new(0),
    alloc_bytes: AtomicU64::new(0),
};

static STATS: [StageCell; STAGE_COUNT] = [ZERO_CELL; STAGE_COUNT];

static SPAN_ENABLED: AtomicBool = AtomicBool::new(false);

/// Sentinel for "no active stage" in the thread-local byte.
const NO_STAGE: u8 = u8::MAX;

thread_local! {
    // const-init: no lazy-init allocation, safe to read from the
    // global allocator via `try_with`
    static CURRENT_STAGE: Cell<u8> = const { Cell::new(NO_STAGE) };
}

/// Switches the wall-clock span profiler on or off (process-global).
pub fn set_span_profiling(on: bool) {
    SPAN_ENABLED.store(on, Ordering::SeqCst);
}

/// Whether the span profiler is currently recording.
pub fn span_profiling_enabled() -> bool {
    SPAN_ENABLED.load(Ordering::Relaxed)
}

/// Whether spans must maintain the thread-local stage (timing or
/// allocation attribution wants it).
#[inline]
fn attribution_active() -> bool {
    SPAN_ENABLED.load(Ordering::Relaxed) || crate::alloc::alloc_profiling_enabled()
}

static INIT: Once = Once::new();

/// Applies the `AURORA_HOST_PROFILE` / `AURORA_ALLOC_PROFILE`
/// environment gates, once per process. Called from the engine's entry
/// points so every binary honors the variables without its own wiring;
/// explicit `set_*` calls afterwards still win.
pub fn host_init() {
    INIT.call_once(|| {
        if env_flag("AURORA_HOST_PROFILE") {
            set_span_profiling(true);
        }
        if env_flag("AURORA_ALLOC_PROFILE") {
            crate::alloc::set_alloc_profiling(true);
        }
    });
}

fn env_flag(name: &str) -> bool {
    std::env::var(name)
        .map(|v| matches!(v.as_str(), "1" | "true" | "on"))
        .unwrap_or(false)
}

/// Records one allocation of `bytes` against the calling thread's
/// active stage ([`Stage::Other`] when none). Called from the global
/// allocator: must not allocate, lock, or lazily initialize anything.
#[inline]
pub(crate) fn record_alloc(bytes: usize) {
    let stage = CURRENT_STAGE.try_with(Cell::get).unwrap_or(NO_STAGE);
    let idx = if stage == NO_STAGE {
        Stage::Other.index()
    } else {
        stage as usize
    };
    STATS[idx].alloc_count.fetch_add(1, Ordering::Relaxed);
    STATS[idx]
        .alloc_bytes
        .fetch_add(bytes as u64, Ordering::Relaxed);
}

/// RAII scope for one timed span. Created by [`enter`]; records its
/// elapsed wall time into the stage table on drop and credits the
/// elapsed time to the parent stage's child accumulator.
pub struct SpanGuard {
    stage: Stage,
    parent: u8,
    start: Instant,
    active: bool,
}

/// Opens a timed span for `stage` on this thread. Inert (one relaxed
/// load, no clock read) unless span or allocation profiling is on.
#[inline]
pub fn enter(stage: Stage) -> SpanGuard {
    if !attribution_active() {
        return SpanGuard {
            stage,
            parent: NO_STAGE,
            start: Instant::now(),
            active: false,
        };
    }
    let parent = CURRENT_STAGE
        .try_with(|c| {
            let p = c.get();
            c.set(stage.index() as u8);
            p
        })
        .unwrap_or(NO_STAGE);
    SpanGuard {
        stage,
        parent,
        start: Instant::now(),
        active: true,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let elapsed = self.start.elapsed().as_nanos() as u64;
        let idx = self.stage.index();
        STATS[idx].calls.fetch_add(1, Ordering::Relaxed);
        STATS[idx].total_ns.fetch_add(elapsed, Ordering::Relaxed);
        let _ = CURRENT_STAGE.try_with(|c| c.set(self.parent));
        if self.parent != NO_STAGE {
            STATS[self.parent as usize]
                .child_ns
                .fetch_add(elapsed, Ordering::Relaxed);
        }
    }
}

/// RAII tag that sets the thread's active stage without timing it —
/// used inside parallel-region worker closures so the allocations they
/// make attribute to the orchestrating stage.
pub struct StageScope {
    prev: u8,
    active: bool,
}

/// Tags the calling thread as working for `stage` (allocation
/// attribution only; no clock reads). Inert when profiling is off.
#[inline]
pub fn stage_scope(stage: Stage) -> StageScope {
    if !attribution_active() {
        return StageScope {
            prev: NO_STAGE,
            active: false,
        };
    }
    let prev = CURRENT_STAGE
        .try_with(|c| {
            let p = c.get();
            c.set(stage.index() as u8);
            p
        })
        .unwrap_or(NO_STAGE);
    StageScope { prev, active: true }
}

impl Drop for StageScope {
    fn drop(&mut self) {
        if self.active {
            let _ = CURRENT_STAGE.try_with(|c| c.set(self.prev));
        }
    }
}

/// A point-in-time copy of the global stage table, taken with [`mark`]
/// before a run so [`collect`] can report that run's delta.
pub struct ProfileMark {
    snap: [[u64; 5]; STAGE_COUNT],
}

fn load_all() -> [[u64; 5]; STAGE_COUNT] {
    let mut out = [[0u64; 5]; STAGE_COUNT];
    for (i, cell) in STATS.iter().enumerate() {
        out[i] = [
            cell.calls.load(Ordering::Relaxed),
            cell.total_ns.load(Ordering::Relaxed),
            cell.child_ns.load(Ordering::Relaxed),
            cell.alloc_count.load(Ordering::Relaxed),
            cell.alloc_bytes.load(Ordering::Relaxed),
        ];
    }
    out
}

/// Snapshots the stage table before a run.
pub fn mark() -> ProfileMark {
    ProfileMark { snap: load_all() }
}

/// Collects the per-stage delta since `mark` into a [`HostProfile`].
/// `wall` is the run's end-to-end wall time (the coverage denominator).
pub fn collect(mark: &ProfileMark, wall: Duration) -> HostProfile {
    let now = load_all();
    let mut stages = Vec::new();
    for (i, stage) in Stage::ALL.iter().enumerate() {
        let d: Vec<u64> = (0..5)
            .map(|j| now[i][j].saturating_sub(mark.snap[i][j]))
            .collect();
        let (calls, total_ns, child_ns, alloc_count, alloc_bytes) = (d[0], d[1], d[2], d[3], d[4]);
        if calls == 0 && alloc_count == 0 {
            continue;
        }
        stages.push(HostStage {
            stage: *stage,
            calls,
            wall_us: total_ns / 1_000,
            // worker-side children can outlive the caller's wall span
            // on a multi-core host; clamp instead of wrapping
            self_us: total_ns.saturating_sub(child_ns) / 1_000,
            alloc_count,
            alloc_bytes,
        });
    }
    HostProfile {
        total_wall_us: wall.as_micros() as u64,
        alloc_profiled: crate::alloc::alloc_profiling_enabled(),
        stages,
    }
}

/// One stage's share of a run: wall time, call count, self vs. children
/// split, and (when `AURORA_ALLOC_PROFILE=1`) allocation churn.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostStage {
    pub stage: Stage,
    /// Times a span for this stage opened during the run.
    pub calls: u64,
    /// Total wall time inside this stage's spans, microseconds.
    pub wall_us: u64,
    /// Wall time minus time attributed to nested child spans.
    pub self_us: u64,
    /// Heap allocations attributed to this stage (0 unless alloc
    /// profiling was on).
    pub alloc_count: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// Host-side profile of one engine run: per-stage wall-µs breakdown
/// plus allocation attribution. Attached to `SimReport.host_profile`
/// when span profiling is on; `None` otherwise, so default-path reports
/// stay byte-identical.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostProfile {
    /// End-to-end wall time of the run, microseconds.
    pub total_wall_us: u64,
    /// Whether allocation accounting was active during the run.
    pub alloc_profiled: bool,
    /// Stages that saw activity, in canonical [`Stage::ALL`] order.
    pub stages: Vec<HostStage>,
}

impl HostProfile {
    /// The entry for `stage`, if it saw any activity.
    pub fn stage(&self, stage: Stage) -> Option<&HostStage> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// Fraction of `total_wall_us` covered by the disjoint top-level
    /// stages' wall time — a lower bound on profiler coverage (nested
    /// `Mapping` time and span-less gaps are excluded).
    pub fn coverage(&self) -> f64 {
        if self.total_wall_us == 0 {
            return 0.0;
        }
        let covered: u64 = self
            .stages
            .iter()
            .filter(|s| s.stage.is_top_level())
            .map(|s| s.wall_us)
            .sum();
        covered as f64 / self.total_wall_us as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The span tests mutate process-global profiler state; serialize
    /// them and always restore the flags.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    struct FlagRestore;
    impl Drop for FlagRestore {
        fn drop(&mut self) {
            set_span_profiling(false);
            crate::alloc::set_alloc_profiling(false);
        }
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _l = LOCK.lock().unwrap();
        let _r = FlagRestore;
        set_span_profiling(false);
        let before = mark();
        {
            let _g = enter(Stage::Partition);
            std::hint::black_box(42);
        }
        let profile = collect(&before, Duration::from_micros(10));
        assert!(profile.stage(Stage::Partition).is_none());
    }

    #[test]
    fn nested_spans_split_self_and_child_time() {
        let _l = LOCK.lock().unwrap();
        let _r = FlagRestore;
        set_span_profiling(true);
        let before = mark();
        {
            let _outer = enter(Stage::TilePrecompute);
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = enter(Stage::Mapping);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let profile = collect(&before, Duration::from_millis(5));
        let outer = profile.stage(Stage::TilePrecompute).expect("outer stage");
        let inner = profile.stage(Stage::Mapping).expect("inner stage");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert!(inner.wall_us >= 1_000, "inner slept ≥2 ms: {inner:?}");
        assert!(
            outer.wall_us >= inner.wall_us,
            "outer encloses inner: {outer:?} vs {inner:?}"
        );
        // inner's time was attributed to outer's children
        assert!(
            outer.self_us <= outer.wall_us - inner.wall_us / 2,
            "self time excludes child: {outer:?} vs inner {inner:?}"
        );
    }

    #[test]
    fn guard_restores_parent_stage_across_threads() {
        let _l = LOCK.lock().unwrap();
        let _r = FlagRestore;
        set_span_profiling(true);
        let before = mark();
        {
            let _outer = enter(Stage::EngineWalk);
            // a different thread has its own stage stack
            std::thread::spawn(|| {
                let _g = enter(Stage::Partition);
            })
            .join()
            .unwrap();
            {
                let _inner = enter(Stage::Finalize);
            }
        }
        let profile = collect(&before, Duration::from_micros(100));
        assert_eq!(profile.stage(Stage::EngineWalk).unwrap().calls, 1);
        assert_eq!(profile.stage(Stage::Partition).unwrap().calls, 1);
        assert_eq!(profile.stage(Stage::Finalize).unwrap().calls, 1);
        // the spawned thread's Partition span had no parent; EngineWalk
        // only absorbed Finalize as a child
        let walk = profile.stage(Stage::EngineWalk).unwrap();
        assert!(walk.wall_us >= profile.stage(Stage::Finalize).unwrap().wall_us);
    }

    #[test]
    fn alloc_attribution_follows_the_active_stage() {
        let _l = LOCK.lock().unwrap();
        let _r = FlagRestore;
        crate::alloc::set_alloc_profiling(true);
        let before = mark();
        {
            let _g = enter(Stage::RouteTableBuild);
            let v: Vec<u64> = Vec::with_capacity(4096);
            std::hint::black_box(&v);
        }
        let profile = collect(&before, Duration::from_micros(100));
        let stage = profile
            .stage(Stage::RouteTableBuild)
            .expect("stage with allocations");
        assert!(
            stage.alloc_count >= 1,
            "vector allocation counted: {stage:?}"
        );
        assert!(
            stage.alloc_bytes >= 4096 * 8,
            "vector bytes counted: {stage:?}"
        );
        assert!(profile.alloc_profiled);
    }

    #[test]
    fn stage_scope_tags_allocations_without_timing() {
        let _l = LOCK.lock().unwrap();
        let _r = FlagRestore;
        crate::alloc::set_alloc_profiling(true);
        let before = mark();
        {
            let _s = stage_scope(Stage::TrafficKernels);
            let v: Vec<u8> = Vec::with_capacity(1024);
            std::hint::black_box(&v);
        }
        let profile = collect(&before, Duration::from_micros(100));
        let stage = profile.stage(Stage::TrafficKernels).expect("tagged stage");
        assert_eq!(stage.calls, 0, "scopes are not timed spans");
        assert!(stage.alloc_bytes >= 1024, "{stage:?}");
    }

    #[test]
    fn coverage_counts_only_top_level_stages() {
        let p = HostProfile {
            total_wall_us: 1_000,
            alloc_profiled: false,
            stages: vec![
                HostStage {
                    stage: Stage::EngineWalk,
                    calls: 1,
                    wall_us: 600,
                    self_us: 600,
                    alloc_count: 0,
                    alloc_bytes: 0,
                },
                HostStage {
                    stage: Stage::TilePrecompute,
                    calls: 1,
                    wall_us: 350,
                    self_us: 100,
                    alloc_count: 0,
                    alloc_bytes: 0,
                },
                HostStage {
                    stage: Stage::Mapping,
                    calls: 8,
                    wall_us: 900, // worker CPU time, ignored by coverage
                    self_us: 900,
                    alloc_count: 0,
                    alloc_bytes: 0,
                },
            ],
        };
        assert!((p.coverage() - 0.95).abs() < 1e-9);
    }

    #[test]
    fn profile_round_trips_through_serde() {
        let p = HostProfile {
            total_wall_us: 123,
            alloc_profiled: true,
            stages: vec![HostStage {
                stage: Stage::GraphLoad,
                calls: 2,
                wall_us: 50,
                self_us: 40,
                alloc_count: 7,
                alloc_bytes: 512,
            }],
        };
        let v = serde::Serialize::to_value(&p);
        let back: HostProfile = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn stage_table_is_complete() {
        assert_eq!(Stage::ALL.len(), STAGE_COUNT);
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i, "ALL order matches discriminants");
        }
        let labels: std::collections::BTreeSet<_> = Stage::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), STAGE_COUNT, "labels are distinct");
    }
}
