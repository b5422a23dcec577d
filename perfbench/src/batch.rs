//! The batch workloads, `paper-k32` and `reddit-k32`: one closed loop,
//! one `AuroraSimulator::run` call at a time, in this process.
//!
//! A run replays a fixed number of passes. Every request is a
//! `GraphSpec::Dataset` request, so graph synthesis is part of what is
//! timed. Set-up is a fresh engine pool plus one untimed warm-up
//! request, repeated [`SETUP_REPS`] times.

use crate::check::{fingerprint, Golden, Tally};
use crate::outcome::{peak_rss_mb, Outcome};
use crate::spec::{self, Rng, SETUP_REPS, THREADS};
use crate::stats;
use crate::trace::Tracer;
use aurora_core::{metric_names, span, AuroraSimulator, HostProfile, SimRequest, Stage, Telemetry};
use aurora_telemetry::alloc::set_alloc_profiling;
use rayon::pool::ThreadPool;
use std::time::Instant;

/// Largest share of the run wall by which the per-layer split may miss
/// it.
pub const SPLIT_TOLERANCE: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    Paper,
    Reddit,
}

/// The request sequence of one run: `passes` passes, each the suite in
/// a seeded order.
pub fn passes(w: Batch, seed: u64, seconds: u64) -> Vec<Vec<SimRequest>> {
    let mut rng = Rng::new(seed ^ 0x7061_7373);
    match w {
        Batch::Paper => (0..spec::ops_for(spec::PAPER_PASSES, seconds, 1))
            .map(|_| {
                let mut suite: Vec<SimRequest> = spec::PAPER_SUITE
                    .iter()
                    .map(|&d| spec::dataset_request(d))
                    .collect();
                rng.shuffle(&mut suite);
                suite
            })
            .collect(),
        Batch::Reddit => (0..spec::ops_for(spec::REDDIT_REQUESTS, seconds, 1))
            .map(|_| vec![spec::dataset_request(spec::REDDIT)])
            .collect(),
    }
}

/// One timed replay of the passes.
struct Phase {
    /// Wall of each pass, seconds (the sum of its `run` calls).
    pass_s: Vec<f64>,
    /// Host profiles of every run (traced phase only).
    profiles: Vec<HostProfile>,
    /// Wall of every `run` call, seconds.
    run_s: Vec<f64>,
    /// Engine pool busy and idle µs over the phase.
    busy_us: u64,
    idle_us: u64,
}

impl Phase {
    fn sims(&self) -> usize {
        self.run_s.len()
    }

    fn sims_per_s(&self) -> f64 {
        sims_per_s(&self.run_s)
    }
}

/// Simulations per host second over whole passes, from the wall of
/// every `run` call. The passes mix requests of very different sizes,
/// so they are summarised as a throughput, never a per-request median.
pub fn sims_per_s(run_s: &[f64]) -> f64 {
    stats::throughput(run_s.len(), run_s.iter().sum())
}

fn pool_busy_idle(pool: &ThreadPool) -> (u64, u64) {
    let t = pool.stats().totals();
    (t.busy_us, t.idle_us)
}

/// Replays `passes` on `pool`, checking every report against the
/// committed fingerprints outside the timed windows.
fn replay(
    pool: &ThreadPool,
    passes: &[Vec<SimRequest>],
    golden: &Golden,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Phase {
    // `run` simulates each request's own configuration
    let sim = AuroraSimulator::paper();
    let (busy0, idle0) = pool_busy_idle(pool);
    let mut phase = Phase {
        pass_s: Vec::new(),
        profiles: Vec::new(),
        run_s: Vec::new(),
        busy_us: 0,
        idle_us: 0,
    };
    let mut op = 0u64;
    for (p, pass) in passes.iter().enumerate() {
        tracer.enter("pass", p as u64 + 1);
        let mut pass_s = 0.0;
        for req in pass {
            op += 1;
            tracer.enter("run", op);
            let t = Instant::now();
            let result = pool.install(|| sim.run(req));
            let dur = t.elapsed().as_secs_f64();
            if let Some(hp) = result.as_ref().ok().and_then(|r| r.host_profile.as_ref()) {
                for s in &hp.stages {
                    tracer.attr(format!("{}.self_us", s.stage.label()), s.self_us as f64);
                    tracer.attr(format!("{}.wall_us", s.stage.label()), s.wall_us as f64);
                }
                phase.profiles.push(hp.clone());
            }
            tracer.exit();
            pass_s += dur;
            phase.run_s.push(dur);
            match result {
                Ok(report) => tally.expect(golden, &req.digest(), &fingerprint(&report)),
                Err(e) => tally.record(false, || format!("{}: {e}", req.workload_label())),
            }
        }
        tracer.exit();
        phase.pass_s.push(pass_s);
    }
    let (busy1, idle1) = pool_busy_idle(pool);
    phase.busy_us = busy1 - busy0;
    phase.idle_us = idle1 - idle0;
    phase
}

/// Set-up, repeated: a fresh pool and one warm-up request each time.
/// Returns the set-up times and the last pool, which the timed phase
/// uses.
fn set_up(golden: &Golden, tally: &mut Tally, tracer: &mut Tracer) -> (Vec<f64>, ThreadPool) {
    let warmup = spec::dataset_request(spec::WARMUP);
    let sim = AuroraSimulator::new(warmup.config);
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let pool = ThreadPool::new(THREADS);
        let result = tracer.span("warmup", 0, || pool.install(|| sim.run(&warmup)));
        times.push(t.elapsed().as_secs_f64());
        match result {
            Ok(report) => tally.expect(golden, &warmup.digest(), &fingerprint(&report)),
            Err(e) => tally.record(false, || format!("warm-up: {e}")),
        }
        last = Some(pool);
    }
    (times, last.expect("at least one set-up"))
}

/// Fills the end-to-end metrics of a batch run from its untimed phase.
fn end_to_end(out: &mut Outcome, setup: &[f64], phase: &Phase, sims_per_pass: usize) {
    let ms: Vec<f64> = phase.pass_s.iter().map(|s| s * 1e3).collect();
    let n = ms.len();
    let max = ms.iter().cloned().fold(f64::MIN, f64::max);
    let tail = |want: f64| match stats::tail(&ms, want) {
        Some(p) => (p.value, format!("p{:.0} of pass wall", p.q * 100.0)),
        None => (max, "max of pass wall (fewer than 11 passes)".to_string()),
    };
    out.set(
        "setup_s",
        stats::median(setup),
        setup.len(),
        "median of fresh pool + warm-up request",
    );
    let sims_per_s = phase.sims_per_s();
    out.set(
        "sims_per_s",
        sims_per_s,
        phase.sims(),
        format!("{sims_per_pass} sims/pass, whole passes"),
    );
    out.set("ops_per_s", sims_per_s, phase.sims(), "every op is one sim");
    out.set("peak_rss_mb", peak_rss_mb(None), 1, "VmHWM of this process");
    let p50 = stats::median(&ms);
    out.set("req_ms_p50", p50, n, "median pass wall");
    let (p99, how99) = tail(0.99);
    out.set("req_ms_p99", p99, n, how99);
    out.set("delta_ms_p50", p50, n, "no session: pass wall stands in");
    let (p90, how90) = tail(0.90);
    out.set("delta_ms_p90", p90, n, how90);
}

/// Stage totals over a set of host profiles, µs.
#[derive(Default)]
struct StageSums {
    self_us: [u64; span::STAGE_COUNT],
    wall_us: [u64; span::STAGE_COUNT],
    alloc_bytes: [u64; span::STAGE_COUNT],
}

impl StageSums {
    fn of(profiles: &[HostProfile]) -> Self {
        let mut s = StageSums::default();
        for hp in profiles {
            for st in &hp.stages {
                let i = st.stage as usize;
                s.self_us[i] += st.self_us;
                s.wall_us[i] += st.wall_us;
                s.alloc_bytes[i] += st.alloc_bytes;
            }
        }
        s
    }

    fn self_ms(&self, st: Stage) -> f64 {
        self.self_us[st as usize] as f64 / 1e3
    }

    fn top_level_wall_ms(&self) -> f64 {
        Stage::ALL
            .iter()
            .filter(|s| s.is_top_level())
            .map(|&s| self.wall_us[s as usize] as f64 / 1e3)
            .sum()
    }

    fn alloc_mb(&self, st: Stage) -> f64 {
        self.alloc_bytes[st as usize] as f64 / (1024.0 * 1024.0)
    }
}

/// Route tables built per pass, counted on an enabled telemetry handle
/// in one untimed replay of a pass.
fn route_tables_per_pass(
    pool: &ThreadPool,
    pass: &[SimRequest],
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> u64 {
    let mut tables = 0;
    for (op, req) in pass.iter().enumerate() {
        let sim = AuroraSimulator::new(req.config).with_telemetry(Telemetry::enabled());
        match tracer.span("count", op as u64, || pool.install(|| sim.run(req))) {
            Ok(r) => {
                tally.record(true, String::new);
                tables += r
                    .metrics
                    .counter_total(metric_names::NOC_ROUTE_TABLE_BUILDS);
            }
            Err(e) => tally.record(false, || format!("{}: {e}", req.workload_label())),
        }
    }
    tables
}

/// Runs a batch workload. With `traced`, the untimed phase is followed
/// by a second, profiled replay that gives the per-layer split.
pub fn run(w: Batch, seed: u64, seconds: u64, traced: bool, tracer: &mut Tracer) -> Outcome {
    let golden = Golden::committed();
    let passes = passes(w, seed, seconds);
    let mut out = Outcome::default();
    let (setup, pool) = set_up(&golden, &mut out.tally, tracer);
    let mut quiet = Tracer::new(false, Instant::now());
    let plain = replay(&pool, &passes, &golden, &mut out.tally, &mut quiet);
    end_to_end(&mut out, &setup, &plain, passes[0].len());
    if !traced {
        return out;
    }

    span::set_span_profiling(true);
    set_alloc_profiling(true);
    let profiled = replay(&pool, &passes, &golden, &mut out.tally, tracer);
    span::set_span_profiling(false);
    set_alloc_profiling(false);
    let sims = profiled.sims() as f64;
    let sums = StageSums::of(&profiled.profiles);
    let (run_wall_us, runs) = tracer.total_us("run");
    let run_wall_ms = run_wall_us / 1e3;
    let per = |ms: f64| ms / sims;
    let n = profiled.sims();
    let layer = |out: &mut Outcome, name, st: Stage| {
        out.set(
            name,
            per(sums.self_ms(st)),
            n,
            format!("{} self", st.label()),
        )
    };
    layer(&mut out, "graph.load_ms", Stage::GraphLoad);
    layer(&mut out, "mapping.ms", Stage::Mapping);
    layer(&mut out, "noc.route_table_ms", Stage::RouteTableBuild);
    layer(&mut out, "noc.traffic_ms", Stage::TrafficKernels);
    layer(&mut out, "core.precompute_ms", Stage::TilePrecompute);
    layer(&mut out, "core.walk_ms", Stage::EngineWalk);
    layer(&mut out, "core.finalize_ms", Stage::Finalize);
    out.set(
        "partition.ms",
        per(sums.self_ms(Stage::Workflow) + sums.self_ms(Stage::Partition)),
        n,
        "workflow + partition self",
    );
    let unprofiled = run_wall_ms - sums.top_level_wall_ms();
    out.set(
        "core.unprofiled_ms",
        per(unprofiled),
        n,
        "run span wall minus top-level stage wall",
    );
    // The split must account for the run wall: every stage's self time
    // plus the unprofiled rest. Worker-side mapping time overlapping
    // the caller's precompute is the only legitimate excess.
    let self_sum: f64 = Stage::ALL.iter().map(|&s| sums.self_ms(s)).sum();
    let residual = (self_sum + unprofiled - run_wall_ms) / run_wall_ms;
    let ok = runs == n && residual.abs() <= SPLIT_TOLERANCE;
    out.tally.record(ok, || {
        format!(
            "layer split covers {:.2}% of run wall",
            100.0 * (1.0 + residual)
        )
    });
    out.set(
        "graph.alloc_mb",
        per(sums.alloc_mb(Stage::GraphLoad)),
        n,
        "graph_load bytes allocated",
    );
    out.set(
        "noc.alloc_mb",
        per(sums.alloc_mb(Stage::RouteTableBuild) + sums.alloc_mb(Stage::TrafficKernels)),
        n,
        "route_table_build + traffic_kernels bytes allocated",
    );
    out.set(
        "pool.busy_frac",
        profiled.busy_us as f64 / (profiled.busy_us + profiled.idle_us).max(1) as f64,
        n,
        "engine pool busy / (busy + idle)",
    );
    let tables = route_tables_per_pass(&pool, &passes[0], &mut out.tally, tracer);
    out.set(
        "noc.route_tables",
        tables as f64 / passes[0].len() as f64,
        passes[0].len(),
        "noc.route_table.builds per sim",
    );
    out.set(
        "trace.overhead_frac",
        1.0 - profiled.sims_per_s() / plain.sims_per_s(),
        n,
        "sims_per_s lost to tracing",
    );
    out
}
