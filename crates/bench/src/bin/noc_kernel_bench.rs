//! Old-vs-new timing for the aggregation-traffic estimator.
//!
//! ```text
//! noc_kernel_bench [--reps N] [--quick]
//! ```
//!
//! Times the seed's O(E·hops) per-edge route walker (inlined below —
//! the library keeps it only as a `#[cfg(test)]` oracle) against the
//! shipped O(E + k³) route-leg kernel (leg build included) on R-MAT
//! graphs: plain meshes at the k=8 sub-array radix, and the paper's k=32
//! with the multi-segment bypass plan the engine would configure. Prints
//! the speedup per workload. Every timed pair is also checked for
//! bit-identical estimates, so the bench doubles as an end-to-end
//! equivalence test over full-size graphs.
//!
//! Wall-clock only — simulated cycles are identical by construction.
//! `scripts/check.sh` runs this with `--quick` as an informational
//! step; it never gates.

use aurora_bench::cli::{fail, Args};
use aurora_bench::emit::{Cell, Table};
use aurora_core::noc_model::{aggregation_traffic, OnChipEstimate, DEFAULT_LINK_UTILISATION};
use aurora_graph::generate;
use aurora_mapping::plan::{plan_bypass, SegmentPlan};
use aurora_mapping::{degree_aware, VertexMapping};
use aurora_noc::routing::{compute_route, next_node};
use aurora_noc::{BypassSegment, NocConfig, NocError, Port, TopologyMode};
use std::time::Instant;

/// The seed's estimator: walk every edge's route hop by hop. Kept here
/// verbatim (plus the `finalize` folding it shares with the kernel) so
/// the bench measures the real replaced code path, not a strawman.
fn legacy_aggregation_traffic(
    cfg: &NocConfig,
    mapping: &VertexMapping,
    edges: impl Iterator<Item = (u32, u32)>,
    msg_words: usize,
    link_utilisation: f64,
) -> Result<OnChipEstimate, NocError> {
    let k = cfg.k;
    let flits_per_msg = msg_words.div_ceil(cfg.words_per_flit).max(1) as u64;
    let mut load = vec![0u64; k * k];
    let mut eject = vec![0u64; k * k];
    let mut flit_hops = 0u64;
    let mut bypass_hops = 0u64;
    let mut messages = 0u64;
    let mut total_hops = 0u64;

    for (u, v) in edges {
        if !mapping.range.contains(&u) {
            continue;
        }
        let src = mapping.pe_of(u);
        let dst = if mapping.range.contains(&v) {
            mapping.pe_of(v)
        } else {
            src % k
        };
        messages += 1;
        let mut cur = src;
        let mut guard = 0;
        while cur != dst {
            let port = compute_route(cfg, cur, dst)?;
            load[cur] += flits_per_msg;
            flit_hops += flits_per_msg;
            total_hops += 1;
            if matches!(port, Port::BypassH | Port::BypassV) {
                bypass_hops += flits_per_msg;
            }
            cur = next_node(cfg, cur, port)?.ok_or(NocError::RoutingLivelock { src, dst })?;
            guard += 1;
            if guard > 4 * k * k {
                return Err(NocError::RoutingLivelock { src, dst });
            }
        }
        eject[cur] += flits_per_msg;
    }

    for (node, e) in eject.iter().enumerate() {
        let width =
            1 + (cfg.h_bypass_peer(node).is_some() || cfg.v_bypass_peer(node).is_some()) as u64;
        load[node] += e.div_ceil(width.max(1));
    }

    if messages == 0 {
        return Ok(OnChipEstimate::default());
    }
    let (hot_router, max_router_load) = load
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(i, l)| (Some(i), l))
        .unwrap_or((None, 0));
    let kk = cfg.k as u64;
    let links = 4 * kk * (kk - 1)
        + 2 * (cfg.row_bypass.len() + cfg.col_bypass.len()) as u64
        + if cfg.mode == TopologyMode::Rings {
            kk
        } else {
            0
        };
    let bandwidth_bound = (flit_hops as f64 / (links as f64 * link_utilisation)).ceil() as u64;
    let avg_hops = total_hops as f64 / messages as f64;
    let cycles = bandwidth_bound.max(max_router_load) + avg_hops.ceil() as u64 + flits_per_msg;
    Ok(OnChipEstimate {
        cycles,
        flit_hops,
        messages,
        avg_hops,
        max_router_load,
        hot_router,
        bypass_hops,
    })
}

/// Best-of-`reps` wall time of `f`, in milliseconds.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    (best, last.expect("reps >= 1"))
}

fn main() {
    let mut reps = 10usize;
    let mut args = Args::from_env();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--reps" => reps = args.parse("--reps"),
            "--quick" => reps = 3,
            other => fail(&format!("unknown flag {other}")),
        }
    }
    let reps = reps.max(1);

    let msg_words = 16;
    let graphs = [
        (
            "rmat-4k",
            generate::rmat(4_096, 40_000, Default::default(), 7),
        ),
        (
            "rmat-16k",
            generate::rmat(16_384, 160_000, Default::default(), 9),
        ),
    ];
    // (graph, radix, bypass plan?)
    let rows = [(0, 8, false), (1, 8, false), (1, 32, true)];

    let mut t = Table::new(format!(
        "noc_kernel_bench — {msg_words}-word messages, best of {reps}"
    ))
    .columns(&[
        "workload",
        "k",
        "bypass segs",
        "edges",
        "walker ms",
        "kernel ms",
        "speedup",
    ]);

    for (gi, k, bypass) in rows {
        let (name, g) = &graphs[gi];
        // One tile spanning the whole graph: worst case for the walker
        // (every edge routed), steady state for the kernel.
        let n = g.num_vertices();
        let c_pe = n.div_ceil(k * k);
        let mapping = degree_aware::map(0..n as u32, &g.degrees(), k, c_pe);
        let cfg = if bypass {
            let plan = plan_bypass(&mapping, g.edges());
            let seg = |s: &SegmentPlan| BypassSegment {
                index: s.index,
                from: s.from,
                to: s.to,
            };
            NocConfig::with_bypass(
                k,
                plan.rows.iter().map(seg).collect(),
                plan.cols.iter().map(seg).collect(),
            )
        } else {
            NocConfig::mesh(k)
        };

        let (walker_ms, walker) = time_ms(reps, || {
            legacy_aggregation_traffic(
                &cfg,
                &mapping,
                g.edges(),
                msg_words,
                DEFAULT_LINK_UTILISATION,
            )
            .expect("valid config routes every pair")
        });
        let (kernel_ms, kernel) = time_ms(reps, || {
            aggregation_traffic(
                &cfg,
                &mapping,
                g.edges(),
                msg_words,
                DEFAULT_LINK_UTILISATION,
            )
            .expect("valid config routes every pair")
        });
        assert_eq!(kernel, walker, "{name} k={k}: kernel must match the walker");

        t.row(vec![
            Cell::Str((*name).to_string()),
            Cell::UInt(k as u64),
            Cell::UInt((cfg.row_bypass.len() + cfg.col_bypass.len()) as u64),
            Cell::UInt(g.num_edges() as u64),
            Cell::float(walker_ms, 2),
            Cell::float(kernel_ms, 2),
            Cell::ratio(walker_ms / kernel_ms, 1),
        ]);
    }
    t.note("estimates asserted bit-identical; wall-clock only, cycles unchanged by construction");
    t.print();
}
