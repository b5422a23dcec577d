//! Pinned route-config and profile-cache counters.
//!
//! The engine counts one `noc.route_table.builds` (with k⁴
//! `noc.route_table.pairs`) per distinct NoC configuration it meets,
//! flushing its config interner and profile cache wholesale after 64
//! distinct configurations, and one profile hit or miss per tile. Those
//! counters are part of every report, so they must not move when the
//! route kernels behind them change. The golden counters below were
//! captured from the dense route-table engine (one k⁴ table per
//! configuration). Both runs meet more than 64 distinct per-tile bypass
//! plans, so both exercise the flush.

use aurora_core::{
    metric_names, AcceleratorConfig, AuroraSimulator, SimReport, SimRequest, Telemetry,
};
use aurora_graph::generate;
use aurora_mapping::MappingPolicy;
use aurora_model::{LayerShape, ModelId};

/// `(route_table_builds, noc.route_table.pairs, tile_profile_hits,
/// tile_profile_misses)` of one run.
type Counters = (u64, u64, u64, u64);

/// A GCN run over R-MAT 8192 v / 80 000 e at k = 8, one layer per input
/// width. A repeated width revisits an earlier tiling (profile hits
/// unless flushed since); a new width re-maps every tile (new plans).
fn run(policy: MappingPolicy, seed: u64, widths: &[usize]) -> SimReport {
    let g = generate::rmat(8_192, 80_000, Default::default(), seed);
    let shapes: Vec<LayerShape> = widths.iter().map(|&w| LayerShape::new(w, 64)).collect();
    let config = AcceleratorConfig {
        mapping_policy: policy,
        ..AcceleratorConfig::small(8)
    };
    let req = SimRequest::builder(ModelId::Gcn)
        .config(config)
        .inline_graph(g)
        .layers(&shapes)
        .workload("rmat-8k")
        .build()
        .expect("valid request");
    AuroraSimulator::new(config)
        .with_telemetry(Telemetry::enabled())
        .run(&req)
        .expect("run succeeds")
}

fn counters(r: &SimReport) -> Counters {
    let p = &r.profile;
    let m = &r.metrics;
    assert_eq!(
        m.counter_total(metric_names::NOC_ROUTE_TABLE_BUILDS),
        p.route_table_builds
    );
    assert_eq!(
        m.counter_total(metric_names::NOC_TILE_PROFILE_HITS),
        p.tile_profile_hits
    );
    assert_eq!(
        m.counter_total(metric_names::NOC_TILE_PROFILE_MISSES),
        p.tile_profile_misses
    );
    (
        p.route_table_builds,
        m.counter_total(metric_names::NOC_ROUTE_TABLE_PAIRS),
        p.tile_profile_hits,
        p.tile_profile_misses,
    )
}

/// The first three layers meet exactly 64 configurations, so the flush
/// fires on the first tile of layer 3; the last layer hits the profiles
/// layer 3 cached after the flush. Counters and cycles are the dense
/// engine's.
#[test]
fn flush_at_layer_start_matches_golden() {
    let r = run(
        MappingPolicy::Hashing,
        1,
        &[512, 896, 2048, 1024, 512, 1024],
    );
    assert_eq!(counters(&r), (95, 95 * 4096, 21, 102));
    assert_eq!(r.total_cycles, 58_979_270);
}

/// Here the 65th configuration first appears on tile 1 of layer 3, after
/// tile 0 already missed. Counters and cycles are the dense engine's, but
/// its layer-3 traffic was not: it binned tile 0 over the table of
/// whichever configuration took tile 0's stale id after the flush (the
/// run's total cycles happened not to move). Every
/// tile must be routed over its own configuration, so the flushed layer's
/// traffic equals a cold run of that layer alone.
#[test]
fn mid_layer_flush_counts_match_golden_and_routes_each_tile_by_its_config() {
    let r = run(
        MappingPolicy::DegreeAware,
        11,
        &[640, 896, 2048, 1024, 640, 1024],
    );
    assert_eq!(counters(&r), (96, 96 * 4096, 20, 107));
    let cold = run(MappingPolicy::DegreeAware, 11, &[1024]);
    assert_eq!(r.layers[3].noc, cold.layers[0].noc);
    assert_eq!(r.total_cycles, 59_561_695);
}
