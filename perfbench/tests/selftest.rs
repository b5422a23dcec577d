//! Self-tests of the benchmark's own machinery: the percentile rule,
//! failure accounting, mixed-stream summaries, seeded inputs, and the
//! agreement between the metric names printed and `BENCHMARK.json`.

use aurora_core::{AcceleratorConfig, AuroraSimulator, SimRequest};
use aurora_model::{LayerShape, ModelId};
use perfbench::batch;
use perfbench::check::{fingerprint, Golden, Tally};
use perfbench::outcome::{END_TO_END, PER_LAYER};
use perfbench::spec;
use perfbench::stats::{self, TAIL_MIN_BEYOND};
use perfbench::stream::{DeltaStream, Schedule};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    let p = stats::tail(&ramp(1000), 0.99).expect("1,000 samples carry a p99");
    assert_eq!((p.n, p.beyond, p.value), (1000, 10, 990.0));
    assert!(
        stats::tail(&ramp(999), 0.99).is_none(),
        "nine beyond is too few"
    );
    assert!(stats::tail(&ramp(10), 0.5).is_none());
}

#[test]
fn a_tail_is_reported_with_its_sample_count() {
    let p = stats::tail(&ramp(100), 0.90).expect("100 samples carry a p90");
    assert_eq!((p.q, p.n, p.beyond), (0.90, 100, 10));
    assert!(p.beyond >= TAIL_MIN_BEYOND);
    assert!(
        stats::tail(&ramp(100), 0.91).is_none(),
        "p91 of 100 has 9 beyond"
    );
}

#[test]
fn median_of_even_and_odd_counts() {
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(stats::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn a_mixed_stream_is_reported_as_a_throughput() {
    // one pass of four unlike requests: two fast, two slow
    let pass = [0.1, 0.2, 1.0, 2.0];
    let runs: Vec<f64> = pass.iter().cycle().take(4 * 8).copied().collect();
    let rate = batch::sims_per_s(&runs);
    assert!((rate - 32.0 / (8.0 * 3.3)).abs() < 1e-9);
    // the per-request median sits on the boundary between the kinds:
    // it moves when the fast kind changes even if the work does not
    let median = stats::median(&runs);
    assert!(
        median > 0.2 && median < 1.0,
        "median {median} falls between kinds"
    );
    // a slower slow request moves the throughput every time
    let slower: Vec<f64> = runs
        .iter()
        .map(|&s| if s == 2.0 { 2.2 } else { s })
        .collect();
    assert!(batch::sims_per_s(&slower) < rate);
    assert_eq!(stats::median(&slower), median, "the median cannot see it");
}

fn tiny_report() -> (SimRequest, aurora_core::SimReport) {
    let req = SimRequest::builder(ModelId::Gcn)
        .config(AcceleratorConfig::small(2))
        .graph(aurora_core::GraphSpec::Ring { vertices: 32 })
        .layer(LayerShape::new(8, 4))
        .build()
        .expect("valid request");
    let report = AuroraSimulator::new(req.config).run(&req).expect("runs");
    (req, report)
}

#[test]
fn a_forged_report_counts_as_failed() {
    let (req, report) = tiny_report();
    let mut golden = Golden::default();
    golden.entries.insert(req.digest(), fingerprint(&report));

    let mut tally = Tally::default();
    tally.expect(&golden, &req.digest(), &fingerprint(&report));
    assert!(tally.correct());

    let mut forged = report.clone();
    forged.total_cycles += 1;
    tally.expect(&golden, &req.digest(), &fingerprint(&forged));
    let mut forged = report;
    forged.workload.push('x');
    tally.expect(&golden, &req.digest(), &fingerprint(&forged));
    tally.expect(&golden, "no-such-request", &fingerprint(&forged));
    assert_eq!((tally.attempted, tally.failed), (4, 3));
    assert!(!tally.correct());
    assert!(tally.first_failure.is_some());
}

#[test]
fn host_profile_does_not_change_a_fingerprint() {
    let (_, report) = tiny_report();
    let mut profiled = report.clone();
    profiled.host_profile = Some(aurora_core::HostProfile {
        total_wall_us: 1,
        alloc_profiled: false,
        stages: Vec::new(),
    });
    assert_eq!(fingerprint(&report), fingerprint(&profiled));
}

#[test]
fn the_schedule_fixes_the_hit_share() {
    let n = spec::DELTAS * spec::ONESHOTS_PER_DELTA;
    let a = Schedule::new(3, n);
    assert_eq!(a.ops.len(), n);
    assert_eq!(a.hits(), (n as f64 * spec::HIT_SHARE).round() as usize);
    assert!(!a.repeat[0]);
    // a repeat names a request issued earlier; a miss names a new one
    let mut seen = std::collections::HashSet::new();
    for (u, r) in a.ops.iter().zip(&a.repeat) {
        assert_eq!(*r, !seen.insert(*u));
    }
    let b = Schedule::new(3, n);
    assert_eq!(a.ops, b.ops, "same seed, same schedule");
    assert_ne!(a.ops, Schedule::new(4, n).ops);
}

#[test]
fn the_delta_stream_is_seeded_and_small() {
    let a = DeltaStream::new(5, 4);
    let b = DeltaStream::new(5, 4);
    assert_eq!(a.heads, b.heads);
    assert_ne!(a.heads, DeltaStream::new(6, 4).heads);
    let edges = a.base.graph.resolve().expect("resolves").num_edges();
    for d in &a.deltas {
        let edits = d.insert_edges.len() + d.remove_edges.len();
        assert!(
            edits > 0 && edits * 400 <= edges,
            "{edits} edits of {edges} edges"
        );
    }
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let doc: serde_json::Value =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("parses");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_seq())
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .expect("field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(END_TO_END));
    assert_eq!(names("per_layer"), own(PER_LAYER));
}

#[test]
fn committed_fingerprints_cover_every_request() {
    let golden = Golden::committed();
    for &d in spec::PAPER_SUITE
        .iter()
        .chain([&spec::REDDIT, &spec::WARMUP])
    {
        assert!(golden.get(&spec::dataset_request(d).digest()).is_some());
    }
    for u in [0, spec::ONESHOT_UNIVERSE - 1] {
        assert!(golden.get(&spec::oneshot_request(u).digest()).is_some());
    }
    for seed in [spec::DEFAULT_SEED, spec::HELD_OUT_SEED] {
        let key = format!("{}:{}", Golden::session_key(seed), spec::DELTAS);
        assert!(golden.get(&key).is_some(), "{key}");
    }
}
