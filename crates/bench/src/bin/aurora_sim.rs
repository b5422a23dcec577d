//! Command-line simulator driver.
//!
//! ```text
//! aurora_sim [--dataset cora|citeseer|pubmed|nell|reddit] [--scale N]
//!            [--model gcn|gin|sage-mean|sage-pool|commnet|attention|agnn|
//!                     ggcn|edgeconv1|edgeconv5]
//!            [--hidden N] [--k N] [--hashing] [--no-flex-noc]
//!            [--no-partition] [--baseline hygcn|awb|gcnax|regnn|flowgnn]
//!            [--request FILE] [--threads N]
//!            [--json] [--trace out.json] [--metrics out.json]
//!            [--profile out.json] [--host-profile]
//! ```
//!
//! `--request FILE` bypasses the dataset/model flags entirely: the file
//! holds one `SimRequest` JSON document (or an array of them) in the
//! daemon's wire schema, and each request runs through the canonical
//! `AuroraSimulator::run` entry — the same file can be replayed against
//! a live `aurora_serve` daemon with `serve_bench --request`.
//!
//! `--trace` writes a Chrome trace-event JSON timeline (simulated
//! cycles; load it in Perfetto or `chrome://tracing`) with one track per
//! sub-accelerator plus NoC, DRAM and tile-pipeline tracks. `--metrics`
//! writes the full metrics snapshot (counters / gauges / histograms with
//! model/layer/tile/phase scopes). Both only cover the Aurora engine —
//! the baseline cost models are not instrumented.
//!
//! `--profile` writes the bottleneck-attribution profile (per-tile bound
//! taxonomy, per-layer utilisation, roofline operational intensity) as
//! JSON and prints its human-readable tables; also Aurora-only.
//!
//! `--host-profile` turns on the host-side span profiler: the report
//! gains a per-stage wall-clock breakdown (graph load, partition,
//! mapping, route-leg build, tile precompute, traffic kernels, engine
//! walk), printed as a table after the run and carried in the JSON
//! form. With `AURORA_ALLOC_PROFILE=1` each stage also shows its heap
//! allocation count and bytes. Aurora-only, like the other probes.
//!
//! Example: `cargo run --release -p aurora-bench --bin aurora_sim -- \
//!           --dataset pubmed --model gcn --k 32 --trace trace.json`

use aurora_baselines::{BaselineKind, BaselineParams};
use aurora_bench::cli::{self, Args, CommonFlags};
use aurora_bench::protocol::shapes_for;
use aurora_core::{AcceleratorConfig, AuroraSimulator, SimReport, SimRequest};
use aurora_graph::Dataset;
use aurora_mapping::MappingPolicy;
use aurora_model::ModelId;

fn print_report(r: &SimReport, json: bool) {
    if json {
        println!("{}", serde_json::to_string_pretty(r).expect("serialize"));
        return;
    }
    if let Some(hp) = &r.host_profile {
        aurora_bench::host_fmt::print(hp);
    }
    println!("=== {} on {} ({}) ===", r.accelerator, r.workload, r.model);
    println!("cycles:       {}", r.total_cycles);
    println!("time:         {:.3} ms", r.seconds() * 1e3);
    println!(
        "DRAM:         {:.2} MB ({} accesses)",
        r.dram.total_bytes() as f64 / 1e6,
        r.dram_accesses()
    );
    println!("NoC cycles:   {}", r.noc_cycles());
    println!("energy:       {:.3} mJ", r.energy_joules() * 1e3);
    for l in &r.layers {
        println!(
            "  layer {}: {} cycles (compute {}, noc {}, dram {}), A/B = {}/{}, {} tiles",
            l.layer,
            l.total_cycles,
            l.compute_cycles,
            l.noc.cycles,
            l.dram_cycles,
            l.partition.a,
            l.partition.b,
            l.tiles
        );
    }
}

fn main() {
    let mut dataset = Dataset::Cora;
    let mut scale = 1usize;
    let mut model = ModelId::Gcn;
    let mut hidden = 16usize;
    let mut k = 32usize;
    let mut policy = MappingPolicy::DegreeAware;
    let mut flex = true;
    let mut dyn_part = true;
    let mut baseline: Option<BaselineKind> = None;
    let mut request_path: Option<String> = None;
    let mut flags = CommonFlags::default();

    let mut args = Args::from_env();
    while let Some(arg) = args.next() {
        if flags.consume(&mut args, &arg) {
            continue;
        }
        match arg.as_str() {
            "--dataset" => {
                dataset = cli::parse_dataset(&args.value("--dataset"))
                    .unwrap_or_else(|| cli::fail("unknown dataset"));
            }
            "--scale" => scale = args.parse("--scale"),
            "--model" => {
                model = cli::parse_model(&args.value("--model"))
                    .unwrap_or_else(|| cli::fail("unknown model"));
            }
            "--hidden" => hidden = args.parse("--hidden"),
            "--k" => k = args.parse("--k"),
            "--baseline" => {
                baseline = Some(
                    cli::parse_baseline(&args.value("--baseline"))
                        .unwrap_or_else(|| cli::fail("unknown baseline")),
                );
            }
            "--request" => request_path = Some(args.value("--request")),
            "--hashing" => policy = MappingPolicy::Hashing,
            "--no-flex-noc" => flex = false,
            "--no-partition" => dyn_part = false,
            other => cli::fail(&format!("unknown flag {other}")),
        }
    }

    let telemetry = flags.telemetry();
    if (flags.observing() || flags.profile.is_some() || flags.host_profile) && baseline.is_some() {
        eprintln!(
            "note: --trace/--metrics/--profile/--host-profile only instrument the Aurora \
             engine, not baselines"
        );
    }

    // Request-file mode: replay the daemon's wire-format documents
    // through the canonical `run` entry; each request carries its own
    // config, graph spec and options.
    if let Some(path) = &request_path {
        if baseline.is_some() {
            cli::fail("--request drives the Aurora engine; it cannot be combined with --baseline");
        }
        let requests = cli::load_requests(path);
        let sim =
            AuroraSimulator::new(AcceleratorConfig::default()).with_telemetry(telemetry.clone());
        let mut last = None;
        for req in &requests {
            eprintln!(
                "request: {} ({}, digest {})",
                req.workload_label(),
                req.model.name(),
                req.digest()
            );
            let report = sim
                .run(req)
                .unwrap_or_else(|e| cli::fail(&format!("simulation failed: {e}")));
            print_report(&report, flags.json);
            last = Some(report);
        }
        flags.write_outputs(
            &telemetry,
            &last.expect("load_requests rejects empty input"),
        );
        return;
    }

    let spec = dataset.spec().scaled(scale);
    let shapes = shapes_for(&spec, hidden);
    eprintln!(
        "workload: {} (scale 1/{scale}): {} vertices, ~{} edges, {} features",
        dataset.name(),
        spec.vertices,
        spec.edges,
        spec.feature_dim
    );

    let report = match baseline {
        Some(b) => {
            if !b.build(BaselineParams::default()).supports(model) {
                cli::fail(&format!("{} does not support {}", b.name(), model.name()));
            }
            b.build(BaselineParams::default()).simulate(
                &spec.synthesize(),
                model,
                &shapes,
                dataset.name(),
            )
        }
        None => {
            let cfg = AcceleratorConfig {
                k,
                mapping_policy: policy,
                flexible_noc: flex,
                dynamic_partition: dyn_part,
                ..AcceleratorConfig::default()
            };
            // A dataset request, not an inline graph: synthesis runs
            // inside `run`, under the host profiler's `graph_load` span.
            let req = SimRequest::builder(model)
                .config(cfg)
                .dataset(dataset, scale)
                .layers(&shapes)
                .workload(dataset.name())
                .input_density(spec.feature_density)
                .build()
                .unwrap_or_else(|e| cli::fail(&format!("invalid request: {e}")));
            AuroraSimulator::new(cfg)
                .with_telemetry(telemetry.clone())
                .run(&req)
                .unwrap_or_else(|e| cli::fail(&format!("simulation failed: {e}")))
        }
    };

    flags.write_outputs(&telemetry, &report);
    print_report(&report, flags.json);
}
