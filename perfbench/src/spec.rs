//! The workloads' fixed parameters, written out here rather than read
//! from the program's evaluation protocol, so a change to the program's
//! own defaults cannot silently change what the benchmark measures.

use aurora_core::{AcceleratorConfig, GraphSpec, SimRequest};
use aurora_graph::Dataset;
use aurora_model::{LayerShape, ModelId};

/// Engine pool width (`AURORA_THREADS`) in every process that runs the
/// engine: the benchmark itself and the daemon.
pub const THREADS: usize = 2;
/// The daemon's simulation worker count (`--workers`).
pub const SERVE_WORKERS: usize = 2;
/// The paper's mesh radix.
pub const PAPER_K: usize = 32;
/// Hidden width of the two-layer GCN (Kipf & Welling).
pub const HIDDEN: usize = 16;

/// The `run_seconds` the operation counts below are sized for.
pub const NOMINAL_SECONDS: u64 = 30;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// `paper-k32`: one pass runs each of these `(dataset, 1/scale)` once.
pub const PAPER_SUITE: [(Dataset, usize); 4] = [
    (Dataset::Cora, 1),
    (Dataset::Citeseer, 1),
    (Dataset::Pubmed, 1),
    (Dataset::Nell, 2),
];
/// Passes per run at [`NOMINAL_SECONDS`] (about 2.2 s each).
pub const PAPER_PASSES: usize = 12;

/// `reddit-k32`: Reddit at 1/16 (14,560 vertices, 2.47 M edges).
pub const REDDIT: (Dataset, usize) = (Dataset::Reddit, 16);
/// Requests per run at [`NOMINAL_SECONDS`] (about 1.6 s each).
pub const REDDIT_REQUESTS: usize = 16;

/// The untimed warm-up request of the batch workloads' set-up.
pub const WARMUP: (Dataset, usize) = (Dataset::Cora, 1);

/// `serve-k32` one-shot requests: k = 8 GCN over R-MAT graphs of one
/// fixed shape; only the R-MAT seed varies, so misses cost the same.
pub const ONESHOT_K: usize = 8;
pub const ONESHOT_VERTICES: usize = 2048;
pub const ONESHOT_EDGES: usize = 16384;
pub const ONESHOT_LAYERS: [(usize, usize); 2] = [(64, 16), (16, 8)];
/// Distinct one-shot requests with committed fingerprints; a run's
/// misses are a seeded draw from this universe.
pub const ONESHOT_UNIVERSE: usize = 2304;
/// First R-MAT seed of the universe (universe entry `u` uses
/// `ONESHOT_SEED_BASE + u`).
pub const ONESHOT_SEED_BASE: u64 = 0xA0_0000;
/// One-shot requests sent alongside each session delta.
pub const ONESHOTS_PER_DELTA: usize = 16;
/// Share of one-shots that repeat an earlier request (cache hits). Far
/// from one half, so the median and the tail both fall among misses.
pub const HIT_SHARE: f64 = 0.25;

/// `serve-k32` session: Pubmed at full scale, k = 32.
pub const SESSION: (Dataset, usize) = (Dataset::Pubmed, 1);
/// Session deltas per run at [`NOMINAL_SECONDS`].
pub const DELTAS: usize = 180;
/// Edges removed, and as many inserted, per delta: 2 × 96 = 192 edits,
/// 0.22 % of Pubmed's 88,648 edges.
pub const DELTA_CHURN: usize = 96;
/// Width of the sliding vertex window the edits are sourced in.
pub const DELTA_WINDOW: u32 = 128;
/// Workload label of the session's requests.
pub const SESSION_LABEL: &str = "pubmed-k32-session";

/// The seed the benchmark is tuned on, and one held out from tuning.
/// Both have committed session fingerprints.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 7919;

/// Scales a per-run operation count from [`NOMINAL_SECONDS`] to
/// `seconds`, never below `min`. The count, not the clock, bounds a
/// run: the same `--seconds` always does the same work.
pub fn ops_for(nominal: usize, seconds: u64, min: usize) -> usize {
    let scaled = (nominal as f64 * seconds as f64 / NOMINAL_SECONDS as f64).round() as usize;
    scaled.max(min)
}

fn gcn(
    config: AcceleratorConfig,
    graph: GraphSpec,
    layers: &[LayerShape],
    density: f64,
    label: &str,
) -> SimRequest {
    SimRequest::builder(ModelId::Gcn)
        .config(config)
        .graph(graph)
        .layers(layers)
        .input_density(density)
        .workload(label)
        .build()
        .expect("benchmark request is valid")
}

/// The two-layer GCN `F → 16 → classes` over a paper dataset at k = 32,
/// with the dataset's input feature density.
pub fn dataset_request((dataset, scale): (Dataset, usize)) -> SimRequest {
    let spec = dataset.spec();
    let layers = [
        LayerShape::new(spec.feature_dim, HIDDEN),
        LayerShape::new(HIDDEN, spec.classes.max(2)),
    ];
    let label = if scale == 1 {
        format!("{}-k{PAPER_K}", dataset.name())
    } else {
        format!("{}/{scale}-k{PAPER_K}", dataset.name())
    };
    gcn(
        AcceleratorConfig::small(PAPER_K),
        GraphSpec::Dataset { dataset, scale },
        &layers,
        spec.feature_density,
        &label,
    )
}

/// Universe entry `u` of the one-shot pool.
pub fn oneshot_request(u: usize) -> SimRequest {
    let layers: Vec<LayerShape> = ONESHOT_LAYERS
        .iter()
        .map(|&(i, o)| LayerShape::new(i, o))
        .collect();
    gcn(
        AcceleratorConfig::small(ONESHOT_K),
        GraphSpec::Rmat {
            vertices: ONESHOT_VERTICES,
            edges: ONESHOT_EDGES,
            seed: ONESHOT_SEED_BASE + u as u64,
        },
        &layers,
        1.0,
        "rmat-k8-oneshot",
    )
}

/// The session's base request.
pub fn session_request() -> SimRequest {
    let mut req = dataset_request(SESSION);
    req.options.workload = SESSION_LABEL.to_string();
    req
}

/// splitmix64: a small, fixed, dependency-free generator, so the same
/// seed gives the same inputs on every build.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}
