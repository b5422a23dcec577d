//! Deterministic synthetic graph generators.
//!
//! Real-world GNN datasets follow heavy-tailed (power-law) degree
//! distributions — the property the degree-aware mapping (§IV) exploits
//! ("considering the power-law distribution of real-world graphs, each graph
//! partition could only have a few high-degree vertices"). The R-MAT
//! recursive generator reproduces that skew; Erdős–Rényi provides a
//! no-skew control, and a few regular toys support unit tests.
//!
//! [`rmat`] synthesizes every paper dataset, so it is built for speed
//! while staying byte-identical to the original sequential generator
//! (kept in the tests as the oracle, with golden digests of the dataset
//! graphs):
//!
//! * **Counter-based stream.** The draws come from SplitMix64, whose
//!   output `i` is a pure function of `seed + (i + 1)·γ` ([`splitmix`]).
//!   Every draw consumes exactly `levels` outputs, so draw `j` starts at
//!   output `j·levels`, and fixed chunks of draws fill in parallel on the
//!   rayon pool with the same result at every thread count.
//! * **Branchless levels.** Each level compares the raw 53-bit draw with
//!   three integer thresholds (`⌈p·2⁵³⌉`, exactly equivalent to the
//!   original float comparisons) and derives the quadrant bits with
//!   xors instead of a mispredicted if-ladder.
//! * **In-place CSR build.** The draw buffer is allocated once, on the
//!   calling thread; it is partitioned at the source row that halves it,
//!   both halves sort under `rayon::join`, then dedup, self-loop removal
//!   and the `(u, v)` → `col_idx` conversion all reuse the same buffer.
//!
//! Reddit at 1/16 (4.5 M draws) synthesizes in about 0.35 s on two
//! threads, against 1.4 s for the original generator.

use crate::builder::{csr_from_sorted, GraphBuilder};
use crate::csr::{Csr, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// R-MAT quadrant probabilities. The classic skewed setting is
/// `a=0.57, b=0.19, c=0.19, d=0.05`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    pub a: f64,
    pub b: f64,
    pub c: f64,
    pub d: f64,
}

impl Default for RmatParams {
    fn default() -> Self {
        Self {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
        }
    }
}

impl RmatParams {
    fn validate(&self) {
        let s = self.a + self.b + self.c + self.d;
        assert!(
            (s - 1.0).abs() < 1e-9,
            "RMAT quadrant probabilities must sum to 1 (got {s})"
        );
        assert!(self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0 && self.d >= 0.0);
    }
}

/// Draws per parallel chunk of the R-MAT stream. Graphs with at most
/// this many draws (every request below ~52 k target edges) fill on the
/// calling thread alone.
const CHUNK_DRAWS: usize = 1 << 16;

/// SplitMix64's state increment (the golden-ratio constant).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Output `i` (0-based) of the SplitMix64 stream seeded with `seed`.
///
/// SplitMix64 is counter-based: its state after `i + 1` steps is
/// `seed + (i + 1)·γ`, and each output is a fixed bijective mix of that
/// state. Any position of the stream is therefore one multiply away,
/// which is what lets [`rmat`] fill chunks of draws independently. The
/// sequence equals `StdRng::seed_from_u64(seed)`'s, which the original
/// generator consumed, so graphs stay byte-identical to it.
fn splitmix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(GAMMA));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of edges [`rmat`] draws for `target_edges`: dedup collapses
/// repeats, so it oversamples by a quarter. `None` when the count
/// overflows or exceeds `u32::MAX` — the CSR's `row_ptr` is `u32`, so no
/// larger graph can be built.
pub fn rmat_draws(target_edges: usize) -> Option<usize> {
    target_edges
        .checked_add(target_edges / 4)?
        .checked_add(16)
        .filter(|&d| d <= u32::MAX as usize)
}

/// Generates an R-MAT graph with `n` vertices (rounded up to a power of two
/// internally, then vertices folded back into range) and approximately
/// `target_edges` unique directed edges.
///
/// Draw `j` consumes stream outputs `j·levels .. (j+1)·levels` of
/// [`splitmix`], one per recursion level, self-loop or not, so fixed
/// chunks of draws fill in parallel on the rayon pool and the graph is
/// the same at every thread count.
///
/// # Panics
/// Panics on invalid `params`, `n == 0`, `n > u32::MAX`, or a draw count
/// [`rmat_draws`] rejects.
pub fn rmat(n: usize, target_edges: usize, params: RmatParams, seed: u64) -> Csr {
    rmat_in_chunks(n, target_edges, params, seed, CHUNK_DRAWS)
}

/// [`rmat`] with an explicit chunk size, so tests reach the parallel
/// fill and split sort on small graphs.
fn rmat_in_chunks(
    n: usize,
    target_edges: usize,
    params: RmatParams,
    seed: u64,
    chunk: usize,
) -> Csr {
    params.validate();
    assert!(n > 0, "graph must have at least one vertex");
    assert!(n <= u32::MAX as usize, "vertex count exceeds u32 range");
    let draws = rmat_draws(target_edges).expect("R-MAT draw count exceeds u32 range");
    let levels = (usize::BITS - (n - 1).leading_zeros()).max(1);
    let quadrants = Quadrants::new(&params);

    // Every large buffer is allocated here, on the calling thread: pool
    // threads only write into disjoint slices of it. Buffers allocated on
    // pool threads land in glibc per-thread arenas that keep the pages
    // after the free; an out-of-place build that did so raised the
    // reddit-k32 benchmark's peak RSS from 41.5 to 77.8 MB.
    let mut edges: Vec<(VertexId, VertexId)> = vec![(0, 0); draws];
    let chunks: Vec<(usize, &mut [(VertexId, VertexId)])> =
        edges.chunks_mut(chunk).enumerate().collect();
    // Every draw is below 2^levels <= 2n: one conditional subtraction is `% n`.
    let fold = |x: usize| (if x >= n { x - n } else { x }) as VertexId;
    chunks.into_par_iter().for_each(|(c, out)| {
        let mut i = (c * chunk) as u64 * levels as u64;
        for slot in out {
            let (mut u, mut v) = (0usize, 0usize);
            for _ in 0..levels {
                let (du, dv) = quadrants.pick(splitmix(seed, i) >> 11);
                i += 1;
                u = (u << 1) | du;
                v = (v << 1) | dv;
            }
            *slot = (fold(u), fold(v));
        }
    });

    // The row-pointer array doubles as the split sort's histogram.
    let mut row_ptr = vec![0u32; n + 1];
    split_sort(&mut edges, &mut row_ptr);
    edges.dedup();
    // Self-loops were drawn (each draw uses the same stream span either
    // way) but are not edges: drop them while converting in place.
    csr_from_sorted(edges, row_ptr, |u, v| u != v)
}

/// Sorts `edges` by `(u, v)` as two halves under [`rayon::join`]. The
/// buffer is partitioned in place at the source row that halves it, so
/// the two sorted halves concatenate into the sorted whole. The pivot row
/// comes from a histogram of every 8th source in `counts` (length
/// `n + 1`, zeroed; left dirty), and the partition is a branchless
/// Lomuto pass — the sources are random, so a branchy one mispredicts
/// on every other element. On a one-thread pool `join` runs the halves
/// in turn, which sorts no slower than one call on the whole buffer.
fn split_sort(edges: &mut [(VertexId, VertexId)], counts: &mut [u32]) {
    const STRIDE: usize = 8;
    for &(u, _) in edges.iter().step_by(STRIDE) {
        counts[u as usize] += 1;
    }
    let half = edges.len().div_ceil(STRIDE) / 2;
    let (mut pivot, mut below) = (0, 0);
    while below + counts[pivot] as usize <= half {
        below += counts[pivot] as usize;
        pivot += 1;
    }
    let pivot = pivot as VertexId;
    let mut store = 0;
    for i in 0..edges.len() {
        let keep_left = edges[i].0 < pivot;
        edges.swap(store, i);
        store += keep_left as usize;
    }
    let (left, right) = edges.split_at_mut(store);
    rayon::join(
        || left.sort_unstable_by_key(edge_key),
        || right.sort_unstable_by_key(edge_key),
    );
}

/// `(u, v)` as one integer with the same order: one compare per step of
/// the sort instead of a lexicographic pair compare.
fn edge_key(&(u, v): &(VertexId, VertexId)) -> u64 {
    ((u as u64) << 32) | v as u64
}

/// The quadrant ladder of one R-MAT level as integer thresholds on the
/// 53-bit draw `x = next_u64() >> 11`. The original generator compared
/// the float `r = x·2⁻⁵³` against `a`, `a + b` and `a + b + c`; `x·2⁻⁵³`
/// is exact, so `r < p` holds exactly when `x < ⌈p·2⁵³⌉`, and the
/// integer form picks the same quadrant without a branch.
struct Quadrants {
    a: u64,
    ab: u64,
    abc: u64,
}

impl Quadrants {
    fn new(p: &RmatParams) -> Self {
        let scale = |t: f64| (t * (1u64 << 53) as f64).ceil() as u64;
        Self {
            a: scale(p.a),
            ab: scale(p.a + p.b),
            abc: scale(p.a + p.b + p.c),
        }
    }

    /// `(du, dv)` for draw `x`: `(0,0)` below `a`, `(0,1)` below `a+b`,
    /// `(1,0)` below `a+b+c`, else `(1,1)`. The thresholds are ordered,
    /// so `du = [x ≥ a+b]` and `dv = [x ≥ a] ⊕ [x ≥ a+b] ⊕ [x ≥ a+b+c]`.
    #[inline(always)]
    fn pick(&self, x: u64) -> (usize, usize) {
        let ge_ab = (x >= self.ab) as usize;
        let dv = (x >= self.a) as usize ^ ge_ab ^ (x >= self.abc) as usize;
        (ge_ab, dv)
    }
}

/// Erdős–Rényi G(n, m): `m` unique directed edges chosen uniformly.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Csr {
    assert!(n > 1, "need at least two vertices");
    let max_edges = n * (n - 1);
    assert!(
        m <= max_edges,
        "cannot place {m} unique edges in {n} vertices"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    let mut placed = std::collections::HashSet::with_capacity(m);
    while placed.len() < m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v && placed.insert((u, v)) {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// A directed ring 0→1→…→(n−1)→0.
pub fn ring(n: usize) -> Csr {
    assert!(n > 0);
    let mut b = GraphBuilder::new(n);
    for v in 0..n as u32 {
        b.add_edge(v, ((v as usize + 1) % n) as u32);
    }
    b.build()
}

/// A star with centre 0 and `n − 1` undirected spokes — the degenerate
/// high-degree-vertex case the degree-aware mapping targets.
pub fn star(n: usize) -> Csr {
    assert!(n > 0);
    let mut b = GraphBuilder::new(n);
    for v in 1..n as u32 {
        b.add_undirected_edge(0, v);
    }
    b.build()
}

/// A 2-D grid of `rows × cols` vertices with undirected 4-neighbour links.
pub fn grid(rows: usize, cols: usize) -> Csr {
    assert!(rows > 0 && cols > 0);
    let idx = |r: usize, c: usize| (r * cols + c) as u32;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_undirected_edge(idx(r, c), idx(r, c + 1));
            }
            if r + 1 < rows {
                b.add_undirected_edge(idx(r, c), idx(r + 1, c));
            }
        }
    }
    b.build()
}

/// A complete directed graph on `n` vertices (no self loops).
pub fn complete(n: usize) -> Csr {
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u != v {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Dataset;
    use proptest::prelude::*;
    use rand::RngCore;
    use rayon::ThreadPool;
    use std::sync::OnceLock;

    /// The original sequential generator, kept as the identity oracle:
    /// one `StdRng` stream, an if-ladder per level, self-loops skipped
    /// and [`GraphBuilder::build`].
    fn oracle_rmat(n: usize, target_edges: usize, params: RmatParams, seed: u64) -> Csr {
        params.validate();
        assert!(n > 0, "graph must have at least one vertex");
        let mut rng = StdRng::seed_from_u64(seed);
        let levels = (usize::BITS - (n - 1).leading_zeros()).max(1);
        let mut b = GraphBuilder::new(n);
        let draws = target_edges + target_edges / 4 + 16;
        for _ in 0..draws {
            let (mut u, mut v) = (0usize, 0usize);
            for _ in 0..levels {
                let r: f64 = rng.gen();
                let (du, dv) = if r < params.a {
                    (0, 0)
                } else if r < params.a + params.b {
                    (0, 1)
                } else if r < params.a + params.b + params.c {
                    (1, 0)
                } else {
                    (1, 1)
                };
                u = (u << 1) | du;
                v = (v << 1) | dv;
            }
            let u = (u % n) as VertexId;
            let v = (v % n) as VertexId;
            if u != v {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    /// FNV-1a/64 over the little-endian bytes of `row_ptr` then `col_idx`.
    fn fnv(g: &Csr) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for w in g.row_ptr().iter().chain(g.col_idx()) {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// Pools of 1, 2 and 4 threads, built once for the whole test binary.
    fn pools() -> &'static [ThreadPool] {
        static POOLS: OnceLock<Vec<ThreadPool>> = OnceLock::new();
        POOLS.get_or_init(|| [1, 2, 4].into_iter().map(ThreadPool::new).collect())
    }

    #[test]
    fn splitmix_is_the_std_rng_stream() {
        for seed in [0, 1, 42, 0xA0_0000, u64::MAX] {
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 0..1000 {
                assert_eq!(splitmix(seed, i), rng.next_u64(), "seed {seed} output {i}");
            }
        }
    }

    /// Digests of the graphs the original generator (`oracle_rmat`)
    /// produced for the paper's datasets and the serve one-shot shape.
    #[test]
    fn dataset_graphs_match_golden_digests() {
        let cases = [
            (Dataset::Cora.spec(), 12_252, 0xf693_e9cf_afb3_fd60),
            (Dataset::Citeseer.spec(), 10_658, 0xf047_b802_dca7_df19),
            (Dataset::Pubmed.spec(), 106_334, 0x4b63_15f9_6a97_80d2),
            (Dataset::Nell.spec(), 308_216, 0xa975_d781_bd09_43a2),
            (
                Dataset::Nell.spec().scaled(2),
                153_256,
                0x091c_fbc0_7b3f_b520,
            ),
            (
                Dataset::Reddit.spec().scaled(16),
                2_473_528,
                0x9926_5486_242c_21d6,
            ),
        ];
        for (spec, edges, digest) in cases {
            let g = spec.synthesize();
            let name = spec.dataset.name();
            assert_eq!(g.num_vertices(), spec.vertices, "{name}");
            assert_eq!(g.num_edges(), edges, "{name}");
            assert_eq!(fnv(&g), digest, "{name} with {} vertices", spec.vertices);
        }
        let oneshot = rmat(2048, 16_384, RmatParams::default(), 0xA0_0000);
        assert_eq!(oneshot.num_edges(), 16_963);
        assert_eq!(fnv(&oneshot), 0x7bdd_06f4_7d9c_2127);
    }

    #[test]
    fn rmat_matches_oracle_on_tiny_graphs() {
        for n in 1..=4 {
            for target in [0, 1, 7, 40] {
                let want = oracle_rmat(n, target, RmatParams::default(), n as u64);
                for pool in pools() {
                    let got = pool
                        .install(|| rmat_in_chunks(n, target, RmatParams::default(), n as u64, 3));
                    assert_eq!(
                        got,
                        want,
                        "n {n} target {target} threads {}",
                        pool.threads()
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn rmat_matches_oracle(
            n in 1usize..5001,
            target in 0usize..20_000,
            seed in 0u64..u64::MAX,
            weights in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            default_params in proptest::bool::ANY,
            chunk in 1usize..4096,
        ) {
            let (wa, wb, wc, wd) = weights;
            let sum = wa + wb + wc + wd;
            let params = if default_params || sum == 0.0 {
                RmatParams::default()
            } else {
                RmatParams { a: wa / sum, b: wb / sum, c: wc / sum, d: wd / sum }
            };
            let want = oracle_rmat(n, target, params, seed);
            prop_assert_eq!(&rmat(n, target, params, seed), &want);
            for pool in pools() {
                let got = pool.install(|| rmat_in_chunks(n, target, params, seed, chunk));
                prop_assert_eq!(&got, &want);
            }
        }
    }

    #[test]
    fn extreme_params_match_oracle() {
        let corners = [
            RmatParams {
                a: 1.0,
                b: 0.0,
                c: 0.0,
                d: 0.0,
            },
            RmatParams {
                a: 0.0,
                b: 1.0,
                c: 0.0,
                d: 0.0,
            },
            RmatParams {
                a: 0.0,
                b: 0.0,
                c: 0.0,
                d: 1.0,
            },
            RmatParams {
                a: 0.25,
                b: 0.25,
                c: 0.25,
                d: 0.25,
            },
        ];
        for params in corners {
            let want = oracle_rmat(300, 2_000, params, 5);
            for pool in pools() {
                let got = pool.install(|| rmat_in_chunks(300, 2_000, params, 5, 97));
                assert_eq!(got, want, "{params:?} threads {}", pool.threads());
            }
        }
    }

    #[test]
    fn draw_count_is_bounded_by_row_ptr_width() {
        assert_eq!(rmat_draws(0), Some(16));
        assert_eq!(rmat_draws(1000), Some(1266));
        assert_eq!(rmat_draws(3_000_000_000), Some(3_750_000_016));
        assert_eq!(rmat_draws(u32::MAX as usize), None);
        assert_eq!(rmat_draws(usize::MAX), None);
    }

    #[test]
    fn rmat_is_deterministic() {
        let g1 = rmat(256, 1000, RmatParams::default(), 42);
        let g2 = rmat(256, 1000, RmatParams::default(), 42);
        assert_eq!(g1, g2);
        let g3 = rmat(256, 1000, RmatParams::default(), 43);
        assert_ne!(g1, g3);
    }

    #[test]
    fn rmat_hits_edge_target_roughly() {
        let g = rmat(1024, 5000, RmatParams::default(), 7);
        let m = g.num_edges();
        assert!(m > 3500 && m < 6500, "edge count {m} far from target 5000");
    }

    #[test]
    fn rmat_is_skewed_relative_to_er() {
        let n = 2048;
        let m = 16 * n;
        let r = rmat(n, m, RmatParams::default(), 1);
        let e = erdos_renyi(n, m, 1);
        assert!(
            r.max_degree() > 2 * e.max_degree(),
            "rmat max {} vs er max {}",
            r.max_degree(),
            e.max_degree()
        );
    }

    #[test]
    fn rmat_no_self_loops() {
        let g = rmat(128, 600, RmatParams::default(), 3);
        assert!(g.edges().all(|(u, v)| u != v));
    }

    #[test]
    fn erdos_renyi_exact_edge_count() {
        let g = erdos_renyi(100, 500, 9);
        assert_eq!(g.num_edges(), 500);
    }

    #[test]
    fn ring_degrees() {
        let g = ring(5);
        assert_eq!(g.num_edges(), 5);
        assert!((0..5).all(|v| g.degree(v) == 1));
        assert!(g.has_edge(4, 0));
    }

    #[test]
    fn star_centre_degree() {
        let g = star(10);
        assert_eq!(g.degree(0), 9);
        assert!((1..10).all(|v| g.degree(v) == 1));
        assert!(g.is_symmetric());
    }

    #[test]
    fn grid_edge_count() {
        let g = grid(3, 4);
        // undirected edges: 3*3 horizontal + 2*4 vertical = 17, doubled
        assert_eq!(g.num_edges(), 34);
        assert!(g.is_symmetric());
    }

    #[test]
    fn complete_graph() {
        let g = complete(5);
        assert_eq!(g.num_edges(), 20);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rmat_rejects_bad_params() {
        rmat(
            16,
            10,
            RmatParams {
                a: 0.5,
                b: 0.5,
                c: 0.5,
                d: 0.5,
            },
            0,
        );
    }
}
