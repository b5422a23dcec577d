//! Seeded inputs of `serve-k32`: the one-shot schedule and the session's
//! delta stream. The seed is the only source of variation; the program
//! sees only the generated requests.

use crate::spec::{self, Rng};
use aurora_core::{chain_digest, GraphDelta, SimRequest};
use aurora_graph::Csr;

/// The one-shot schedule: universe indices in issue order, and whether
/// each op repeats an earlier one (so must be a cache hit).
#[derive(Debug, Clone)]
pub struct Schedule {
    pub ops: Vec<usize>,
    pub repeat: Vec<bool>,
}

impl Schedule {
    /// The most one-shots whose distinct draws fit the universe.
    pub fn max_len() -> usize {
        (spec::ONESHOT_UNIVERSE as f64 / (1.0 - spec::HIT_SHARE)).floor() as usize
    }

    /// `n` one-shots (at most [`Schedule::max_len`]), exactly
    /// `round(n × HIT_SHARE)` of them repeats of an earlier request, the
    /// rest distinct draws from the universe.
    pub fn new(seed: u64, n: usize) -> Schedule {
        assert!(n <= Self::max_len(), "{n} one-shots overflow the universe");
        let mut rng = Rng::new(seed ^ 0x6f6e_6573);
        let hits = (n as f64 * spec::HIT_SHARE).round() as usize;
        let mut universe: Vec<usize> = (0..spec::ONESHOT_UNIVERSE).collect();
        rng.shuffle(&mut universe);
        // the first op is always a miss: a repeat needs something to repeat
        let mut positions: Vec<usize> = (1..n).collect();
        rng.shuffle(&mut positions);
        let mut repeat = vec![false; n];
        for &p in &positions[..hits] {
            repeat[p] = true;
        }
        let mut issued: Vec<usize> = Vec::with_capacity(n - hits);
        let mut fresh = universe.into_iter();
        let ops = repeat
            .iter()
            .map(|&r| {
                if r {
                    issued[rng.below(issued.len() as u64) as usize]
                } else {
                    let u = fresh.next().expect("universe covers the distinct draws");
                    issued.push(u);
                    u
                }
            })
            .collect();
        Schedule { ops, repeat }
    }

    pub fn hits(&self) -> usize {
        self.repeat.iter().filter(|&&r| r).count()
    }
}

/// One sliding-window delta against `g`: remove up to `churn` edges
/// sourced in `window`, insert as many new ones sourced there.
pub fn window_delta(
    g: &Csr,
    window: std::ops::Range<u32>,
    churn: usize,
    rng: &mut Rng,
) -> GraphDelta {
    let n = g.num_vertices() as u64;
    let mut in_window: Vec<(u32, u32)> = window
        .clone()
        .flat_map(|v| g.neighbors(v).iter().map(move |&d| (v, d)))
        .collect();
    let mut remove_edges = Vec::with_capacity(churn.min(in_window.len()));
    for _ in 0..churn.min(in_window.len()) {
        let i = rng.below(in_window.len() as u64) as usize;
        remove_edges.push(in_window.swap_remove(i));
    }
    remove_edges.sort_unstable();
    let mut insert_edges: Vec<(u32, u32)> = Vec::with_capacity(remove_edges.len());
    let mut tries = 0;
    while insert_edges.len() < remove_edges.len() && tries < churn * 64 {
        tries += 1;
        let u = window.start + rng.below((window.end - window.start) as u64) as u32;
        let v = rng.below(n) as u32;
        let e = (u, v);
        if u != v
            && !g.has_edge(u, v)
            && !insert_edges.contains(&e)
            && remove_edges.binary_search(&e).is_err()
        {
            insert_edges.push(e);
        }
    }
    GraphDelta {
        insert_edges,
        remove_edges,
        ..GraphDelta::default()
    }
}

/// The session's delta stream and what the daemon must answer to it.
pub struct DeltaStream {
    pub base: SimRequest,
    pub deltas: Vec<GraphDelta>,
    /// Digest-chain head after each delta.
    pub heads: Vec<String>,
    /// The graph after the last delta.
    pub final_graph: Csr,
}

impl DeltaStream {
    /// `m` deltas; the window starts at a seeded vertex and slides by a
    /// fixed stride, so successive deltas touch different tiles.
    pub fn new(seed: u64, m: usize) -> DeltaStream {
        let base = spec::session_request();
        let mut g = base.graph.resolve().expect("session graph resolves");
        let mut rng = Rng::new(seed ^ 0x6465_6c74);
        let n = g.num_vertices() as u32;
        let span = n - spec::DELTA_WINDOW;
        let stride = (span / m.max(1) as u32).max(spec::DELTA_WINDOW);
        let offset = rng.below(span as u64) as u32;
        let mut head = base.digest();
        let mut deltas = Vec::with_capacity(m);
        let mut heads = Vec::with_capacity(m);
        for i in 0..m as u32 {
            let start = (offset + i * stride) % span;
            let delta = window_delta(
                &g,
                start..start + spec::DELTA_WINDOW,
                spec::DELTA_CHURN,
                &mut rng,
            );
            assert!(!delta.is_empty(), "window at {start} gave an empty delta");
            g = delta.apply(&g).expect("generated delta applies");
            head = chain_digest(&head, &delta);
            heads.push(head.clone());
            deltas.push(delta);
        }
        DeltaStream {
            base,
            deltas,
            heads,
            final_graph: g,
        }
    }
}
