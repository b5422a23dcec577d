//! Incremental edge-list construction of [`Csr`] graphs.

use crate::csr::{Csr, VertexId};

/// Accumulates directed edges and finalises them into a [`Csr`].
///
/// Duplicate edges are collapsed; neighbour lists come out sorted, which the
/// CSR's binary-search `has_edge` relies on.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// A builder for a graph with exactly `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex count exceeds u32 range");
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of vertices this builder was created with.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges added so far (before dedup).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds the directed edge `(u, v)`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        assert!((u as usize) < self.n, "source {u} out of range");
        assert!((v as usize) < self.n, "destination {v} out of range");
        self.edges.push((u, v));
        self
    }

    /// Adds both `(u, v)` and `(v, u)`.
    pub fn add_undirected_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.add_edge(u, v);
        if u != v {
            self.add_edge(v, u);
        }
        self
    }

    /// Bulk-adds directed edges.
    pub fn extend_edges(
        &mut self,
        it: impl IntoIterator<Item = (VertexId, VertexId)>,
    ) -> &mut Self {
        for (u, v) in it {
            self.add_edge(u, v);
        }
        self
    }

    /// Finalises into a CSR, deduplicating and sorting neighbour lists.
    pub fn build(mut self) -> Csr {
        self.edges.sort_unstable();
        self.edges.dedup();
        csr_from_sorted(self.edges, vec![0; self.n + 1], |_, _| true)
    }

    /// Builds the symmetrised graph: every added edge is mirrored.
    pub fn build_symmetric(self) -> Csr {
        let n = self.n;
        let mut b = GraphBuilder::new(n);
        for (u, v) in &self.edges {
            b.add_edge(*u, *v);
            if u != v {
                b.add_edge(*v, *u);
            }
        }
        b.build()
    }
}

/// Converts sorted, deduplicated `edges` into a [`Csr`], keeping only the
/// edges `keep` accepts. `row_ptr` must have length `n + 1` (its contents
/// are overwritten); `col_idx` is collected in place into the edge
/// buffer's allocation.
pub(crate) fn csr_from_sorted(
    edges: Vec<(VertexId, VertexId)>,
    mut row_ptr: Vec<u32>,
    keep: impl Fn(VertexId, VertexId) -> bool,
) -> Csr {
    row_ptr.fill(0);
    for &(u, v) in &edges {
        row_ptr[u as usize + 1] += keep(u, v) as u32;
    }
    for i in 1..row_ptr.len() {
        row_ptr[i] += row_ptr[i - 1];
    }
    let col_idx = edges
        .into_iter()
        .filter(|&(u, v)| keep(u, v))
        .map(|(_, v)| v)
        .collect();
    Csr::from_raw(row_ptr, col_idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn builds_sorted_dedup() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(2, 1)
            .add_edge(0, 3)
            .add_edge(0, 1)
            .add_edge(0, 3);
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.neighbors(2), &[1]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn trailing_isolated_vertices_closed() {
        let mut b = GraphBuilder::new(10);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        for v in 1..10 {
            assert_eq!(g.degree(v), 0);
        }
    }

    #[test]
    fn undirected_edges_mirrored() {
        let mut b = GraphBuilder::new(3);
        b.add_undirected_edge(0, 2);
        let g = b.build();
        assert!(g.has_edge(0, 2) && g.has_edge(2, 0));
        assert!(g.is_symmetric());
    }

    #[test]
    fn symmetrise_after_the_fact() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build_symmetric();
        assert!(g.is_symmetric());
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn self_loop_added_once_undirected() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected_edge(1, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(1, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        GraphBuilder::new(2).add_edge(0, 2);
    }

    proptest! {
        #[test]
        fn csr_roundtrips_edge_set(
            n in 1usize..40,
            raw in proptest::collection::vec((0u32..40, 0u32..40), 0..200)
        ) {
            let edges: Vec<(u32, u32)> = raw
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .collect();
            let mut b = GraphBuilder::new(n);
            b.extend_edges(edges.iter().copied());
            let g = b.build();

            let mut expect: Vec<(u32, u32)> = edges;
            expect.sort_unstable();
            expect.dedup();
            let got: Vec<(u32, u32)> = g.edges().collect();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn neighbor_lists_sorted(
            n in 1usize..30,
            raw in proptest::collection::vec((0u32..30, 0u32..30), 0..150)
        ) {
            let mut b = GraphBuilder::new(n);
            b.extend_edges(raw.into_iter().map(|(u, v)| (u % n as u32, v % n as u32)));
            let g = b.build();
            for v in 0..n as u32 {
                let nb = g.neighbors(v);
                prop_assert!(nb.windows(2).all(|w| w[0] < w[1]));
            }
        }

        #[test]
        fn transpose_preserves_degree_sum(
            n in 1usize..30,
            raw in proptest::collection::vec((0u32..30, 0u32..30), 0..150)
        ) {
            let mut b = GraphBuilder::new(n);
            b.extend_edges(raw.into_iter().map(|(u, v)| (u % n as u32, v % n as u32)));
            let g = b.build();
            let t = g.transpose();
            prop_assert_eq!(g.num_edges(), t.num_edges());
            prop_assert_eq!(t.transpose(), g);
        }
    }
}
