//! Incremental graph construction with validation.

use crate::edge::{Edge, VertexId};
use crate::graph::{Graph, GraphError};
use crate::weight::Weight;
use std::collections::HashSet;

/// Builder for [`Graph`], validating each edge as it is added.
///
/// # Example
///
/// ```
/// use decss_graphs::GraphBuilder;
///
/// let mut b = GraphBuilder::new(2);
/// b.add_edge(0, 1, 10)?;
/// let g = b.build()?;
/// assert_eq!(g.m(), 1);
/// # Ok::<(), decss_graphs::GraphError>(())
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
    /// The normalised endpoint pairs of `edges`: built by the first
    /// parallel-edge query, kept in step by every later insertion, so
    /// the generators' dedup loops stay linear instead of quadratic.
    pairs: Option<HashSet<(VertexId, VertexId)>>,
}

impl GraphBuilder {
    /// Starts a builder for a graph with `n` vertices (`0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, edges: Vec::new(), pairs: None }
    }

    /// Adds an undirected edge `{u, v}` with the given weight.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `u == v` and
    /// [`GraphError::VertexOutOfRange`] if either endpoint is `>= n`.
    pub fn add_edge(&mut self, u: u32, v: u32, weight: Weight) -> Result<&mut Self, GraphError> {
        let (u, v) = (VertexId(u), VertexId(v));
        for &x in &[u, v] {
            if x.index() >= self.n {
                return Err(GraphError::VertexOutOfRange { vertex: x, n: self.n });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        let e = Edge::new(u, v, weight);
        if let Some(pairs) = &mut self.pairs {
            pairs.insert((e.u, e.v));
        }
        self.edges.push(e);
        Ok(self)
    }

    /// Adds an edge only if no parallel edge between the same endpoints
    /// exists yet; returns whether it was added.
    ///
    /// # Errors
    ///
    /// Same as [`GraphBuilder::add_edge`].
    pub fn add_edge_dedup(&mut self, u: u32, v: u32, weight: Weight) -> Result<bool, GraphError> {
        if self.has_edge(u, v) {
            return Ok(false);
        }
        self.add_edge(u, v, weight)?;
        Ok(true)
    }

    /// Whether an edge between `u` and `v` already exists (ignoring
    /// weight). The first query indexes the edges added so far; later
    /// queries and insertions are `O(1)` expected.
    pub fn has_edge(&mut self, u: u32, v: u32) -> bool {
        let e = Edge::new(VertexId(u), VertexId(v), 0);
        let edges = &self.edges;
        self.pairs
            .get_or_insert_with(|| edges.iter().map(|x| (x.u, x.v)).collect())
            .contains(&(e.u, e.v))
    }

    /// Number of edges added so far.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyGraph`] if `n == 0`.
    pub fn build(self) -> Result<Graph, GraphError> {
        Graph::from_parts(self.n, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates() {
        let mut b = GraphBuilder::new(3);
        assert!(b.add_edge(0, 0, 1).is_err());
        assert!(b.add_edge(0, 3, 1).is_err());
        b.add_edge(0, 1, 1).unwrap();
        assert_eq!(b.m(), 1);
        assert!(b.has_edge(1, 0));
        assert!(!b.has_edge(1, 2));
        let g = b.build().unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn dedup_skips_parallel() {
        let mut b = GraphBuilder::new(3);
        assert!(b.add_edge_dedup(0, 1, 1).unwrap());
        assert!(!b.add_edge_dedup(1, 0, 9).unwrap());
        assert_eq!(b.m(), 1);
        // Plain insertions after the first query stay visible to it.
        b.add_edge(2, 1, 4).unwrap();
        assert!(!b.add_edge_dedup(1, 2, 9).unwrap());
        assert!(b.add_edge_dedup(0, 2, 9).unwrap());
        assert_eq!(b.m(), 3);
    }

    #[test]
    fn chaining_works() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1).unwrap().add_edge(1, 2, 1).unwrap();
        assert_eq!(b.m(), 2);
    }
}
