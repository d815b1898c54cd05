//! Centralized graph algorithms used as substrates and verification
//! oracles: BFS/diameter, DFS, bridges/2-edge-connectivity, connectivity
//! via union-find, and minimum spanning trees.

mod bfs;
mod bridges;
mod connectivity;
mod diameter;
mod mst;
mod two_ecc;

pub use bfs::{bfs_distances, bfs_tree, BfsTree};
pub use bridges::{bridges, bridges_in_subgraph, is_two_edge_connected, two_edge_connected_in};
pub use connectivity::{component_labels, is_connected, is_connected_subgraph, UnionFind};
pub use diameter::{diameter, eccentricity};
pub use mst::{kruskal_scan, minimum_spanning_tree, sort_kruskal, MstError};
pub use two_ecc::{two_ecc_components, two_ecc_components_of, TwoEccComponents};
