#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
//! A synchronous CONGEST-model simulator.
//!
//! The CONGEST model (Peleg) abstracts a network as an undirected graph
//! `G = (V, E)`; computation proceeds in synchronous rounds, and per
//! round each vertex may send `O(log n)` bits over each incident edge.
//! The complexity measure is the number of rounds.
//!
//! This crate provides:
//!
//! * [`Network`] — a deterministic round-by-round simulator over a
//!   [`decss_graphs::Graph`], enforcing a per-edge, per-direction,
//!   per-round bandwidth budget measured in `O(log n)`-bit *words*
//!   ([`message::Word`]); one sequential loop runs every round, so a
//!   protocol's report and node states are a pure function of the graph
//!   and the initial states,
//! * [`metrics::SimReport`] — rounds, message and word counts, and the
//!   maximum per-edge congestion observed,
//! * genuine message-level protocols in [`protocols`]: BFS-tree
//!   construction, broadcast and convergecast over a tree, pipelined
//!   convergecast of `k` items, and Borůvka minimum spanning tree,
//! * [`ledger::RoundLedger`] — the round-accounting device used by the
//!   logical implementations of the paper's algorithms, whose formulas
//!   are calibrated against the message-level protocols (Experiment E11).
//!   The solvers charge rounds through the ledger; the simulator exists
//!   to keep those charges honest (`tests/calibration.rs`).
//!
//! # Example
//!
//! ```
//! use decss_graphs::gen;
//! use decss_congest::protocols::bfs;
//! use decss_graphs::VertexId;
//!
//! let g = gen::grid(4, 4, 8, 0);
//! let (tree, report) = bfs::distributed_bfs(&g, VertexId(0));
//! assert!(tree.spans_all());
//! // A BFS wave needs depth+1 rounds plus one quiescent round.
//! assert!(report.rounds as u32 >= tree.depth());
//! ```

pub mod ledger;
pub mod message;
pub mod metrics;
pub mod network;
pub mod protocols;

pub use ledger::RoundLedger;
pub use message::{Message, Word, WordVec, DEFAULT_BANDWIDTH};
pub use metrics::SimReport;
pub use network::{Network, NodeLogic, RoundCtx};
