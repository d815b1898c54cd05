//! Genuine message-level distributed protocols.
//!
//! These serve two purposes: they are the substrate primitives the
//! paper's algorithms rely on (BFS trees, aggregates over trees,
//! pipelined collection, MST), and they calibrate the round-cost
//! formulas in [`crate::ledger`] (Experiment E11).

pub mod bfs;
pub mod boruvka;
pub mod broadcast;
pub mod convergecast;
pub mod downcast;
pub mod flood;
pub mod label_exchange;
pub mod leader;
pub mod pipeline;
pub mod segment_scan;
