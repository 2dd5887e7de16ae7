//! Multi-hop neighbourhood sampling for the MariusGNN reproduction.
//!
//! This module implements the paper's central data structure, DENSE (a **D**elta
//! **E**ncoding of **N**eighborhood **S**ampl**E**s), and the algorithms that build
//! and consume it:
//!
//! * [`Dense`] — the four arrays of Figure 3 (`node_id_offsets`, `node_ids`,
//!   `nbr_offsets`, `nbrs`) plus the GPU-side `repr_map`, with
//!   [`Dense::advance_layer`] implementing Algorithm 2 (the per-layer update).
//! * [`MultiHopSampler`] — Algorithm 1: builds DENSE for a set of target nodes by
//!   sampling one-hop neighbours **only for nodes not already present** in the
//!   structure, reusing earlier samples across layers.
//! * [`NegativeSampler`] — negative sampling for link-prediction training,
//!   and [`RankingProtocol`], the ranking protocol used to compute MRR.
//!
//! # Examples
//!
//! ```
//! use marius_graph::{Edge, InMemorySubgraph};
//! use marius_graph::sampling::{MultiHopSampler, SamplingDirection};
//! use rand::SeedableRng;
//!
//! let edges = vec![Edge::new(2, 0), Edge::new(3, 0), Edge::new(4, 2)];
//! let graph = InMemorySubgraph::from_edges(&edges);
//! let sampler = MultiHopSampler::new(vec![10, 10], SamplingDirection::Incoming);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let dense = sampler.sample(&graph, &[0], &mut rng);
//! assert_eq!(dense.num_layers(), 2);
//! assert!(dense.node_ids().contains(&4));
//! ```

pub use crate::dense::{Dense, SampleStats};
pub use crate::multi_hop::{MultiHopSampler, SamplingDirection};
pub use crate::negative::{NegativeSampler, RankingProtocol};
