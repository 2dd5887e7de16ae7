// Index-based loops are the idiom throughout these hand-written kernels
// (forward and backward walk several tensors in lockstep by row index).
#![allow(clippy::needless_range_loop)]

//! GNN models, decoders, losses and optimizers for the MariusGNN reproduction.
//!
//! The crate implements the model zoo used throughout the paper's evaluation:
//!
//! * [`layers`] — GraphSage and GAT encoder layers whose forward pass
//!   consumes the DENSE structure exactly as Algorithm 3 describes
//!   (`index_select` + `segment_sum` over contiguous neighbour lists), and whose
//!   backward passes are written by hand against the same kernels.
//! * [`encoder::Encoder`] — a stack of layers driven by a DENSE sample: it
//!   snapshots the per-layer views (Algorithm 2) so that forward and backward can
//!   replay the same dataflow.
//! * [`decoder`] — the DistMult score function used for link prediction, plus a
//!   linear classification head for node classification.
//! * [`loss`] — softmax cross-entropy for node classification and the
//!   positive-vs-negatives softmax ranking loss for link prediction.
//! * [`Optimizer`] — SGD and Adagrad for dense parameters, and
//!   [`EmbeddingTable`] with sparse Adagrad updates for learnable base
//!   representations (the lookup table of paper §2).
//!
//! Everything is CPU-only but expressed with the dense kernels of
//! [`marius_tensor`], so compute scales with the same quantities (nodes sampled,
//! edges sampled, feature dimensions) that determine GPU time in the paper.

#![deny(unreachable_pub, missing_docs)]

pub mod decoder;
mod embedding;
pub mod encoder;
pub mod layers;
pub mod loss;
mod optimizer;

pub use decoder::{ClassifierHead, DistMult};
pub use embedding::EmbeddingTable;
pub use encoder::Encoder;
pub use layers::{GatLayer, GnnLayer, GraphSageLayer, LayerContext};
pub use optimizer::{Optimizer, Param};
