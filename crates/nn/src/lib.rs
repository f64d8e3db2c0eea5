//! # mp-nn
//!
//! A from-scratch float32 convolutional neural network engine: the
//! "high-accuracy" half of the paper's multi-precision system, standing in
//! for Caffe + OpenBLAS on the ARM host.
//!
//! The engine provides:
//!
//! - [`Layer`]: an object-safe forward/backward layer trait,
//! - layer implementations in [`layers`]: convolution (im2col + GEMM, the
//!   same lowering FINN uses), max/average pooling, fully-connected, ReLU,
//!   sigmoid, local response normalisation (cuda-convnet style, for the
//!   paper's Model A), dropout, batch normalisation (consumed by the BNN's
//!   threshold folding) and softmax,
//! - [`Network`]: a sequential container with a builder,
//! - [`loss`]: softmax cross-entropy,
//! - [`train`]: minibatch SGD with momentum and weight decay,
//! - [`cost`]: per-layer multiply-accumulate / parameter / activation
//!   accounting used by the ARM host cost model in `mp-host`.
//!
//! # Example
//!
//! ```
//! use mp_nn::Network;
//! use mp_tensor::{init::TensorRng, Shape, Tensor};
//!
//! # fn main() -> Result<(), mp_tensor::ShapeError> {
//! let mut rng = TensorRng::seed_from(0);
//! let mut net = Network::builder(Shape::nchw(1, 1, 8, 8))
//!     .conv2d(4, 3, 1, 0, &mut rng)?
//!     .relu()
//!     .max_pool(2)?
//!     .flatten()
//!     .linear(10, &mut rng)?
//!     .build();
//! let x = Tensor::zeros(Shape::nchw(2, 1, 8, 8));
//! let scores = net.forward(&x)?;
//! assert_eq!(scores.shape().dims(), &[2, 10]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

mod layer;
mod network;

pub mod cost;
pub mod layers;
pub mod loss;
pub mod train;

pub use cost::LayerCost;
pub use layer::{Layer, Mode};
pub use network::{Network, NetworkBuilder, INFER_SUB_BATCH};
pub use train::{Adam, Model, Optimizer, Sgd, Trainer};
