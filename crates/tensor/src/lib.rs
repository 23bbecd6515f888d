//! # sem-tensor
//!
//! A small, self-contained dense tensor library with reverse-mode automatic
//! differentiation, built for the CPU-scale neural models used by the
//! subspace-embedding paper reproduction (twin networks, attention pooling,
//! graph convolutions).
//!
//! Design:
//!
//! * [`Tensor`] is an immutable value: a reference-counted `f32` buffer plus a
//!   [`Shape`] (rank 0, 1 or 2). Cloning is O(1).
//! * [`Tape`] is an arena of operations recorded during a forward pass.
//!   [`Tape::backward`] walks the arena in reverse and accumulates gradients.
//! * Model parameters live outside the tape (see `sem-nn`); they enter a
//!   forward pass through [`Tape::leaf`] and their gradients are read back
//!   with [`Tape::grad`].
//! * [`grad_check`] provides finite-difference verification used extensively
//!   by the test suite.
//!
//! The library intentionally supports only what the paper's models need:
//! rank ≤ 2, `f32`, row-major, single-threaded kernels. Within that envelope
//! the kernels avoid allocation in inner loops and the matmul is blocked on
//! rows to stay cache-friendly (see the workspace's performance notes).
//!
//! ```
//! use sem_tensor::{Tape, Tensor};
//!
//! // loss = mean(tanh(x·W)²); gradients via one reverse sweep
//! let mut tape = Tape::new();
//! let x = tape.leaf(Tensor::matrix(2, 3, &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]));
//! let w = tape.leaf(Tensor::matrix(3, 2, &[0.5; 6]));
//! let h = tape.matmul(x, w);
//! let a = tape.tanh(h);
//! let sq = tape.mul(a, a);
//! let loss = tape.mean(sq);
//! tape.backward(loss);
//! let grad_w = tape.grad(w).expect("w influences the loss");
//! assert_eq!(grad_w.shape(), sem_tensor::Shape::Matrix(3, 2));
//! ```

// `deny` rather than `forbid`: the SQ8 scan kernel in [`quant`] carries
// the crate's one reviewed `unsafe` block (SSE2 intrinsics behind an
// explicit safety comment). Everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod blocked;
pub mod grad_check;
pub mod kmeans;
pub mod ops;
pub mod quant;
mod shape;
mod tape;
mod tensor;

pub use shape::Shape;
pub use tape::{Tape, TensorId};
pub use tensor::Tensor;
