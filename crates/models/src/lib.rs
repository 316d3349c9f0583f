//! The six deep detection models of the paper, built on the
//! [`phishinghook_nn`] substrate:
//!
//! * [`ViT`] — Vision Transformer over R2D2 or frequency-encoded RGB images
//!   (the paper's ViT+R2D2 and ViT+Freq);
//! * [`EcaEfficientNet`] — MBConv CNN with Efficient Channel Attention;
//! * [`ScsGuard`] — embedding → multi-head attention → GRU → dense;
//! * [`Gpt2Classifier`] — decoder-only (causal) transformer;
//! * [`T5Classifier`] — encoder + cross-attention decoder head;
//! * [`EscortNet`] — multi-branch DNN with a transfer-learning phase
//!   (frozen trunk), reproducing the VDM's failure mode on phishing.
//!
//! Every model is a faithful *small* configuration of its namesake: the
//! paper fine-tunes ImageNet-pretrained ViT-B/16 and HuggingFace GPT-2/T5
//! checkpoints on GPUs; we train the same architectures at reduced
//! width/depth from scratch on CPU, preserving the inductive biases the
//! comparison is about.
//!
//! All six deep models — and, through the [`DenseClassifier`] adapter, the
//! classical classifiers of `phishinghook_ml` — implement the unified
//! [`Model`] trait ([`model`]): one `fit`/`predict_proba` protocol over
//! borrowed `FeatureRow` views, which is what the evaluation engine and the
//! serving `Detector` dispatch through.

#![warn(missing_docs)]

pub mod eca_net;
pub mod escort;
pub mod gpt2;
pub mod model;
pub mod scsguard;
pub mod t5;
pub mod trainer;
pub mod vit;

pub use eca_net::EcaEfficientNet;
pub use escort::EscortNet;
pub use gpt2::Gpt2Classifier;
pub use model::{DenseClassifier, Model};
pub use scsguard::ScsGuard;
pub use t5::T5Classifier;
pub use trainer::{TrainConfig, TRAIN_SHARD};
pub use vit::ViT;
