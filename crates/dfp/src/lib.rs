//! Direct Future Prediction (DFP) — the multi-objective RL algorithm at
//! the heart of MRSch.
//!
//! DFP (Dosovitskiy & Koltun, *Learning to Act by Predicting the Future*,
//! ICLR 2017) replaces the scalar reward of classical RL with a
//! **measurement vector** and trains a network to predict, for every
//! action, the *future changes* of those measurements at several temporal
//! offsets, conditioned on the current state, current measurements, and a
//! **goal vector** expressing the relative importance of each measurement.
//! Acting greedily w.r.t. `goal · predicted-changes` then pursues whatever
//! objective the goal encodes — and because the goal is an *input*, it can
//! change at every decision without retraining. That property is exactly
//! what MRSch's dynamic resource prioritizing (Eq. 1) exploits.
//!
//! This crate implements DFP from scratch on the [`mrsch_nn`] stack:
//!
//! * [`config`] — architecture & training hyper-parameters,
//! * [`network`] — the three input modules (state / measurement / goal),
//!   joint representation, and the dueling expectation + action streams
//!   of the original paper (§II-B of the MRSch paper),
//! * [`replay`] — the experience memory,
//! * [`agent`] — ε-greedy acting, replay, and minibatch training,
//! * [`rollout`] — frozen [`rollout::PolicySnapshot`]s and the
//!   [`rollout::EpisodeRecorder`] (future-target construction), so
//!   episodes can be generated on worker threads and absorbed back into
//!   the learner deterministically.

pub mod agent;
pub mod config;
pub mod network;
pub mod replay;
pub mod rollout;

pub use agent::DfpAgent;
pub use config::{DfpConfig, StateModuleKind};
pub use network::DfpNetwork;
pub use replay::{Experience, ReplayBuffer};
pub use rollout::{greedy_from_scores, EpisodeRecorder, PolicySnapshot};
