//! # harvest-perfbench — the repository's benchmark
//!
//! Times the Fig. 8/9 campaigns cold and warm and the checkpointed
//! fault campaign end to end through the real drivers, and splits them
//! into layers with a traced replay. See `perfbench/README.md` for the
//! workloads, every metric, and what each should move.

#![warn(missing_docs)]

pub mod layers;
pub mod probes;
pub mod replay;
pub mod run;
pub mod trace;
pub mod workloads;
