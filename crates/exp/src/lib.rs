//! # harvest-exp — the paper's evaluation, regenerated
//!
//! Everything needed to reproduce §5 of the EA-DVFS paper:
//!
//! * [`scenario`] — the §5.1 setup (XScale CPU, eq. 13 solar source,
//!   5-task workloads, 10 000-unit horizon) behind one seeded knob.
//! * [`figures`] — one function per paper figure/table (Figs. 5–9,
//!   Table 1).
//! * [`parallel`] — deterministic multi-threaded trial fan-out, with a
//!   quarantining mode that contains per-cell panics.
//! * [`cache`] — trial identity ([`cache::TrialKey`]) and the
//!   figure-facing [`cache::TrialSummary`].
//! * [`manifest`] — decided-cell outcomes and the reader for legacy
//!   JSONL manifests.
//! * [`store`] — the pack-file result store, the only persistence
//!   backend: segment-packed trial summaries, batch probes, unified
//!   cache + resume records, and `exp store import` for legacy data.
//! * [`telemetry`] — the campaign observer bundle: span tracing with
//!   Chrome-trace export, live progress streaming, and crash
//!   flight-recorder dumps (`exp sweep --trace/--progress`,
//!   `exp fault-sweep --flight`).
//! * [`report`] — aligned tables, ASCII plots, CSV.
//! * [`cli`] — the one flag reader of the `exp` binary, and the uniform
//!   flags of its paper verbs.
//! * [`artifact`] — the JSONL run-artifact schema behind `exp record`
//!   / `exp inspect` / `exp diff`.
//!
//! One binary: `exp`. Its paper verbs (`fig5`…`fig9`, `table1`,
//! `repro-all` which runs the whole evaluation, and `validate`)
//! regenerate §5; the others record and inspect runs, run store-backed
//! sweeps and fault campaigns, and manage the result store.
//!
//! # Examples
//!
//! ```
//! use harvest_exp::scenario::{PaperScenario, PolicyKind};
//!
//! // One seeded trial of the Fig. 8 setting (U = 0.4, C = 500).
//! let result = PaperScenario::new(0.4, 500.0).run(PolicyKind::EaDvfs, 0);
//! assert!(result.released() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod artifact;
pub mod cache;
pub mod cli;
pub mod figures;
pub mod manifest;
pub mod parallel;
pub mod record;
pub mod report;
pub mod scenario;
pub mod store;
pub mod telemetry;

/// Shared helpers for tests that mutate process-global state (currently
/// environment variables). Exposed (doc-hidden) rather than
/// `#[cfg(test)]` so the crate's integration tests and unit tests share
/// one lock.
#[doc(hidden)]
pub mod test_support {
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    static ENV_LOCK: OnceLock<Mutex<()>> = OnceLock::new();

    /// Serializes every test that reads or writes process-global
    /// environment variables (`HARVEST_THREADS`, `HARVEST_SWEEP_STORE`,
    /// …). `std::env::set_var` is process-wide, so unsynchronized tests
    /// race; take this lock around *both* mutation and the code under
    /// test. Poisoning is ignored: a panicked test must not cascade.
    pub fn env_lock() -> MutexGuard<'static, ()> {
        ENV_LOCK
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Runs `f` with each `(key, value)` pair applied (`None` removes
    /// the variable), holding [`env_lock`] throughout, and restores the
    /// prior values afterwards — also on panic, via a drop guard.
    pub fn with_env<R>(pairs: &[(&str, Option<&str>)], f: impl FnOnce() -> R) -> R {
        struct Restore {
            saved: HashMap<String, Option<String>>,
            _guard: MutexGuard<'static, ()>,
        }
        impl Drop for Restore {
            fn drop(&mut self) {
                for (key, value) in &self.saved {
                    match value {
                        Some(v) => std::env::set_var(key, v),
                        None => std::env::remove_var(key),
                    }
                }
            }
        }
        let restore = Restore {
            saved: pairs
                .iter()
                .map(|(k, _)| (k.to_string(), std::env::var(k).ok()))
                .collect(),
            _guard: env_lock(),
        };
        for (key, value) in pairs {
            match value {
                Some(v) => std::env::set_var(key, v),
                None => std::env::remove_var(key),
            }
        }
        let out = f();
        drop(restore);
        out
    }
}

pub use figures::{
    min_capacity_table, miss_rate_figure, remaining_energy_figure, robustness_figure, source_figure,
};
pub use scenario::{FaultScenario, PaperScenario, PolicyKind, PredictorKind};
