//! Trial identity and the figure-facing trial summary.
//!
//! The Fig. 5–9 evaluations are grids of thousands of independent
//! trials, each fully determined by `(scenario, policy, seed)` — the
//! simulator is deterministic. This module gives every such cell a
//! stable [`TrialKey`] and reduces its result to a [`TrialSummary`]
//! (the handful of numbers the figure drivers actually consume), the
//! two things the pack store ([`crate::store::PackStore`]) persists so
//! re-running a figure, resuming a campaign, or probing a capacity the
//! `min_zero_miss_capacity` search already visited skips the
//! simulation entirely.
//!
//! Integrity rules:
//!
//! * The key is the **canonical key text** (schema version +
//!   serialized scenario + policy name + seed), not just its hash:
//!   every stored record carries the text and a lookup re-verifies it,
//!   so a fingerprint collision or a poisoned record can never
//!   substitute a foreign result.
//! * [`CACHE_SCHEMA_VERSION`] participates in the key text; bump it on
//!   any change to simulation semantics or to the summary layout, and
//!   every stale record misses naturally.
//! * Sampled storage levels round-trip as `f64::to_bits` integers, so a
//!   warm figure is bit-identical to a cold one.

use serde::{Deserialize, Serialize};

use crate::scenario::{PaperScenario, PolicyKind};
use harvest_core::result::SimResult;

/// Version of the stored-trial contract. Participates in every key, so
/// bumping it invalidates all prior records. Bump whenever simulation
/// semantics, scenario serialization, or the summary layout change.
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// FNV-1a 64-bit, the workspace's standing content-hash choice. Public
/// so smoke tooling can digest figure outputs for equality checks.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// The stable identity of one sweep cell.
///
/// Holds the canonical key text — a versioned, serde-serialized record
/// of everything that determines the trial's outcome — plus its
/// fingerprint. Two keys are interchangeable exactly when their texts
/// are byte-equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialKey {
    text: String,
    fingerprint: u64,
}

thread_local! {
    /// Last scenario serialized on this thread, with its JSON. Key
    /// construction is on the warm probe path, and one figure grid
    /// builds thousands of keys over a handful of scenarios in runs of
    /// identical ones (the seed/policy axes vary faster), so a
    /// last-value memo turns the dominant cost — the serde `Value`-tree
    /// serialization — into an equality check plus a `String` clone.
    static SCENARIO_JSON_MEMO: std::cell::RefCell<Option<(PaperScenario, String)>> =
        const { std::cell::RefCell::new(None) };
}

/// The canonical JSON of `scenario`, memoized per thread. The text is
/// byte-identical to a fresh `serde_json::to_string`, so fingerprints
/// and stored key texts are unaffected.
fn scenario_json(scenario: &PaperScenario) -> String {
    SCENARIO_JSON_MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        if let Some((cached, json)) = memo.as_ref() {
            if cached == scenario {
                return json.clone();
            }
        }
        let json = serde_json::to_string(scenario).expect("scenario serialization is infallible");
        *memo = Some((scenario.clone(), json.clone()));
        json
    })
}

impl TrialKey {
    /// Builds the key for `(scenario, policy, seed)` under the current
    /// [`CACHE_SCHEMA_VERSION`].
    pub fn new(scenario: &PaperScenario, policy: PolicyKind, seed: u64) -> Self {
        let text = format!(
            "v{CACHE_SCHEMA_VERSION}|{}|{}|{seed}",
            scenario_json(scenario),
            policy.name()
        );
        let fingerprint = fnv1a64(text.as_bytes());
        TrialKey { text, fingerprint }
    }

    /// The canonical key text (stored inside every record).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// 64-bit content fingerprint of the key text; indexes the stored
    /// record. Collisions are harmless (the stored text disambiguates)
    /// but cost a recompute.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// The figure-facing subset of a [`SimResult`], reduced to exactly what
/// the Fig. 5–9 drivers consume. Counts are stored raw and rates are
/// recomputed with the same integer-to-float arithmetic as
/// [`SimResult`], and sample levels are stored as `f64::to_bits`
/// integers, so a summary read back from disk reproduces the original
/// figures bit for bit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialSummary {
    /// Jobs released within the horizon.
    pub released: u64,
    /// Jobs that completed by their deadline.
    pub completed_in_time: u64,
    /// Jobs that missed their deadline.
    pub missed: u64,
    /// Raw storage-level samples (`IEEE-754` bit patterns, in grid
    /// order), empty unless the run sampled.
    pub sample_level_bits: Vec<u64>,
}

impl TrialSummary {
    /// Extracts the summary from a full result.
    pub fn of(result: &SimResult) -> Self {
        TrialSummary {
            released: result.released() as u64,
            completed_in_time: result.completed_in_time() as u64,
            missed: result.missed() as u64,
            sample_level_bits: result.samples.iter().map(|&(_, v)| v.to_bits()).collect(),
        }
    }

    /// Deadline miss rate, mirroring [`SimResult::miss_rate`].
    pub fn miss_rate(&self) -> f64 {
        let decided = self.completed_in_time + self.missed;
        if decided == 0 {
            0.0
        } else {
            self.missed as f64 / decided as f64
        }
    }

    /// `true` if every decided job met its deadline.
    pub fn is_miss_free(&self) -> bool {
        self.missed == 0
    }

    /// Sample levels normalized by `capacity`, mirroring
    /// [`SimResult::normalized_samples`] (values only; the grid is
    /// implied by the scenario's sampling interval).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive.
    pub fn normalized_sample_values(&self, capacity: f64) -> Vec<f64> {
        assert!(capacity > 0.0, "capacity must be positive");
        self.sample_level_bits
            .iter()
            .map(|&bits| f64::from_bits(bits) / capacity)
            .collect()
    }
}

/// Hit/miss accounting of one [`TrialStore`](crate::store::TrialStore)
/// over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups with no usable record (absent or rejected).
    pub misses: u64,
    /// Records rejected on integrity grounds (undecodable payload or a
    /// foreign key behind the fingerprint). A subset of `misses`.
    pub rejects: u64,
    /// Records written.
    pub stores: u64,
}

impl CacheStats {
    /// Publishes the counters into a metrics sink under `prefix` (so
    /// `publish("store", ..)` yields `store.hits`, `store.misses`, ...),
    /// plus a `{prefix}.hit_rate` gauge when any lookup happened. Store
    /// accounting then renders alongside the engine's queue and pool
    /// metrics in one [`harvest_obs::MetricsRegistry`] snapshot.
    pub fn publish<S: harvest_obs::MetricsSink>(&self, prefix: &str, sink: &mut S) {
        sink.counter(&format!("{prefix}.hits"), self.hits);
        sink.counter(&format!("{prefix}.misses"), self.misses);
        sink.counter(&format!("{prefix}.rejects"), self.rejects);
        sink.counter(&format!("{prefix}.stores"), self.stores);
        let lookups = self.hits + self.misses;
        if lookups > 0 {
            sink.gauge(
                &format!("{prefix}.hit_rate"),
                self.hits as f64 / lookups as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> TrialSummary {
        TrialSummary {
            released: 40,
            completed_in_time: 30,
            missed: 10,
            sample_level_bits: vec![1.0f64.to_bits(), 0.25f64.to_bits()],
        }
    }

    #[test]
    fn scenario_json_memo_matches_fresh_serialization() {
        // Alternate between two scenarios so every call after the first
        // exercises both the memo hit and the memo replacement path;
        // the memoized text must stay byte-identical to a direct
        // serialization (stored keys depend on it).
        let a = PaperScenario::new(0.4, 500.0);
        let b = PaperScenario::new(0.8, 200.0);
        for scenario in [&a, &b, &a, &a, &b] {
            assert_eq!(
                scenario_json(scenario),
                serde_json::to_string(scenario).unwrap()
            );
        }
    }

    #[test]
    fn fingerprint_is_stable_and_distinguishes_cells() {
        let s = PaperScenario::new(0.4, 500.0);
        let a = TrialKey::new(&s, PolicyKind::EaDvfs, 7);
        let b = TrialKey::new(&s, PolicyKind::EaDvfs, 7);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let other_seed = TrialKey::new(&s, PolicyKind::EaDvfs, 8);
        let other_policy = TrialKey::new(&s, PolicyKind::Lsa, 7);
        let other_cap = TrialKey::new(&PaperScenario::new(0.4, 501.0), PolicyKind::EaDvfs, 7);
        for other in [&other_seed, &other_policy, &other_cap] {
            assert_ne!(a.text(), other.text());
            assert_ne!(a.fingerprint(), other.fingerprint());
        }
        assert!(a.text().starts_with(&format!("v{CACHE_SCHEMA_VERSION}|")));
    }

    #[test]
    fn summary_rates_mirror_sim_result() {
        let s = summary();
        assert_eq!(s.miss_rate(), 10.0 / 40.0);
        assert!(!s.is_miss_free());
        assert_eq!(s.normalized_sample_values(2.0), vec![0.5, 0.125]);
        let clean = TrialSummary {
            missed: 0,
            ..summary()
        };
        assert!(clean.is_miss_free());
        let undecided = TrialSummary {
            completed_in_time: 0,
            missed: 0,
            ..summary()
        };
        assert_eq!(undecided.miss_rate(), 0.0);
    }
}
