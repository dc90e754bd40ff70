//! Pack-store crash-consistency properties: a torn pack tail loses at
//! most the torn record and never corrupts an earlier one, a truncated
//! or garbled sidecar index is re-derived from the packs with no
//! decided cell lost, and legacy per-file cache entries import into
//! the pack byte-identically (f64 sample bit patterns included).
//!
//! The corruption grid mirrors the deterministic fault-injection style
//! of the engine's crash tests: proptest picks *where* to cut, the
//! assertions are exact (which cells survive, which recompute) rather
//! than "it did not crash".

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use harvest_exp::cache::{TrialKey, TrialSummary};
use harvest_exp::manifest::CellOutcome;
use harvest_exp::scenario::{PaperScenario, PolicyKind};
use harvest_exp::store::{DecidedStore, PackStore, TrialStore};
use proptest::prelude::*;

/// A fresh directory for one call: the per-call counter keeps tests
/// that run concurrently in this process (and share the pid and case
/// number) from deleting each other's stores.
fn scratch_dir(tag: &str, case: u64) -> PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "harvest-store-crash-{tag}-{case:016x}-{}-{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key_of(seed: u64) -> TrialKey {
    PaperScenario::new(0.4, 300.0).trial_key(PolicyKind::EaDvfs, seed)
}

/// A summary whose payload exercises the full codec: counters plus
/// raw f64 bit patterns (including values JSON could not round-trip,
/// like NaNs with payload bits).
fn summary_of(seed: u64, sample_bits: &[u64]) -> TrialSummary {
    TrialSummary {
        released: 40 + seed,
        completed_in_time: 30 + seed,
        missed: 10,
        sample_level_bits: sample_bits.to_vec(),
    }
}

/// The single pack file of a store written by one thread.
fn only_pack(dir: &PathBuf) -> PathBuf {
    let packs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "hpk"))
        .collect();
    assert_eq!(packs.len(), 1, "single-threaded appends use one slot");
    packs.into_iter().next().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cut an arbitrary number of bytes off the pack tail: every record
    /// before the cut must survive bit-identically, everything at or
    /// past the cut is truncated away (a recomputable miss, never a
    /// garbled hit), and the reopened store has healed the file to a
    /// record boundary so a third open scans cleanly.
    #[test]
    fn torn_pack_tail_loses_only_the_torn_records(
        case in any::<u64>(),
        records in 2usize..6,
        cut in 1u64..200,
        bits in proptest::collection::vec(any::<u64>(), 0..5),
    ) {
        let dir = scratch_dir("tail", case);
        {
            let store = PackStore::open(&dir).unwrap();
            for seed in 0..records as u64 {
                store.store(&key_of(seed), &summary_of(seed, &bits));
            }
        }
        let pack = only_pack(&dir);
        let full = std::fs::read(&pack).unwrap();
        // Never cut into the 8-byte magic: a headerless file is ignored
        // wholesale, which is the unit-tested path, not this one.
        let cut = (cut % (full.len() as u64 - 8)).max(1);
        let torn_len = full.len() - cut as usize;
        std::fs::write(&pack, &full[..torn_len]).unwrap();

        let reopened = PackStore::open(&dir).unwrap();
        let healed_len = std::fs::metadata(&pack).unwrap().len();
        prop_assert!(healed_len <= torn_len as u64, "healing never grows the file");
        // Survivors are exactly the records wholly before the cut —
        // count them through probes and check bit-identity.
        let mut survivors = 0;
        for seed in 0..records as u64 {
            if let Some(got) = reopened.probe(&key_of(seed)) {
                prop_assert_eq!(got, summary_of(seed, &bits));
                survivors += 1;
            } else {
                // Missing records must be a suffix: a torn tail cannot
                // swallow an earlier record while serving a later one.
                for later in seed..records as u64 {
                    prop_assert!(reopened.probe(&key_of(later)).is_none());
                }
                break;
            }
        }
        prop_assert!(survivors < records, "the cut destroyed at least one record");
        prop_assert_eq!(reopened.len(), survivors);
        // The lost cells recompute and re-store; a clean reopen then
        // serves the full grid again.
        for seed in survivors as u64..records as u64 {
            reopened.store(&key_of(seed), &summary_of(seed, &bits));
        }
        drop(reopened);
        let healed = PackStore::open(&dir).unwrap();
        for seed in 0..records as u64 {
            prop_assert_eq!(healed.probe(&key_of(seed)), Some(summary_of(seed, &bits)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncate or garble the sidecar index at an arbitrary byte: the
    /// store must fall back to a full pack scan and serve every decided
    /// cell — done *and* quarantined records both survive, so a resumed
    /// fault campaign loses nothing to a torn index.
    #[test]
    fn truncated_sidecar_rederives_every_decided_cell(
        case in any::<u64>(),
        cut_at in 0usize..64,
        garble in any::<bool>(),
    ) {
        let dir = scratch_dir("idx", case);
        let failure = harvest_exp::parallel::CellFailure {
            message: "watchdog: starved".to_owned(),
            panicked: false,
            worker: 1,
            flight: None,
        };
        {
            let store = PackStore::open(&dir).unwrap();
            for seed in 0..3u64 {
                store.record_done(&key_of(seed), &summary_of(seed, &[1, 2])).unwrap();
            }
            store.record_quarantined(&key_of(3), &failure).unwrap();
        }
        let idx = only_pack(&dir).with_extension("idx");
        prop_assert!(idx.exists(), "clean drop writes the sidecar");
        let idx_bytes = std::fs::read(&idx).unwrap();
        let cut_at = cut_at % idx_bytes.len();
        if garble {
            let mut garbled = idx_bytes.clone();
            garbled[cut_at] ^= 0xA5;
            std::fs::write(&idx, garbled).unwrap();
        } else {
            std::fs::write(&idx, &idx_bytes[..cut_at]).unwrap();
        }

        let reopened = PackStore::open(&dir).unwrap();
        prop_assert_eq!(reopened.resumed(), 4, "every decided cell reloads");
        for seed in 0..3u64 {
            match reopened.decided(&key_of(seed)) {
                Some(CellOutcome::Done(got)) => prop_assert_eq!(got, summary_of(seed, &[1, 2])),
                other => prop_assert!(false, "cell {} not done: {:?}", seed, other),
            }
        }
        match reopened.decided(&key_of(3)) {
            Some(CellOutcome::Quarantined(got)) => prop_assert_eq!(got, failure.clone()),
            other => prop_assert!(false, "quarantine lost: {:?}", other),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Legacy per-file JSON cache entries (`<fingerprint>.json` files
    /// of `{key, summary}`) import into the pack store byte-identically
    /// — counters and raw sample bit patterns — and a second import
    /// adds nothing.
    #[test]
    fn legacy_import_round_trips_sample_bits(
        case in any::<u64>(),
        grids in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..4), 1..4),
    ) {
        #[derive(serde::Serialize)]
        struct LegacyEntry {
            key: String,
            summary: TrialSummary,
        }
        let legacy = scratch_dir("legacy-src", case);
        let dir = scratch_dir("legacy-dst", case);
        std::fs::create_dir_all(&legacy).unwrap();
        for (seed, bits) in grids.iter().enumerate() {
            let key = key_of(seed as u64);
            let entry = LegacyEntry {
                key: key.text().to_owned(),
                summary: summary_of(seed as u64, bits),
            };
            std::fs::write(
                legacy.join(format!("{:016x}.json", key.fingerprint())),
                serde_json::to_string(&entry).unwrap(),
            )
            .unwrap();
        }

        let store = PackStore::open(&dir).unwrap();
        let imported = store.import(&legacy).unwrap();
        prop_assert_eq!(imported, grids.len());
        for (seed, bits) in grids.iter().enumerate() {
            prop_assert_eq!(
                store.probe(&key_of(seed as u64)),
                Some(summary_of(seed as u64, bits))
            );
        }
        prop_assert_eq!(store.import(&legacy).unwrap(), 0, "a re-run imports nothing");
        drop(store);
        // The imported records persist in the pack across a reopen.
        let reopened = PackStore::open(&dir).unwrap();
        for (seed, bits) in grids.iter().enumerate() {
            prop_assert_eq!(
                reopened.probe(&key_of(seed as u64)),
                Some(summary_of(seed as u64, bits))
            );
        }
        let _ = std::fs::remove_dir_all(&legacy);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
