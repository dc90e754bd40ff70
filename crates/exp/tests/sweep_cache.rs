//! Figure-level pack-store behaviour: warm re-runs are bit-identical
//! to cold ones and simulate nothing, a torn record is dropped and
//! recomputed (never trusted), the capacity-search bisection reuses
//! stored probes, and `HARVEST_SWEEP_STORE` gates the whole mechanism.

use std::path::PathBuf;

use harvest_exp::figures::{
    min_zero_miss_capacity_cached, miss_rate_figure_cached, remaining_energy_figure_cached,
};
use harvest_exp::scenario::PolicyKind;
use harvest_exp::store::{PackStore, TrialStore, SWEEP_STORE_ENV};
use harvest_exp::test_support::with_env;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("harvest-sweep-itest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_miss_rate_rerun_is_bit_identical_and_simulates_nothing() {
    let dir = scratch_dir("missrate");
    let policies = [PolicyKind::Lsa, PolicyKind::EaDvfs];

    let store = PackStore::open(&dir).unwrap();
    let (cold, cold_stats) = miss_rate_figure_cached(Some(&store), 0.4, &policies, 1, 2);
    assert!(cold_stats.simulated > 0, "cold run must simulate");
    assert_eq!(cold_stats.cached, 0);
    assert_eq!(
        cold_stats.pool.runs, cold_stats.simulated,
        "every simulated cell must go through a pooled context"
    );
    assert!(cold_stats.pool.event_slab_high_water > 0);
    drop(store);

    // A store-less run is the ground truth the stored paths must hit.
    let (uncached, _) = miss_rate_figure_cached(None, 0.4, &policies, 1, 2);
    assert_eq!(cold, uncached, "storing must not change the figure");

    // Warm re-run: answered entirely from the packs, bit-identical.
    let warm_store = PackStore::open(&dir).unwrap();
    let (warm, warm_stats) = miss_rate_figure_cached(Some(&warm_store), 0.4, &policies, 1, 2);
    assert_eq!(warm, cold, "warm figure must be bit-identical");
    assert_eq!(warm_stats.simulated, 0, "warm re-run must simulate nothing");
    assert_eq!(warm_stats.cached, cold_stats.simulated);
    assert_eq!(warm_stats.pool.runs, 0);
    drop(warm_store);

    // Tear the final record of one pack, as a kill mid-append would:
    // that cell must be dropped, recomputed, and re-stored — and the
    // figure must still come out identical.
    let victim = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "hpk"))
        .expect("store holds packs");
    let len = std::fs::metadata(&victim).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&victim)
        .unwrap()
        .set_len(len - 5)
        .unwrap();
    let healed_store = PackStore::open(&dir).unwrap();
    let (healed, healed_stats) = miss_rate_figure_cached(Some(&healed_store), 0.4, &policies, 1, 2);
    assert_eq!(healed, cold, "a torn record must be recomputed exactly");
    assert_eq!(healed_stats.simulated, 1, "only the torn cell reruns");
    assert_eq!(
        healed_store.stats().stores,
        1,
        "the healed record is re-stored"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The pack store behind the same figure drivers: cold run populates
/// packs, a reopened store answers the whole grid from memory with
/// bit-identical figures — including the f64 sample curves of the
/// remaining-energy driver — and simulates nothing.
#[test]
fn warm_pack_store_reruns_are_bit_identical_across_figures() {
    let dir = scratch_dir("packstore");
    let policies = [PolicyKind::Lsa, PolicyKind::EaDvfs];

    let store = PackStore::open(&dir).unwrap();
    let (cold_miss, cold_stats) = miss_rate_figure_cached(Some(&store), 0.4, &policies, 1, 2);
    assert!(cold_stats.simulated > 0);
    let (cold_energy, _) =
        remaining_energy_figure_cached(Some(&store), 0.4, &[PolicyKind::EaDvfs], 1, 2, 1000);
    let (cold_cmin, _) =
        min_zero_miss_capacity_cached(Some(&store), PolicyKind::Lsa, 0.4, 1, 2, 1e7, 0.01);
    drop(store);

    let warm_store = PackStore::open(&dir).unwrap();
    let (warm_miss, warm_stats) = miss_rate_figure_cached(Some(&warm_store), 0.4, &policies, 1, 2);
    assert_eq!(warm_miss, cold_miss, "warm figure must be bit-identical");
    assert_eq!(warm_stats.simulated, 0, "warm re-run must simulate nothing");
    let (warm_energy, energy_stats) =
        remaining_energy_figure_cached(Some(&warm_store), 0.4, &[PolicyKind::EaDvfs], 1, 2, 1000);
    assert_eq!(warm_energy, cold_energy, "sample curves round-trip bits");
    assert_eq!(energy_stats.simulated, 0);
    let (warm_cmin, cmin_stats) =
        min_zero_miss_capacity_cached(Some(&warm_store), PolicyKind::Lsa, 0.4, 1, 2, 1e7, 0.01);
    assert_eq!(warm_cmin, cold_cmin, "search replays the probe sequence");
    assert_eq!(cmin_stats.simulated, 0);

    // Ground truth: the uncached figure matches what the store served.
    let (uncached, _) = miss_rate_figure_cached(None, 0.4, &policies, 1, 2);
    assert_eq!(uncached, cold_miss, "the store must not change the figure");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn capacity_search_reuses_cached_probes() {
    let dir = scratch_dir("bisect");
    let store = PackStore::open(&dir).unwrap();
    let (cold, cold_stats) =
        min_zero_miss_capacity_cached(Some(&store), PolicyKind::Lsa, 0.4, 1, 2, 1e7, 0.01);
    assert!(cold.is_finite() && cold > 0.0);
    assert!(cold_stats.simulated > 0);
    drop(store);

    // The search is a deterministic function of probe outcomes, so a
    // re-run visits exactly the same capacities and every probe hits.
    let warm_store = PackStore::open(&dir).unwrap();
    let (warm, warm_stats) =
        min_zero_miss_capacity_cached(Some(&warm_store), PolicyKind::Lsa, 0.4, 1, 2, 1e7, 0.01);
    assert_eq!(warm, cold, "search result must replay exactly");
    assert_eq!(warm_stats.simulated, 0);
    assert_eq!(warm_stats.cached, cold_stats.simulated + cold_stats.cached);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_remaining_energy_rerun_preserves_sample_bits() {
    let dir = scratch_dir("energy");
    let store = PackStore::open(&dir).unwrap();
    let policies = [PolicyKind::EaDvfs];
    let (cold, cold_stats) =
        remaining_energy_figure_cached(Some(&store), 0.4, &policies, 1, 2, 1000);
    assert!(cold_stats.simulated > 0);
    drop(store);

    let warm_store = PackStore::open(&dir).unwrap();
    let (warm, warm_stats) =
        remaining_energy_figure_cached(Some(&warm_store), 0.4, &policies, 1, 2, 1000);
    // Full struct equality: the sampled curves are rebuilt from stored
    // IEEE-754 bit patterns, so every f64 must match exactly.
    assert_eq!(warm, cold);
    assert_eq!(warm_stats.simulated, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn env_var_gates_the_public_figure_entry() {
    let dir = scratch_dir("envgate");
    let dir_str = dir.to_str().unwrap().to_owned();
    with_env(&[(SWEEP_STORE_ENV, Some(dir_str.as_str()))], || {
        let cold = harvest_exp::figures::miss_rate_figure(0.4, &[PolicyKind::EaDvfs], 1, 2);
        assert!(
            std::fs::read_dir(&dir).unwrap().any(|e| e
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "hpk")),
            "enabled store must persist packs"
        );
        let warm = harvest_exp::figures::miss_rate_figure(0.4, &[PolicyKind::EaDvfs], 1, 2);
        assert_eq!(warm, cold);
    });
    let _ = std::fs::remove_dir_all(&dir);
}
