//! Pooled-execution parity: trials replayed through a worker's
//! [`SimPool`] must be bit-identical to fresh [`run_prefab`] runs, for
//! every policy and **regardless of the order** trials pass through the
//! pool — a pooled context must carry nothing from one run into the
//! next.
//!
//! [`SimPool`]: harvest_exp::scenario::SimPool
//! [`run_prefab`]: harvest_exp::scenario::PaperScenario::run_prefab

use harvest_exp::scenario::{PaperScenario, PolicyKind, SimPool, TrialPrefab};
use harvest_sim::engine::Watchdog;
use proptest::prelude::*;

/// splitmix64: one `u64` of proptest entropy drives the whole shuffle.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A Fisher–Yates permutation of `0..n` seeded by `seed`.
fn shuffled(n: usize, mut seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(&mut seed) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn scenario_at(capacity: f64) -> PaperScenario {
    // A shortened horizon keeps each case fast without changing what is
    // exercised: queue reuse, scheduler reset, metrics reset.
    let mut s = PaperScenario::new(0.4, capacity);
    s.horizon_units = 1_500;
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every (policy × capacity) cell, replayed through one shared pool
    /// in a random order, equals its fresh run — full `SimResult`
    /// equality, which covers job records, energy accounting, event
    /// counts, and sampled levels bit for bit.
    #[test]
    fn pooled_runs_match_fresh_in_any_order(
        perm_seed in any::<u64>(),
        trial_seed in any::<u64>(),
    ) {
        let trial_seed = trial_seed % 4;
        let policies = [PolicyKind::Lsa, PolicyKind::EaDvfs, PolicyKind::GreedyStretch];
        let capacities = [150.0, 600.0];
        let prefab = scenario_at(capacities[0]).prefab(trial_seed);

        let mut cells = Vec::new();
        for &policy in &policies {
            for &capacity in &capacities {
                cells.push((policy, capacity));
            }
        }
        let fresh: Vec<_> = cells
            .iter()
            .map(|&(policy, capacity)| scenario_at(capacity).run_prefab(policy, &prefab))
            .collect();

        let order = shuffled(cells.len(), perm_seed);
        let mut pool = SimPool::new();
        for &i in &order {
            let (policy, capacity) = cells[i];
            let pooled = scenario_at(capacity).run_prefab_in(&mut pool, policy, &prefab);
            prop_assert!(
                pooled == fresh[i],
                "pooled run differs from fresh for {:?} at capacity {} (position {} of shuffle)",
                policy,
                capacity,
                i
            );
        }
        prop_assert_eq!(pool.stats().runs, cells.len() as u64);
        prop_assert!(pool.stats().event_slab_high_water > 0);
    }
}

/// `SimPool::run_batch` is a loop over `try_run_prefab_in`: over a slice
/// with one watchdog abort in the middle it returns what one call per
/// prefab returns, its flight dumps come out in prefab order, and the
/// pool stays reusable afterwards.
#[test]
fn watchdog_lanes_abort_identically() {
    let mut scenario = PaperScenario::new(0.5, 300.0);
    scenario.num_tasks = 4;
    scenario.horizon_units = 500;
    let prefabs: Vec<TrialPrefab> = (0..3).map(|s| scenario.prefab(s)).collect();
    let refs: Vec<&TrialPrefab> = prefabs.iter().collect();
    let starve = Some(Watchdog::with_max_events(4));
    let watchdogs = [None, starve, None];
    let mut pool = SimPool::new();
    pool.enable_flight(64);
    let batched = pool.run_batch(&scenario, PolicyKind::Lsa, &refs, &watchdogs);
    let mut scalar_pool = SimPool::new();
    scalar_pool.enable_flight(64);
    let scalar: Vec<_> = refs
        .iter()
        .zip(&watchdogs)
        .map(|(prefab, &w)| {
            scenario.try_run_prefab_in(&mut scalar_pool, PolicyKind::Lsa, prefab, w)
        })
        .collect();
    assert_eq!(batched, scalar);
    assert!(batched[0].is_ok() && batched[2].is_ok());
    assert!(batched[1].is_err(), "starved prefab must abort");
    let dumps = pool.take_flight_dumps();
    assert_eq!(dumps.len(), 1, "one dump per abort");
    assert_eq!(dumps, scalar_pool.take_flight_dumps());

    // Two aborts: the dumps come out in prefab order.
    let watchdogs = [starve, None, Some(Watchdog::with_max_events(9))];
    let batched = pool.run_batch(&scenario, PolicyKind::Lsa, &refs, &watchdogs);
    assert!(batched[0].is_err() && batched[1].is_ok() && batched[2].is_err());
    let dumps = pool.take_flight_dumps();
    let events: Vec<u64> = dumps.iter().map(|d| d.events_handled).collect();
    // A watchdog fires on the first event past its budget.
    assert_eq!(events, [4 + 1, 9 + 1], "dumps in prefab order");

    // The pool heals: clean runs after the aborts match fresh ones.
    for prefab in &prefabs {
        let pooled = scenario.run_prefab_in(&mut pool, PolicyKind::Lsa, prefab);
        assert_eq!(pooled, scenario.run_prefab(PolicyKind::Lsa, prefab));
    }
    assert_eq!(pool.stats().runs, 9);
}
