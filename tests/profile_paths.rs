//! The two segment-lookup paths of the piecewise kernel drive the whole
//! closed loop identically.
//!
//! A solar profile sampled on a uniform grid locates segments by one
//! integer division; any other profile gallops from a cursor hint. Each
//! test here runs a trial once on its sampled (uniform) profile and once
//! on a *galloping twin*: the same breakpoints and values plus one extra
//! segment past the horizon, one tick wider than the grid step, that
//! holds the last sample. The twin agrees with the original everywhere
//! the run looks, but is non-uniform, so every lookup takes the
//! galloping branch. The runs must agree bit for bit: the same jobs and
//! outcomes, the same event and switch counts, and the same energy.

use std::sync::Arc;

use harvest_rt::exp::scenario::{SimPool, TrialPrefab};
use harvest_rt::prelude::*;
use proptest::prelude::*;

/// `profile` with one more segment, one tick wider than its grid step
/// and holding its last value. Panics unless `profile` is a uniform
/// grid, so the twin really is the only non-uniform one of the pair.
fn galloping_twin(profile: &PiecewiseConstant) -> PiecewiseConstant {
    let n = profile.segment_count() as i64;
    let span = (profile.domain_end() - profile.domain_start()).as_ticks();
    assert_eq!(span % n, 0, "the sampled profile is a uniform grid");
    let dt = SimDuration::from_ticks(span / n);
    let mut breakpoints: Vec<SimTime> = (0..=n)
        .map(|i| profile.domain_start() + SimDuration::from_ticks(i * dt.as_ticks()))
        .collect();
    breakpoints.push(profile.domain_end() + dt + SimDuration::from_ticks(1));
    let mut values = profile.values().to_vec();
    values.push(values[values.len() - 1]);
    let twin = PiecewiseConstant::new(breakpoints, values, profile.extension())
        .expect("the twin extends a valid profile");
    for (i, w) in [0, n / 2, n - 1].into_iter().enumerate() {
        let t = profile.domain_start() + SimDuration::from_ticks(w * dt.as_ticks());
        assert_eq!(
            profile.value_at(t).to_bits(),
            twin.value_at(t).to_bits(),
            "probe {i}"
        );
    }
    twin
}

/// `prefab` with its profile swapped for the galloping twin; the task
/// set and release tape are shared.
fn twin_prefab(prefab: &TrialPrefab) -> TrialPrefab {
    TrialPrefab {
        profile: Arc::new(galloping_twin(&prefab.profile)),
        ..prefab.clone()
    }
}

/// Asserts two runs are identical, with every energy figure compared
/// by its bit pattern (`PartialEq` alone would let `-0.0` equal `0.0`).
fn assert_bit_identical(a: &SimResult, b: &SimResult) {
    assert_eq!(a.jobs, b.jobs, "job records");
    assert_eq!(a.events, b.events, "event count");
    assert_eq!(a.switches, b.switches, "switch count");
    assert_eq!(a.samples, b.samples, "storage samples");
    let bits = |r: &SimResult| {
        let e = r.energy;
        let mut v = vec![
            e.harvested,
            e.consumed,
            e.overflow,
            e.deficit,
            e.initial_level,
            e.final_level,
            r.idle_time,
            r.stall_time,
        ];
        v.extend(&r.level_time);
        v.extend(r.jobs.iter().map(|j| j.energy));
        v.extend(r.samples.iter().map(|&(_, level)| level));
        v.into_iter().map(f64::to_bits).collect::<Vec<_>>()
    };
    assert_eq!(bits(a), bits(b), "energy and time figures");
    assert_eq!(a, b);
}

fn short_scenario(utilization: f64, capacity: f64) -> PaperScenario {
    let mut s = PaperScenario::new(utilization, capacity).with_sampling(50);
    s.horizon_units = 1_500; // keep each proptest case fast
    s
}

fn policy_strategy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Edf),
        Just(PolicyKind::Lsa),
        Just(PolicyKind::EaDvfs),
        Just(PolicyKind::GreedyStretch),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every policy replays bit-identically on the galloping twin.
    #[test]
    fn galloping_twin_replays_every_policy_bit_identically(
        policy in policy_strategy(),
        u in 0.1f64..0.9,
        c in 50.0f64..3000.0,
        seed in 0u64..1_000,
    ) {
        let s = short_scenario(u, c);
        let prefab = s.prefab(seed);
        let twin = twin_prefab(&prefab);
        assert_bit_identical(&s.run_prefab(policy, &prefab), &s.run_prefab(policy, &twin));
    }

    /// The predictors read the profile too (the oracle directly, the
    /// others through their observations); each one's EA-DVFS run is
    /// unchanged on the twin. The EWMA predictor is left out: it seeds
    /// its slots with the profile's domain mean, which the twin's extra
    /// segment shifts, so its runs differ for a reason that has nothing
    /// to do with the lookup path.
    #[test]
    fn galloping_twin_replays_profile_reading_predictors_bit_identically(
        predictor in prop_oneof![
            Just(PredictorKind::Oracle),
            Just(PredictorKind::MovingAverage { window: 40 }),
            Just(PredictorKind::Persistence),
            Just(PredictorKind::Biased { factor: 1.3 }),
        ],
        u in 0.1f64..0.9,
        c in 50.0f64..3000.0,
        seed in 0u64..1_000,
    ) {
        let s = short_scenario(u, c).with_predictor(predictor);
        let prefab = s.prefab(seed);
        let twin = twin_prefab(&prefab);
        assert_bit_identical(
            &s.run_prefab(PolicyKind::EaDvfs, &prefab),
            &s.run_prefab(PolicyKind::EaDvfs, &twin),
        );
    }

    /// Fault plans fold harvest blackouts into the profile before the
    /// run; folding the twin instead of the grid changes nothing.
    #[test]
    fn galloping_twin_replays_faulted_runs_bit_identically(
        policy in policy_strategy(),
        intensity in 0.05f64..1.0,
        c in 50.0f64..3000.0,
        seed in 0u64..1_000,
    ) {
        let s = short_scenario(0.5, c).with_fault_intensity(intensity);
        let prefab = s.prefab(seed);
        let twin = twin_prefab(&prefab);
        assert_bit_identical(&s.run_prefab(policy, &prefab), &s.run_prefab(policy, &twin));
    }
}

/// Paper-scale cells (10 000-unit horizon) of the Fig. 8/9 comparison:
/// EA-DVFS and LSA agree across the two paths at every capacity probed.
#[test]
fn paper_horizon_cells_match_across_profile_paths() {
    for (seed, capacity) in [(0u64, 100.0), (1, 500.0), (2, 2_000.0)] {
        let s = PaperScenario::new(0.4, capacity).with_sampling(100);
        let prefab = s.prefab(seed);
        let twin = twin_prefab(&prefab);
        for policy in [PolicyKind::EaDvfs, PolicyKind::Lsa] {
            assert_bit_identical(&s.run_prefab(policy, &prefab), &s.run_prefab(policy, &twin));
        }
    }
}

/// A sweep worker's pooled runs (reused queues, scheduler and metrics)
/// agree across the two paths, in either order through one pool.
#[test]
fn pooled_runs_match_across_profile_paths() {
    let s = short_scenario(0.6, 400.0);
    let mut pool = SimPool::new();
    for seed in 0..4u64 {
        let prefab = s.prefab(seed);
        let twin = twin_prefab(&prefab);
        let fresh = s.run_prefab(PolicyKind::EaDvfs, &prefab);
        let a = s.run_prefab_in(&mut pool, PolicyKind::EaDvfs, &twin);
        let b = s.run_prefab_in(&mut pool, PolicyKind::EaDvfs, &prefab);
        assert_bit_identical(&fresh, &a);
        assert_bit_identical(&fresh, &b);
    }
}

/// The heap-driven release path on the galloping twin matches the
/// release-tape path on the uniform grid: neither the release source
/// nor the lookup path moves a single figure.
#[test]
fn heap_releases_on_twin_match_taped_releases_on_grid() {
    let s = short_scenario(0.5, 800.0);
    for seed in 0..4u64 {
        let prefab = s.prefab(seed);
        assert!(prefab.tape.is_some(), "scenario prefabs carry a tape");
        let twin = twin_prefab(&prefab).without_tape();
        for policy in [PolicyKind::EaDvfs, PolicyKind::Lsa] {
            assert_bit_identical(&s.run_prefab(policy, &prefab), &s.run_prefab(policy, &twin));
        }
    }
}
