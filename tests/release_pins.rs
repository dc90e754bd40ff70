//! Pinned digests of the release path.
//!
//! Every run releases its jobs from a precomputed [`ReleaseTape`] and
//! keeps its pending deadline checks in per-task FIFOs beside the event
//! queue. The digests below were recorded from the former heap-driven
//! release path, which scheduled every arrival and every deadline check
//! on the event queue, so they pin the tape to the dispatch order that
//! path defined: same-instant ties, unconstrained deadlines (`D > T`,
//! several checks outstanding per task) and both miss policies.
//!
//! One digest covers a group of trials. It is FNV-1a 64 over, for each
//! trial in group order, the JSON of its [`TrialSummary`], a newline,
//! the JSON of its job records, a newline, its handled-event count and
//! a newline.
//!
//! [`ReleaseTape`]: harvest_rt::sim::event::ReleaseTape
//! [`TrialSummary`]: harvest_rt::exp::cache::TrialSummary

use std::sync::Arc;

use harvest_rt::core::system::{try_simulate_in, RunContext};
use harvest_rt::exp::cache::{fnv1a64, TrialSummary};
use harvest_rt::exp::scenario::SimPool;
use harvest_rt::prelude::*;

/// FNV-1a 64 over the trials' summaries, job records and event counts.
fn digest(results: &[SimResult]) -> u64 {
    let mut text = String::new();
    for r in results {
        text += &serde_json::to_string(&TrialSummary::of(r)).unwrap();
        text.push('\n');
        text += &serde_json::to_string(&r.jobs).unwrap();
        text.push('\n');
        text += &r.events.to_string();
        text.push('\n');
    }
    fnv1a64(text.as_bytes())
}

/// Digests as hex, so a mismatch prints readably.
fn hex(digests: &[u64]) -> Vec<String> {
    digests.iter().map(|d| format!("{d:#018x}")).collect()
}

/// The paper's three policies.
const POLICIES: [PolicyKind; 3] = [PolicyKind::Edf, PolicyKind::Lsa, PolicyKind::EaDvfs];

/// One group per `(seed, capacity)` and policy, in loop order, each
/// covering utilization {0.3, 0.9} × fault intensity {0, 0.5} ×
/// sampling {none, every 173 units} at a 500-unit horizon.
const SCENARIO_PINS: [[u64; 3]; 4] = [
    [0xefb1558ecd571110, 0x44ac52df5ac4e127, 0xb7b7cf97c8e70855], // seed 0, C = 50
    [0x47ad7eb4526b189c, 0xb7aa4bb3c5ddab37, 0x47cfdca5a73fce57], // seed 7, C = 300
    [0x81b447a7cf821192, 0xa7dd87c724fe4519, 0x55c6ef2e666805e3], // seed 42, C = 120
    [0xf2104508cbe964e4, 0xf2104508cbe964e4, 0xf2104508cbe964e4], // seed 1023, C = 2000
];

#[test]
fn paper_scenarios_reproduce_heap_release_digests() {
    let mut pool = SimPool::new();
    let mut got = Vec::new();
    for (seed, capacity) in [(0u64, 50.0), (7, 300.0), (42, 120.0), (1023, 2000.0)] {
        for policy in POLICIES {
            let mut group = Vec::new();
            for utilization in [0.3, 0.9] {
                for fault in [0.0, 0.5] {
                    for sample in [None, Some(173)] {
                        let mut s =
                            PaperScenario::new(utilization, capacity).with_fault_intensity(fault);
                        s.horizon_units = 500;
                        s.sample_interval_units = sample;
                        group.push(s.run_prefab_in(&mut pool, policy, &s.prefab(seed)));
                    }
                }
            }
            got.push(digest(&group));
        }
    }
    assert_eq!(hex(&got), hex(&SCENARIO_PINS.concat()), "digests moved");
}

fn u(x: i64) -> SimTime {
    SimTime::from_whole_units(x)
}

fn d(x: i64) -> SimDuration {
    SimDuration::from_whole_units(x)
}

/// Hand-built sets with unconstrained deadlines. The first has `D > T`
/// on every task; the second mixes `D > T`, `D = T`, `D < T` and a
/// one-shot job, with phases that make releases and checks share
/// instants.
fn unconstrained_sets() -> [TaskSet; 2] {
    [
        TaskSet::new(vec![
            Task::periodic(u(0), d(10), d(17), 3.0),
            Task::periodic(u(3), d(14), d(25), 4.0),
            Task::periodic(u(5), d(25), d(40), 6.0),
        ]),
        TaskSet::new(vec![
            Task::periodic(u(0), d(8), d(8), 2.0),
            Task::periodic(u(2), d(12), d(30), 5.0),
            Task::periodic(u(1), d(6), d(4), 1.0),
            Task::periodic(u(4), d(5), d(11), 1.5),
            Task::once(u(50), d(100), 10.0),
        ]),
    ]
}

/// One group per set and miss policy, in loop order, each covering the
/// three policies × capacity {40, 400} on a solar profile over a
/// 600-unit horizon, sampled every 37 units.
const UNCONSTRAINED_PINS: [[u64; 2]; 2] = [
    [0xfd93d627117f588b, 0x0f38afaff4d8bd1e], // set 0: abort, run to completion
    [0x387447b6d8322f40, 0x506c346b47951095], // set 1: abort, run to completion
];

#[test]
fn unconstrained_deadlines_reproduce_heap_release_digests() {
    let profile = Arc::new(PaperScenario::new(0.5, 300.0).profile(11));
    let mut ctx = RunContext::new();
    let mut got = Vec::new();
    for tasks in unconstrained_sets() {
        let tasks = Arc::new(tasks);
        for miss_policy in [MissPolicy::AbortAtDeadline, MissPolicy::RunToCompletion] {
            let mut group = Vec::new();
            for policy in POLICIES {
                for capacity in [40.0, 400.0] {
                    let config =
                        SystemConfig::new(presets::xscale(), StorageSpec::ideal(capacity), d(600))
                            .with_miss_policy(miss_policy)
                            .with_sample_interval(d(37));
                    let r = try_simulate_in(
                        &mut ctx,
                        config,
                        Arc::clone(&tasks),
                        Arc::clone(&profile),
                        policy.build().as_mut(),
                        Box::new(OraclePredictor::from_shared(Arc::clone(&profile))),
                        None,
                    )
                    .expect("no watchdog, no abort");
                    assert!(r.missed() > 0, "every run is stressed");
                    group.push(r);
                }
            }
            got.push(digest(&group));
        }
    }
    assert_eq!(
        hex(&got),
        hex(&UNCONSTRAINED_PINS.concat()),
        "digests moved"
    );
}
