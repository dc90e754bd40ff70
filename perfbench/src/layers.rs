//! In-trial layers, measured on a fixed sample of each workload's cells
//! and by workload-sized replays of the public kernel and queue calls.
//!
//! The campaign drivers expose no spans inside a trial, so the split
//! of a trial into event dispatch, energy sync and policy decision is
//! out of reach from outside the program. What is measured instead:
//! exact counts from observed runs of the sample cells, allocations of
//! a steady pooled run, and the per-call cost of the event queue, the
//! EDF queue and the piecewise kernel at the depths and on the
//! profiles the workload itself produces.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use harvest_core::SimResult;
use harvest_exp::scenario::{PaperScenario, PolicyKind, PredictorKind, SimPool, TrialPrefab};
use harvest_sim::engine::Watchdog;
use harvest_sim::event::{EventId, EventQueue};
use harvest_sim::piecewise::PiecewiseConstant;
use harvest_sim::time::{SimTime, TICKS_PER_UNIT};
use harvest_task::{EdfQueue, Job, JobId};

use crate::probes::thread_allocs;
use crate::workloads::{fault_scenario, Grid, Workload, FIG_CAPACITIES, FIG_POLICIES, FIG_UTILS};

/// Task-set seeds in every sample (the drivers' first seeds).
const SAMPLE_SEEDS: u64 = 2;

/// Timed repetitions of every replay; the median is reported.
const REPS: usize = 5;

/// One grid cell of a workload, ready to run.
#[derive(Debug, Clone)]
pub struct SampleCell {
    scenario: PaperScenario,
    policy: PolicyKind,
    prefab: Arc<TrialPrefab>,
    watchdog: Option<Watchdog>,
}

impl SampleCell {
    /// Runs the cell through `pool` with the driver's dispatch: the
    /// figure drivers call `run_prefab_in`, the fault campaign a
    /// one-lane `run_batch` with the watchdog armed.
    fn run(&self, pool: &mut SimPool, scenario: &PaperScenario) -> SimResult {
        match self.watchdog {
            Some(w) => pool
                .run_batch(scenario, self.policy, &[&self.prefab], &[Some(w)])
                .pop()
                .expect("one lane")
                .expect("sample cells finish within the watchdog budget"),
            None => scenario.run_prefab_in(pool, self.policy, &self.prefab),
        }
    }
}

/// The workload's sample: every grid point at the first
/// [`SAMPLE_SEEDS`] task sets.
pub fn sample_cells(workload: Workload, grid: &Grid) -> Vec<SampleCell> {
    let mut cells = Vec::new();
    match workload {
        Workload::FigCold | Workload::FigWarm => {
            let max_capacity = FIG_CAPACITIES[FIG_CAPACITIES.len() - 1];
            for u in FIG_UTILS {
                for seed in 0..SAMPLE_SEEDS.min(grid.fig_trials as u64) {
                    let prefab = Arc::new(PaperScenario::new(u, max_capacity).prefab(seed));
                    for c in FIG_CAPACITIES {
                        for policy in FIG_POLICIES {
                            cells.push(SampleCell {
                                scenario: PaperScenario::new(u, c),
                                policy,
                                prefab: Arc::clone(&prefab),
                                watchdog: None,
                            });
                        }
                    }
                }
            }
        }
        Workload::FaultCampaign => {
            let config = grid.fault_config();
            let scenario_of = |intensity, predictor| fault_scenario(&config, intensity, predictor);
            let base = scenario_of(0.0, config.predictors[0]);
            for seed in 0..SAMPLE_SEEDS.min(config.trials as u64) {
                let prefab = Arc::new(base.prefab(seed));
                for &intensity in &config.intensities {
                    for &predictor in &config.predictors {
                        for &policy in &config.policies {
                            cells.push(SampleCell {
                                scenario: scenario_of(intensity, predictor),
                                policy,
                                prefab: Arc::clone(&prefab),
                                watchdog: config.watchdog,
                            });
                        }
                    }
                }
            }
        }
    }
    cells
}

/// Exact counts summed over observed runs of the sample.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SampleCounts {
    /// Observed trials.
    pub trials: u64,
    /// Cursor segment lookups.
    pub locates: u64,
    /// Segments galloped past the cursor hint.
    pub gallop_segments: u64,
    /// Accumulation-crossing queries, all strategies.
    pub crossings: u64,
    /// Event-queue schedules.
    pub queue_scheduled: u64,
    /// Event-queue pops.
    pub queue_popped: u64,
    /// Event-queue cancellations.
    pub queue_cancelled: u64,
    /// Largest pending-event count of any sample trial.
    pub queue_max_pending: u64,
    /// Policy decisions.
    pub decisions: u64,
    /// Stalls on an empty store.
    pub stalls: u64,
    /// ES(t, D) memo hits.
    pub memo_hits: u64,
    /// ES(t, D) memo misses.
    pub memo_misses: u64,
    /// Allocations of one steady pooled run, summed over the sample.
    pub allocs: u64,
}

/// Runs every sample cell once through `run_prefab_observed` (metrics,
/// trace and profiling on) and once more through a warm pool with the
/// allocation counter read around it.
///
/// Metrics-on runs take the engine's reference path, which routes job
/// releases through the event queue instead of the precomputed release
/// tape; their queue counts therefore include one schedule and one pop
/// per release that the production path elides. The pooled context
/// resets its queue after every run, so the production path's own
/// queue counts are not observable from outside the program.
pub fn sample_counts(cells: &[SampleCell]) -> SampleCounts {
    let mut out = SampleCounts::default();
    let mut pool = SimPool::new();
    for cell in cells {
        let r = cell.scenario.run_prefab_observed(cell.policy, &cell.prefab);
        let m = r.metrics.as_ref().expect("observed runs publish metrics");
        out.trials += 1;
        out.locates += m.counter("cursor.locates");
        out.gallop_segments += m.counter("cursor.gallop_segments");
        out.crossings += ["reject", "bisect", "scan", "cyclic"]
            .iter()
            .map(|k| m.counter(&format!("cursor.cross.{k}")))
            .sum::<u64>();
        out.queue_scheduled += m.counter("queue.scheduled");
        out.queue_popped += m.counter("queue.popped");
        out.queue_cancelled += m.counter("queue.cancelled");
        out.queue_max_pending = out.queue_max_pending.max(m.counter("queue.max_pending"));
        out.decisions += m.counter("sched.decisions");
        out.stalls += m.counter("sched.stalls");
        out.memo_hits += m.counter("sched.es_memo.hits");
        out.memo_misses += m.counter("sched.es_memo.misses");
        // The first run sizes the pool for this cell; the second is the
        // steady state a long campaign runs in.
        drop(cell.run(&mut pool, &cell.scenario));
        let before = thread_allocs();
        let r = cell.run(&mut pool, &cell.scenario);
        out.allocs += thread_allocs() - before;
        drop(r);
    }
    out
}

/// Mean trial time under the EWMA predictor over that under the oracle,
/// on the sample (alternating, median of [`REPS`] passes each).
pub fn predictor_ratio(cells: &[SampleCell]) -> f64 {
    let mut pool = SimPool::new();
    let mut pass = |predictor: PredictorKind| {
        let start = Instant::now();
        for cell in cells {
            let scenario = cell.scenario.clone().with_predictor(predictor);
            black_box(cell.run(&mut pool, &scenario));
        }
        start.elapsed().as_secs_f64()
    };
    let (mut oracle, mut ewma) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        oracle.push(pass(PredictorKind::Oracle));
        ewma.push(pass(PredictorKind::Ewma));
    }
    median(&mut ewma) / median(&mut oracle)
}

/// SplitMix64: the replays' input stream, seeded from `--seed`.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of `v` (0 when empty).
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Operations per timed replay pass.
const OPS: u64 = 200_000;

/// Crossing queries per timed replay pass (each walks many segments).
const CROSSING_OPS: u64 = 20_000;

fn per_op_ns(mut pass: impl FnMut() -> u64) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let ops = pass();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&mut samples)
}

/// Nanoseconds per `EventQueue` operation in a hold model: `depth`
/// events pending, each step pops the earliest and schedules its
/// successor, and a `cancel_share` of steps instead cancels a random
/// pending event and schedules its replacement.
pub fn event_ns_per_op(depth: usize, cancel_share: f64, seed: u64) -> f64 {
    let depth = depth.max(1);
    let mut rng = Rng::new(seed);
    let mut q: EventQueue<usize> = EventQueue::new();
    let mut ids: Vec<EventId> = (0..depth)
        .map(|slot| {
            q.schedule(
                SimTime::from_ticks(rng.below(50 * TICKS_PER_UNIT as u64) as i64),
                slot,
            )
        })
        .collect();
    let gap = |rng: &mut Rng| 1 + rng.below(50 * TICKS_PER_UNIT as u64) as i64;
    per_op_ns(|| {
        let mut ops = 0;
        while ops < OPS {
            if rng.unit() < cancel_share {
                let slot = rng.below(depth as u64) as usize;
                let now = q.current_time().map_or(0, SimTime::as_ticks);
                black_box(q.cancel(ids[slot]));
                ids[slot] = q.schedule(SimTime::from_ticks(now + gap(&mut rng)), slot);
            } else {
                let (t, slot) = q.pop().expect("every slot keeps one event pending");
                ids[slot] = q.schedule(SimTime::from_ticks(t.as_ticks() + gap(&mut rng)), slot);
            }
            ops += 2;
        }
        ops
    })
}

/// Nanoseconds per `EdfQueue` operation with `depth` ready jobs: each
/// step pops the earliest deadline and pushes a new job.
pub fn edf_ns_per_op(depth: usize, seed: u64) -> f64 {
    let depth = depth.max(1);
    let mut rng = Rng::new(seed.wrapping_add(1));
    let mut q = EdfQueue::new();
    let mut next = 0u64;
    let mut now = 0i64;
    let mut push = |q: &mut EdfQueue, rng: &mut Rng, now: i64| {
        let deadline = now + 1 + rng.below(100 * TICKS_PER_UNIT as u64) as i64;
        q.push(Job::new(
            JobId(next),
            (next % 5) as usize,
            SimTime::from_ticks(now),
            SimTime::from_ticks(deadline),
            1.0,
        ));
        next += 1;
    };
    for _ in 0..depth {
        push(&mut q, &mut rng, now);
    }
    per_op_ns(|| {
        let mut ops = 0;
        while ops < OPS {
            black_box(q.pop().expect("depth stays constant"));
            now += 1 + rng.below(TICKS_PER_UNIT as u64) as i64;
            push(&mut q, &mut rng, now);
            ops += 2;
        }
        ops
    })
}

/// One harvest profile of the workload with the storage capacity and
/// horizon its cells run at.
#[derive(Debug, Clone)]
pub struct KernelInput {
    profile: Arc<PiecewiseConstant>,
    capacity: f64,
    horizon_ticks: i64,
}

/// The sample's distinct profiles, each paired with its cells'
/// capacities.
pub fn kernel_inputs(cells: &[SampleCell]) -> Vec<KernelInput> {
    cells
        .iter()
        .map(|c| KernelInput {
            profile: Arc::clone(&c.prefab.profile),
            capacity: c.scenario.capacity,
            horizon_ticks: c.scenario.horizon_units * TICKS_PER_UNIT,
        })
        .collect()
}

/// Nanoseconds per `integrate_with` and per
/// `first_accumulation_crossing_with` call on the workload's profiles,
/// with queries marching forward through the horizon as a trial's do.
pub fn kernel_ns(inputs: &[KernelInput], seed: u64) -> (f64, f64) {
    let mut rng = Rng::new(seed.wrapping_add(2));
    let unit = TICKS_PER_UNIT as u64;
    let integrate = |rng: &mut Rng| {
        let mut calls = 0;
        let mut sum = 0.0;
        while calls < OPS {
            let input = &inputs[rng.below(inputs.len() as u64) as usize];
            let mut cur = input.profile.cursor();
            let mut t1 = 0i64;
            for _ in 0..1000 {
                t1 += rng.below(2 * unit) as i64;
                let t2 = t1 + 1 + rng.below(20 * unit) as i64;
                if t2 > input.horizon_ticks {
                    break;
                }
                sum += input.profile.integrate_with(
                    &mut cur,
                    SimTime::from_ticks(t1),
                    SimTime::from_ticks(t2),
                );
                calls += 1;
            }
        }
        black_box(sum);
        calls
    };
    // Storage fill/empty queries as the engine issues them: from the
    // current instant to the next event, towards an empty or a full
    // store, under a constant drain.
    let crossing = |rng: &mut Rng| {
        let mut calls = 0;
        while calls < CROSSING_OPS {
            let input = &inputs[rng.below(inputs.len() as u64) as usize];
            let mut cur = input.profile.cursor();
            let drain = 2.0 * input.profile.domain_mean();
            let mut from = 0i64;
            for _ in 0..1000 {
                from += rng.below(2 * unit) as i64;
                let to = from + 1 + rng.below(50 * unit) as i64;
                if to > input.horizon_ticks {
                    break;
                }
                let target = if rng.below(2) == 0 {
                    0.0
                } else {
                    input.capacity
                };
                black_box(input.profile.first_accumulation_crossing_with(
                    &mut cur,
                    SimTime::from_ticks(from),
                    SimTime::from_ticks(to),
                    rng.unit() * input.capacity,
                    -rng.unit() * drain,
                    input.capacity,
                    target,
                ));
                calls += 1;
            }
        }
        calls
    };
    let integrate_ns = per_op_ns(|| integrate(&mut rng));
    let crossing_ns = per_op_ns(|| crossing(&mut rng));
    (integrate_ns, crossing_ns)
}
