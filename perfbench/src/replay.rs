//! Traced replays of the campaign drivers.
//!
//! Each replay makes the same public layer calls as the real driver,
//! in the driver's order and with one `SimPool` per worker, and times
//! every call as a span. The cells it writes are later read back by
//! the real driver, which must simulate none of them and reproduce the
//! same digests — that is what proves the replay did the driver's work.

use std::path::Path;

use harvest_core::SimResult;
use harvest_exp::cache::{TrialKey, TrialSummary};
use harvest_exp::figures::{MissRateFigure, MissRateRow, RobustnessFigure, RobustnessRow};
use harvest_exp::manifest::CellOutcome;
use harvest_exp::parallel::{parallel_map_quarantined, parallel_map_with, CellFailure};
use harvest_exp::scenario::{PaperScenario, PolicyKind, SimPool, TrialPrefab};
use harvest_exp::store::{DecidedStore, PackStore, TrialStore};

use crate::probes::record_bytes;
use crate::trace::{Tracer, WorkerTrack, FIGURES, PARALLEL, SCENARIO, STORE, SYSTEM};
use crate::workloads::{
    fault_scenario, figure_digest, open_store, Grid, FIG_CAPACITIES, FIG_POLICIES, FIG_UTILS,
};

/// Exact work counts of one replayed campaign. Every field is a sum or
/// a maximum over cells, so it repeats bit for bit across runs and
/// thread counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Trials simulated.
    pub trials: u64,
    /// Engine events handled, summed over trials.
    pub events: u64,
    /// DVFS switches, summed over trials.
    pub switches: u64,
    /// Jobs released, summed over trials.
    pub jobs: u64,
    /// Largest EDF ready-queue capacity any worker's pool retained.
    pub ready_high_water: u64,
    /// Trial prefabs built.
    pub prefabs: u64,
    /// Trial keys built on the driver thread.
    pub keys: u64,
    /// Cells probed against the store.
    pub probes: u64,
    /// Probes the store answered.
    pub hits: u64,
    /// Records the store loaded at open.
    pub records_loaded: u64,
    /// Records appended.
    pub appended: u64,
    /// Durability barriers called.
    pub barriers: u64,
    /// Record bytes on disk after close (pack headers excluded).
    pub record_bytes: u64,
    /// Store I/O retries.
    pub retries: u64,
    /// Store degradations.
    pub degraded: u64,
    /// Quarantined cells.
    pub quarantined: u64,
}

impl Counts {
    fn add_trial(&mut self, r: &SimResult) {
        self.trials += 1;
        self.events += r.events;
        self.switches += r.switches;
        self.jobs += r.released() as u64;
    }

    fn merge(&mut self, o: &Counts) {
        self.trials += o.trials;
        self.events += o.events;
        self.switches += o.switches;
        self.jobs += o.jobs;
        self.ready_high_water = self.ready_high_water.max(o.ready_high_water);
        self.appended += o.appended;
    }
}

/// One replayed campaign: its root span, digests and counts.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// Root span of the campaign in the tracer.
    pub root: usize,
    /// Figure digests, in grid order.
    pub digests: Vec<u64>,
    /// Exact work counts.
    pub counts: Counts,
}

/// Per-worker state of a traced fan-out: span track, pooled context,
/// and counts.
type Worker = (WorkerTrack, SimPool, Counts);

fn close_store(tr: &mut Tracer, root: usize, store: PackStore, dir: &Path, counts: &mut Counts) {
    let health = TrialStore::io_health(&store);
    counts.retries = health.retries;
    counts.degraded = health.degraded;
    tr.time("close", STORE, root, || drop(store));
    counts.record_bytes = record_bytes(dir);
}

/// Replays Fig. 8 then Fig. 9 through `miss_rate_figure_cached`'s calls
/// on the store at `dir`, then syncs and closes it. A fresh directory
/// gives the cold campaign (and the warm workload's fill), a filled one
/// a warm pass.
pub fn fig_campaign(tr: &mut Tracer, dir: &Path, grid: &Grid) -> Replayed {
    let root = tr.begin_campaign();
    let store = tr.time("open", STORE, root, || open_store(dir));
    let mut counts = Counts {
        records_loaded: store.loaded() as u64,
        ..Counts::default()
    };
    let mut digests = Vec::new();
    for u in FIG_UTILS {
        let figure = miss_rate(tr, root, &store, u, grid, &mut counts);
        digests.push(figure_digest(&figure));
    }
    tr.time("barrier", STORE, root, || TrialStore::barrier(&store));
    counts.barriers += 1;
    close_store(tr, root, store, dir, &mut counts);
    tr.close(root);
    Replayed {
        root,
        digests,
        counts,
    }
}

fn miss_rate(
    tr: &mut Tracer,
    root: usize,
    store: &PackStore,
    utilization: f64,
    grid: &Grid,
    counts: &mut Counts,
) -> MissRateFigure {
    let (trials, threads) = (grid.fig_trials, grid.threads);
    let fig = tr.open("figure", FIGURES, Some(root));
    let max_capacity = FIG_CAPACITIES[FIG_CAPACITIES.len() - 1];
    let jobs: Vec<(usize, f64, PolicyKind, u64)> = FIG_CAPACITIES
        .iter()
        .enumerate()
        .flat_map(|(ci, &c)| {
            FIG_POLICIES
                .iter()
                .flat_map(move |&p| (0..trials as u64).map(move |s| (ci, c, p, s)))
        })
        .collect();

    let keys: Vec<TrialKey> = tr.time("keys", SCENARIO, fig, || {
        jobs.iter()
            .map(|&(_, c, p, s)| PaperScenario::new(utilization, c).trial_key(p, s))
            .collect()
    });
    let mut summaries = tr.time("probe", STORE, fig, || TrialStore::probe_many(store, &keys));
    counts.keys += keys.len() as u64;
    counts.probes += keys.len() as u64;
    counts.hits += summaries.iter().filter(|s| s.is_some()).count() as u64;
    let pending: Vec<usize> = (0..jobs.len())
        .filter(|&i| summaries[i].is_none())
        .collect();

    let mut needed: Vec<u64> = pending.iter().map(|&i| jobs[i].3).collect();
    needed.sort_unstable();
    needed.dedup();
    let build = tr.open("build", PARALLEL, Some(fig));
    let (built, tracks) = {
        let tr = &*tr;
        parallel_map_with(
            needed.clone(),
            threads,
            |w| tr.track(w, build),
            |t, seed| {
                t.time("prefab", SCENARIO, || {
                    PaperScenario::new(utilization, max_capacity).prefab(seed)
                })
            },
        )
    };
    tr.close(build);
    tr.absorb(tracks);
    counts.prefabs += built.len() as u64;
    let mut prefabs: Vec<Option<TrialPrefab>> = vec![None; trials];
    for (seed, prefab) in needed.into_iter().zip(built) {
        prefabs[seed as usize] = Some(prefab);
    }

    let run = tr.open("run", PARALLEL, Some(fig));
    let (computed, workers) = {
        let tr = &*tr;
        let prefabs = &prefabs;
        let jobs = &jobs;
        parallel_map_with(
            pending,
            threads,
            |w| (tr.track(w, run), SimPool::new(), Counts::default()),
            |(t, pool, c): &mut Worker, i| {
                let (_, capacity, policy, seed) = jobs[i];
                let scenario = PaperScenario::new(utilization, capacity);
                let prefab = prefabs[seed as usize]
                    .as_ref()
                    .expect("prefab built for every pending seed");
                let result = t.time("trial", SYSTEM, || {
                    scenario.run_prefab_in(pool, policy, prefab)
                });
                c.add_trial(&result);
                let key = t.time("key", SCENARIO, || scenario.trial_key(policy, seed));
                let summary = t.time("append", STORE, || {
                    let summary = TrialSummary::of(&result);
                    TrialStore::store(store, &key, &summary);
                    summary
                });
                c.appended += 1;
                (i, summary)
            },
        )
    };
    tr.close(run);
    for (track, pool, mut c) in workers {
        tr.absorb([track]);
        c.ready_high_water = pool.stats().ready_high_water;
        counts.merge(&c);
    }
    for (i, summary) in computed {
        summaries[i] = Some(summary);
    }

    // Aggregation, exactly as the driver sums it.
    let mut rows: Vec<MissRateRow> = FIG_CAPACITIES
        .iter()
        .map(|&c| MissRateRow {
            capacity: c,
            normalized_capacity: c / max_capacity,
            miss_rates: vec![0.0; FIG_POLICIES.len()],
        })
        .collect();
    for ((ci, _, policy, _), summary) in jobs.into_iter().zip(summaries) {
        let pi = FIG_POLICIES
            .iter()
            .position(|&p| p == policy)
            .expect("policy in list");
        let rate = summary.expect("every cell resolved").miss_rate();
        rows[ci].miss_rates[pi] += rate / trials as f64;
    }
    let figure = MissRateFigure {
        utilization,
        policies: FIG_POLICIES.to_vec(),
        rows,
        trials,
    };
    tr.close(fig);
    figure
}

/// Replays `robustness_campaign` with the pack store at `dir` as its
/// decided-cell checkpoint: resolve, build, quarantining run with the
/// watchdog armed, barriers, aggregation, close.
pub fn fault_campaign(tr: &mut Tracer, dir: &Path, grid: &Grid) -> Replayed {
    let config = grid.fault_config();
    let threads = config.threads;
    let root = tr.begin_campaign();
    let store = tr.time("open", STORE, root, || open_store(dir));
    let mut counts = Counts {
        records_loaded: store.loaded() as u64,
        ..Counts::default()
    };
    let scenario_of = |intensity, predictor| fault_scenario(&config, intensity, predictor);
    let (predictors, policies, trials) = (
        config.predictors.len(),
        config.policies.len(),
        config.trials as u64,
    );
    let jobs: Vec<(usize, usize, usize, u64)> = (0..config.intensities.len())
        .flat_map(|row| {
            (0..predictors).flat_map(move |pi| {
                (0..policies).flat_map(move |pj| (0..trials).map(move |s| (row, pi, pj, s)))
            })
        })
        .collect();
    let keys: Vec<TrialKey> = tr.time("keys", SCENARIO, root, || {
        jobs.iter()
            .map(|&(row, pi, pj, seed)| {
                scenario_of(config.intensities[row], config.predictors[pi])
                    .trial_key(config.policies[pj], seed)
            })
            .collect()
    });
    let mut outcomes: Vec<Option<CellOutcome>> = tr.time("probe", STORE, root, || {
        keys.iter()
            .map(|k| DecidedStore::decided(&store, k))
            .collect()
    });
    counts.keys += keys.len() as u64;
    counts.probes += keys.len() as u64;
    counts.hits += outcomes.iter().filter(|o| o.is_some()).count() as u64;
    let pending: Vec<usize> = (0..jobs.len()).filter(|&i| outcomes[i].is_none()).collect();

    let base = scenario_of(0.0, config.predictors[0]);
    let mut needed: Vec<u64> = pending.iter().map(|&i| jobs[i].3).collect();
    needed.sort_unstable();
    needed.dedup();
    let build = tr.open("build", PARALLEL, Some(root));
    let (built, tracks) = {
        let tr = &*tr;
        parallel_map_with(
            needed.clone(),
            threads,
            |w| tr.track(w, build),
            |t, seed| t.time("prefab", SCENARIO, || base.prefab(seed)),
        )
    };
    tr.close(build);
    tr.absorb(tracks);
    counts.prefabs += built.len() as u64;
    let mut prefabs: Vec<Option<TrialPrefab>> = vec![None; config.trials];
    for (seed, prefab) in needed.into_iter().zip(built) {
        prefabs[seed as usize] = Some(prefab);
    }

    let run = tr.open("run", PARALLEL, Some(root));
    let (computed, workers) = {
        let tr = &*tr;
        let (prefabs, jobs, config, store) = (&prefabs, &jobs, &config, &store);
        parallel_map_quarantined(
            pending.clone(),
            threads,
            |w| (tr.track(w, run), SimPool::new(), Counts::default()),
            |(t, pool, c): &mut Worker, i| {
                let (row, pi, pj, seed) = jobs[i];
                let scenario = scenario_of(config.intensities[row], config.predictors[pi]);
                let policy = config.policies[pj];
                let prefab = prefabs[seed as usize]
                    .as_ref()
                    .expect("prefab built for every pending seed");
                let mut results = t.time("trial", SYSTEM, || {
                    pool.run_batch(&scenario, policy, &[prefab], &[config.watchdog])
                });
                let outcome = match results.pop().expect("one lane per batch") {
                    Ok(result) => {
                        c.add_trial(&result);
                        let key = t.time("key", SCENARIO, || scenario.trial_key(policy, seed));
                        let summary = t.time("append", STORE, || {
                            let summary = TrialSummary::of(&result);
                            let _ = DecidedStore::record_done(store, &key, &summary);
                            summary
                        });
                        c.appended += 1;
                        Ok(summary)
                    }
                    Err(e) => Err(e.to_string()),
                };
                Ok::<_, String>((i, outcome))
            },
        )
    };
    tr.close(run);
    for (track, pool, mut c) in workers {
        tr.absorb([track]);
        c.ready_high_water = pool.stats().ready_high_water;
        counts.merge(&c);
    }
    tr.time("barrier", STORE, root, || DecidedStore::barrier(&store));
    counts.barriers += 1;
    let quarantine = |i: usize, message: String, panicked: bool, counts: &mut Counts| {
        let failure = CellFailure {
            message,
            panicked,
            worker: 0,
            flight: None,
        };
        let _ = DecidedStore::record_quarantined(&store, &keys[i], &failure);
        counts.quarantined += 1;
        counts.appended += 1;
        CellOutcome::Quarantined(failure)
    };
    for (&i, result) in pending.iter().zip(computed) {
        outcomes[i] = Some(match result {
            Ok((_, Ok(summary))) => CellOutcome::Done(summary),
            Ok((_, Err(message))) => quarantine(i, message, false, &mut counts),
            Err(failure) => quarantine(i, failure.message, failure.panicked, &mut counts),
        });
    }

    // Aggregation, exactly as the driver averages decided cells.
    let pairs = config.predictors.len() * config.policies.len();
    let mut sums = vec![vec![0.0f64; pairs]; config.intensities.len()];
    let mut decided = vec![vec![0u64; pairs]; config.intensities.len()];
    for ((row, pi, pj, _), outcome) in jobs.into_iter().zip(outcomes) {
        let idx = pi * config.policies.len() + pj;
        if let Some(CellOutcome::Done(summary)) = outcome {
            sums[row][idx] += summary.miss_rate();
            decided[row][idx] += 1;
        }
    }
    let rows: Vec<RobustnessRow> = config
        .intensities
        .iter()
        .zip(sums.into_iter().zip(decided))
        .map(|(&intensity, (sum, decided))| RobustnessRow {
            intensity,
            miss_rates: sum
                .iter()
                .zip(&decided)
                .map(|(&s, &n)| if n == 0 { 0.0 } else { s / n as f64 })
                .collect(),
            decided,
        })
        .collect();
    tr.time("barrier", STORE, root, || DecidedStore::barrier(&store));
    counts.barriers += 1;
    let figure = RobustnessFigure {
        utilization: config.utilization,
        capacity: config.capacity,
        policies: config.policies.clone(),
        predictors: config.predictors.clone(),
        rows,
        trials: config.trials,
    };
    close_store(tr, root, store, dir, &mut counts);
    tr.close(root);
    Replayed {
        root,
        digests: vec![figure.digest()],
        counts,
    }
}
