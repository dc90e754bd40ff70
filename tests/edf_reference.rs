//! The closed-loop simulator checked against a plain EDF oracle.
//!
//! The oracle shares no code with the engine: no event queue, no
//! piecewise kernel, no release tape, no pooling. It steps integer time
//! one unit at a time over integer periods and work, so every schedule
//! event falls on a whole unit and the stepped schedule equals the
//! event-driven one exactly. With unbounded storage and a source that
//! out-powers the fastest level, energy never constrains a run, and EDF
//! (and the energy-aware policies, which degenerate to it there, §4.3)
//! must reproduce the oracle job by job: the same completion instants,
//! the same misses, the same busy time.

use harvest_rt::prelude::*;
use proptest::prelude::*;

/// A periodic task with implicit deadline, phase 0, in whole units.
#[derive(Debug, Clone, Copy)]
struct PlainTask {
    period: i64,
    work: i64,
}

/// One job's fate in the oracle, keyed like the engine's records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PlainJob {
    task: usize,
    arrival: i64,
    deadline: i64,
    /// Completion instant, if the job finished inside the horizon.
    completed: Option<i64>,
    /// Whether the deadline passed before the job finished.
    missed: bool,
}

/// Plain EDF over `[0, horizon)` at one unit per step.
///
/// Each step first settles deadlines at the current instant (a job
/// whose deadline has come and is unfinished misses: it is dropped, or
/// kept to run late when `run_late`), then releases the instant's jobs,
/// then runs the ready job with the earliest deadline for one unit.
/// Ties fall to the earlier release, then the lower task index — the
/// engine's release order for implicit-deadline tasks. Returns the jobs
/// sorted by `(task, arrival)` and the number of busy units.
fn plain_edf(tasks: &[PlainTask], horizon: i64, run_late: bool) -> (Vec<PlainJob>, i64) {
    let mut jobs: Vec<PlainJob> = Vec::new();
    let mut remaining: Vec<i64> = Vec::new();
    let mut ready: Vec<usize> = Vec::new();
    let mut busy = 0;
    for now in 0..horizon {
        ready.retain(|&j| {
            if jobs[j].deadline > now || jobs[j].missed {
                return true;
            }
            jobs[j].missed = true;
            run_late
        });
        for (task, t) in tasks.iter().enumerate() {
            if now % t.period == 0 {
                ready.push(jobs.len());
                remaining.push(t.work);
                jobs.push(PlainJob {
                    task,
                    arrival: now,
                    deadline: now + t.period,
                    completed: None,
                    missed: false,
                });
            }
        }
        let Some(pos) = (0..ready.len()).min_by_key(|&i| {
            let j = &jobs[ready[i]];
            (j.deadline, j.arrival, j.task)
        }) else {
            continue;
        };
        let j = ready[pos];
        remaining[j] -= 1;
        busy += 1;
        if remaining[j] == 0 {
            jobs[j].completed = Some(now + 1);
            ready.swap_remove(pos);
        }
    }
    // At the horizon an unfinished job whose deadline has come misses;
    // one whose deadline lies beyond stays pending.
    for &j in &ready {
        if jobs[j].deadline <= horizon {
            jobs[j].missed = true;
        }
    }
    jobs.sort();
    (jobs, busy)
}

/// The engine's job records in the oracle's shape.
fn engine_jobs(result: &SimResult) -> Vec<PlainJob> {
    let unit = |t: SimTime| {
        let ticks = t.as_ticks();
        assert_eq!(ticks % SimTime::from_whole_units(1).as_ticks(), 0, "{t}");
        ticks / SimTime::from_whole_units(1).as_ticks()
    };
    let mut jobs: Vec<PlainJob> = result
        .jobs
        .iter()
        .map(|j| {
            let (completed, missed) = match j.outcome {
                JobOutcome::Completed { at } => (Some(unit(at)), false),
                JobOutcome::Missed { completed } => (completed.map(unit), true),
                JobOutcome::Pending => (None, false),
            };
            PlainJob {
                task: j.task_index,
                arrival: unit(j.arrival),
                deadline: unit(j.deadline),
                completed,
                missed,
            }
        })
        .collect();
    jobs.sort();
    jobs
}

/// A constant source stronger than the XScale's fastest level (3.2):
/// with unbounded storage the run never waits for energy.
const AMPLE_HARVEST: f64 = 4.0;

/// Runs `policy` on `tasks` with unbounded storage and ample harvest.
fn run_engine(
    tasks: &[PlainTask],
    horizon: i64,
    miss_policy: MissPolicy,
    policy: Box<dyn Scheduler>,
) -> SimResult {
    let set: TaskSet = tasks
        .iter()
        .map(|t| Task::periodic_implicit(SimDuration::from_whole_units(t.period), t.work as f64))
        .collect();
    let profile = PiecewiseConstant::constant(AMPLE_HARVEST);
    let config = SystemConfig::new(
        presets::xscale(),
        StorageSpec::infinite(),
        SimDuration::from_whole_units(horizon),
    )
    .with_miss_policy(miss_policy);
    simulate(
        config,
        &set,
        profile.clone(),
        policy,
        Box::new(OraclePredictor::new(profile)),
    )
}

/// Asserts the engine's run matches the oracle job by job, in busy
/// time, and in energy: the CPU draws the fastest level's power while
/// busy and the idle power otherwise, and nothing else.
fn assert_matches_oracle(tasks: &[PlainTask], horizon: i64, result: &SimResult, run_late: bool) {
    let (expected, busy) = plain_edf(tasks, horizon, run_late);
    assert_eq!(engine_jobs(result), expected, "{tasks:?}");
    assert_eq!(result.busy_time(), busy as f64, "busy units");
    assert_eq!(result.stall_time, 0.0, "ample energy never stalls");
    let cpu = presets::xscale();
    let idle = (horizon - busy) as f64;
    let consumed = cpu.max_power() * busy as f64 + cpu.idle_power() * idle;
    let tolerance = 1e-9 * consumed.max(1.0);
    assert!(
        (result.energy.consumed - consumed).abs() <= tolerance,
        "consumed {} vs oracle {consumed}",
        result.energy.consumed
    );
    assert_eq!(result.energy.deficit, 0.0);
}

/// Random implicit-deadline task sets, from light to overloaded
/// (utilization up to 5), with integer periods and work.
fn task_set_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((2i64..=12, 1i64..=12), 1..=5)
}

fn plain_tasks(raw: &[(i64, i64)]) -> Vec<PlainTask> {
    raw.iter()
        .map(|&(period, work)| PlainTask {
            period,
            work: work.min(period),
        })
        .collect()
}

/// Utilization of a plain task set.
fn utilization(tasks: &[PlainTask]) -> f64 {
    tasks.iter().map(|t| t.work as f64 / t.period as f64).sum()
}

const HORIZON: i64 = 120;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// EDF under the default abort-at-deadline policy, feasible and
    /// overloaded sets alike.
    #[test]
    fn edf_matches_plain_reference(raw in task_set_strategy()) {
        let tasks = plain_tasks(&raw);
        let r = run_engine(
            &tasks,
            HORIZON,
            MissPolicy::AbortAtDeadline,
            Box::new(EdfScheduler::new()),
        );
        assert_matches_oracle(&tasks, HORIZON, &r, false);
    }

    /// EDF keeping late jobs until they finish: the miss is recorded at
    /// the deadline and the late completion instant is kept too.
    #[test]
    fn edf_matches_plain_reference_running_late_jobs_to_completion(
        raw in task_set_strategy(),
    ) {
        let tasks = plain_tasks(&raw);
        let r = run_engine(
            &tasks,
            HORIZON,
            MissPolicy::RunToCompletion,
            Box::new(EdfScheduler::new()),
        );
        assert_matches_oracle(&tasks, HORIZON, &r, true);
    }

    /// EA-DVFS with unbounded storage runs every job at full speed as
    /// soon as EDF would (§4.3), so it matches the oracle too.
    #[test]
    fn ea_dvfs_matches_plain_edf_reference_with_unbounded_energy(
        raw in task_set_strategy(),
    ) {
        let tasks = plain_tasks(&raw);
        let r = run_engine(
            &tasks,
            HORIZON,
            MissPolicy::AbortAtDeadline,
            Box::new(EaDvfsScheduler::new()),
        );
        assert_matches_oracle(&tasks, HORIZON, &r, false);
    }
}

/// LSA with unbounded storage has no reason to delay a start, so it too
/// runs the oracle's schedule.
#[test]
fn lsa_matches_plain_edf_reference_with_unbounded_energy() {
    let sets: [&[(i64, i64)]; 4] = [
        &[(4, 1), (6, 2), (12, 3)],
        &[(5, 2), (7, 3)],
        &[(3, 2), (4, 2), (10, 4)],
        &[(2, 1), (9, 5), (11, 11)],
    ];
    for raw in sets {
        let tasks = plain_tasks(raw);
        let r = run_engine(
            &tasks,
            HORIZON,
            MissPolicy::AbortAtDeadline,
            Box::new(LazyScheduler::new()),
        );
        assert_matches_oracle(&tasks, HORIZON, &r, false);
    }
}

/// Sanity of the oracle itself on sets whose schedule is known by hand.
#[test]
fn plain_reference_reproduces_hand_schedules() {
    // Liu & Layland: U = 1/2 + 2/5 = 0.9 ≤ 1 is EDF-feasible.
    let feasible = plain_tasks(&[(2, 1), (5, 2)]);
    assert!(utilization(&feasible) <= 1.0);
    let (jobs, busy) = plain_edf(&feasible, 10, false);
    assert!(jobs.iter().all(|j| !j.missed && j.completed.is_some()));
    assert_eq!(busy, 5 + 4);
    // τ1 (P=2, C=1) runs [0,1); τ2 (P=5, C=2) then runs [1,2) and,
    // after τ1's second job takes [2,3), finishes over [3,4).
    let tau2 = jobs.iter().find(|j| j.task == 1 && j.arrival == 0).unwrap();
    assert_eq!(tau2.completed, Some(4));

    // Overload U = 2: under abort every second job misses, and a
    // dropped job never completes.
    let overloaded = plain_tasks(&[(2, 2), (2, 2)]);
    let (jobs, busy) = plain_edf(&overloaded, 8, false);
    assert_eq!(busy, 8);
    assert_eq!(jobs.iter().filter(|j| j.missed).count(), 4);
    assert!(jobs.iter().all(|j| j.missed != j.completed.is_some()));
}
