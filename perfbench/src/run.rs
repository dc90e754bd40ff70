//! One benchmark run: set-up, the timed closed loop, and (with
//! `--trace 1`) the traced run with its per-layer metrics.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::layers::{
    edf_ns_per_op, event_ns_per_op, kernel_inputs, kernel_ns, median, predictor_ratio, quantile,
    sample_cells, sample_counts,
};
use crate::probes::{calibrate_pack_header, cpu_seconds, host_reference_ms, peak_rss_mib};
use crate::replay::{self, Counts, Replayed};
use crate::trace::{account, named, Accounting, Tracer};
use crate::workloads::{
    fault_campaign, fig_campaign, verify_readback, Grid, Outcome, Workload, PINNED_FAULT_DIGEST,
    PINNED_FIG_DIGESTS,
};

/// Set-ups per run; the median is reported as `setup_s`.
const SETUP_REPS: usize = 3;

/// How often the timed loop reads the host reference between
/// campaigns (about 1 % of the loop's time).
const HOST_REFERENCE_EVERY: Duration = Duration::from_secs(1);

/// [`host_reference_ms`] on the host the benchmark was defined on (the
/// median of its proof runs): end-to-end times are reported as they
/// would read at this host speed.
const REFERENCE_HOST_MS: f64 = 11.3;

/// Traced rounds at least, whatever `--seconds` says.
const MIN_TRACED_ROUNDS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seeds the benchmark's own replay inputs.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed one.
    pub trace: bool,
    /// Scratch directory for stores, removed afterwards.
    pub work: PathBuf,
    /// Where the traced run writes its Chrome trace, if anywhere.
    pub trace_out: Option<PathBuf>,
    /// Grid size and threads.
    pub grid: Grid,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Cells attempted.
    pub attempted: u64,
    /// Cells failed.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Why the run is not correct: digest mismatches, read-backs that
    /// simulated, counts that did not repeat.
    pub errors: Vec<String>,
    /// Campaigns timed (or traced).
    pub campaigns: usize,
    /// Median [`host_reference_ms`] over the run.
    pub host_ref_ms: f64,
    /// End-to-end times as measured, before rescaling.
    pub raw: Vec<Metric>,
}

impl Report {
    fn tally(&mut self, o: &Outcome) {
        self.attempted += o.cells;
        self.failed += o.failed;
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name, value, unit });
    }

    fn error(&mut self, e: String) {
        self.errors.push(e);
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            let _ = write!(
                m,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                metric.name,
                metric.value,
                metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0 && self.errors.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Store directories under one scratch root, removed on drop.
#[derive(Debug)]
struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    fn new(root: &Path) -> Self {
        let _ = std::fs::remove_dir_all(root);
        std::fs::create_dir_all(root)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", root.display()));
        Scratch {
            root: root.to_path_buf(),
            next: 0,
        }
    }

    fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("store-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The digests a campaign must reproduce, when the grid is pinned.
fn pinned(workload: Workload, grid: &Grid) -> Option<Vec<u64>> {
    grid.is_pinned().then(|| match workload {
        Workload::FigCold | Workload::FigWarm => PINNED_FIG_DIGESTS.to_vec(),
        Workload::FaultCampaign => vec![PINNED_FAULT_DIGEST],
    })
}

/// One real-driver campaign of `workload`, telemetry off or on; the
/// warm workload passes over `warm_dir`.
fn real_campaign(
    workload: Workload,
    scratch: &mut Scratch,
    warm_dir: &Path,
    grid: &Grid,
    telemetry: bool,
) -> Outcome {
    match workload {
        Workload::FigCold => fig_campaign(&scratch.fresh(), grid, false, telemetry),
        Workload::FigWarm => fig_campaign(warm_dir, grid, true, telemetry),
        Workload::FaultCampaign => fault_campaign(&scratch.fresh(), grid, telemetry),
    }
}

/// Set-up: one full campaign through the real driver, which pays every
/// lazy cost (page cache, first touch, allocator growth, thread spawn)
/// before timing. The warm workload's set-up fills its store this way
/// and then pays the first pass over it.
fn set_up(workload: Workload, scratch: &mut Scratch, grid: &Grid, report: &mut Report) -> PathBuf {
    let dir = scratch.fresh();
    match workload {
        Workload::FigCold | Workload::FigWarm => {
            report.tally(&fig_campaign(&dir, grid, false, false));
            if workload == Workload::FigWarm {
                report.tally(&fig_campaign(&dir, grid, true, false));
            }
        }
        Workload::FaultCampaign => report.tally(&fault_campaign(&dir, grid, false)),
    }
    dir
}

/// Reads the host reference at most every [`HOST_REFERENCE_EVERY`] and
/// rescales the durations measured since the previous reading to the
/// reference host's speed.
#[derive(Debug)]
struct HostClock {
    pending: Vec<f64>,
    scaled: Vec<f64>,
    readings: Vec<f64>,
    last: Instant,
}

impl HostClock {
    fn new() -> Self {
        HostClock {
            pending: Vec::new(),
            scaled: Vec::new(),
            readings: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Queues one measured duration; reads the host when due or when
    /// `now` is set.
    fn push(&mut self, seconds: f64, now: bool) {
        self.pending.push(seconds);
        if now || self.last.elapsed() >= HOST_REFERENCE_EVERY {
            self.read();
        }
    }

    fn read(&mut self) {
        let reading = host_reference_ms();
        self.readings.push(reading);
        let k = REFERENCE_HOST_MS / reading;
        self.scaled.extend(self.pending.drain(..).map(|s| s * k));
        self.last = Instant::now();
    }

    /// The durations queued so far, rescaled, and the readings used.
    fn finish(&mut self) -> (Vec<f64>, Vec<f64>) {
        if !self.pending.is_empty() {
            self.read();
        }
        (
            std::mem::take(&mut self.scaled),
            std::mem::take(&mut self.readings),
        )
    }
}

/// The timed run: set-up several times, then campaigns back to back for
/// `seconds`, telemetry off. Reports the end-to-end metrics, with every
/// time rescaled to the reference host's speed by the host reference
/// read around it; the raw values go into the provenance line.
pub fn timed(opts: &Options) -> Report {
    let grid = &opts.grid;
    let mut report = Report::default();
    let mut scratch = Scratch::new(&opts.work);
    let mut clock = HostClock::new();
    let mut raw_setups = Vec::new();
    let mut warm_dir = PathBuf::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        warm_dir = set_up(opts.workload, &mut scratch, grid, &mut report);
        let seconds = start.elapsed().as_secs_f64();
        raw_setups.push(seconds);
        clock.push(seconds, true);
    }
    let (mut setups, mut readings) = clock.finish();

    let mut raw_walls = Vec::new();
    let mut cells = 0u64;
    let cpu_start = cpu_seconds();
    let start = Instant::now();
    while raw_walls.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
        let o = real_campaign(opts.workload, &mut scratch, &warm_dir, grid, false);
        report.tally(&o);
        cells += o.cells;
        raw_walls.push(o.wall.as_secs_f64());
        clock.push(o.wall.as_secs_f64(), false);
    }
    let cpu = cpu_seconds() - cpu_start;
    let (mut walls, mut loop_readings) = clock.finish();
    report.campaigns = walls.len();
    let cells_per_campaign = cells as f64 / walls.len() as f64;
    let raw_cpu = cpu / cells as f64 * 1000.0;
    let cpu_scale = REFERENCE_HOST_MS / median(&mut loop_readings.clone());
    readings.append(&mut loop_readings);
    report.host_ref_ms = median(&mut readings);

    let raw = [
        median(&mut raw_walls.clone()),
        cells_per_campaign / median(&mut raw_walls),
        raw_cpu,
        median(&mut raw_setups),
    ];
    let campaign_s = median(&mut walls);
    let scaled = [
        campaign_s,
        cells_per_campaign / campaign_s,
        raw_cpu * cpu_scale,
        median(&mut setups),
    ];
    for ((name, unit), (value, raw)) in [
        ("campaign_s", "s"),
        ("cells_per_s", "cells/s"),
        ("cpu_s_per_kcell", "s"),
        ("setup_s", "s"),
    ]
    .into_iter()
    .zip(scaled.into_iter().zip(raw))
    {
        report.push(name, value, unit);
        report.raw.push(Metric {
            name,
            value: raw,
            unit,
        });
    }
    report.push("peak_rss_mib", peak_rss_mib(), "MiB");
    let ok = report.attempted.saturating_sub(report.failed) as f64 / report.attempted.max(1) as f64;
    report.push("ok_share", ok, "ratio");
    report
}

/// Checks a replay's digests against the pins and its counts against
/// the first replay of the same kind.
fn check_replay(r: &Replayed, expect: Option<&[u64]>, first: Option<&Counts>, report: &mut Report) {
    if let Some(expect) = expect {
        if r.digests != expect {
            report.error(format!(
                "replayed digests {:016x?} differ from the pins {expect:016x?}",
                r.digests
            ));
        }
    }
    if let Some(first) = first {
        if *first != r.counts {
            report.error(format!(
                "counts did not repeat: {first:?} then {:?}",
                r.counts
            ));
        }
    }
    if r.counts.quarantined != 0 || r.counts.degraded != 0 {
        report.error(format!(
            "replay quarantined {} cells, store degraded {} times",
            r.counts.quarantined, r.counts.degraded
        ));
    }
}

/// Per-layer timings of a set of traced campaigns, medians over them.
#[derive(Debug, Default)]
struct Timings {
    acc: Vec<Accounting>,
    open_ns: Vec<f64>,
    probe_ns: Vec<f64>,
    key_ns: Vec<f64>,
    append_ns: Vec<f64>,
    barrier_ns: Vec<f64>,
    prefab_ns: Vec<f64>,
    trial_ns: Vec<f64>,
}

impl Timings {
    fn add(&mut self, tr: &Tracer, r: &Replayed, threads: usize) {
        let campaign = tr.spans[r.root].campaign;
        let per = |name: &str| named(&tr.spans, campaign, name);
        let keys = r.counts.keys as f64;
        let worker_keys = r.counts.appended as f64;
        self.acc.push(account(&tr.spans, r.root, threads));
        self.open_ns.push(per("open"));
        self.probe_ns
            .push(per("probe") / r.counts.probes.max(1) as f64);
        // Keys are built on the driver (the whole grid, before probing)
        // and again per simulated cell on the workers.
        self.key_ns
            .push((per("keys") + per("key")) / (keys + worker_keys).max(1.0));
        self.append_ns
            .push(per("append") / r.counts.appended.max(1) as f64);
        self.barrier_ns.push(per("barrier"));
        self.prefab_ns
            .push(per("prefab") / r.counts.prefabs.max(1) as f64);
        self.trial_ns.extend(
            tr.spans
                .iter()
                .filter(|s| s.campaign == campaign && s.name == "trial")
                .map(|s| s.dur_ns() as f64),
        );
    }

    fn med(v: &[f64]) -> f64 {
        median(&mut v.to_vec())
    }

    fn layer(&self, i: usize) -> Vec<f64> {
        self.acc.iter().map(|a| a.self_ns[i]).collect()
    }
}

/// The traced run: real campaigns with telemetry off and on, and traced
/// replays, in rounds for `seconds`; every replay's store is read back
/// through the real driver. Reports the per-layer metrics.
#[allow(clippy::too_many_lines)]
pub fn traced(opts: &Options) -> Report {
    let grid = &opts.grid;
    let threads = grid.threads;
    let workload = opts.workload;
    let expect = pinned(workload, grid);
    let mut report = Report::default();
    let mut scratch = Scratch::new(&opts.work);
    calibrate_pack_header(&opts.work);
    let mut warm_dir = set_up(workload, &mut scratch, grid, &mut report);
    let mut tr = Tracer::default();
    let mut host = vec![host_reference_ms()];

    // The warm workload's trial-side layers are measured on a traced
    // fill of the store its passes then read.
    let mut trial_side = Timings::default();
    let mut trial_counts: Option<Counts> = None;
    if workload == Workload::FigWarm {
        let dir = scratch.fresh();
        let fill = replay::fig_campaign(&mut tr, &dir, grid);
        check_replay(&fill, expect.as_deref(), None, &mut report);
        if let Err(e) = verify_readback(workload, &dir, grid, &fill.digests) {
            report.error(e);
        }
        report.attempted += fill.counts.probes;
        trial_side.add(&tr, &fill, threads);
        trial_counts = Some(fill.counts.clone());
        warm_dir = dir;
    }

    let (mut plain, mut traced, mut telemetry) = (Vec::new(), Vec::new(), Vec::new());
    let mut campaign_side = Timings::default();
    let mut first: Option<Counts> = None;
    let start = Instant::now();
    while traced.len() < MIN_TRACED_ROUNDS || start.elapsed().as_secs_f64() < opts.seconds {
        let o = real_campaign(workload, &mut scratch, &warm_dir, grid, false);
        report.tally(&o);
        plain.push(o.wall.as_secs_f64());

        let (dir, r) = match workload {
            Workload::FigCold => {
                let dir = scratch.fresh();
                let r = replay::fig_campaign(&mut tr, &dir, grid);
                (Some(dir), r)
            }
            Workload::FigWarm => (None, replay::fig_campaign(&mut tr, &warm_dir, grid)),
            Workload::FaultCampaign => {
                let dir = scratch.fresh();
                let r = replay::fault_campaign(&mut tr, &dir, grid);
                (Some(dir), r)
            }
        };
        check_replay(&r, expect.as_deref(), first.as_ref(), &mut report);
        if let Some(dir) = dir {
            if let Err(e) = verify_readback(workload, &dir, grid, &r.digests) {
                report.error(e);
            }
        }
        report.attempted += r.counts.probes;
        traced.push(tr.spans[r.root].dur_ns() as f64 / 1e9);
        campaign_side.add(&tr, &r, threads);
        if workload != Workload::FigWarm {
            trial_side.add(&tr, &r, threads);
        }
        first.get_or_insert(r.counts);

        let o = real_campaign(workload, &mut scratch, &warm_dir, grid, true);
        report.tally(&o);
        telemetry.push(o.wall.as_secs_f64());
        host.push(host_reference_ms());
    }
    report.campaigns = traced.len();
    report.host_ref_ms = median(&mut host);
    let counts = first.expect("at least one traced campaign");
    let trial_counts = trial_counts.unwrap_or_else(|| counts.clone());

    // Account for every traced campaign: layer self times must be
    // non-negative and add up to the campaign's wall time.
    for a in &campaign_side.acc {
        let sum: f64 = a.self_ns.iter().sum();
        if a.self_ns.iter().any(|&s| s < -1.0) || (sum - a.campaign_ns).abs() > 1e-6 * a.campaign_ns
        {
            report.error(format!(
                "layer self times {:?} do not add up to {}",
                a.self_ns, a.campaign_ns
            ));
        }
    }

    let cells = sample_cells(workload, grid);
    let sample = sample_counts(&cells);
    let per_trial = |n: u64, trials: u64| n as f64 / trials.max(1) as f64;
    let per_sample = |n: u64| per_trial(n, sample.trials);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let c = &campaign_side;
    let t = &trial_side;
    let campaign_ms: Vec<f64> = c.acc.iter().map(|a| a.campaign_ns / 1e6).collect();

    report.push("figures.self_ms", Timings::med(&c.layer(0)) / 1e6, "ms");
    report.push("trace.campaign_ms", Timings::med(&campaign_ms), "ms");
    for (i, name) in [
        "figures.self_share",
        "store.self_share",
        "scenario.self_share",
        "parallel.self_share",
        "system.self_share",
    ]
    .into_iter()
    .enumerate()
    {
        let shares: Vec<f64> = c.acc.iter().map(|a| a.self_ns[i] / a.campaign_ns).collect();
        report.push(name, Timings::med(&shares), "ratio");
    }

    report.push("store.open_ms", Timings::med(&c.open_ns) / 1e6, "ms");
    report.push(
        "store.records_loaded",
        counts.records_loaded as f64,
        "count",
    );
    report.push("store.probe_ns_per_cell", Timings::med(&c.probe_ns), "ns");
    report.push("store.hit_rate", ratio(counts.hits, counts.probes), "ratio");
    report.push(
        "store.append_us_per_cell",
        Timings::med(&t.append_ns) / 1e3,
        "us",
    );
    report.push("store.barriers", counts.barriers as f64, "count");
    report.push("store.barrier_ms", Timings::med(&c.barrier_ns) / 1e6, "ms");
    report.push(
        "store.bytes_per_cell",
        ratio(counts.record_bytes, counts.probes),
        "bytes",
    );
    report.push("store.retries", counts.retries as f64, "count");
    report.push("store.degraded", counts.degraded as f64, "count");

    report.push("scenario.key_ns_per_cell", Timings::med(&c.key_ns), "ns");
    report.push(
        "scenario.prefab_ms_per_seed",
        Timings::med(&t.prefab_ns) / 1e6,
        "ms",
    );
    let mut trial_ns = t.trial_ns.clone();
    report.push(
        "scenario.trial_us_p50",
        quantile(&mut trial_ns, 0.5) / 1e3,
        "us",
    );
    report.push(
        "scenario.trial_us_p99",
        quantile(&mut trial_ns, 0.99) / 1e3,
        "us",
    );
    report.push(
        "scenario.allocs_per_trial",
        per_sample(sample.allocs),
        "count",
    );

    let tc = &trial_counts;
    report.push(
        "system.events_per_trial",
        per_trial(tc.events, tc.trials),
        "count",
    );
    report.push(
        "system.switches_per_trial",
        per_trial(tc.switches, tc.trials),
        "count",
    );
    report.push(
        "system.jobs_per_trial",
        per_trial(tc.jobs, tc.trials),
        "count",
    );

    report.push(
        "event.scheduled_per_trial",
        per_sample(sample.queue_scheduled),
        "count",
    );
    report.push(
        "event.popped_per_trial",
        per_sample(sample.queue_popped),
        "count",
    );
    report.push(
        "event.cancelled_per_trial",
        per_sample(sample.queue_cancelled),
        "count",
    );
    report.push(
        "event.max_pending",
        sample.queue_max_pending as f64,
        "count",
    );
    let depth = usize::try_from(sample.queue_max_pending).unwrap_or(1);
    let cancel_share = ratio(sample.queue_cancelled, sample.queue_scheduled);
    report.push(
        "event.ns_per_op",
        event_ns_per_op(depth, cancel_share, opts.seed),
        "ns",
    );
    let ready = usize::try_from(tc.ready_high_water).unwrap_or(1);
    report.push("edf.ns_per_op", edf_ns_per_op(ready, opts.seed), "ns");

    report.push(
        "kernel.locates_per_trial",
        per_sample(sample.locates),
        "count",
    );
    report.push(
        "kernel.gallop_segments_per_trial",
        per_sample(sample.gallop_segments),
        "count",
    );
    report.push(
        "kernel.crossings_per_trial",
        per_sample(sample.crossings),
        "count",
    );
    let (integrate_ns, crossing_ns) = kernel_ns(&kernel_inputs(&cells), opts.seed);
    report.push("kernel.integrate_ns", integrate_ns, "ns");
    report.push("kernel.crossing_ns", crossing_ns, "ns");

    report.push(
        "sched.decisions_per_trial",
        per_sample(sample.decisions),
        "count",
    );
    report.push("sched.stalls_per_trial", per_sample(sample.stalls), "count");
    report.push(
        "sched.es_memo_hit_rate",
        ratio(sample.memo_hits, sample.memo_hits + sample.memo_misses),
        "ratio",
    );
    report.push(
        "predictor.ewma_vs_oracle_trial_ratio",
        predictor_ratio(&cells),
        "ratio",
    );

    let util: Vec<f64> = t
        .acc
        .iter()
        .map(|a| a.worker_busy_ns / a.worker_capacity_ns.max(1.0))
        .collect();
    let tail: Vec<f64> = t.acc.iter().map(|a| a.tail_ns / 1e6).collect();
    report.push("parallel.worker_util", Timings::med(&util), "ratio");
    report.push("parallel.tail_ms", Timings::med(&tail), "ms");

    let plain_med = Timings::med(&plain);
    report.push(
        "obs.telemetry_overhead_ratio",
        Timings::med(&telemetry) / plain_med,
        "ratio",
    );
    report.push(
        "bench.trace_overhead_ratio",
        Timings::med(&traced) / plain_med,
        "ratio",
    );

    if let Some(path) = &opts.trace_out {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(path, tr.chrome_trace()) {
            eprintln!("cannot write trace {}: {e}", path.display());
        }
    }
    report
}

/// Every count metric of one traced campaign (plus the sample), for the
/// exact-repeat self-test.
pub fn count_metrics(workload: Workload, grid: &Grid, work: &Path) -> Vec<(&'static str, u64)> {
    let mut scratch = Scratch::new(work);
    calibrate_pack_header(work);
    let mut tr = Tracer::default();
    let dir = scratch.fresh();
    let (campaign, trial) = match workload {
        Workload::FigCold => {
            let r = replay::fig_campaign(&mut tr, &dir, grid);
            (r.counts.clone(), r.counts)
        }
        Workload::FigWarm => {
            let fill = replay::fig_campaign(&mut tr, &dir, grid);
            let pass = replay::fig_campaign(&mut tr, &dir, grid);
            (pass.counts, fill.counts)
        }
        Workload::FaultCampaign => {
            let r = replay::fault_campaign(&mut tr, &dir, grid);
            (r.counts.clone(), r.counts)
        }
    };
    let sample = sample_counts(&sample_cells(workload, grid));
    vec![
        ("store.records_loaded", campaign.records_loaded),
        ("store.probes", campaign.probes),
        ("store.hits", campaign.hits),
        ("store.barriers", campaign.barriers),
        ("store.record_bytes", campaign.record_bytes),
        ("store.retries", campaign.retries),
        ("store.degraded", campaign.degraded),
        ("trials", trial.trials),
        ("system.events", trial.events),
        ("system.switches", trial.switches),
        ("system.jobs", trial.jobs),
        ("edf.ready_high_water", trial.ready_high_water),
        ("store.appended", trial.appended),
        ("scenario.prefabs", trial.prefabs),
        ("sample.trials", sample.trials),
        ("event.scheduled", sample.queue_scheduled),
        ("event.popped", sample.queue_popped),
        ("event.cancelled", sample.queue_cancelled),
        ("event.max_pending", sample.queue_max_pending),
        ("kernel.locates", sample.locates),
        ("kernel.gallop_segments", sample.gallop_segments),
        ("kernel.crossings", sample.crossings),
        ("sched.decisions", sample.decisions),
        ("sched.stalls", sample.stalls),
        ("sched.es_memo_hits", sample.memo_hits),
        ("sched.es_memo_misses", sample.memo_misses),
        ("scenario.allocs", sample.allocs),
    ]
}
