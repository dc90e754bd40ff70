//! `exp` — the one command-line front end: regenerate the paper's
//! figures and tables, record, inspect, and diff observable runs, run
//! store-backed sweeps and fault campaigns, and manage the result store.
//! `USAGE` below lists every verb with its flags; `exp` prints it on a
//! usage error. All flags are read through `harvest_exp::cli`.
//!
//! The paper verbs (`fig5`–`fig9`, `table1`, `repro-all`, `validate`;
//! see the `paper` module) take the uniform `--trials --threads --seed
//! --csv --json` flags: each prints its report on stdout and writes its
//! data as CSV and as a JSON record when asked. `validate` checks every
//! paper claim at reduced scale and fails unless all hold.
//!
//! `record` replays one §5.1 trial with full observability (trace,
//! metrics, phase profiling) and writes the run as a JSONL artifact.
//! `inspect` renders an artifact's metrics, phase profile, and
//! energy/level timelines as tables and ASCII plots. `diff` compares two
//! artifacts' metric snapshots line by line. `sweep` runs a small
//! store-aware miss-rate sweep and reports how it executed (simulated
//! vs. cached cells, pool reuse, and a digest of the figure data) — the
//! CI smoke runs it twice against one store directory and `--expect-warm`
//! makes the second invocation fail unless every cell was a store hit.
//! `fault-sweep` runs the robustness campaign (miss rate vs. fault
//! intensity for EDF/LSA/EA-DVFS) through the quarantining harness:
//! panicking or watchdog-aborted cells are reported as `quarantine`
//! lines and the sweep still exits 0; `--store` checkpoints every
//! decided cell so a killed campaign resumes without re-simulating, and
//! `--expect-resumed` makes a resumed invocation fail unless zero cells
//! were re-simulated. The `--inject-*` flags deterministically sabotage
//! single cells — the CI smoke's failure-injection hooks.
//!
//! Both sweeps resolve results through the segment-packed
//! [`PackStore`]: `--store DIR` opens one, and without the flag the
//! `HARVEST_SWEEP_STORE` environment variable decides. Under `--store`,
//! `fault-sweep` also checkpoints decided cells into the pack as
//! decided records, so resume and cache are one read path. `store stat`
//! summarizes a store directory (`--json` for machine consumption);
//! `store compact` merges its packs, dropping superseded records;
//! `store scrub` quarantines corrupt byte spans and rewrites a clean
//! store; `store import DIR FROM` is the one way legacy results enter a
//! store — `FROM` is a per-file JSON cache directory or a JSONL
//! campaign manifest, only read, and cells the store already holds are
//! skipped, so re-running an import adds nothing.
//!
//! Campaign telemetry (all off by default, zero-cost when off):
//! `--trace PATH` records phase and per-cell spans and exports them as
//! Chrome-trace JSON (loadable in `chrome://tracing` or Perfetto);
//! `--progress PATH` streams one versioned JSONL event per decided cell
//! plus rate/ETA heartbeats (and mirrors heartbeats as human lines on
//! stderr); `--flight DIR` (fault-sweep only) arms a crash flight
//! recorder on every worker and writes one `*.flight.jsonl` post-mortem
//! per failed cell, linked from the quarantine report. `report` folds a
//! store, a progress stream, and a trace back into one markdown (or
//! `--json`) campaign report; it only reads the store.
//!
//! Exit codes: 0 on success (including sweeps with quarantined cells),
//! 1 on a runtime failure (a failed `--csv`/`--json` write or `validate`
//! claim included), 2 on a usage error.

mod paper;

use std::path::PathBuf;
use std::sync::Arc;

use harvest_exp::artifact::RunArtifact;
use harvest_exp::cache::fnv1a64;
use harvest_exp::cli::{fraction, Args, FigureArgs};
use harvest_exp::figures::{
    miss_rate_figure_instrumented, robustness_campaign_instrumented, RobustnessConfig, Sabotage,
    SweepExecStats,
};
use harvest_exp::manifest::CellOutcome;
use harvest_exp::report::Table;
use harvest_exp::scenario::{PaperScenario, PolicyKind, PredictorKind};
use harvest_exp::store::{store_from_env, DecidedStore, PackStore, TrialStore};
use harvest_exp::telemetry::{CampaignTelemetry, FlightOptions};
use harvest_obs::io::{Durability, IoHealth, RealIo, RetryPolicy};
use harvest_obs::progress::{progress_from_jsonl, ProgressLine};
use harvest_obs::span::SpanCollector;
use harvest_obs::ProgressReporter;
use harvest_obs::{MetricsRegistry, MetricsSink};
use serde::Value;

const USAGE: &str = "usage:
  exp fig5|fig6|fig7|fig8|fig9|table1|repro-all|validate
                  [--trials N] [--threads N] [--seed N] [--csv PATH] [--json PATH]
  exp record      [--policy edf|lsa|ea-dvfs|greedy-stretch] [--util U] [--capacity C]
                  [--seed N] [--horizon UNITS] [--sample UNITS] [--out PATH]
  exp inspect     PATH
  exp diff        PATH BASELINE
  exp sweep       [--util U] [--trials N] [--threads N] [--store DIR]
                  [--durability none|batch|record]
                  [--trace PATH] [--progress PATH] [--expect-warm]
  exp fault-sweep [--util U] [--capacity C] [--trials N] [--threads N]
                  [--horizon UNITS] [--intensities A,B,..]
                  [--store DIR] [--durability none|batch|record]
                  [--trace PATH] [--progress PATH]
                  [--flight DIR]
                  [--inject-panic POLICY:SEED:INTENSITY]
                  [--inject-starve POLICY:SEED:INTENSITY] [--expect-resumed]
  exp report      [--store DIR] [--progress PATH] [--trace PATH]
                  [--json] [--out PATH]
  exp store stat    DIR [--json]
  exp store compact DIR
  exp store scrub   DIR [--json]
  exp store import  DIR FROM";

/// A failed invocation, split by whose fault it is: `Usage` exits 2 and
/// reprints the usage text, `Runtime` exits 1 with a one-line message.
#[derive(Debug)]
enum ExpError {
    Usage(String),
    Runtime(String),
}

impl std::fmt::Display for ExpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpError::Usage(msg) | ExpError::Runtime(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ExpError {}

/// Parameters of one recorded run.
#[derive(Debug, Clone, PartialEq)]
struct RecordArgs {
    policy: PolicyKind,
    utilization: f64,
    capacity: f64,
    seed: u64,
    horizon_units: i64,
    sample_units: i64,
    out: Option<PathBuf>,
}

impl Default for RecordArgs {
    fn default() -> Self {
        RecordArgs {
            policy: PolicyKind::EaDvfs,
            utilization: 0.4,
            capacity: 500.0,
            seed: 0,
            horizon_units: 10_000,
            sample_units: 100,
            out: None,
        }
    }
}

/// Parameters of one smoke sweep.
#[derive(Debug, Clone, PartialEq)]
struct SweepArgs {
    utilization: f64,
    trials: usize,
    threads: usize,
    store: Option<PathBuf>,
    durability: Durability,
    trace: Option<PathBuf>,
    progress: Option<PathBuf>,
    expect_warm: bool,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            utilization: 0.4,
            trials: 2,
            threads: 2,
            store: None,
            durability: Durability::default(),
            trace: None,
            progress: None,
            expect_warm: false,
        }
    }
}

/// One sabotage target: the (policy, seed, intensity) cell to fail.
type InjectSpec = (PolicyKind, u64, f64);

/// Parameters of one robustness campaign.
#[derive(Debug, Clone, PartialEq)]
struct FaultSweepArgs {
    utilization: f64,
    capacity: f64,
    trials: usize,
    threads: usize,
    horizon_units: i64,
    intensities: Vec<f64>,
    store: Option<PathBuf>,
    durability: Durability,
    trace: Option<PathBuf>,
    progress: Option<PathBuf>,
    flight: Option<PathBuf>,
    inject_panic: Vec<InjectSpec>,
    inject_starve: Vec<InjectSpec>,
    expect_resumed: bool,
}

impl Default for FaultSweepArgs {
    fn default() -> Self {
        FaultSweepArgs {
            utilization: 0.4,
            capacity: 300.0,
            trials: 2,
            threads: 2,
            horizon_units: 2_000,
            intensities: vec![0.0, 0.5, 1.0],
            store: None,
            durability: Durability::default(),
            trace: None,
            progress: None,
            flight: None,
            inject_panic: Vec::new(),
            inject_starve: Vec::new(),
            expect_resumed: false,
        }
    }
}

/// Parameters of one campaign report.
#[derive(Debug, Clone, PartialEq, Default)]
struct ReportArgs {
    store: Option<PathBuf>,
    progress: Option<PathBuf>,
    trace: Option<PathBuf>,
    json: bool,
    out: Option<PathBuf>,
}

/// A parsed invocation.
#[derive(Debug, Clone)]
enum Command {
    Paper(paper::Verb, FigureArgs),
    Record(RecordArgs),
    Inspect(PathBuf),
    Diff { run: PathBuf, baseline: PathBuf },
    Sweep(SweepArgs),
    FaultSweep(FaultSweepArgs),
    Report(ReportArgs),
    StoreStat { dir: PathBuf, json: bool },
    StoreCompact(PathBuf),
    StoreScrub { dir: PathBuf, json: bool },
    StoreImport { dir: PathBuf, from: PathBuf },
}

fn parse_policy(name: &str) -> Result<PolicyKind, String> {
    PolicyKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown policy `{name}` (try ea-dvfs, lsa, edf, greedy-stretch)"))
}

fn parse_record(mut args: Args) -> Result<RecordArgs, String> {
    let mut out = RecordArgs::default();
    args.each(|flag, args| {
        match flag {
            "--policy" => out.policy = parse_policy(&args.value(flag)?)?,
            "--util" => out.utilization = args.positive_number(flag)?,
            "--capacity" => out.capacity = args.positive_number(flag)?,
            "--seed" => out.seed = args.unsigned(flag)?,
            "--horizon" => out.horizon_units = args.positive_integer(flag)?,
            "--sample" => out.sample_units = args.positive_integer(flag)?,
            "--out" => out.out = Some(args.path(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(out)
}

fn parse_command(mut args: Args) -> Result<Command, String> {
    let sub = args
        .next_arg()
        .ok_or_else(|| "missing subcommand".to_owned())?;
    match sub.as_str() {
        "record" => Ok(Command::Record(parse_record(args)?)),
        "inspect" => {
            let path = args.positional("inspect expects an artifact path")?;
            args.finish()?;
            Ok(Command::Inspect(path))
        }
        "diff" => {
            let run = args.positional("diff expects two artifact paths")?;
            let baseline = args.positional("diff expects two artifact paths")?;
            args.finish()?;
            Ok(Command::Diff { run, baseline })
        }
        "sweep" => Ok(Command::Sweep(parse_sweep(args)?)),
        "fault-sweep" => Ok(Command::FaultSweep(parse_fault_sweep(args)?)),
        "report" => Ok(Command::Report(parse_report(args)?)),
        "store" => parse_store(args),
        other => match paper::VERBS.iter().find(|(name, ..)| *name == other) {
            Some(&(_, trials, verb)) => Ok(Command::Paper(verb, FigureArgs::parse(args, trials)?)),
            None => Err(format!("unknown subcommand `{other}`")),
        },
    }
}

/// `store VERB DIR [FROM] [--json]`, with `--json` accepted anywhere.
fn parse_store(mut args: Args) -> Result<Command, String> {
    let verb = args
        .next_arg()
        .ok_or_else(|| "store expects `stat`, `compact`, `scrub`, or `import`".to_owned())?;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut json = false;
    args.each(|arg, _| {
        match arg {
            "--json" => json = true,
            a if !a.starts_with("--") => paths.push(PathBuf::from(a)),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let mut paths = paths.into_iter();
    let dir = paths
        .next()
        .ok_or_else(|| format!("store {verb} expects a store directory"))?;
    let cmd = match verb.as_str() {
        "stat" => Command::StoreStat { dir, json },
        "compact" => Command::StoreCompact(dir),
        "scrub" => Command::StoreScrub { dir, json },
        "import" => Command::StoreImport {
            dir,
            from: paths.next().ok_or_else(|| {
                "store import expects a source after the store directory \
                 (a legacy cache directory or manifest file)"
                    .to_owned()
            })?,
        },
        other => {
            return Err(format!(
                "unknown store verb `{other}` (try stat, compact, scrub, import)"
            ))
        }
    };
    if let Some(extra) = paths.next() {
        return Err(format!("unexpected argument {}", extra.display()));
    }
    if json && matches!(cmd, Command::StoreCompact(_) | Command::StoreImport { .. }) {
        return Err(format!("store {verb} does not take --json"));
    }
    Ok(cmd)
}

/// Parses `POLICY:SEED:INTENSITY`, e.g. `lsa:0:0.5`.
fn parse_inject(spec: &str) -> Result<InjectSpec, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let [policy, seed, intensity] = parts.as_slice() else {
        return Err(format!(
            "injection spec `{spec}` must be POLICY:SEED:INTENSITY"
        ));
    };
    let policy = parse_policy(policy)?;
    let seed = seed
        .parse()
        .map_err(|_| format!("injection seed `{seed}` must be an unsigned integer"))?;
    let intensity = intensity
        .parse()
        .map_err(|_| format!("injection intensity `{intensity}` must be a number"))?;
    let intensity =
        fraction(intensity).ok_or_else(|| "injection intensity must lie in [0, 1]".to_owned())?;
    Ok((policy, seed, intensity))
}

/// `--durability none|batch|record`.
fn parse_durability(args: &mut Args, flag: &str) -> Result<Durability, String> {
    Durability::parse(&args.value(flag)?)
        .ok_or_else(|| format!("{flag} expects none, batch, or record"))
}

fn parse_fault_sweep(mut args: Args) -> Result<FaultSweepArgs, String> {
    let mut out = FaultSweepArgs::default();
    args.each(|flag, args| {
        match flag {
            "--util" => out.utilization = args.positive_number(flag)?,
            "--capacity" => out.capacity = args.positive_number(flag)?,
            "--trials" => out.trials = args.positive_integer(flag)?,
            "--threads" => out.threads = args.positive_integer(flag)?,
            "--horizon" => out.horizon_units = args.positive_integer(flag)?,
            "--intensities" => out.intensities = args.fractions(flag)?,
            "--store" => out.store = Some(args.path(flag)?),
            "--durability" => out.durability = parse_durability(args, flag)?,
            "--trace" => out.trace = Some(args.path(flag)?),
            "--progress" => out.progress = Some(args.path(flag)?),
            "--flight" => out.flight = Some(args.path(flag)?),
            "--inject-panic" => out.inject_panic.push(parse_inject(&args.value(flag)?)?),
            "--inject-starve" => out.inject_starve.push(parse_inject(&args.value(flag)?)?),
            "--expect-resumed" => out.expect_resumed = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(out)
}

/// Opens the pack store at `dir` at the requested durability.
fn open_pack_store(dir: &std::path::Path, durability: Durability) -> Result<PackStore, String> {
    PackStore::open_with(dir, RealIo::shared(), RetryPolicy::default(), durability)
        .map_err(|e| format!("cannot open store {}: {e}", dir.display()))
}

/// Publishes the sweep's execution accounting and the store's hit/miss
/// counters into one [`MetricsRegistry`] and renders its snapshot as
/// `metric name=value` lines — the same registry pipeline run artifacts
/// use, so store hit rates sit alongside the pool gauges.
fn print_metrics(stats: &SweepExecStats, store: Option<&dyn TrialStore>, health: &IoHealth) {
    let mut reg = MetricsRegistry::new();
    reg.counter("sweep.simulated", stats.simulated);
    reg.counter("sweep.cached", stats.cached);
    reg.counter("pool.runs", stats.pool.runs);
    reg.gauge(
        "pool.event_slab_high_water",
        stats.pool.event_slab_high_water as f64,
    );
    reg.gauge("pool.ready_high_water", stats.pool.ready_high_water as f64);
    if let Some(s) = store {
        s.stats().publish("store", &mut reg);
    }
    health.publish("store", &mut reg);
    for e in reg.snapshot().entries {
        println!("metric {}={}", e.name, e.value.scalar());
    }
}

/// Prints the store's own accounting line.
fn print_store_line(store: &dyn TrialStore) {
    let cs = store.stats();
    println!(
        "store dir={} hits={} misses={} rejects={} stores={}",
        store.location().display(),
        cs.hits,
        cs.misses,
        cs.rejects,
        cs.stores
    );
}

/// Builds the campaign observer bundle the sweep flags ask for:
/// `--trace` installs a span collector, `--progress` opens the JSONL
/// stream (heartbeats mirror to stderr), `--flight` arms per-worker
/// crash recorders dumping into the given directory.
fn build_telemetry(
    trace: &Option<PathBuf>,
    progress: &Option<PathBuf>,
    flight: &Option<PathBuf>,
) -> Result<CampaignTelemetry, String> {
    let mut t = CampaignTelemetry::off();
    if trace.is_some() {
        t.spans = Some(SpanCollector::shared());
    }
    if let Some(path) = progress {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let writer: Box<dyn std::io::Write + Send> = Box::new(std::io::BufWriter::new(file));
        t.progress = Some(Arc::new(ProgressReporter::new(Some(writer), true)));
    }
    if let Some(dir) = flight {
        t.flight = Some(FlightOptions::new(dir));
    }
    Ok(t)
}

/// Closes the campaign's observers: the progress stream's final
/// heartbeat + finish line, then the Chrome-trace export (the drivers
/// drop every worker sink before returning, so the collector is
/// complete by the time this runs).
fn finish_telemetry(t: &CampaignTelemetry, trace: &Option<PathBuf>) -> Result<(), String> {
    if let Some(p) = &t.progress {
        p.finish()
            .map_err(|e| format!("cannot finish progress stream: {e}"))?;
    }
    if let (Some(spans), Some(path)) = (&t.spans, trace) {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        spans
            .write_chrome_trace(&mut out)
            .map_err(|e| format!("cannot write trace {}: {e}", path.display()))?;
        eprintln!("trace: {} spans -> {}", spans.len(), path.display());
    }
    Ok(())
}

fn store_stat(dir: &std::path::Path, json: bool) -> Result<(), String> {
    let s = PackStore::stat(dir).map_err(|e| format!("cannot stat {}: {e}", dir.display()))?;
    if json {
        let value = Value::Map(vec![
            ("dir".into(), Value::Str(dir.display().to_string())),
            ("packs".into(), Value::U64(s.packs as u64)),
            ("records".into(), Value::U64(s.records as u64)),
            ("done".into(), Value::U64(s.done as u64)),
            ("quarantined".into(), Value::U64(s.quarantined as u64)),
            ("superseded".into(), Value::U64(s.superseded as u64)),
            ("reclaimed".into(), Value::U64(s.reclaimed as u64)),
            ("bytes".into(), Value::U64(s.bytes)),
        ]);
        let text =
            serde_json::to_string_pretty(&value).map_err(|e| format!("serialize stat: {e}"))?;
        println!("{text}");
        return Ok(());
    }
    println!(
        "store dir={} packs={} records={} done={} quarantined={} bytes={} superseded={} \
         reclaimed={}",
        dir.display(),
        s.packs,
        s.records,
        s.done,
        s.quarantined,
        s.bytes,
        s.superseded,
        s.reclaimed
    );
    Ok(())
}

fn store_compact(dir: &std::path::Path) -> Result<(), String> {
    let c =
        PackStore::compact(dir).map_err(|e| format!("cannot compact {}: {e}", dir.display()))?;
    println!(
        "compact dir={} packs_before={} records_before={} records_after={} bytes_before={} \
         bytes_after={}",
        dir.display(),
        c.packs_before,
        c.records_before,
        c.records_after,
        c.bytes_before,
        c.bytes_after
    );
    Ok(())
}

fn store_scrub(dir: &std::path::Path, json: bool) -> Result<(), String> {
    let s = PackStore::scrub(dir).map_err(|e| format!("cannot scrub {}: {e}", dir.display()))?;
    if json {
        let value = Value::Map(vec![
            ("dir".into(), Value::Str(dir.display().to_string())),
            ("packs".into(), Value::U64(s.packs as u64)),
            ("sidecars_bad".into(), Value::U64(s.sidecars_bad as u64)),
            (
                "records_scanned".into(),
                Value::U64(s.records_scanned as u64),
            ),
            ("records_kept".into(), Value::U64(s.records_kept as u64)),
            ("corrupt_spans".into(), Value::U64(s.corrupt_spans as u64)),
            ("corrupt_bytes".into(), Value::U64(s.corrupt_bytes)),
            ("bytes_before".into(), Value::U64(s.bytes_before)),
            ("bytes_after".into(), Value::U64(s.bytes_after)),
        ]);
        let text =
            serde_json::to_string_pretty(&value).map_err(|e| format!("serialize scrub: {e}"))?;
        println!("{text}");
        return Ok(());
    }
    println!(
        "scrub dir={} packs={} sidecars_bad={} records_scanned={} records_kept={} \
         corrupt_spans={} corrupt_bytes={} bytes_before={} bytes_after={}",
        dir.display(),
        s.packs,
        s.sidecars_bad,
        s.records_scanned,
        s.records_kept,
        s.corrupt_spans,
        s.corrupt_bytes,
        s.bytes_before,
        s.bytes_after
    );
    if s.corrupt_spans > 0 {
        eprintln!(
            "scrub quarantined {} corrupt byte span(s); raw bytes kept under {}",
            s.corrupt_spans,
            dir.join("scrub-quarantine").display()
        );
    }
    Ok(())
}

/// `exp store import`: appends the cells of a legacy cache directory or
/// manifest file that the store does not hold yet.
fn store_import(dir: &std::path::Path, from: &std::path::Path) -> Result<(), String> {
    let store = open_pack_store(dir, Durability::default())?;
    let imported = store
        .import(from)
        .map_err(|e| format!("cannot import {}: {e}", from.display()))?;
    println!(
        "import dir={} from={} imported={imported} records={}",
        dir.display(),
        from.display(),
        store.len()
    );
    Ok(())
}

/// The policy segment of a canonical trial key
/// (`v1|{scenario}|{policy}|{seed}` — the second-to-last `|` field).
fn key_policy(key: &str) -> &str {
    let mut it = key.rsplit('|');
    it.next();
    it.next().unwrap_or("?")
}

/// Folds a store's decided cells into the report: totals,
/// per-policy counts, and quarantine details.
fn report_cells(
    entries: &[(String, CellOutcome)],
    md: &mut String,
    json: &mut Vec<(String, Value)>,
) {
    let done = entries
        .iter()
        .filter(|(_, o)| matches!(o, CellOutcome::Done(_)))
        .count();
    let quarantined = entries.len() - done;
    md.push_str(&format!(
        "\n## Decided cells\n\n{} cells decided: {done} done, {quarantined} quarantined.\n\n",
        entries.len()
    ));
    let mut per: std::collections::BTreeMap<&str, (u64, u64)> = std::collections::BTreeMap::new();
    for (key, outcome) in entries {
        let slot = per.entry(key_policy(key)).or_default();
        match outcome {
            CellOutcome::Done(_) => slot.0 += 1,
            CellOutcome::Quarantined(_) => slot.1 += 1,
        }
    }
    let mut table = Table::new(vec!["policy", "done", "quarantined"]);
    for (policy, (d, q)) in &per {
        table.row(vec![(*policy).to_owned(), d.to_string(), q.to_string()]);
    }
    md.push_str(&table.render());
    let failures: Vec<_> = entries
        .iter()
        .filter_map(|(k, o)| match o {
            CellOutcome::Quarantined(f) => Some((k.as_str(), f)),
            CellOutcome::Done(_) => None,
        })
        .collect();
    if !failures.is_empty() {
        md.push_str("\n### Quarantined cells\n\n");
        let mut t = Table::new(vec!["worker", "panicked", "flight", "key"]);
        for (key, f) in &failures {
            t.row(vec![
                f.worker.to_string(),
                f.panicked.to_string(),
                f.flight.clone().unwrap_or_else(|| "-".into()),
                (*key).to_owned(),
            ]);
        }
        md.push_str(&t.render());
    }
    json.push((
        "cells".into(),
        Value::Map(vec![
            ("total".into(), Value::U64(entries.len() as u64)),
            ("done".into(), Value::U64(done as u64)),
            ("quarantined".into(), Value::U64(quarantined as u64)),
            (
                "policies".into(),
                Value::Seq(
                    per.iter()
                        .map(|(policy, (d, q))| {
                            Value::Map(vec![
                                ("policy".into(), Value::Str((*policy).to_owned())),
                                ("done".into(), Value::U64(*d)),
                                ("quarantined".into(), Value::U64(*q)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "quarantines".into(),
                Value::Seq(
                    failures
                        .iter()
                        .map(|(key, f)| {
                            Value::Map(vec![
                                ("key".into(), Value::Str((*key).to_owned())),
                                ("worker".into(), Value::U64(f.worker as u64)),
                                ("panicked".into(), Value::Bool(f.panicked)),
                                (
                                    "flight".into(),
                                    match &f.flight {
                                        Some(p) => Value::Str(p.clone()),
                                        None => Value::Null,
                                    },
                                ),
                                ("message".into(), Value::Str(f.message.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    ));
}

/// Folds a progress stream into the report: campaign identity, the
/// final heartbeat's decided totals, and the finish wall-clock.
fn report_progress(
    path: &std::path::Path,
    md: &mut String,
    json: &mut Vec<(String, Value)>,
) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let lines = progress_from_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(ProgressLine::Started(start)) = lines.first() else {
        unreachable!("progress_from_jsonl guarantees a Started head");
    };
    let heartbeat = lines.iter().rev().find_map(|l| match l {
        ProgressLine::Heartbeat(h) => Some(h),
        _ => None,
    });
    let finished = lines.iter().rev().find_map(|l| match l {
        ProgressLine::Finished(f) => Some(f),
        _ => None,
    });
    md.push_str(&format!(
        "\n## Progress stream\n\ncampaign `{}`: {} cells, {} resumed at open, {} threads.\n",
        start.campaign, start.cells, start.resumed, start.threads
    ));
    let mut entries = vec![
        ("campaign".into(), Value::Str(start.campaign.clone())),
        ("cells".into(), Value::U64(start.cells)),
        ("resumed_at_open".into(), Value::U64(start.resumed)),
        ("threads".into(), Value::U64(start.threads)),
    ];
    if let Some(hb) = heartbeat {
        md.push_str(&format!(
            "decided {}/{} ({} hit, {} simulated, {} resumed, {} quarantined) at {:.1} cells/s.\n",
            hb.done, hb.total, hb.hits, hb.simulated, hb.resumed, hb.quarantined, hb.cells_per_sec,
        ));
        entries.extend([
            ("done".into(), Value::U64(hb.done)),
            ("hits".into(), Value::U64(hb.hits)),
            ("simulated".into(), Value::U64(hb.simulated)),
            ("resumed".into(), Value::U64(hb.resumed)),
            ("quarantined".into(), Value::U64(hb.quarantined)),
        ]);
        if hb.store_retries > 0 || hb.store_degraded > 0 || hb.store_sync_failures > 0 {
            md.push_str(&format!(
                "store health: {} retried write(s), {} degradation(s), {} sync failure(s).\n",
                hb.store_retries, hb.store_degraded, hb.store_sync_failures
            ));
            entries.extend([
                ("store_retries".into(), Value::U64(hb.store_retries)),
                ("store_degraded".into(), Value::U64(hb.store_degraded)),
                (
                    "store_sync_failures".into(),
                    Value::U64(hb.store_sync_failures),
                ),
            ]);
        }
    }
    if let Some(f) = finished {
        md.push_str(&format!("finished in {:.2} s.\n", f.wall_s));
        entries.push(("wall_s".into(), Value::F64(f.wall_s)));
    } else {
        md.push_str("stream has no Finished line (campaign killed or still running).\n");
    }
    json.push(("progress".into(), Value::Map(entries)));
    Ok(())
}

/// Folds a Chrome-trace export into the report: wall-clock per span
/// category and the slowest simulated cells.
fn report_trace(
    path: &std::path::Path,
    md: &mut String,
    json: &mut Vec<(String, Value)>,
) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let value: Value =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    let events = value
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{} is not a Chrome trace (no traceEvents)", path.display()))?;
    let mut cats: std::collections::BTreeMap<String, (u64, u64)> =
        std::collections::BTreeMap::new();
    let mut cells: Vec<(String, u64)> = Vec::new();
    for ev in events {
        let cat = ev.get("cat").and_then(Value::as_str).unwrap_or("?");
        let dur = ev.get("dur").and_then(Value::as_u64).unwrap_or(0);
        let slot = cats.entry(cat.to_owned()).or_default();
        slot.0 += 1;
        slot.1 += dur;
        if ev.get("name").and_then(Value::as_str) == Some("cell") {
            let label = ev
                .get("args")
                .and_then(|a| a.get("key"))
                .and_then(Value::as_str)
                .unwrap_or("cell");
            cells.push((label.to_owned(), dur));
        }
    }
    cells.sort_by_key(|cell| std::cmp::Reverse(cell.1));
    cells.truncate(5);
    md.push_str(&format!("\n## Trace\n\n{} spans.\n\n", events.len()));
    let mut table = Table::new(vec!["category", "spans", "total ms"]);
    for (cat, (n, us)) in &cats {
        table.row(vec![
            cat.clone(),
            n.to_string(),
            format!("{:.3}", *us as f64 / 1000.0),
        ]);
    }
    md.push_str(&table.render());
    if !cells.is_empty() {
        md.push_str("\nSlowest cells:\n\n");
        let mut t = Table::new(vec!["ms", "key"]);
        for (key, us) in &cells {
            t.row(vec![format!("{:.3}", *us as f64 / 1000.0), key.clone()]);
        }
        md.push_str(&t.render());
    }
    json.push((
        "trace".into(),
        Value::Map(vec![
            ("spans".into(), Value::U64(events.len() as u64)),
            (
                "categories".into(),
                Value::Seq(
                    cats.iter()
                        .map(|(cat, (n, us))| {
                            Value::Map(vec![
                                ("category".into(), Value::Str(cat.clone())),
                                ("spans".into(), Value::U64(*n)),
                                ("total_us".into(), Value::U64(*us)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "slowest_cells".into(),
                Value::Seq(
                    cells
                        .iter()
                        .map(|(key, us)| {
                            Value::Map(vec![
                                ("key".into(), Value::Str(key.clone())),
                                ("dur_us".into(), Value::U64(*us)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    ));
    Ok(())
}

/// `exp report`: folds a result store, a progress stream, and a span
/// trace into one campaign report (markdown, or `--json`). The store is
/// only read: a missing directory is an error, not a new empty store.
fn campaign_report(args: &ReportArgs) -> Result<(), String> {
    let mut md = String::from("# Campaign report\n");
    let mut json: Vec<(String, Value)> = Vec::new();
    if let Some(dir) = &args.store {
        if !dir.is_dir() {
            return Err(format!("no store at {}", dir.display()));
        }
        let entries = open_pack_store(dir, Durability::default())?.decided_entries();
        report_cells(&entries, &mut md, &mut json);
    }
    if let Some(path) = &args.progress {
        report_progress(path, &mut md, &mut json)?;
    }
    if let Some(path) = &args.trace {
        report_trace(path, &mut md, &mut json)?;
    }
    let text = if args.json {
        let mut s = serde_json::to_string_pretty(&Value::Map(json))
            .map_err(|e| format!("serialize report: {e}"))?;
        s.push('\n');
        s
    } else {
        md
    };
    match &args.out {
        Some(path) => {
            std::fs::write(path, &text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn fault_sweep(args: &FaultSweepArgs) -> Result<(), String> {
    // `--store` is the decided store: its records resume the campaign
    // and already answer everything a trial-store probe could, so it
    // takes no trial-store role (that would append every decided cell
    // twice). Without `--store`, an environment-selected store serves
    // as a plain trial cache.
    let pack = args
        .store
        .as_ref()
        .map(|d| open_pack_store(d, args.durability))
        .transpose()?;
    let env_store = if pack.is_none() {
        store_from_env()
    } else {
        None
    };
    let accounted: Option<&dyn TrialStore> = pack
        .as_ref()
        .map(|p| p as &dyn TrialStore)
        .or(env_store.as_deref());
    let config = RobustnessConfig {
        utilization: args.utilization,
        capacity: args.capacity,
        horizon_units: args.horizon_units,
        intensities: args.intensities.clone(),
        policies: vec![PolicyKind::Edf, PolicyKind::Lsa, PolicyKind::EaDvfs],
        predictors: vec![PredictorKind::Oracle],
        trials: args.trials,
        threads: args.threads,
        ..RobustnessConfig::default()
    };
    let matches = |list: &[InjectSpec], cell: &harvest_exp::figures::Cell| {
        list.iter()
            .any(|&(p, s, i)| p == cell.policy && s == cell.seed && i == cell.intensity)
    };
    let telemetry = build_telemetry(&args.trace, &args.progress, &args.flight)?;
    let report = robustness_campaign_instrumented(
        &config,
        env_store.as_deref(),
        pack.as_ref().map(|p| p as &dyn DecidedStore),
        |cell| {
            if matches(&args.inject_panic, cell) {
                Sabotage::Panic
            } else if matches(&args.inject_starve, cell) {
                Sabotage::Starve
            } else {
                Sabotage::None
            }
        },
        &telemetry,
    );
    let cells = config.intensities.len() * config.policies.len() * config.trials;
    println!(
        "fault-sweep util={} capacity={} trials={} cells={cells} simulated={} cached={} \
         resumed={} quarantined={} pool_runs={} event_slab_high_water={} ready_high_water={} \
         figure_fnv64={:016x}",
        args.utilization,
        args.capacity,
        args.trials,
        report.exec.simulated,
        report.exec.cached,
        report.resumed,
        report.quarantined.len(),
        report.exec.pool.runs,
        report.exec.pool.event_slab_high_water,
        report.exec.pool.ready_high_water,
        report.figure.digest(),
    );
    for q in &report.quarantined {
        println!(
            "quarantine key={} policy={} seed={} intensity={} panicked={} worker={} message={}",
            q.key,
            q.policy.name(),
            q.seed,
            q.intensity,
            q.failure.panicked,
            q.failure.worker,
            q.failure.message,
        );
        // The post-mortem pointer goes to stderr: CI tees stdout and
        // greps exact quarantine lines, and the dump path is transient
        // diagnostics, not part of the campaign's stable accounting.
        if let Some(flight) = &q.failure.flight {
            eprintln!(
                "flight key={} worker={} panicked={} dump={flight}",
                q.key, q.failure.worker, q.failure.panicked
            );
        }
    }
    // Pooled queues reset their run counters between trials (bit-exact
    // replay requires it); what survives per worker is the retained
    // slab footprint.
    for (i, qs) in report.queues.iter().enumerate() {
        println!("queue worker={i} slab_capacity={}", qs.slab_capacity);
    }
    if let Some(s) = accounted {
        print_store_line(s);
    }
    let health = accounted.map(|s| s.io_health()).unwrap_or_default();
    print_metrics(&report.exec, accounted, &health);
    finish_telemetry(&telemetry, &args.trace)?;
    if args.expect_resumed && report.exec.simulated != 0 {
        return Err(format!(
            "expected a resumed campaign but {} of {cells} cells were simulated",
            report.exec.simulated
        ));
    }
    Ok(())
}

fn parse_sweep(mut args: Args) -> Result<SweepArgs, String> {
    let mut out = SweepArgs::default();
    args.each(|flag, args| {
        match flag {
            "--util" => out.utilization = args.positive_number(flag)?,
            "--trials" => out.trials = args.positive_integer(flag)?,
            "--threads" => out.threads = args.positive_integer(flag)?,
            "--store" => out.store = Some(args.path(flag)?),
            "--durability" => out.durability = parse_durability(args, flag)?,
            "--trace" => out.trace = Some(args.path(flag)?),
            "--progress" => out.progress = Some(args.path(flag)?),
            "--expect-warm" => out.expect_warm = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(out)
}

fn parse_report(mut args: Args) -> Result<ReportArgs, String> {
    let mut out = ReportArgs::default();
    args.each(|flag, args| {
        match flag {
            "--store" => out.store = Some(args.path(flag)?),
            "--progress" => out.progress = Some(args.path(flag)?),
            "--trace" => out.trace = Some(args.path(flag)?),
            "--json" => out.json = true,
            "--out" => out.out = Some(args.path(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if out.store.is_none() && out.progress.is_none() && out.trace.is_none() {
        return Err("report needs at least one input (--store, --progress, or --trace)".into());
    }
    Ok(out)
}

fn sweep(args: &SweepArgs) -> Result<(), String> {
    let store: Option<Box<dyn TrialStore>> = match &args.store {
        Some(dir) => Some(Box::new(open_pack_store(dir, args.durability)?)),
        None => store_from_env(),
    };
    let store_ref = store.as_deref();
    let telemetry = build_telemetry(&args.trace, &args.progress, &None)?;
    let (figure, stats) = miss_rate_figure_instrumented(
        store_ref,
        args.utilization,
        &[PolicyKind::Lsa, PolicyKind::EaDvfs],
        args.trials,
        args.threads,
        1,
        &telemetry,
    );
    let json = serde_json::to_string(&figure).map_err(|e| format!("serialize figure: {e}"))?;
    println!(
        "sweep util={} trials={} cells={} simulated={} cached={} pool_runs={} \
         event_slab_high_water={} ready_high_water={} figure_fnv64={:016x}",
        args.utilization,
        args.trials,
        stats.simulated + stats.cached,
        stats.simulated,
        stats.cached,
        stats.pool.runs,
        stats.pool.event_slab_high_water,
        stats.pool.ready_high_water,
        fnv1a64(json.as_bytes()),
    );
    if let Some(s) = store_ref {
        print_store_line(s);
    }
    let health = store_ref.map(|s| s.io_health()).unwrap_or_default();
    print_metrics(&stats, store_ref, &health);
    finish_telemetry(&telemetry, &args.trace)?;
    if args.expect_warm && stats.simulated != 0 {
        return Err(format!(
            "expected a warm store but {} of {} cells were simulated",
            stats.simulated,
            stats.simulated + stats.cached
        ));
    }
    Ok(())
}

fn record(args: &RecordArgs) -> Result<RunArtifact, String> {
    let mut scenario = PaperScenario::new(args.utilization, args.capacity);
    scenario.horizon_units = args.horizon_units;
    scenario = scenario.with_sampling(args.sample_units);
    let prefab = scenario.prefab(args.seed);
    let result = scenario.run_prefab_observed(args.policy, &prefab);
    Ok(RunArtifact::from_result(&result))
}

fn load(path: &PathBuf) -> Result<RunArtifact, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    RunArtifact::from_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(cmd: Command) -> Result<(), ExpError> {
    let result = match cmd {
        Command::Paper(verb, args) => verb(&args),
        Command::Record(args) => record(&args).and_then(|artifact| match &args.out {
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
                let lines = artifact
                    .write_jsonl(std::io::BufWriter::new(file))
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                eprintln!("wrote {} ({lines} lines)", path.display());
                Ok(())
            }
            None => {
                print!("{}", artifact.to_jsonl());
                Ok(())
            }
        }),
        Command::Inspect(path) => load(&path).map(|artifact| print!("{}", artifact.render())),
        Command::Diff { run, baseline } => load(&run).and_then(|run| {
            let base = load(&baseline)?;
            let diff = run.render_diff(&base)?;
            print!("{diff}");
            Ok(())
        }),
        Command::Sweep(args) => sweep(&args),
        Command::FaultSweep(args) => fault_sweep(&args),
        Command::Report(args) => campaign_report(&args),
        Command::StoreStat { dir, json } => store_stat(&dir, json),
        Command::StoreCompact(dir) => store_compact(&dir),
        Command::StoreScrub { dir, json } => store_scrub(&dir, json),
        Command::StoreImport { dir, from } => store_import(&dir, &from),
    };
    // Everything past parsing is the machine's fault, not the user's.
    result.map_err(ExpError::Runtime)
}

fn main() {
    let code = match parse_command(Args::new(std::env::args().skip(1)))
        .map_err(ExpError::Usage)
        .and_then(run)
    {
        Ok(()) => 0,
        Err(ExpError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            2
        }
        Err(ExpError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            1
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_flags_parse() {
        let args = parse_record(Args::new([
            "--policy",
            "lsa",
            "--util",
            "0.8",
            "--capacity",
            "200",
            "--seed",
            "9",
            "--horizon",
            "1000",
            "--sample",
            "50",
            "--out",
            "/tmp/run.jsonl",
        ]))
        .unwrap();
        assert_eq!(args.policy, PolicyKind::Lsa);
        assert_eq!(args.utilization, 0.8);
        assert_eq!(args.capacity, 200.0);
        assert_eq!(args.seed, 9);
        assert_eq!(args.horizon_units, 1000);
        assert_eq!(args.sample_units, 50);
        assert_eq!(args.out, Some(PathBuf::from("/tmp/run.jsonl")));
    }

    #[test]
    fn sweep_flags_parse() {
        let args = parse_sweep(Args::new([
            "--util",
            "0.8",
            "--trials",
            "3",
            "--threads",
            "2",
            "--expect-warm",
        ]))
        .unwrap();
        assert_eq!(args.utilization, 0.8);
        assert_eq!(args.trials, 3);
        assert_eq!(args.threads, 2);
        assert_eq!(args.store, None);
        assert!(args.expect_warm);
        assert_eq!(args.trace, None);
        assert_eq!(args.progress, None);

        let traced = parse_sweep(Args::new([
            "--trace",
            "/tmp/t.json",
            "--progress",
            "/tmp/p.jsonl",
        ]))
        .unwrap();
        assert_eq!(traced.trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(traced.progress, Some(PathBuf::from("/tmp/p.jsonl")));
        assert!(parse_sweep(Args::new(["--trials", "0"])).is_err());
        assert!(parse_sweep(Args::new(["--bogus"])).is_err());

        let stored = parse_sweep(Args::new(["--store", "/tmp/sweep-store"])).unwrap();
        assert_eq!(stored.store, Some(PathBuf::from("/tmp/sweep-store")));
        assert_eq!(stored.durability, Durability::Batch);
        assert!(parse_sweep(Args::new(["--cache", "/tmp/b"]))
            .unwrap_err()
            .contains("unknown flag"));

        for (name, level) in [
            ("none", Durability::None),
            ("batch", Durability::Batch),
            ("record", Durability::Record),
        ] {
            let parsed = parse_sweep(Args::new(["--durability", name])).unwrap();
            assert_eq!(parsed.durability, level);
        }
        assert!(parse_sweep(Args::new(["--durability", "paranoid"]))
            .unwrap_err()
            .contains("none, batch, or record"));
    }

    #[test]
    fn fault_sweep_flags_parse() {
        let args = parse_fault_sweep(Args::new([
            "--util",
            "0.8",
            "--capacity",
            "200",
            "--trials",
            "3",
            "--threads",
            "2",
            "--horizon",
            "1500",
            "--intensities",
            "0.0, 0.5, 1.0",
            "--inject-panic",
            "lsa:0:0.5",
            "--inject-starve",
            "ea-dvfs:1:1.0",
            "--expect-resumed",
        ]))
        .unwrap();
        assert_eq!(args.utilization, 0.8);
        assert_eq!(args.capacity, 200.0);
        assert_eq!(args.trials, 3);
        assert_eq!(args.horizon_units, 1500);
        assert_eq!(args.intensities, vec![0.0, 0.5, 1.0]);
        assert_eq!(args.inject_panic, vec![(PolicyKind::Lsa, 0, 0.5)]);
        assert_eq!(args.inject_starve, vec![(PolicyKind::EaDvfs, 1, 1.0)]);
        assert!(args.expect_resumed);
        assert!(parse_fault_sweep(Args::new(["--intensities", "2.0"])).is_err());
        assert!(parse_fault_sweep(Args::new(["--inject-panic", "lsa:0"])).is_err());
        assert!(parse_fault_sweep(Args::new(["--inject-panic", "sjf:0:0.5"])).is_err());

        let stored = parse_fault_sweep(Args::new(["--store", "/tmp/campaign"])).unwrap();
        assert_eq!(stored.store, Some(PathBuf::from("/tmp/campaign")));
        assert_eq!(stored.durability, Durability::Batch);
        let durable = parse_fault_sweep(Args::new([
            "--store",
            "/tmp/campaign",
            "--durability",
            "record",
        ]))
        .unwrap();
        assert_eq!(durable.durability, Durability::Record);
        assert!(parse_fault_sweep(Args::new(["--durability", "fsync-everything"])).is_err());
        for removed in ["--cache", "--manifest"] {
            assert!(parse_fault_sweep(Args::new([removed, "/tmp/b"]))
                .unwrap_err()
                .contains("unknown flag"));
        }

        let observed = parse_fault_sweep(Args::new([
            "--trace",
            "/tmp/t.json",
            "--progress",
            "/tmp/p.jsonl",
            "--flight",
            "/tmp/flight",
        ]))
        .unwrap();
        assert_eq!(observed.trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(observed.progress, Some(PathBuf::from("/tmp/p.jsonl")));
        assert_eq!(observed.flight, Some(PathBuf::from("/tmp/flight")));
    }

    #[test]
    fn report_flags_parse() {
        let args = parse_report(Args::new([
            "--store",
            "/tmp/s",
            "--progress",
            "/tmp/p.jsonl",
            "--trace",
            "/tmp/t.json",
            "--json",
            "--out",
            "/tmp/report.json",
        ]))
        .unwrap();
        assert_eq!(args.store, Some(PathBuf::from("/tmp/s")));
        assert_eq!(args.progress, Some(PathBuf::from("/tmp/p.jsonl")));
        assert_eq!(args.trace, Some(PathBuf::from("/tmp/t.json")));
        assert!(args.json);
        assert_eq!(args.out, Some(PathBuf::from("/tmp/report.json")));

        let from_progress = parse_report(Args::new(["--progress", "/tmp/p.jsonl"])).unwrap();
        assert_eq!(from_progress.store, None);
        assert!(!from_progress.json);

        // No input at all is a usage error; so is the retired manifest.
        assert!(parse_report(Args::new(Vec::<String>::new()))
            .unwrap_err()
            .contains("at least one input"));
        assert!(parse_report(Args::new(["--json"]))
            .unwrap_err()
            .contains("at least one input"));
        assert!(parse_report(Args::new(["--manifest", "/tmp/b"]))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse_report(Args::new(["--bogus"])).is_err());
    }

    #[test]
    fn key_policy_extracts_second_to_last_segment() {
        assert_eq!(key_policy("v1|{\"u\":0.4}|lsa|7"), "lsa");
        assert_eq!(key_policy("v1|{\"u\":0.4}|ea-dvfs|0"), "ea-dvfs");
        assert_eq!(key_policy("no-pipes"), "?");
    }

    #[test]
    fn store_subcommand_parses() {
        match parse_command(Args::new(["store", "stat", "/tmp/s"])).unwrap() {
            Command::StoreStat { dir, json } => {
                assert_eq!(dir, PathBuf::from("/tmp/s"));
                assert!(!json);
            }
            other => panic!("wrong command: {other:?}"),
        }
        match parse_command(Args::new(["store", "stat", "/tmp/s", "--json"])).unwrap() {
            Command::StoreStat { dir, json } => {
                assert_eq!(dir, PathBuf::from("/tmp/s"));
                assert!(json);
            }
            other => panic!("wrong command: {other:?}"),
        }
        match parse_command(Args::new(["store", "compact", "/tmp/s"])).unwrap() {
            Command::StoreCompact(dir) => assert_eq!(dir, PathBuf::from("/tmp/s")),
            other => panic!("wrong command: {other:?}"),
        }
        match parse_command(Args::new(["store", "scrub", "/tmp/s", "--json"])).unwrap() {
            Command::StoreScrub { dir, json } => {
                assert_eq!(dir, PathBuf::from("/tmp/s"));
                assert!(json);
            }
            other => panic!("wrong command: {other:?}"),
        }
        match parse_command(Args::new(["store", "scrub", "/tmp/s"])).unwrap() {
            Command::StoreScrub { dir, json } => {
                assert_eq!(dir, PathBuf::from("/tmp/s"));
                assert!(!json);
            }
            other => panic!("wrong command: {other:?}"),
        }
        match parse_command(Args::new(["store", "import", "/tmp/s", "/tmp/legacy"])).unwrap() {
            Command::StoreImport { dir, from } => {
                assert_eq!(dir, PathBuf::from("/tmp/s"));
                assert_eq!(from, PathBuf::from("/tmp/legacy"));
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse_command(Args::new(["store", "import", "/tmp/s"])).is_err());
        assert!(
            parse_command(Args::new(["store", "import", "/tmp/s", "/tmp/a", "/tmp/b"])).is_err()
        );
        assert!(
            parse_command(Args::new(["store", "import", "/tmp/s", "/tmp/a", "--json"])).is_err()
        );
        assert!(parse_command(Args::new(["store"])).is_err());
        assert!(parse_command(Args::new(["store", "scrub"])).is_err());
        assert!(parse_command(Args::new(["store", "stat"])).is_err());
        assert!(parse_command(Args::new(["store", "prune", "/tmp/s"])).is_err());
        assert!(parse_command(Args::new(["store", "stat", "/tmp/s", "extra"])).is_err());
        assert!(parse_command(Args::new(["store", "compact", "/tmp/s", "--json"])).is_err());
    }

    #[test]
    fn bad_invocations_rejected() {
        assert!(parse_command(Args::new(Vec::<String>::new())).is_err());
        assert!(parse_command(Args::new(["bogus"])).is_err());
        assert!(parse_command(Args::new(["inspect"])).is_err());
        assert!(parse_command(Args::new(["diff", "one.jsonl"])).is_err());
        assert!(parse_record(Args::new(["--policy", "sjf"])).is_err());
        assert!(parse_record(Args::new(["--util", "-1"])).is_err());
        assert!(parse_record(Args::new(["--horizon", "0"])).is_err());
    }

    #[test]
    fn record_produces_inspectable_artifact() {
        let args = RecordArgs {
            horizon_units: 1_000,
            sample_units: 50,
            ..RecordArgs::default()
        };
        let artifact = record(&args).unwrap();
        assert!(artifact.metrics.is_some());
        assert!(artifact.profile.is_some());
        let text = artifact.render();
        assert!(text.contains("metrics"));
        let back = RunArtifact::from_jsonl(&artifact.to_jsonl()).unwrap();
        assert_eq!(back, artifact);
    }
}
