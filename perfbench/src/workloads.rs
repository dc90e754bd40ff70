//! The three workloads: their grids, pinned digests, and one campaign
//! of each through the real drivers (telemetry off unless asked).

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use harvest_exp::cache::fnv1a64;
use harvest_exp::figures::{
    miss_rate_figure_cached, miss_rate_figure_instrumented, robustness_campaign_instrumented,
    MissRateFigure, RobustnessConfig, Sabotage,
};
use harvest_exp::store::{DecidedStore, PackStore, TrialStore};
use harvest_exp::telemetry::CampaignTelemetry;
use harvest_exp::{PaperScenario, PolicyKind, PredictorKind};
use harvest_obs::io::{Durability, RealIo, RetryPolicy};
use harvest_obs::progress::ProgressReporter;
use harvest_obs::span::SpanCollector;

/// Worker threads of every campaign: the load is one closed-loop client
/// on a 2-core host.
pub const THREADS: usize = 2;

/// Task sets per capacity point of the Fig. 8/9 grids. The drivers seed
/// them `0..N`, so the seed base is always 0.
pub const FIG_TRIALS: usize = 20;

/// Task sets per grid cell of the fault campaign.
pub const FAULT_TRIALS: usize = 40;

/// The first task-set seed the drivers use.
pub const SEED_BASE: u64 = 0;

/// The paper's utilizations: Fig. 8 (U = 0.4) and Fig. 9 (U = 0.8).
pub const FIG_UTILS: [f64; 2] = [0.4, 0.8];

/// The policies the Fig. 8/9 grids compare, as `exp sweep` runs them.
pub const FIG_POLICIES: [PolicyKind; 2] = [PolicyKind::Lsa, PolicyKind::EaDvfs];

/// The Fig. 8/9 capacity sweep. A copy of the driver's grid; the pinned
/// digests prove the two agree.
pub const FIG_CAPACITIES: [f64; 12] = [
    50.0, 100.0, 200.0, 300.0, 500.0, 750.0, 1000.0, 1500.0, 2000.0, 3000.0, 4000.0, 5000.0,
];

/// `figure_fnv64` of Fig. 8 and Fig. 9 at [`FIG_TRIALS`], as
/// `exp sweep --util U --trials 20` prints it.
pub const PINNED_FIG_DIGESTS: [u64; 2] = [0x4193_b3d0_2ebc_11ed, 0x9d99_6247_cde2_07b8];

/// `RobustnessFigure::digest` of the fault campaign at [`FAULT_TRIALS`].
pub const PINNED_FAULT_DIGEST: u64 = 0x876b_c744_fa91_8763;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 8 and Fig. 9 from a fresh empty store.
    FigCold,
    /// Fig. 8 and Fig. 9 answered entirely from a filled store.
    FigWarm,
    /// The checkpointed robustness campaign.
    FaultCampaign,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fig89_cold" => Some(Workload::FigCold),
            "fig89_warm" => Some(Workload::FigWarm),
            "fault_campaign" => Some(Workload::FaultCampaign),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FigCold => "fig89_cold",
            Workload::FigWarm => "fig89_warm",
            Workload::FaultCampaign => "fault_campaign",
        }
    }
}

/// The grid size knob: task sets per point of each grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    /// Task sets per capacity point of the Fig. 8/9 grids.
    pub fig_trials: usize,
    /// Task sets per cell of the fault campaign.
    pub fault_trials: usize,
    /// Worker threads.
    pub threads: usize,
}

impl Grid {
    /// The benchmark's grid, whose digests are pinned.
    pub const PINNED: Grid = Grid {
        fig_trials: FIG_TRIALS,
        fault_trials: FAULT_TRIALS,
        threads: THREADS,
    };

    /// Cells of one Fig. 8/9 campaign (both figures).
    pub fn fig_cells(&self) -> u64 {
        (FIG_UTILS.len() * FIG_CAPACITIES.len() * FIG_POLICIES.len() * self.fig_trials) as u64
    }

    /// Cells of one fault campaign.
    pub fn fault_cells(&self) -> u64 {
        let c = self.fault_config();
        (c.intensities.len() * c.predictors.len() * c.policies.len() * c.trials) as u64
    }

    /// The fault campaign's grid: U = 0.4, C = 300 at the CLI default
    /// horizon of 2000, five intensities, three policies, oracle and
    /// EWMA predictors, watchdog armed, scalar dispatch.
    pub fn fault_config(&self) -> RobustnessConfig {
        RobustnessConfig {
            utilization: 0.4,
            capacity: 300.0,
            horizon_units: 2000,
            intensities: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            policies: vec![PolicyKind::Edf, PolicyKind::Lsa, PolicyKind::EaDvfs],
            predictors: vec![PredictorKind::Oracle, PredictorKind::Ewma],
            trials: self.fault_trials,
            threads: self.threads,
            batch: 1,
            ..RobustnessConfig::default()
        }
    }

    /// `true` when this is the pinned grid, so digests can be checked
    /// against the pins.
    pub fn is_pinned(&self) -> bool {
        self.fig_trials == FIG_TRIALS && self.fault_trials == FAULT_TRIALS
    }
}

/// One cell scenario of the fault grid, built as `robustness_campaign`
/// builds it.
pub fn fault_scenario(
    config: &RobustnessConfig,
    intensity: f64,
    predictor: PredictorKind,
) -> PaperScenario {
    let mut s = PaperScenario::new(config.utilization, config.capacity)
        .with_predictor(predictor)
        .with_fault_intensity(intensity);
    s.horizon_units = config.horizon_units;
    s
}

/// Digest of a miss-rate figure, as `exp sweep` prints it.
pub fn figure_digest(figure: &MissRateFigure) -> u64 {
    let json = serde_json::to_string(figure).expect("figure is plain data");
    fnv1a64(json.as_bytes())
}

/// Opens a pack store at the default durability, as `--store` does.
pub fn open_store(dir: &Path) -> PackStore {
    PackStore::open_with(
        dir,
        RealIo::shared(),
        RetryPolicy::default(),
        Durability::default(),
    )
    .unwrap_or_else(|e| panic!("cannot open store {}: {e}", dir.display()))
}

/// What one campaign produced, for the correctness gate and the clock.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Wall time from the driver call to the finished, durable figure.
    pub wall: Duration,
    /// Cells decided.
    pub cells: u64,
    /// Cells that failed: quarantined, failed or unanswered in the
    /// store, or part of a figure whose digest differs from the pin.
    pub failed: u64,
    /// Cells simulated (as opposed to store-answered or resumed).
    pub simulated: u64,
    /// Figure digests, in grid order.
    pub digests: Vec<u64>,
}

/// Telemetry as `exp sweep --trace --progress` would switch it on,
/// writing into memory and a null sink.
fn telemetry_on() -> CampaignTelemetry {
    CampaignTelemetry {
        spans: Some(SpanCollector::shared()),
        progress: Some(Arc::new(ProgressReporter::new(
            Some(Box::new(std::io::sink())),
            false,
        ))),
        flight: None,
    }
}

/// Fig. 8 and Fig. 9 through `miss_rate_figure_cached` on the store at
/// `dir` (fresh for the cold workload, filled for the warm one), then
/// the store's close. `warm` marks simulated cells as store failures.
pub fn fig_campaign(dir: &Path, grid: &Grid, warm: bool, telemetry: bool) -> Outcome {
    let start = Instant::now();
    let store = open_store(dir);
    let telemetry = if telemetry {
        telemetry_on()
    } else {
        CampaignTelemetry::off()
    };
    let mut out = Outcome::default();
    for u in FIG_UTILS {
        let (figure, stats) = if telemetry.is_off() {
            miss_rate_figure_cached(
                Some(&store),
                u,
                &FIG_POLICIES,
                grid.fig_trials,
                grid.threads,
            )
        } else {
            miss_rate_figure_instrumented(
                Some(&store),
                u,
                &FIG_POLICIES,
                grid.fig_trials,
                grid.threads,
                1,
                &telemetry,
            )
        };
        out.cells += stats.simulated + stats.cached;
        out.simulated += stats.simulated;
        out.digests.push(figure_digest(&figure));
    }
    let health = TrialStore::io_health(&store);
    drop(store);
    out.wall = start.elapsed();
    out.failed = fig_failures(&out, grid, warm, health.degraded);
    out
}

fn fig_failures(out: &Outcome, grid: &Grid, warm: bool, degraded: u64) -> u64 {
    let per_figure = grid.fig_cells() / FIG_UTILS.len() as u64;
    let mut failed = 0;
    if grid.is_pinned() {
        for (d, pin) in out.digests.iter().zip(PINNED_FIG_DIGESTS) {
            if *d != pin {
                failed += per_figure;
            }
        }
    }
    if warm {
        failed += out.simulated;
    }
    (failed + degraded).min(out.cells)
}

/// The fault campaign through `robustness_campaign` with the pack store
/// at `dir` as its decided-cell checkpoint (the `exp fault-sweep
/// --store` wiring), then the store's close.
pub fn fault_campaign(dir: &Path, grid: &Grid, telemetry: bool) -> Outcome {
    let start = Instant::now();
    let store = open_store(dir);
    let telemetry = if telemetry {
        telemetry_on()
    } else {
        CampaignTelemetry::off()
    };
    let config = grid.fault_config();
    let report = robustness_campaign_instrumented(
        &config,
        None,
        Some(&store as &dyn DecidedStore),
        |_| Sabotage::None,
        &telemetry,
    );
    let health = DecidedStore::io_health(&store);
    drop(store);
    let mut out = Outcome {
        wall: start.elapsed(),
        cells: grid.fault_cells(),
        simulated: report.exec.simulated,
        digests: vec![report.figure.digest()],
        ..Outcome::default()
    };
    out.failed = fault_failures(&out, grid, report.quarantined.len() as u64, health.degraded);
    out
}

/// Failed cells of a fault campaign outcome.
fn fault_failures(out: &Outcome, grid: &Grid, quarantined: u64, degraded: u64) -> u64 {
    if grid.is_pinned() && out.digests != [PINNED_FAULT_DIGEST] {
        return out.cells;
    }
    (quarantined + degraded).min(out.cells)
}

/// Re-reads a store written by a replayed campaign through the real
/// driver: `Ok` only if it simulates nothing and reproduces `expect`.
///
/// # Errors
///
/// Describes the first mismatch.
pub fn verify_readback(
    workload: Workload,
    dir: &Path,
    grid: &Grid,
    expect: &[u64],
) -> Result<(), String> {
    let out = match workload {
        Workload::FigCold | Workload::FigWarm => fig_campaign(dir, grid, true, false),
        Workload::FaultCampaign => fault_campaign(dir, grid, false),
    };
    if out.simulated != 0 {
        return Err(format!(
            "read-back of {} simulated {} of {} cells",
            dir.display(),
            out.simulated,
            out.cells
        ));
    }
    if out.digests != expect {
        return Err(format!(
            "read-back digests {:016x?} differ from the replay's {expect:016x?}",
            out.digests
        ));
    }
    if out.failed != 0 {
        return Err(format!("read-back failed {} cells", out.failed));
    }
    Ok(())
}
