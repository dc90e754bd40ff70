//! The benchmark's own checks on a small grid: every count metric
//! repeats bit for bit across runs and across 1 vs 2 worker threads,
//! and every replayed campaign reads back through the real driver.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;

use harvest_perfbench::probes::{calibrate_pack_header, CountingAlloc};
use harvest_perfbench::replay;
use harvest_perfbench::run::count_metrics;
use harvest_perfbench::trace::Tracer;
use harvest_perfbench::workloads::{fault_campaign, fig_campaign, verify_readback, Grid, Workload};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const WORKLOADS: [Workload; 3] = [
    Workload::FigCold,
    Workload::FigWarm,
    Workload::FaultCampaign,
];

fn small(threads: usize) -> Grid {
    Grid {
        fig_trials: 2,
        fault_trials: 3,
        threads,
    }
}

fn work(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"))
}

#[test]
fn count_metrics_repeat_across_runs_and_thread_counts() {
    for workload in WORKLOADS {
        let name = workload.name();
        let first = count_metrics(workload, &small(1), &work(&format!("{name}-a")));
        let again = count_metrics(workload, &small(1), &work(&format!("{name}-b")));
        let two = count_metrics(workload, &small(2), &work(&format!("{name}-c")));
        assert_eq!(first, again, "{name}: counts differ between two runs");
        assert_eq!(first, two, "{name}: counts differ between 1 and 2 threads");
        for key in [
            "trials",
            "system.events",
            "kernel.locates",
            "scenario.allocs",
        ] {
            let value = first.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
            assert!(value > Some(0), "{name}: {key} counted nothing");
        }
    }
}

#[test]
fn replayed_cells_read_back_through_the_real_driver() {
    let grid = small(2);
    let root = work("readback");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("scratch dir");
    calibrate_pack_header(&root);
    let mut tr = Tracer::default();
    for (i, workload) in [Workload::FigCold, Workload::FaultCampaign]
        .into_iter()
        .enumerate()
    {
        let replay_dir = root.join(format!("replay-{i}"));
        let replayed = match workload {
            Workload::FaultCampaign => replay::fault_campaign(&mut tr, &replay_dir, &grid),
            _ => replay::fig_campaign(&mut tr, &replay_dir, &grid),
        };
        let real = match workload {
            Workload::FaultCampaign => {
                fault_campaign(&root.join(format!("real-{i}")), &grid, false)
            }
            _ => fig_campaign(&root.join(format!("real-{i}")), &grid, false, false),
        };
        assert_eq!(
            replayed.digests,
            real.digests,
            "{}: replay digests",
            workload.name()
        );
        assert_eq!(
            real.simulated, real.cells,
            "a fresh store simulates every cell"
        );
        verify_readback(workload, &replay_dir, &grid, &real.digests)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    }
    let _ = std::fs::remove_dir_all(&root);
}
