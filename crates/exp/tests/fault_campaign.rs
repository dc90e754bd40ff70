//! End-to-end fault-campaign coverage (ISSUE 5): the pinned robustness
//! figure, quarantine behaviour through the real `exp fault-sweep`
//! subcommand, and kill-and-resume through the pack store's decided
//! records.

use std::path::PathBuf;
use std::process::Command;

use harvest_exp::figures::{robustness_campaign, RobustnessConfig, Sabotage};
use harvest_exp::scenario::{PolicyKind, PredictorKind};

/// FNV-1a digest of the robustness figure on the smoke grid below,
/// captured from a known-good build. Any drift in fault generation,
/// injection, scheduling, or aggregation shows up here.
const PINNED_DIGEST: u64 = 0x66AE_8DCB_A4A4_73AC;

/// The smoke grid: must stay in sync with [`cli_args`] so the API-level
/// and subcommand-level runs pin the same figure.
fn smoke_config() -> RobustnessConfig {
    RobustnessConfig {
        utilization: 0.4,
        capacity: 300.0,
        horizon_units: 2_000,
        intensities: vec![0.0, 0.5, 1.0],
        policies: vec![PolicyKind::Edf, PolicyKind::Lsa, PolicyKind::EaDvfs],
        predictors: vec![PredictorKind::Oracle],
        trials: 2,
        threads: 2,
        ..RobustnessConfig::default()
    }
}

/// `exp fault-sweep` flags equivalent to [`smoke_config`].
fn cli_args() -> Vec<&'static str> {
    vec![
        "fault-sweep",
        "--util",
        "0.4",
        "--capacity",
        "300",
        "--horizon",
        "2000",
        "--intensities",
        "0.0,0.5,1.0",
        "--trials",
        "2",
        "--threads",
        "2",
    ]
}

fn exp_command() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp"));
    // The subcommand falls back to the environment store; keep the test
    // hermetic regardless of the invoking shell.
    cmd.env_remove("HARVEST_SWEEP_STORE");
    cmd
}

/// Extracts `key=value` from a one-line report.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let tag = format!("{key}=");
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&tag))
        .unwrap_or_else(|| panic!("no `{key}=` in {line:?}"))
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harvest-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn robustness_figure_digest_is_pinned() {
    let report = robustness_campaign(&smoke_config(), None, None, |_| Sabotage::None);
    assert!(report.quarantined.is_empty());
    assert_eq!(
        report.figure.digest(),
        PINNED_DIGEST,
        "robustness figure drifted: got {:016x}",
        report.figure.digest()
    );
}

#[test]
fn fault_sweep_subcommand_reproduces_the_pinned_figure() {
    let out = exp_command().args(cli_args()).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout
        .lines()
        .find(|l| l.starts_with("fault-sweep "))
        .unwrap_or_else(|| panic!("no report line in {stdout:?}"));
    assert_eq!(field(line, "cells"), "18");
    assert_eq!(field(line, "quarantined"), "0");
    let digest = u64::from_str_radix(field(line, "figure_fnv64"), 16).unwrap();
    assert_eq!(digest, PINNED_DIGEST, "CLI figure drifted");
}

#[test]
fn fault_sweep_subcommand_quarantines_sabotaged_cells_and_exits_zero() {
    let mut args = cli_args();
    args.extend([
        "--inject-panic",
        "lsa:0:0.0",
        "--inject-starve",
        "ea-dvfs:1:1.0",
    ]);
    let out = exp_command().args(args).output().unwrap();
    assert!(out.status.success(), "sweep must survive sabotage: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let report = stdout
        .lines()
        .find(|l| l.starts_with("fault-sweep "))
        .unwrap();
    assert_eq!(field(report, "quarantined"), "2");
    let quarantines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("quarantine "))
        .collect();
    assert_eq!(quarantines.len(), 2, "{stdout}");
    let panicked = quarantines
        .iter()
        .find(|l| field(l, "panicked") == "true")
        .unwrap();
    assert_eq!(field(panicked, "policy"), "lsa");
    assert_eq!(field(panicked, "seed"), "0");
    assert_eq!(field(panicked, "intensity"), "0");
    assert!(field(panicked, "key").contains("|lsa|0"), "{panicked}");
    let starved = quarantines
        .iter()
        .find(|l| field(l, "panicked") == "false")
        .unwrap();
    assert_eq!(field(starved, "policy"), "ea-dvfs");
    assert_eq!(field(starved, "seed"), "1");
    assert!(starved.contains("watchdog"), "{starved}");
    // Queue stats from the surviving worker pools are reported.
    assert!(
        stdout.lines().any(|l| l.starts_with("queue worker=")),
        "{stdout}"
    );
}

#[test]
fn fault_sweep_subcommand_resumes_from_a_torn_pack_record() {
    let dir = scratch_dir("fault-campaign-resume");
    let store = dir.join("store");
    let store_str = store.to_str().unwrap();

    let out = exp_command()
        .args(cli_args())
        .args(["--store", store_str])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let first = String::from_utf8(out.stdout).unwrap();
    let first_line = first
        .lines()
        .find(|l| l.starts_with("fault-sweep "))
        .unwrap();
    assert_eq!(field(first_line, "simulated"), "18");
    let first_digest = field(first_line, "figure_fnv64").to_owned();

    // Simulate a kill mid-append: cut the last record of one pack short,
    // leaving a torn half-record behind.
    let pack = std::fs::read_dir(&store)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "hpk"))
        .expect("the campaign wrote a pack");
    let len = std::fs::metadata(&pack).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&pack)
        .unwrap()
        .set_len(len - 20)
        .unwrap();

    // The resumed campaign re-simulates only the lost cell.
    let out = exp_command()
        .args(cli_args())
        .args(["--store", store_str])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let second = String::from_utf8(out.stdout).unwrap();
    let second_line = second
        .lines()
        .find(|l| l.starts_with("fault-sweep "))
        .unwrap();
    assert_eq!(field(second_line, "resumed"), "17");
    assert_eq!(field(second_line, "simulated"), "1");
    assert_eq!(field(second_line, "figure_fnv64"), first_digest);

    // A third run resumes every cell; `--expect-resumed` makes the
    // binary itself enforce that nothing re-simulates.
    let out = exp_command()
        .args(cli_args())
        .args(["--store", store_str, "--expect-resumed"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let third = String::from_utf8(out.stdout).unwrap();
    let third_line = third
        .lines()
        .find(|l| l.starts_with("fault-sweep "))
        .unwrap();
    assert_eq!(field(third_line, "resumed"), "18");
    assert_eq!(field(third_line, "simulated"), "0");
    assert_eq!(field(third_line, "figure_fnv64"), first_digest);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_sweep_subcommand_reports_usage_errors_with_exit_2() {
    let out = exp_command()
        .args(["fault-sweep", "--intensities", "1.5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("intensit"), "{stderr}");
}
