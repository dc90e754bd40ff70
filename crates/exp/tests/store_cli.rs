//! End-to-end `exp` CLI behaviour of the pack store: a cold sweep
//! followed by a warm `--expect-warm` re-run reproduces the figure
//! digest with zero simulated cells, an unopenable `HARVEST_SWEEP_STORE`
//! degrades to an uncached run with one warning (exit 0), a fault-sweep
//! resumed through `--store` re-simulates nothing (the pack's decided
//! records serve both the cache and manifest roles), the
//! `store stat` / `store compact` subcommands round-trip a store
//! directory without disturbing its contents, `store import` brings
//! legacy cache directories and manifests in exactly once, and
//! `report` never writes to the store it reads.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use harvest_exp::cache::{fnv1a64, TrialSummary};
use harvest_exp::manifest::CellOutcome;
use harvest_exp::store::PackStore;

fn exp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_exp"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harvest-store-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The `key=value` field of the first stdout line containing it.
fn field(out: &Output, key: &str) -> String {
    let text = stdout(out);
    let needle = format!("{key}=");
    text.lines()
        .find_map(|l| {
            l.split_whitespace()
                .find_map(|tok| tok.strip_prefix(&needle))
        })
        .unwrap_or_else(|| panic!("no `{key}=` in output:\n{text}"))
        .to_owned()
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("spawn exp")
}

#[test]
fn cold_then_warm_store_sweep_is_digest_identical() {
    let dir = scratch_dir("warm");
    let args = |extra: &[&str]| {
        let mut v = vec![
            "sweep".to_owned(),
            "--util".to_owned(),
            "0.4".to_owned(),
            "--trials".to_owned(),
            "1".to_owned(),
            "--threads".to_owned(),
            "2".to_owned(),
            "--store".to_owned(),
            dir.to_str().unwrap().to_owned(),
        ];
        v.extend(extra.iter().map(|s| (*s).to_owned()));
        v
    };
    let cold = run(exp().args(args(&[])));
    assert!(
        cold.status.success(),
        "cold sweep failed: {}",
        stderr(&cold)
    );
    assert_ne!(field(&cold, "simulated"), "0", "cold run must simulate");
    let cold_digest = field(&cold, "figure_fnv64");

    let warm = run(exp().args(args(&["--expect-warm"])));
    assert!(
        warm.status.success(),
        "warm sweep failed: {}",
        stderr(&warm)
    );
    assert_eq!(field(&warm, "simulated"), "0");
    assert_eq!(field(&warm, "figure_fnv64"), cold_digest);
    // The store's accounting surfaces both as a summary line and as
    // registry-rendered metric lines next to the pool gauges.
    assert!(stdout(&warm).contains("store dir="), "{}", stdout(&warm));
    assert!(
        stdout(&warm).contains("metric store.hit_rate=1"),
        "warm run must be all hits:\n{}",
        stdout(&warm)
    );

    // A warm run against a compacted store still reproduces the digest.
    let compact = run(exp().args(["store", "compact", dir.to_str().unwrap()]));
    assert!(compact.status.success(), "{}", stderr(&compact));
    let rewarm = run(exp().args(args(&["--expect-warm"])));
    assert!(rewarm.status.success(), "{}", stderr(&rewarm));
    assert_eq!(field(&rewarm, "figure_fnv64"), cold_digest);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unopenable_store_env_degrades_with_one_warning() {
    let blocker = scratch_dir("degrade");
    // A plain file where the path expects a directory: `create_dir_all`
    // on `<blocker>/store` fails with ENOTDIR even for root.
    std::fs::write(&blocker, b"not a directory").unwrap();
    let bad = blocker.join("store");
    let out = run(exp()
        .args(["sweep", "--util", "0.4", "--trials", "1", "--threads", "2"])
        .env("HARVEST_SWEEP_STORE", &bad));
    assert!(
        out.status.success(),
        "degraded sweep must still exit 0: {}",
        stderr(&out)
    );
    assert!(
        stderr(&out).contains("cannot open sweep store"),
        "expected a degradation warning, got:\n{}",
        stderr(&out)
    );
    assert_ne!(field(&out, "simulated"), "0", "uncached run simulates");
    assert!(
        !stdout(&out).contains("store dir="),
        "a degraded run reports no store"
    );
    let _ = std::fs::remove_file(&blocker);
}

#[test]
fn fault_sweep_resumes_through_the_store_alone() {
    let dir = scratch_dir("resume");
    let args = |extra: &[&str]| {
        let mut v = vec![
            "fault-sweep".to_owned(),
            "--util".to_owned(),
            "0.4".to_owned(),
            "--capacity".to_owned(),
            "300".to_owned(),
            "--trials".to_owned(),
            "1".to_owned(),
            "--threads".to_owned(),
            "2".to_owned(),
            "--horizon".to_owned(),
            "1000".to_owned(),
            "--intensities".to_owned(),
            "0.0,1.0".to_owned(),
            "--store".to_owned(),
            dir.to_str().unwrap().to_owned(),
        ];
        v.extend(extra.iter().map(|s| (*s).to_owned()));
        v
    };
    let cold = run(exp().args(args(&[])));
    assert!(cold.status.success(), "{}", stderr(&cold));
    let simulated: u64 = field(&cold, "simulated").parse().unwrap();
    assert!(simulated > 0);
    assert_eq!(field(&cold, "resumed"), "0");
    let digest = field(&cold, "figure_fnv64");

    // The pack's decided records alone must resume the campaign, and
    // resolution must count as resumed, not cached.
    let resumed = run(exp().args(args(&["--expect-resumed"])));
    assert!(resumed.status.success(), "{}", stderr(&resumed));
    assert_eq!(field(&resumed, "simulated"), "0");
    assert_eq!(field(&resumed, "resumed"), simulated.to_string());
    assert_eq!(field(&resumed, "figure_fnv64"), digest);

    // One record per cell: when the pack already holds the manifest
    // role it must not ALSO be written through the trial-store role,
    // so compaction finds no superseded duplicates to drop.
    let compact = run(exp().args(["store", "compact", dir.to_str().unwrap()]));
    assert!(compact.status.success(), "{}", stderr(&compact));
    assert_eq!(
        field(&compact, "records_before"),
        simulated.to_string(),
        "each decided cell must append exactly one record"
    );
    assert_eq!(field(&compact, "records_after"), simulated.to_string());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_stat_and_compact_report_the_directory() {
    let dir = scratch_dir("stat");
    let sweep = run(exp().args([
        "sweep",
        "--util",
        "0.4",
        "--trials",
        "1",
        "--threads",
        "2",
        "--store",
        dir.to_str().unwrap(),
    ]));
    assert!(sweep.status.success(), "{}", stderr(&sweep));

    let stat = run(exp().args(["store", "stat", dir.to_str().unwrap()]));
    assert!(stat.status.success(), "{}", stderr(&stat));
    let records: u64 = field(&stat, "records").parse().unwrap();
    assert!(records > 0);
    assert_eq!(field(&stat, "done"), records.to_string());
    assert_eq!(field(&stat, "quarantined"), "0");
    let bytes_before: u64 = field(&stat, "bytes").parse().unwrap();

    let compact = run(exp().args(["store", "compact", dir.to_str().unwrap()]));
    assert!(compact.status.success(), "{}", stderr(&compact));
    assert_eq!(field(&compact, "records_after"), records.to_string());
    assert_eq!(field(&compact, "bytes_before"), bytes_before.to_string());

    let after = run(exp().args(["store", "stat", dir.to_str().unwrap()]));
    assert!(after.status.success(), "{}", stderr(&after));
    assert_eq!(field(&after, "packs"), "1", "compaction merges to one pack");
    assert_eq!(field(&after, "records"), records.to_string());

    let _ = std::fs::remove_dir_all(&dir);
}

/// The batch-width and batch-grouping flags and the retired cache and
/// manifest backends' flags are gone: passing one is a usage error, not
/// a silently ignored option.
#[test]
fn removed_batch_flags_are_rejected() {
    for args in [
        ["sweep", "--batch", "8"],
        ["sweep", "--batch-group", "policy"],
        ["fault-sweep", "--batch", "4"],
        ["sweep", "--cache", "/tmp/sweep-cache"],
        ["fault-sweep", "--cache", "/tmp/sweep-cache"],
        ["fault-sweep", "--manifest", "/tmp/campaign.jsonl"],
        ["report", "--manifest", "/tmp/campaign.jsonl"],
    ] {
        let out = run(exp().args(args));
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        assert!(
            stderr(&out).contains("unknown flag"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}

/// Writes `cells` as a legacy per-file cache directory: one
/// `<fingerprint>.json` file of `{key, summary}` per done cell.
fn write_legacy_cache(dir: &Path, cells: &[(String, CellOutcome)]) {
    std::fs::create_dir_all(dir).unwrap();
    for (key, outcome) in cells {
        let CellOutcome::Done(summary) = outcome else {
            panic!("legacy caches hold done cells only");
        };
        let entry = format!(
            "{{\"key\":{},\"summary\":{}}}",
            serde_json::to_string(key).unwrap(),
            serde_json::to_string(summary).unwrap()
        );
        let name = format!("{:016x}.json", fnv1a64(key.as_bytes()));
        std::fs::write(dir.join(name), entry).unwrap();
    }
}

/// One legacy JSONL manifest line for a done cell.
fn manifest_line(key: &str, summary: &TrialSummary) -> String {
    format!(
        "{{\"key\":{},\"status\":\"done\",\"summary\":{},\"failure\":null}}\n",
        serde_json::to_string(key).unwrap(),
        serde_json::to_string(summary).unwrap()
    )
}

/// Every file in `dir` with its size, sorted by name.
fn listing(dir: &Path) -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, e.metadata().unwrap().len())
        })
        .collect();
    files.sort();
    files
}

/// `report --store` only reads. Run from a directory holding a legacy
/// per-file cache at the old default location (`target/sweep-cache`),
/// it must leave the store directory exactly as it found it.
#[test]
fn report_does_not_write_to_the_store() {
    let root = scratch_dir("report-readonly");
    let sweep_into = |store: &Path| {
        run(exp().args([
            "sweep",
            "--util",
            "0.4",
            "--trials",
            "1",
            "--threads",
            "2",
            "--store",
            store.to_str().unwrap(),
        ]))
    };
    let filled = root.join("filled");
    let out = sweep_into(&filled);
    assert!(out.status.success(), "{}", stderr(&out));
    let cells = PackStore::open(&filled).unwrap().decided_entries();
    assert!(!cells.is_empty());
    write_legacy_cache(&root.join("target/sweep-cache"), &cells);

    for store in [root.join("empty"), filled] {
        std::fs::create_dir_all(&store).unwrap();
        let before = listing(&store);
        let out = run(exp().current_dir(&root).args([
            "report",
            "--store",
            store.file_name().unwrap().to_str().unwrap(),
        ]));
        assert!(out.status.success(), "{}", stderr(&out));
        assert!(stdout(&out).contains("cells decided"), "{}", stdout(&out));
        assert_eq!(listing(&store), before, "report wrote to {store:?}");
    }
    // A missing store is an error, not a fresh empty directory.
    let out = run(exp()
        .current_dir(&root)
        .args(["report", "--store", "missing"]));
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(!root.join("missing").exists());

    let _ = std::fs::remove_dir_all(&root);
}

/// `store import` brings a legacy cache directory and a torn legacy
/// manifest into one store: the sweep then runs warm and the campaign
/// resumes (re-simulating only the torn cell), both at their original
/// digests, and a second import of either source adds nothing.
#[test]
fn store_import_brings_legacy_results_in_once() {
    let root = scratch_dir("import");
    let sweep = |store: &Path, extra: &[&str]| {
        let mut cmd = exp();
        cmd.args(["sweep", "--util", "0.4", "--trials", "1", "--threads", "2"])
            .args(["--store", store.to_str().unwrap()])
            .args(extra);
        run(&mut cmd)
    };
    let campaign = |store: &Path, extra: &[&str]| {
        let mut cmd = exp();
        cmd.args(["fault-sweep", "--util", "0.4", "--capacity", "300"])
            .args(["--trials", "1", "--threads", "2", "--horizon", "1000"])
            .args(["--intensities", "0.0,1.0"])
            .args(["--store", store.to_str().unwrap()])
            .args(extra);
        run(&mut cmd)
    };
    let import = |store: &Path, from: &Path| {
        let out = run(exp().args([
            "store",
            "import",
            store.to_str().unwrap(),
            from.to_str().unwrap(),
        ]));
        assert!(out.status.success(), "{}", stderr(&out));
        field(&out, "imported").parse::<usize>().unwrap()
    };

    // Legacy sources, built from the cells of two reference runs.
    let sweep_src = root.join("sweep-src");
    let cold = sweep(&sweep_src, &[]);
    assert!(cold.status.success(), "{}", stderr(&cold));
    let sweep_cells = PackStore::open(&sweep_src).unwrap().decided_entries();
    let legacy = root.join("sweep-cache");
    write_legacy_cache(&legacy, &sweep_cells);

    let campaign_src = root.join("campaign-src");
    let first = campaign(&campaign_src, &[]);
    assert!(first.status.success(), "{}", stderr(&first));
    let campaign_cells = PackStore::open(&campaign_src).unwrap().decided_entries();
    let mut text = String::new();
    for (key, outcome) in &campaign_cells {
        let CellOutcome::Done(summary) = outcome else {
            panic!("the reference campaign quarantined nothing");
        };
        text.push_str(&manifest_line(key, summary));
    }
    // A kill mid-write tears the manifest's final line.
    text.truncate(text.len() - 30);
    let manifest = root.join("campaign.manifest.jsonl");
    std::fs::write(&manifest, &text).unwrap();

    let store = root.join("store");
    assert_eq!(import(&store, &legacy), sweep_cells.len());
    assert_eq!(import(&store, &manifest), campaign_cells.len() - 1);

    let warm = sweep(&store, &["--expect-warm"]);
    assert!(warm.status.success(), "{}", stderr(&warm));
    assert_eq!(field(&warm, "simulated"), "0");
    assert_eq!(field(&warm, "figure_fnv64"), field(&cold, "figure_fnv64"));

    let digest = field(&first, "figure_fnv64");
    let resumed = campaign(&store, &[]);
    assert!(resumed.status.success(), "{}", stderr(&resumed));
    assert_eq!(
        field(&resumed, "simulated"),
        "1",
        "only the torn cell reruns"
    );
    assert_eq!(
        field(&resumed, "resumed"),
        (campaign_cells.len() - 1).to_string()
    );
    assert_eq!(field(&resumed, "figure_fnv64"), digest);
    let whole = campaign(&store, &["--expect-resumed"]);
    assert!(whole.status.success(), "{}", stderr(&whole));
    assert_eq!(field(&whole, "figure_fnv64"), digest);

    // Idempotent: every cell of both sources is already held.
    assert_eq!(import(&store, &legacy), 0);
    assert_eq!(import(&store, &manifest), 0);

    let _ = std::fs::remove_dir_all(&root);
}

/// A flipped byte mid-record: `store scrub` quarantines exactly that
/// record, keeps the rest, and the next warm run re-simulates exactly
/// the one lost cell back to the original figure digest.
#[test]
fn scrub_quarantines_a_corrupted_record_and_the_cell_recomputes() {
    let dir = scratch_dir("scrub");
    let args = |extra: &[&str]| {
        let mut v = vec![
            "sweep".to_owned(),
            "--util".to_owned(),
            "0.4".to_owned(),
            "--trials".to_owned(),
            "1".to_owned(),
            "--threads".to_owned(),
            "2".to_owned(),
            "--store".to_owned(),
            dir.to_str().unwrap().to_owned(),
        ];
        v.extend(extra.iter().map(|s| (*s).to_owned()));
        v
    };
    let cold = run(exp().args(args(&[])));
    assert!(cold.status.success(), "{}", stderr(&cold));
    let simulated: u64 = field(&cold, "simulated").parse().unwrap();
    assert!(simulated >= 2, "the cold grid simulates every cell");
    let digest = field(&cold, "figure_fnv64");

    // Flip one byte inside the first record body of one pack.
    let pack = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "hpk"))
        .expect("a pack file");
    let mut bytes = std::fs::read(&pack).unwrap();
    bytes[8 + 6] ^= 0xA5;
    std::fs::write(&pack, bytes).unwrap();

    let scrub = run(exp().args(["store", "scrub", dir.to_str().unwrap()]));
    assert!(scrub.status.success(), "{}", stderr(&scrub));
    assert_eq!(field(&scrub, "corrupt_spans"), "1");
    let kept: u64 = field(&scrub, "records_kept").parse().unwrap();
    assert_eq!(kept, simulated - 1, "scrub loses exactly the bad record");
    assert!(
        dir.join("scrub-quarantine").is_dir(),
        "the corrupt bytes are preserved for post-mortem"
    );

    // A second scrub of the clean store finds nothing to quarantine.
    let again = run(exp().args(["store", "scrub", dir.to_str().unwrap(), "--json"]));
    assert!(again.status.success(), "{}", stderr(&again));
    assert!(stdout(&again).contains("\"corrupt_spans\": 0"));

    // The warm run recomputes exactly the quarantined cell.
    let warm = run(exp().args(args(&[])));
    assert!(warm.status.success(), "{}", stderr(&warm));
    assert_eq!(field(&warm, "simulated"), "1");
    assert_eq!(field(&warm, "figure_fnv64"), digest);
    let rewarm = run(exp().args(args(&["--expect-warm"])));
    assert!(rewarm.status.success(), "{}", stderr(&rewarm));
    assert_eq!(field(&rewarm, "figure_fnv64"), digest);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Two concurrent `exp fault-sweep --store` processes writing disjoint
/// halves of a grid into one directory: writer leases keep their packs
/// disjoint, both campaigns complete, and the combined store decides
/// every cell exactly once.
#[test]
fn two_concurrent_writers_fill_one_store_without_collisions() {
    let dir = scratch_dir("two-writers");
    let args = |intensities: &str, extra: &[&str]| {
        let mut v = vec![
            "fault-sweep".to_owned(),
            "--util".to_owned(),
            "0.4".to_owned(),
            "--capacity".to_owned(),
            "300".to_owned(),
            "--trials".to_owned(),
            "1".to_owned(),
            "--threads".to_owned(),
            "2".to_owned(),
            "--horizon".to_owned(),
            "1000".to_owned(),
            "--intensities".to_owned(),
            intensities.to_owned(),
            "--store".to_owned(),
            dir.to_str().unwrap().to_owned(),
        ];
        v.extend(extra.iter().map(|s| (*s).to_owned()));
        v
    };
    let mut a = exp().args(args("0.0,0.5", &[])).spawn().expect("spawn a");
    let mut b = exp().args(args("0.25,0.75", &[])).spawn().expect("spawn b");
    let status_a = a.wait().expect("wait a");
    let status_b = b.wait().expect("wait b");
    assert!(status_a.success() && status_b.success());

    // 3 policies x 1 trial x 2 intensities per process, disjoint
    // halves: 12 decided cells, each recorded exactly once.
    let compact = run(exp().args(["store", "compact", dir.to_str().unwrap()]));
    assert!(compact.status.success(), "{}", stderr(&compact));
    assert_eq!(field(&compact, "records_before"), "12");
    assert_eq!(field(&compact, "records_after"), "12");

    // The union resumes the full grid with zero re-simulation.
    let union = run(exp().args(args("0.0,0.25,0.5,0.75", &["--expect-resumed"])));
    assert!(union.status.success(), "{}", stderr(&union));
    assert_eq!(field(&union, "simulated"), "0");
    assert_eq!(field(&union, "resumed"), "12");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--durability` is accepted end-to-end: a `record`-durability cold
/// run and a `none`-durability warm run reproduce the same digest, and
/// a bogus level is a usage error.
#[test]
fn durability_levels_round_trip_the_same_figure() {
    let dir = scratch_dir("durability");
    let args = |extra: &[&str]| {
        let mut v = vec![
            "sweep".to_owned(),
            "--util".to_owned(),
            "0.4".to_owned(),
            "--trials".to_owned(),
            "1".to_owned(),
            "--threads".to_owned(),
            "2".to_owned(),
            "--store".to_owned(),
            dir.to_str().unwrap().to_owned(),
        ];
        v.extend(extra.iter().map(|s| (*s).to_owned()));
        v
    };
    let cold = run(exp().args(args(&["--durability", "record"])));
    assert!(cold.status.success(), "{}", stderr(&cold));
    let digest = field(&cold, "figure_fnv64");

    let warm = run(exp().args(args(&["--durability", "none", "--expect-warm"])));
    assert!(warm.status.success(), "{}", stderr(&warm));
    assert_eq!(field(&warm, "figure_fnv64"), digest);

    let bogus = run(exp().args(args(&["--durability", "paranoid"])));
    assert_eq!(bogus.status.code(), Some(2), "usage error must exit 2");
    assert!(
        stderr(&bogus).contains("none, batch, or record"),
        "{}",
        stderr(&bogus)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Lease files stamped with a dead process's pid are stale: the next
/// writer takes the slot over (with a note) instead of skipping it,
/// and the campaign completes normally.
#[test]
fn stale_leases_from_a_dead_process_are_taken_over() {
    let dir = scratch_dir("stale-lease");
    std::fs::create_dir_all(&dir).unwrap();
    // A pid that is certainly dead: a just-reaped child of ours.
    let dead = {
        let child = exp().arg("bogus-subcommand").output().expect("spawn");
        assert_eq!(child.status.code(), Some(2));
        exp()
            .arg("bogus-subcommand")
            .spawn()
            .expect("spawn short-lived child")
    };
    let dead_pid = dead.id();
    let mut dead = dead;
    let _ = dead.wait();
    // Stamp every slot so the sweep's writers hit a stale lease no
    // matter which slots its threads hash to.
    for slot in 0..16 {
        std::fs::write(dir.join(format!("lease-{slot}")), format!("{dead_pid} 1\n")).unwrap();
    }
    let out = run(exp().args([
        "sweep",
        "--util",
        "0.4",
        "--trials",
        "1",
        "--threads",
        "2",
        "--store",
        dir.to_str().unwrap(),
    ]));
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("took over stale writer lease"),
        "expected a takeover note, got:\n{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
