//! End-to-end `exp` paper verbs: every figure, table and summary verb
//! prints and writes exactly the bytes the standalone `fig5`…`validate`
//! binaries it replaced printed and wrote, at one and two worker
//! threads; a failed `--csv` write is a runtime failure (exit 1); and an
//! unknown flag is a usage error (exit 2).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use harvest_exp::cache::fnv1a64;

/// Digests of (stdout, `--csv` file, `--json` file) per figure verb,
/// the same at one and two worker threads, each run as `--trials 2
/// --threads T --csv … --json …` (plus `--seed 1` for `fig5`).
#[rustfmt::skip]
const FIGURE_PINS: [(&str, [u64; 3]); 6] = [
    ("fig5",   [0x0ab952f0f3398bed, 0x0b538ae87580539e, 0x2a01f46d3bafd685]),
    ("fig6",   [0x284463963bd5b7aa, 0xb039836330c976d9, 0x0e9113d62e4ec272]),
    ("fig7",   [0x442d607cf19c958e, 0xdfe737e796b7f249, 0xe7c27348d583f0e7]),
    ("fig8",   [0x0c75818e8cb08b76, 0xb4dea7aa77c88eaa, 0xace8bec5ec371a71]),
    ("fig9",   [0xf962de6443f64c15, 0x00655d3fbd697737, 0x369309006717341b]),
    ("table1", [0x67a422932653a5d7, 0x0e957833452d9025, 0xeb7a392d8001ed13]),
];

/// Stdout digests of the summary verbs, run the same way: they accept
/// the output flags but write no files, and `repro-all` prints its
/// thread count.
const SUMMARY_PINS: [(&str, usize, u64); 4] = [
    ("repro-all", 1, 0x812c89d7e2b1cb37),
    ("repro-all", 2, 0x30a7fe6f99d7d2aa),
    ("validate", 1, 0x31a40f0727ffc7dd),
    ("validate", 2, 0x31a40f0727ffc7dd),
];

/// `exp` with the store and thread-count environment cleared, so the
/// run depends on its flags alone.
fn exp() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp"));
    cmd.env_remove("HARVEST_SWEEP_STORE")
        .env_remove("HARVEST_THREADS");
    cmd
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("harvest-figure-verbs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Runs `verb` at the pinned settings and digests what it printed and
/// wrote (`None` for an output file it did not write).
fn digests(verb: &str, threads: usize, dir: &Path) -> (u64, Option<u64>, Option<u64>) {
    let (csv, json) = (
        dir.join(format!("{verb}-{threads}.csv")),
        dir.join(format!("{verb}-{threads}.json")),
    );
    let mut cmd = exp();
    cmd.args([verb, "--trials", "2", "--threads", &threads.to_string()])
        .arg("--csv")
        .arg(&csv)
        .arg("--json")
        .arg(&json);
    if verb == "fig5" {
        cmd.args(["--seed", "1"]);
    }
    let out = cmd.output().expect("spawn exp");
    assert_eq!(out.status.code(), Some(0), "{verb}: {}", stderr(&out));
    let file = |path: &Path| std::fs::read(path).ok().map(|bytes| fnv1a64(&bytes));
    (fnv1a64(&out.stdout), file(&csv), file(&json))
}

#[test]
fn paper_verbs_reproduce_the_standalone_binaries_byte_for_byte() {
    let dir = scratch_dir("pins");
    for threads in [1, 2] {
        for (verb, [stdout, csv, json]) in FIGURE_PINS {
            assert_eq!(
                digests(verb, threads, &dir),
                (stdout, Some(csv), Some(json)),
                "{verb} at {threads} thread(s) drifted"
            );
        }
    }
    for (verb, threads, stdout) in SUMMARY_PINS {
        assert_eq!(
            digests(verb, threads, &dir),
            (stdout, None, None),
            "{verb} at {threads} thread(s) drifted"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_output_write_exits_one() {
    let dir = scratch_dir("write");
    let missing = dir.join("missing").join("x.csv");
    let out = exp()
        .args(["fig5", "--csv"])
        .arg(&missing)
        .output()
        .expect("spawn exp");
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("error: cannot write"),
        "{}",
        stderr(&out)
    );
    let out = exp()
        .args(["fig5", "--json"])
        .arg(dir.join("missing").join("x.json"))
        .output()
        .expect("spawn exp");
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("error: cannot write"),
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn paper_verbs_reject_unknown_flags_and_bad_values() {
    for verb in [
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "table1",
        "repro-all",
        "validate",
    ] {
        for (args, message) in [
            (&["--util", "0.4"][..], "unknown flag --util"),
            (&["--trials", "0"][..], "--trials must be positive"),
            (&["--threads"][..], "--threads expects a value"),
        ] {
            let out = exp().arg(verb).args(args).output().expect("spawn exp");
            assert_eq!(out.status.code(), Some(2), "{verb} {args:?}");
            assert!(stderr(&out).contains(message), "{verb}: {}", stderr(&out));
        }
    }
}
