//! Command-line entry point of the benchmark:
//!
//! ```text
//! harvest-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                   --work DIR [--trace-out FILE] [--commit ID]
//! ```
//!
//! Prints a provenance line, then one JSON result line as the last line
//! of standard output. Exits 1 without a result on bad arguments.

use std::path::PathBuf;

use harvest_perfbench::probes::{counting_installed, cpu_model, nproc, CountingAlloc};
use harvest_perfbench::run::{timed, traced, Options};
use harvest_perfbench::workloads::{Grid, Workload, SEED_BASE};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn parse() -> Result<(Options, String), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let (mut work, mut trace_out, mut commit) = (None, None, String::from("unknown"));
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| "--seconds expects a number")?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                };
            }
            "--work" => work = Some(PathBuf::from(value)),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let options = Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        work: work.ok_or("--work is required")?,
        trace_out,
        grid: Grid::PINNED,
    };
    Ok((options, commit))
}

fn main() {
    let (opts, commit) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("harvest-perfbench: {e}");
            std::process::exit(1);
        }
    };
    assert!(counting_installed(), "the counting allocator is installed");
    let report = if opts.trace {
        traced(&opts)
    } else {
        timed(&opts)
    };
    println!(
        "provenance {{\"commit\": \"{commit}\", \"nproc\": {}, \"cpu_model\": \"{}\", \
         \"threads\": {}, \"workload\": \"{}\", \"seed\": {}, \"seed_base\": {SEED_BASE}, \
         \"fig_task_sets_per_point\": {}, \"fault_task_sets_per_cell\": {}, \
         \"campaigns\": {}, \"host_ref_ms\": {:.3}, \"raw\": {{{}}}, \"trace\": {}}}",
        nproc(),
        cpu_model().replace('"', "'"),
        opts.grid.threads,
        opts.workload.name(),
        opts.seed,
        opts.grid.fig_trials,
        opts.grid.fault_trials,
        report.campaigns,
        report.host_ref_ms,
        report
            .raw
            .iter()
            .map(|m| format!("\"{}\": {:?}", m.name, m.value))
            .collect::<Vec<_>>()
            .join(", "),
        u8::from(opts.trace),
    );
    for e in &report.errors {
        eprintln!("harvest-perfbench: {e}");
    }
    println!("{}", report.to_json());
}
