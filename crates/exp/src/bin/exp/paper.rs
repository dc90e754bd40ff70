//! The paper-artefact verbs: Figures 5–9, Table 1, the whole evaluation
//! in one summary (`repro-all`), and the PASS/FAIL claim smoke
//! (`validate`). Each prints its report on stdout and, under `--csv` /
//! `--json`, writes its data; Figs. 6/7 and 8/9 share one renderer per
//! pair, parameterized by utilization and caption.

use harvest_exp::cli::FigureArgs;
use harvest_exp::figures::{
    min_capacity_table, min_zero_miss_capacity, miss_rate_figure, remaining_energy_figure,
    source_figure,
};
use harvest_exp::report::{ascii_plot, fmt_num, Table};
use harvest_exp::scenario::PolicyKind;

/// What a verb runs once its flags are read.
pub type Verb = fn(&FigureArgs) -> Result<(), String>;

/// Every paper verb: its name, its default `--trials`, and its body.
pub const VERBS: [(&str, usize, Verb); 8] = [
    ("fig5", 1, fig5),
    ("fig6", 20, |args| {
        remaining_energy(args, 6, 0.4, "EA-DVFS curve sits clearly above LSA")
    }),
    ("fig7", 20, |args| {
        remaining_energy(
            args,
            7,
            0.8,
            "the two curves nearly coincide at high utilization",
        )
    }),
    ("fig8", 30, |args| {
        miss_rate(
            args,
            8,
            0.4,
            true,
            "EA-DVFS reduces the miss rate by over 50% on average at U = 0.4",
        )
    }),
    ("fig9", 30, |args| {
        miss_rate(
            args,
            9,
            0.8,
            false,
            "at U = 0.8 EA-DVFS performs about as well as LSA",
        )
    }),
    ("table1", 10, table1),
    ("repro-all", 20, repro_all),
    ("validate", 5, validate),
];

/// LSA first, as the paper's miss-rate tables read: the policy order of
/// Figs. 8/9, `repro-all` and `validate`.
const LSA_EA: [PolicyKind; 2] = [PolicyKind::Lsa, PolicyKind::EaDvfs];

/// `100 (lsa - ea) / lsa`, guarded against a zero LSA miss rate.
fn reduction_pct(lsa: f64, ea: f64) -> f64 {
    100.0 * (lsa - ea) / lsa.max(1e-12)
}

/// Figure 5 — one realization of the paper's eq. 13 solar generator
/// over 10 000 time units.
fn fig5(args: &FigureArgs) -> Result<(), String> {
    let fig = source_figure(args.seed, 10_000);
    println!(
        "Figure 5: energy source behaviour (eq. 13, seed {})",
        args.seed
    );
    println!();
    // Plot a 200-point decimation so the terminal plot stays readable.
    let stride = fig.power.len() / 200;
    let decimated: Vec<f64> = fig.power.iter().step_by(stride.max(1)).copied().collect();
    println!(
        "{}",
        ascii_plot(&[("PS(t)", &decimated)], "t (x50 units)", 100, 16)
    );
    println!("mean power  : {}", fmt_num(fig.mean));
    println!("peak power  : {}", fmt_num(fig.max));
    println!("paper shape : spiky, cos^2 envelope, peaks near 20, mean ~2");

    let mut csv = Table::new(vec!["t", "ps"]);
    for (t, p) in fig.times.iter().zip(&fig.power) {
        csv.row(vec![fmt_num(*t), fmt_num(*p)]);
    }
    args.write_csv(&csv.to_csv())?;
    args.write_json("fig5", &fig)
}

/// Figures 6 and 7 — normalized remaining energy over time at
/// utilization `u`, EA-DVFS against LSA; `shape` is what the paper's
/// curve looks like.
fn remaining_energy(args: &FigureArgs, figure: u8, u: f64, shape: &str) -> Result<(), String> {
    let fig = remaining_energy_figure(
        u,
        &[PolicyKind::EaDvfs, PolicyKind::Lsa],
        args.trials,
        args.threads,
        100,
    );
    println!(
        "Figure {figure}: normalized remaining energy, U = {u} ({} task sets x {} capacities)",
        fig.trials,
        fig.capacities.len()
    );
    println!();
    let ea = fig.curve(PolicyKind::EaDvfs).unwrap();
    let lsa = fig.curve(PolicyKind::Lsa).unwrap();
    println!(
        "{}",
        ascii_plot(&[("EA-DVFS", ea), ("LSA", lsa)], "t (x100 units)", 100, 16)
    );
    println!(
        "time-averaged normalized remaining energy: EA-DVFS {} vs LSA {}",
        fmt_num(fig.mean_level(PolicyKind::EaDvfs).unwrap()),
        fmt_num(fig.mean_level(PolicyKind::Lsa).unwrap()),
    );
    println!("paper shape: {shape}");
    println!();
    let mut breakdown = Table::new(vec!["capacity", "EA-DVFS", "LSA", "gap"]);
    for (c, row) in fig.capacities.iter().zip(&fig.per_capacity) {
        breakdown.row(vec![
            fmt_num(*c),
            format!("{:.3}", row[0]),
            format!("{:.3}", row[1]),
            format!("{:+.3}", row[0] - row[1]),
        ]);
    }
    println!("per-capacity time-averaged normalized level:");
    println!("{}", breakdown.render());

    let mut csv = Table::new(vec!["t", "ea_dvfs", "lsa"]);
    for ((t, e), l) in fig.times.iter().zip(ea).zip(lsa) {
        csv.row(vec![fmt_num(*t), fmt_num(*e), fmt_num(*l)]);
    }
    args.write_csv(&csv.to_csv())?;
    args.write_json(&format!("fig{figure}"), &fig)
}

/// Figures 8 and 9 — deadline miss rate against normalized storage
/// capacity at utilization `u`, LSA against EA-DVFS; `claim` is the
/// paper's. With `reduction` (Fig. 8, where the paper claims a cut) the
/// table gains a per-row reduction column and the mean line its average.
fn miss_rate(
    args: &FigureArgs,
    figure: u8,
    u: f64,
    reduction: bool,
    claim: &str,
) -> Result<(), String> {
    let fig = miss_rate_figure(u, &LSA_EA, args.trials, args.threads);
    println!(
        "Figure {figure}: deadline miss rate vs normalized capacity, U = {u} ({} task sets/point)",
        fig.trials
    );
    println!();
    let mut headers = vec!["C/Cmax", "LSA", "EA-DVFS"];
    if reduction {
        headers.push("reduction");
    }
    let mut table = Table::new(headers);
    for row in &fig.rows {
        let (lsa, ea) = (row.miss_rates[0], row.miss_rates[1]);
        let mut cells = vec![
            format!("{:.2}", row.normalized_capacity),
            fmt_num(lsa),
            fmt_num(ea),
        ];
        if reduction {
            cells.push(if lsa > 0.0 {
                format!("{:.0}%", 100.0 * (lsa - ea) / lsa)
            } else {
                "-".into()
            });
        }
        table.row(cells);
    }
    println!("{}", table.render());
    let mean_lsa = fig.mean_miss_rate(PolicyKind::Lsa).unwrap();
    let mean_ea = fig.mean_miss_rate(PolicyKind::EaDvfs).unwrap();
    print!(
        "mean miss rate: LSA {} vs EA-DVFS {}",
        fmt_num(mean_lsa),
        fmt_num(mean_ea)
    );
    if reduction {
        print!(" (reduction {:.0}%)", reduction_pct(mean_lsa, mean_ea));
    }
    println!();
    println!("paper claim: {claim}");
    args.write_csv(&table.to_csv())?;
    args.write_json(&format!("fig{figure}"), &fig)
}

/// Table 1 — the ratio of minimum storage capacities
/// `C_min,LSA / C_min,EA-DVFS` needed for zero deadline misses, swept
/// over utilization.
fn table1(args: &FigureArgs) -> Result<(), String> {
    let table1 = min_capacity_table(&[0.2, 0.4, 0.6, 0.8], args.trials, args.threads);
    println!(
        "Table 1: minimum storage capacity for zero miss rate ({} task sets per point)",
        table1.trials
    );
    println!();
    let mut table = Table::new(vec!["U", "Cmin-LSA", "Cmin-EA-DVFS", "ratio"]);
    for row in &table1.rows {
        table.row(vec![
            format!("{:.1}", row.utilization),
            fmt_num(row.cmin_lsa),
            fmt_num(row.cmin_ea_dvfs),
            format!("{:.2}", row.ratio),
        ]);
    }
    println!("{}", table.render());
    println!("paper row:   U = 0.2 / 0.4 / 0.6 / 0.8  ->  2.50 / 1.33 / 1.05 / 1.01");
    println!("expectation: ratio large at low U, approaching 1 as U grows");
    args.write_csv(&table.to_csv())?;
    args.write_json("table1", &table1)
}

/// The entire evaluation — Figures 5–9 and Table 1 — as one compact
/// paper-vs-measured summary.
fn repro_all(args: &FigureArgs) -> Result<(), String> {
    println!(
        "EA-DVFS reproduction — full evaluation ({} trials/point, {} threads)",
        args.trials, args.threads
    );
    println!();

    let src = source_figure(args.seed, 10_000);
    println!(
        "[fig5] source: mean {} (paper ~2), peak {} (paper ~20)",
        fmt_num(src.mean),
        fmt_num(src.max)
    );
    for (label, u) in [("fig6", 0.4), ("fig7", 0.8)] {
        let fig = remaining_energy_figure(u, &LSA_EA, args.trials, args.threads, 100);
        println!(
            "[{label}] U={u}: mean normalized remaining energy LSA {} vs EA-DVFS {}",
            fmt_num(fig.mean_level(PolicyKind::Lsa).unwrap()),
            fmt_num(fig.mean_level(PolicyKind::EaDvfs).unwrap())
        );
    }
    for (label, u) in [("fig8", 0.4), ("fig9", 0.8)] {
        let fig = miss_rate_figure(u, &LSA_EA, args.trials, args.threads);
        let lsa = fig.mean_miss_rate(PolicyKind::Lsa).unwrap();
        let ea = fig.mean_miss_rate(PolicyKind::EaDvfs).unwrap();
        println!(
            "[{label}] U={u}: mean miss rate LSA {} vs EA-DVFS {} (reduction {:.0}%)",
            fmt_num(lsa),
            fmt_num(ea),
            reduction_pct(lsa, ea)
        );
    }

    let t1 = min_capacity_table(&[0.2, 0.4, 0.6, 0.8], args.trials.min(10), args.threads);
    let mut table = Table::new(vec!["U", "ratio (paper)", "ratio (measured)"]);
    for (row, p) in t1.rows.iter().zip([2.5, 1.33, 1.05, 1.01]) {
        table.row(vec![
            format!("{:.1}", row.utilization),
            format!("{p:.2}"),
            format!("{:.2}", row.ratio),
        ]);
    }
    println!();
    println!("[table1] Cmin-LSA / Cmin-EA-DVFS");
    println!("{}", table.render());
    Ok(())
}

/// PASS/FAIL validation of every paper claim at reduced scale; fails
/// (exit 1) unless all of them hold.
fn validate(args: &FigureArgs) -> Result<(), String> {
    let (trials, threads) = (args.trials, args.threads);
    let mut checks: Vec<(&str, bool, String)> = Vec::new();

    let src = source_figure(args.seed, 10_000);
    checks.push((
        "fig5: eq.13 source mean ~2, non-negative",
        (src.mean - 2.0).abs() < 0.4 && src.power.iter().all(|&p| p >= 0.0),
        format!("mean {:.3}, peak {:.1}", src.mean, src.max),
    ));

    // Remaining-energy ordering and its gap collapse.
    let fig6 = remaining_energy_figure(0.4, &LSA_EA, trials, threads, 200);
    let fig7 = remaining_energy_figure(0.8, &LSA_EA, trials, threads, 200);
    let gap6 = fig6.per_capacity[0][1] - fig6.per_capacity[0][0]; // EA − LSA at C=200
    let gap7 = fig7.per_capacity[0][1] - fig7.per_capacity[0][0];
    checks.push((
        "fig6: EA-DVFS stores more at U=0.4 (C=200)",
        gap6 > 0.0,
        format!("gap {gap6:+.3}"),
    ));
    checks.push((
        "fig7: gap collapses at U=0.8",
        gap7.abs() < gap6.abs() || gap7.abs() < 0.02,
        format!("gap {gap7:+.3} vs {gap6:+.3}"),
    ));

    // Miss-rate reduction and its shrinkage.
    let means = |u| {
        let fig = miss_rate_figure(u, &LSA_EA, trials, threads);
        let lsa = fig.mean_miss_rate(PolicyKind::Lsa).unwrap();
        let ea = fig.mean_miss_rate(PolicyKind::EaDvfs).unwrap();
        (lsa, ea, (lsa - ea) / lsa.max(1e-12))
    };
    let (l8, e8, red8) = means(0.4);
    checks.push((
        "fig8: >=35% average miss-rate reduction at U=0.4",
        red8 > 0.35,
        format!("LSA {l8:.3} vs EA {e8:.3} ({:.0}%)", 100.0 * red8),
    ));
    let (l9, e9, red9) = means(0.8);
    checks.push((
        "fig9: reduction shrinks at U=0.8, EA never worse",
        e9 <= l9 + 0.02 && red9 < red8,
        format!("LSA {l9:.3} vs EA {e9:.3} ({:.0}%)", 100.0 * red9),
    ));

    // Storage ratio shape.
    let ratio = |u| {
        let cmin = |p| min_zero_miss_capacity(p, u, trials, threads, 1e7, 0.01);
        cmin(PolicyKind::Lsa) / cmin(PolicyKind::EaDvfs)
    };
    let (r02, r08) = (ratio(0.2), ratio(0.8));
    checks.push((
        "table1: Cmin ratio large at U=0.2, ~1 at U=0.8",
        r02 > 1.15 && r08 < r02 && r08 < 1.5,
        format!("ratio(0.2) {r02:.2}, ratio(0.8) {r08:.2}"),
    ));

    println!("EA-DVFS reproduction validation ({trials} trials/point)");
    println!();
    for (name, passed, detail) in &checks {
        let mark = if *passed { "PASS" } else { "FAIL" };
        println!("[{mark}] {name:55} {detail}");
    }
    println!();
    let failed = checks.iter().filter(|c| !c.1).count();
    if failed == 0 {
        println!("all {} claims hold", checks.len());
        Ok(())
    } else {
        println!("some claims FAILED — raise --trials before concluding");
        Err(format!("{failed} of {} paper claims failed", checks.len()))
    }
}
