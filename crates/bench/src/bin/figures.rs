//! Regenerates every table and figure of the paper's evaluation (§7).
//!
//! ```text
//! figures [section]
//!   fig3a | fig3b | fig4a | fig4b | fig5a | fig5b
//!   opt-time | temp-vs-perm | buffer | ablation
//!   all (default)
//! ```
//!
//! Output is the series the paper plots: estimated maintenance plan cost
//! ("Plan Cost (sec)") for NoGreedy vs Greedy across update percentages.
//! An unknown section prints this usage and exits with status 2.

use mvmqo_bench::{
    format_series, run_point, run_series, temp_vs_perm, ExperimentConfig, Workload, PAPER_PERCENTS,
};
use mvmqo_core::cost::CostModel;
use mvmqo_core::opt::GreedyOptions;
use std::time::Instant;

const SECTIONS: [&str; 11] = [
    "fig3a",
    "fig3b",
    "fig4a",
    "fig4b",
    "fig5a",
    "fig5b",
    "opt-time",
    "temp-vs-perm",
    "buffer",
    "ablation",
    "all",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let section = args.first().map_or("all", String::as_str);
    if args.len() > 1 || !SECTIONS.contains(&section) {
        eprintln!("usage: figures [{}]", SECTIONS.join("|"));
        std::process::exit(2);
    }
    let all = section == "all";
    if all || section == "fig3a" {
        let s = run_series(Workload::SingleJoin, &ExperimentConfig::default());
        print!(
            "{}",
            format_series("Figure 3(a): stand-alone view, join of 4 relations", &s)
        );
    }
    if all || section == "fig3b" {
        let s = run_series(Workload::SingleAgg, &ExperimentConfig::default());
        print!(
            "{}",
            format_series("Figure 3(b): stand-alone view with aggregation", &s)
        );
    }
    if all || section == "fig4a" {
        let s = run_series(Workload::FiveJoin, &ExperimentConfig::default());
        print!(
            "{}",
            format_series("Figure 4(a): five views, no aggregation", &s)
        );
    }
    if all || section == "fig4b" {
        let s = run_series(Workload::FiveAgg, &ExperimentConfig::default());
        print!(
            "{}",
            format_series("Figure 4(b): five views with aggregation", &s)
        );
    }
    if all || section == "fig5a" {
        let s = run_series(Workload::Ten, &ExperimentConfig::default());
        print!(
            "{}",
            format_series("Figure 5(a): ten views, predefined PK indices", &s)
        );
    }
    if all || section == "fig5b" {
        let cfg = ExperimentConfig {
            pk_indices: false,
            ..Default::default()
        };
        let s = run_series(Workload::Ten, &cfg);
        print!(
            "{}",
            format_series("Figure 5(b): ten views, no initial indices", &s)
        );
        let total_indices: usize = s.iter().map(|p| p.greedy_report.chosen_indices.len()).sum();
        println!("   (indices selected by Greedy across the sweep: {total_indices})");
    }
    if all || section == "opt-time" {
        // §7.2 "Cost of Optimization": the 10-view set (paper: 31 s on an
        // UltraSparc 10; one-time cost vs daily maintenance savings).
        let start = Instant::now();
        let p = run_point(Workload::Ten, 10.0, &ExperimentConfig::default());
        let elapsed = start.elapsed();
        println!("== Cost of Optimization (10 views, 10% updates)");
        println!(
            "greedy optimization time: {:?} (incl. DAG build: {:?})",
            p.greedy_report.optimization_time, elapsed
        );
        println!(
            "DAG: {} equivalence nodes, {} operation nodes; benefit evaluations: {}",
            p.greedy_report.dag_eq_nodes,
            p.greedy_report.dag_op_nodes,
            p.greedy_report.benefit_evaluations
        );
        println!(
            "maintenance savings per refresh at 10%: {:.1}s (NoGreedy {:.1} − Greedy {:.1})",
            p.nogreedy - p.greedy,
            p.nogreedy,
            p.greedy
        );
    }
    if all || section == "temp-vs-perm" {
        // §7.2 "Temporary vs. Permanent Materialization".
        println!("== Temporary vs Permanent Materialization (all workloads)");
        let overall = temp_vs_perm(&PAPER_PERCENTS, &ExperimentConfig::default());
        let low = temp_vs_perm(&[1.0, 5.0], &ExperimentConfig::default());
        let high = temp_vs_perm(&[60.0, 80.0], &ExperimentConfig::default());
        println!(
            "overall : temporary (recompute cheaper) {} vs permanent (maintenance cheaper) {}",
            overall.temporary, overall.permanent
        );
        println!(
            "1–5%    : temporary {} vs permanent {}",
            low.temporary, low.permanent
        );
        println!(
            "60–80%  : temporary {} vs permanent {}",
            high.temporary, high.permanent
        );
        println!(
            "indices : permanent {} / rebuilt-per-refresh {}",
            overall.indices_permanent, overall.indices_temporary
        );
    }
    if all || section == "buffer" {
        // §7.2 "Effect of Buffer Size": 1000 blocks instead of 8000.
        let big = ExperimentConfig::default();
        let small = ExperimentConfig {
            cost_model: CostModel::small_buffer(),
            ..Default::default()
        };
        for (w, label) in [
            (Workload::FiveJoin, "five join views"),
            (Workload::Ten, "ten views"),
        ] {
            let sb = run_series(w, &big);
            let ss = run_series(w, &small);
            println!("== Effect of Buffer Size ({label}: 8000 vs 1000 blocks)");
            println!("update%   NG@8000   G@8000   ratio | NG@1000   G@1000   ratio");
            for (b, s) in sb.iter().zip(&ss) {
                println!(
                    "{:>6.0}  {:>8.1} {:>8.1}  {:>5.2} | {:>7.1} {:>8.1}  {:>5.2}",
                    b.percent,
                    b.nogreedy,
                    b.greedy,
                    b.ratio(),
                    s.nogreedy,
                    s.greedy,
                    s.ratio()
                );
            }
        }
    }
    if all || section == "ablation" {
        println!("== Ablation: optimizer configuration (ten views, 5% updates)");
        let configs: [(&str, GreedyOptions); 4] = [
            ("full (paper config)", GreedyOptions::default()),
            (
                "no monotonicity",
                GreedyOptions {
                    monotonicity: false,
                    ..Default::default()
                },
            ),
            (
                "no incremental cost update",
                GreedyOptions {
                    incremental_cost_update: false,
                    ..Default::default()
                },
            ),
            (
                "with differential candidates",
                GreedyOptions {
                    diff_candidates: true,
                    ..Default::default()
                },
            ),
        ];
        println!(
            "{:<30} {:>10} {:>14} {:>16} {:>12}",
            "configuration", "cost(s)", "benefit-evals", "slot-recomputes", "time"
        );
        for (label, options) in configs {
            let cfg = ExperimentConfig {
                options,
                ..Default::default()
            };
            let p = run_point(Workload::Ten, 5.0, &cfg);
            let r = &p.greedy_report;
            println!(
                "{:<30} {:>10.1} {:>14} {:>16} {:>12?}",
                label,
                p.greedy,
                r.benefit_evaluations,
                r.full_slot_recomputes + r.diff_slot_recomputes,
                r.optimization_time
            );
        }
    }
}
