//! Benchmark harness: regenerates every table and figure of §7 of the
//! paper.
//!
//! The performance measure is **estimated plan cost** ("Plan Cost (sec)"),
//! exactly as in the paper (§7.1: the authors had no execution engine and
//! report optimizer estimates; we report the same metric, and the
//! integration tests separately validate that executed plans are correct).
//!
//! Each experiment builds a fresh TPC-D catalog at scale 0.1, constructs a
//! workload, sweeps update percentages, and plans each point once: the
//! greedy run's report carries the NoGreedy baseline as well.

use mvmqo_core::api::{pk_indices_for, OptimizerReport};
use mvmqo_core::cost::CostModel;
use mvmqo_core::opt::{GreedyOptions, RefreshStrategy};
use mvmqo_core::session::Optimizer;
use mvmqo_core::update::UpdateModel;
use mvmqo_relalg::catalog::TableId;
use mvmqo_relalg::logical::ViewDef;
use mvmqo_tpcd::schema::{tpcd_catalog, Tpcd};

/// The update percentages the paper sweeps (1% … 80%).
pub const PAPER_PERCENTS: [f64; 7] = [1.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0];

/// The paper's scale factor.
pub const PAPER_SF: f64 = 0.1;

/// Which benchmark workload to construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 3(a): stand-alone 4-relation join view.
    SingleJoin,
    /// Fig 3(b): aggregation over the same join.
    SingleAgg,
    /// Fig 4(a): five join views with sharing.
    FiveJoin,
    /// Fig 4(b): five aggregate views.
    FiveAgg,
    /// Fig 5: ten views of 3–4 relations.
    Ten,
}

impl Workload {
    pub fn build(self, t: &mut Tpcd) -> Vec<ViewDef> {
        match self {
            Workload::SingleJoin => mvmqo_tpcd::single_join_view(t),
            Workload::SingleAgg => mvmqo_tpcd::single_agg_view(t),
            Workload::FiveJoin => mvmqo_tpcd::five_join_views(t),
            Workload::FiveAgg => mvmqo_tpcd::five_agg_views(t),
            Workload::Ten => mvmqo_tpcd::ten_views(t),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SingleJoin => "fig3a_single_join",
            Workload::SingleAgg => "fig3b_single_agg",
            Workload::FiveJoin => "fig4a_five_join",
            Workload::FiveAgg => "fig4b_five_agg",
            Workload::Ten => "fig5_ten_views",
        }
    }
}

/// Configuration of one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    pub sf: f64,
    /// Primary-key indices assumed present (§7.1 default true; Fig 5(b)
    /// runs with false).
    pub pk_indices: bool,
    pub cost_model: CostModel,
    pub options: GreedyOptions,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            sf: PAPER_SF,
            pk_indices: true,
            cost_model: CostModel::default(),
            options: GreedyOptions::default(),
        }
    }
}

/// One point of a figure: estimated maintenance plan cost at one update
/// percentage under both optimizers.
#[derive(Debug, Clone)]
pub struct FigurePoint {
    pub percent: f64,
    pub greedy: f64,
    pub nogreedy: f64,
    pub greedy_report: OptimizerReport,
}

impl FigurePoint {
    pub fn ratio(&self) -> f64 {
        if self.greedy > 0.0 {
            self.nogreedy / self.greedy
        } else {
            f64::INFINITY
        }
    }
}

/// Tables referenced by a view set (the relations the update workload
/// touches — "we assume that all relations are updated by the same
/// percentage", §7.1, restricted to the relations the views mention).
pub fn referenced_tables(views: &[ViewDef]) -> Vec<TableId> {
    let mut out: Vec<TableId> = views.iter().flat_map(|v| v.expr.base_tables()).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Run one (workload, percent) cell and return both optimizers' costs.
/// One plan gives both: greedy starts from the NoGreedy configuration and
/// reports its cost as `nogreedy_cost`.
pub fn run_point(workload: Workload, percent: f64, config: &ExperimentConfig) -> FigurePoint {
    let mut t = tpcd_catalog(config.sf);
    let views = workload.build(&mut t);
    let tables = referenced_tables(&views);
    let mut session = Optimizer::new(config.cost_model, config.options);
    if config.pk_indices {
        session.set_initial_indices(pk_indices_for(&t.catalog, &views));
    }
    session.set_update_model(UpdateModel::percentage(tables, percent, |id| {
        t.catalog.table(id).stats.rows
    }));
    for v in &views {
        session.add_view(&mut t.catalog, v);
    }
    let greedy_report = session.plan(&mut t.catalog).report;
    FigurePoint {
        percent,
        greedy: greedy_report.total_cost,
        nogreedy: greedy_report.nogreedy_cost,
        greedy_report,
    }
}

/// Sweep the paper's update percentages for one workload.
pub fn run_series(workload: Workload, config: &ExperimentConfig) -> Vec<FigurePoint> {
    PAPER_PERCENTS
        .iter()
        .map(|p| run_point(workload, *p, config))
        .collect()
}

/// §7.2 "Temporary vs. Permanent Materialization" tallies.
#[derive(Debug, Clone, Copy, Default)]
pub struct TempPermStats {
    pub temporary: usize,
    pub permanent: usize,
    pub indices_permanent: usize,
    pub indices_temporary: usize,
}

impl TempPermStats {
    pub fn absorb_report(&mut self, report: &OptimizerReport) {
        for m in &report.chosen_mats {
            match m.strategy {
                RefreshStrategy::Recompute => self.temporary += 1,
                RefreshStrategy::Incremental => self.permanent += 1,
            }
        }
        // Materialized differentials are temporary by definition (§6.1).
        self.temporary += report.chosen_diffs.len();
        for i in &report.chosen_indices {
            if i.permanent {
                self.indices_permanent += 1;
            } else {
                self.indices_temporary += 1;
            }
        }
    }
}

/// Aggregate temp-vs-perm statistics across all workloads at the given
/// update percentages (the paper buckets 1–5% and 50–90%).
pub fn temp_vs_perm(percents: &[f64], config: &ExperimentConfig) -> TempPermStats {
    let mut stats = TempPermStats::default();
    for w in [
        Workload::SingleJoin,
        Workload::SingleAgg,
        Workload::FiveJoin,
        Workload::FiveAgg,
        Workload::Ten,
    ] {
        for p in percents {
            let point = run_point(w, *p, config);
            stats.absorb_report(&point.greedy_report);
        }
    }
    stats
}

/// Format a figure's series as the table the paper plots.
pub fn format_series(title: &str, series: &[FigurePoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title}\n"));
    out.push_str("update%   NoGreedy(s)     Greedy(s)   ratio\n");
    for p in series {
        out.push_str(&format!(
            "{:>6.0}  {:>12.1}  {:>12.1}  {:>6.2}\n",
            p.percent,
            p.nogreedy,
            p.greedy,
            p.ratio()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> ExperimentConfig {
        // Smaller scale keeps unit tests quick; shapes are scale-free.
        ExperimentConfig {
            sf: 0.01,
            ..Default::default()
        }
    }

    #[test]
    fn greedy_dominates_nogreedy_on_every_workload() {
        for w in [Workload::SingleJoin, Workload::FiveJoin, Workload::Ten] {
            let p = run_point(w, 10.0, &fast_config());
            assert!(
                p.greedy <= p.nogreedy + 1e-6,
                "{}: greedy {} > nogreedy {}",
                w.name(),
                p.greedy,
                p.nogreedy
            );
        }
    }

    #[test]
    fn benefit_ratio_shrinks_with_update_rate() {
        let cfg = fast_config();
        let low = run_point(Workload::FiveJoin, 1.0, &cfg);
        let high = run_point(Workload::FiveJoin, 80.0, &cfg);
        assert!(
            low.ratio() >= high.ratio() * 0.8,
            "low {} high {}",
            low.ratio(),
            high.ratio()
        );
    }

    #[test]
    fn costs_increase_with_update_rate() {
        let cfg = fast_config();
        let low = run_point(Workload::SingleJoin, 1.0, &cfg);
        let high = run_point(Workload::SingleJoin, 80.0, &cfg);
        assert!(high.nogreedy > low.nogreedy);
        assert!(high.greedy >= low.greedy * 0.9);
    }

    #[test]
    fn fig5b_without_indices_selects_indices() {
        let cfg = ExperimentConfig {
            pk_indices: false,
            ..fast_config()
        };
        let p = run_point(Workload::Ten, 1.0, &cfg);
        assert!(
            !p.greedy_report.chosen_indices.is_empty(),
            "greedy should select indices when none exist"
        );
    }

    #[test]
    fn temp_perm_shift_toward_recompute_at_high_rates() {
        let cfg = fast_config();
        let low = temp_vs_perm(&[1.0], &cfg);
        let high = temp_vs_perm(&[80.0], &cfg);
        let frac = |s: &TempPermStats| {
            if s.temporary + s.permanent == 0 {
                0.0
            } else {
                s.temporary as f64 / (s.temporary + s.permanent) as f64
            }
        };
        assert!(
            frac(&high) >= frac(&low) - 0.25,
            "temporary share should not collapse at high rates: low {:?} high {:?}",
            low,
            high
        );
    }

    #[test]
    fn reported_baseline_equals_a_nogreedy_run() {
        let greedy = run_point(Workload::FiveAgg, 5.0, &ExperimentConfig::default());
        let nogreedy_config = ExperimentConfig {
            options: GreedyOptions {
                mode: mvmqo_core::opt::Mode::NoGreedy,
                ..Default::default()
            },
            ..Default::default()
        };
        let nogreedy = run_point(Workload::FiveAgg, 5.0, &nogreedy_config);
        assert_eq!(
            nogreedy.greedy_report.total_cost.to_bits(),
            greedy.greedy_report.nogreedy_cost.to_bits()
        );
    }

    #[test]
    fn formatting_contains_all_points() {
        let cfg = fast_config();
        let series = vec![run_point(Workload::SingleJoin, 1.0, &cfg)];
        let s = format_series("t", &series);
        assert!(s.contains("NoGreedy"));
        assert!(s.contains("ratio"));
    }
}
