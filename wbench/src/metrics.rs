//! The metric catalogue — names, units and directions exactly as
//! `BENCHMARK.json` declares them (a test compares the two, both ways) —
//! and the little statistics the benchmark needs.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the warehouse sees. Definitions are in the README.
pub const END_TO_END: [MetricDef; 15] = [
    m("setup_s", "s", Lower),
    m("cycle_ms_p50", "ms", Lower),
    m("ingest_ms_p50", "ms", Lower),
    m("epoch_ms_p50", "ms", Lower),
    m("refresh_ktuples_per_s", "ktuples/s", Higher),
    m("query_first_ms_p50", "ms", Lower),
    m("query_repeat_ms_p50", "ms", Lower),
    m("replan_ms_p50", "ms", Lower),
    m("checkpoint_s", "s", Lower),
    m("recover_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("plan_cost_ratio", "ratio", Lower),
    m("wal_bytes_per_ktuple", "B/ktuple", Lower),
    m("snapshot_bytes_per_user_byte", "B/B", Lower),
    m("ok_op_share", "share", Higher),
];

/// One line per layer boundary; layer = crate. From the traced run only.
pub const PER_LAYER: [MetricDef; 68] = [
    m("trace_overhead_pct", "%", Lower),
    // warehouse: the engine calls themselves (spans around `Warehouse::*`).
    m("warehouse.ingest_ms", "ms", Lower),
    m("warehouse.ingest_tuples", "count", Higher),
    m("warehouse.run_epoch_ms", "ms", Lower),
    m("warehouse.epoch_overhead_ms", "ms", Lower),
    m("warehouse.replans_cold", "count", Lower),
    m("warehouse.replans_incremental", "count", Lower),
    m("warehouse.replan_ms", "ms", Lower),
    m("warehouse.register_view_ms", "ms", Lower),
    m("warehouse.drop_view_ms", "ms", Lower),
    m("warehouse.query_ms", "ms", Lower),
    m("warehouse.query_rows_per_ms", "rows/ms", Higher),
    m("warehouse.save_ms", "ms", Lower),
    m("warehouse.recover_ms", "ms", Lower),
    m("warehouse.recover_replayed_records", "count", Lower),
    m("warehouse.setup_builds", "count", Lower),
    m("warehouse.total_builds", "count", Lower),
    m("warehouse.forced_recomputes", "count", Lower),
    m("warehouse.epochs_aborted", "count", Lower),
    m("warehouse.cost_estimate_ratio", "ratio", Lower),
    m("warehouse.cycle_ms_p90", "ms", Lower),
    // core: the shadow optimizer session.
    m("core.add_view_ms", "ms", Lower),
    m("core.remove_view_ms", "ms", Lower),
    m("core.plan_cold_ms", "ms", Lower),
    m("core.plan_incremental_ms", "ms", Lower),
    m("core.plan_restat_ms", "ms", Lower),
    m("core.dag_eq_nodes", "count", Lower),
    m("core.dag_op_nodes", "count", Lower),
    m("core.benefit_evaluations", "count", Lower),
    m("core.full_slot_recomputes", "count", Lower),
    m("core.diff_slot_recomputes", "count", Lower),
    m("core.chosen_mats", "count", Higher),
    m("core.chosen_indices", "count", Higher),
    m("core.est_cost_greedy", "s", Lower),
    m("core.est_cost_nogreedy", "s", Lower),
    // exec: the shadow executor on its own database and runtime state.
    m("exec.execute_epoch_ms", "ms", Lower),
    m("exec.setup_epoch_ms", "ms", Lower),
    m("exec.modeled_s", "s", Lower),
    m("exec.tuples_processed", "count", Lower),
    m("exec.blocks_io", "count", Lower),
    m("exec.random_pages", "count", Lower),
    m("exec.delta_tuples_per_ms", "tuples/ms", Higher),
    m("exec.workers", "count", Higher),
    m("exec.par_vs_serial_ratio", "ratio", Lower),
    m("exec.total_builds", "count", Lower),
    m("exec.forced_recomputes", "count", Lower),
    m("exec.errors", "count", Lower),
    // storage: WAL, base-table merges, snapshots.
    m("storage.wal_append_ms", "ms", Lower),
    m("storage.wal_records", "count", Lower),
    m("storage.wal_bytes", "B", Lower),
    m("storage.wal_scan_ms", "ms", Lower),
    m("storage.db_clone_ms", "ms", Lower),
    m("storage.apply_delta_ms", "ms", Lower),
    m("storage.apply_delta_tuples", "count", Higher),
    m("storage.validate_delta_ms", "ms", Lower),
    m("storage.index_build_ms", "ms", Lower),
    m("storage.snapshot_write_ms", "ms", Lower),
    m("storage.snapshot_read_ms", "ms", Lower),
    m("storage.snapshot_bytes", "B", Lower),
    // relalg: codec and the row <-> column bridges.
    m("relalg.codec_encode_ms", "ms", Lower),
    m("relalg.codec_decode_ms", "ms", Lower),
    m("relalg.codec_bytes", "B", Lower),
    m("relalg.from_rows_ms", "ms", Lower),
    m("relalg.to_rows_ms", "ms", Lower),
    m("relalg.bridge_rows", "count", Lower),
    // tpcd: the load generator, never inside a timed region.
    m("tpcd.generate_db_ms", "ms", Lower),
    m("tpcd.generate_deltas_ms", "ms", Lower),
    m("tpcd.input_fingerprint", "hash", Lower),
];

/// Metrics that must repeat on the same `(seed, seconds)`: counts and byte
/// ratios bit for bit, the two optimizer/meter cost sums to [`EXACT_TOLERANCE`]
/// (the engine adds floats in hash-map iteration order, so their last bits
/// differ from process to process).
pub const EXACT: [&str; 14] = [
    "plan_cost_ratio",
    "wal_bytes_per_ktuple",
    "snapshot_bytes_per_user_byte",
    "ok_op_share",
    "exec.modeled_s",
    "exec.tuples_processed",
    "exec.blocks_io",
    "exec.random_pages",
    "exec.total_builds",
    "core.dag_eq_nodes",
    "core.dag_op_nodes",
    "storage.wal_bytes",
    "storage.apply_delta_tuples",
    "tpcd.input_fingerprint",
];

pub const EXACT_TOLERANCE: f64 = 1e-9;

/// Equal as far as an exact metric can be.
pub fn same_exact(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= EXACT_TOLERANCE * a.abs().max(b.abs())
}

/// Measured values in declaration order.
#[derive(Debug, Default)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` in the order of `defs`.
    /// A declared metric without a value is a benchmark bug.
    pub fn to_json(&self, defs: &[MetricDef]) -> Result<Json, String> {
        let mut fields = Vec::with_capacity(defs.len());
        for d in defs {
            let v = self
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite", d.name));
            }
            fields.push((
                d.name.to_string(),
                Json::obj([("value", Json::Num(v)), ("unit", Json::Str(d.unit.into()))]),
            ));
        }
        if let Some((extra, _)) = self
            .0
            .iter()
            .find(|(n, _)| !defs.iter().any(|d| d.name == *n))
        {
            return Err(format!("metric {extra} is measured but not declared"));
        }
        Ok(Json::Obj(fields))
    }
}

/// Linear-interpolated quantile of unsorted samples (`q` in 0..=1).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them — the driver's spread.
pub fn quartiles_exclusive(samples: &[f64]) -> (f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_hand_computed_values() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&ten), (2.75, 8.25));
    }

    #[test]
    fn names_are_legal_and_unique() {
        let legal = |s: &str, extra: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(legal(d.name, "_.-"), "bad name {}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                legal(d.unit, "_/%.-") && d.unit.len() <= 16,
                "bad unit {}",
                d.unit
            );
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
        for name in EXACT {
            assert!(seen.contains(name), "exact metric {name} is not declared");
        }
    }
}
