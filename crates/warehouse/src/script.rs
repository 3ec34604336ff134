//! Script/REPL frontend: drive warehouse scenarios without writing Rust.
//!
//! A [`Session`] wraps a [`Warehouse`] over the TPC-D substrate and
//! executes one command per line:
//!
//! ```text
//! view V = lineitem * orders * customer where o_orderdate < 400
//! view R = lineitem * orders group o_custkey sum l_extendedprice
//! ingest lineitem 10        # 10% inserts + 5% deletes on one relation
//! ingest all 5              # one batch per relation
//! epoch                     # run a maintenance epoch
//! query V                   # row count + staleness
//! verify V                  # compare materialization vs recomputation
//! drop V
//! explain                   # current plan, policy counters
//! tables                    # stored relations and row counts
//! wal on /tmp/wh            # enable durability (snapshot + WAL) in a dir
//! save                      # checkpoint: new snapshot, truncate the WAL
//! recover /tmp/wh           # rebuild the whole session from durable state
//! ```
//!
//! Lines starting with `#` (and blank lines) are ignored, so scenario
//! files double as documented experiments. Errors are returned as text —
//! a bad command never kills the session.

use crate::engine::Warehouse;
use crate::policy::ReoptPolicy;
use mvmqo_relalg::agg::{AggFunc, AggSpec};
use mvmqo_relalg::catalog::TableId;
use mvmqo_relalg::expr::{CmpOp, Predicate, ScalarExpr};
use mvmqo_relalg::logical::{LogicalExpr, ViewDef};
use mvmqo_relalg::schema::AttrId;
use mvmqo_relalg::types::{DataType, Value};
use mvmqo_storage::faults::{FaultMode, FaultPlan};
use mvmqo_tpcd::{generate_database, generate_table_update, tpcd_catalog, Tpcd};
use std::sync::Arc;

/// An interactive (or scripted) warehouse session over TPC-D.
pub struct Session {
    /// TPC-D handles for the data/update generators. Holds its own catalog
    /// copy (`tpcd_catalog` is deterministic, so table/attribute ids match
    /// the engine's); the engine owns the authoritative one.
    tpcd: Tpcd,
    pub warehouse: Warehouse,
    seed: u64,
    /// Monotone counter so repeated `ingest` lines draw distinct batches.
    ingests: u64,
}

impl Session {
    /// Generate a TPC-D instance at `sf` and wrap it in a warehouse.
    pub fn new(sf: f64, seed: u64) -> Self {
        let tpcd = tpcd_catalog(sf);
        let db = generate_database(&tpcd, seed);
        let engine_catalog = tpcd_catalog(sf).catalog;
        Session {
            tpcd,
            warehouse: Warehouse::new(engine_catalog, db),
            seed,
            ingests: 0,
        }
    }

    pub fn with_policy(mut self, policy: ReoptPolicy) -> Self {
        self.warehouse = self.warehouse.with_policy(policy);
        self
    }

    /// Execute one command line; returns printable output. Errors come
    /// back as `Err(text)` and leave the session usable.
    pub fn exec_line(&mut self, line: &str) -> Result<String, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(String::new());
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        match words[0] {
            "view" => self.cmd_view(line),
            "ingest" => self.cmd_ingest(&words),
            "epoch" => self.cmd_epoch(),
            "query" => self.cmd_query(&words),
            "verify" => self.cmd_verify(&words),
            "drop" => self.cmd_drop(&words),
            "explain" => Ok(self.warehouse.explain()),
            "tables" => Ok(self.cmd_tables()),
            "parallel" => self.cmd_parallel(&words),
            "wal" => self.cmd_wal(&words),
            "save" => self.cmd_save(),
            "recover" => self.cmd_recover(&words),
            "chaos" => self.cmd_chaos(&words),
            "help" => Ok(HELP.to_string()),
            other => Err(format!("unknown command {other:?} (try `help`)")),
        }
    }

    // ==================================================================
    // Commands
    // ==================================================================

    /// `view NAME = T1 * T2 [* ...] [where COL <op> N] [group COL sum COL]`
    fn cmd_view(&mut self, line: &str) -> Result<String, String> {
        let rest = line.strip_prefix("view").unwrap_or(line).trim();
        let (name, spec) = rest
            .split_once('=')
            .ok_or("usage: view NAME = T1 * T2 [where COL < N] [group COL sum COL]")?;
        let name = name.trim().to_string();
        if name.is_empty() {
            return Err("view name must not be empty".into());
        }

        // Split off trailing `group ... sum ...` and `where ...` clauses.
        let mut spec = spec.trim();
        let mut group_clause = None;
        if let Some((head, group)) = split_clause(spec, "group") {
            spec = head;
            group_clause = Some(group);
        }
        let mut where_clause = None;
        if let Some((head, w)) = split_clause(spec, "where") {
            spec = head;
            where_clause = Some(w);
        }

        let tables = self.parse_chain(spec)?;
        let mut expr = self.join_chain(&tables)?;
        if let Some(w) = where_clause {
            let pred = self.parse_where(&tables, &w)?;
            expr = LogicalExpr::select(expr, pred);
        }
        if let Some(g) = group_clause {
            expr = self.parse_group(&tables, expr, &g)?;
        }
        let view = ViewDef::new(name.clone(), expr);
        let report = self
            .warehouse
            .register_view(view)
            .map_err(|e| e.to_string())?;
        Ok(format!(
            "registered {name}; re-optimized {} views: cost {:.2}s ({} extra mats, {} extra indices)",
            report.program.views.len(),
            report.total_cost,
            report.chosen_mats.len(),
            report.chosen_indices.len()
        ))
    }

    /// `ingest TABLE PCT` or `ingest all PCT`.
    fn cmd_ingest(&mut self, words: &[&str]) -> Result<String, String> {
        let [_, target, pct] = words else {
            return Err("usage: ingest <table|all> <percent>".into());
        };
        let pct: f64 = pct.parse().map_err(|_| format!("bad percentage {pct:?}"))?;
        let tables: Vec<TableId> = if *target == "all" {
            self.tpcd.t.all().to_vec()
        } else {
            vec![self.lookup_table(target)?]
        };
        let mut total = 0usize;
        for t in tables {
            self.ingests += 1;
            let mut batch = generate_table_update(
                &self.tpcd,
                self.warehouse.database(),
                t,
                pct,
                self.seed.wrapping_add(self.ingests),
            )
            .map_err(|e| e.to_string())?;
            // The generator samples against the *stored* table; consecutive
            // ingests before an epoch must not re-delete queued deletes or
            // reissue queued primary keys.
            if let Some(pending) = self.warehouse.pending_for(t) {
                let queued: std::collections::HashSet<&[Value]> =
                    pending.deletes.iter().map(Vec::as_slice).collect();
                batch.deletes.retain(|r| !queued.contains(r.as_slice()));
                if let Some(next_key) = pending
                    .inserts
                    .iter()
                    .filter_map(|r| r.first().and_then(Value::as_i64))
                    .max()
                    .map(|m| m + 1)
                {
                    for (i, row) in batch.inserts.iter_mut().enumerate() {
                        row[0] = Value::Int(next_key + i as i64);
                    }
                }
            }
            total += self.warehouse.ingest(t, batch).map_err(|e| e.to_string())?;
        }
        Ok(format!(
            "queued {total} tuples ({} pending)",
            self.warehouse.pending_tuples()
        ))
    }

    fn cmd_epoch(&mut self) -> Result<String, String> {
        let r = self.warehouse.run_epoch().map_err(|e| e.to_string())?;
        let replan = match r.replanned {
            Some(t) => format!("re-optimized ({t}); "),
            None => String::new(),
        };
        Ok(format!(
            "epoch {}: {replan}applied {} tuples in {:.2}s (estimate {:.2}s, setup {:.2}s, {} rebuilds)",
            r.epoch,
            r.ingested_tuples,
            r.executed_seconds,
            r.estimated_cost,
            r.setup_seconds,
            r.setup_builds,
        ))
    }

    fn cmd_query(&mut self, words: &[&str]) -> Result<String, String> {
        let Some(name) = words.get(1) else {
            return Err("usage: query NAME".into());
        };
        let q = self.warehouse.answer(name).map_err(|e| e.to_string())?;
        Ok(format!(
            "{name}: {} rows ({}{})",
            q.batch.num_rows(),
            if q.from_materialization {
                "materialized"
            } else {
                "recomputed"
            },
            if q.stale { ", stale" } else { "" }
        ))
    }

    fn cmd_verify(&mut self, words: &[&str]) -> Result<String, String> {
        let Some(name) = words.get(1) else {
            return Err("usage: verify NAME".into());
        };
        let ok = self.warehouse.verify(name).map_err(|e| e.to_string())?;
        if ok {
            Ok(format!("{name}: consistent with recomputation"))
        } else {
            Err(format!("{name}: MISMATCH against recomputation"))
        }
    }

    fn cmd_drop(&mut self, words: &[&str]) -> Result<String, String> {
        let Some(name) = words.get(1) else {
            return Err("usage: drop NAME".into());
        };
        self.warehouse.drop_view(name).map_err(|e| e.to_string())?;
        Ok(format!(
            "dropped {name}; {} views remain",
            self.warehouse.views().len()
        ))
    }

    /// `parallel on [N] | off` — switch the epoch scheduler, optionally
    /// pinning the worker budget to `N` threads (`on` alone auto-detects);
    /// bare `parallel` reports the current setting.
    fn cmd_parallel(&mut self, words: &[&str]) -> Result<String, String> {
        match words[1..] {
            [] => {}
            ["on"] => {
                self.warehouse.set_parallel(true);
                self.warehouse.set_threads(0);
            }
            ["on", n] => {
                let threads: usize = n
                    .parse()
                    .ok()
                    .filter(|&t| t > 0)
                    .ok_or_else(|| format!("usage: parallel [on [N]|off] (bad count {n:?})"))?;
                self.warehouse.set_parallel(true);
                self.warehouse.set_threads(threads);
            }
            ["off"] => self.warehouse.set_parallel(false),
            _ => return Err(format!("usage: parallel [on [N]|off] (got {:?})", words[1])),
        }
        Ok(format!(
            "epoch scheduler: {}",
            mvmqo_exec::scheduler_description(self.warehouse.exec_options())
        ))
    }

    /// `wal on DIR` — enable durability; bare `wal` reports the status.
    fn cmd_wal(&mut self, words: &[&str]) -> Result<String, String> {
        match words {
            [_] => Ok(self.warehouse.durability_status()),
            [_, "on", dir] => {
                let snap = self.warehouse.enable_wal(dir).map_err(|e| e.to_string())?;
                Ok(format!(
                    "durability on: snapshot {} at epoch {}",
                    snap.display(),
                    self.warehouse.epoch()
                ))
            }
            _ => Err("usage: wal [on DIR]".into()),
        }
    }

    /// `save` — checkpoint: fresh snapshot + truncated WAL.
    fn cmd_save(&mut self) -> Result<String, String> {
        let snap = self.warehouse.save().map_err(|e| e.to_string())?;
        Ok(format!(
            "saved snapshot {} at epoch {}",
            snap.display(),
            self.warehouse.epoch()
        ))
    }

    /// `recover DIR` — replace this session's engine with one rebuilt from
    /// durable state (snapshot + WAL-tail replay).
    fn cmd_recover(&mut self, words: &[&str]) -> Result<String, String> {
        let [_, dir] = words else {
            return Err("usage: recover DIR".into());
        };
        let wh = Warehouse::recover(dir).map_err(|e| e.to_string())?;
        let info = wh
            .recovery_info()
            .cloned()
            .ok_or("recover produced no recovery info")?;
        self.warehouse = wh;
        Ok(format!(
            "recovered at epoch {} (snapshot epoch {}, {} WAL records replayed, {})",
            info.recovered_epoch, info.snapshot_epoch, info.replayed_records, info.wal_stop
        ))
    }

    /// `chaos SITE [N]` — arm a one-shot injected fault at the `N`-th
    /// (default 0) crossing of the named fault site; the next command that
    /// reaches it fails, and an epoch that hits it aborts cleanly (pre-
    /// epoch state retained, retry with `epoch`). `chaos off` disarms;
    /// bare `chaos` reports the armed/fired state.
    fn cmd_chaos(&mut self, words: &[&str]) -> Result<String, String> {
        match words[1..] {
            [] => {
                let f = self.warehouse.faults();
                Ok(match (f.armed(), f.fired()) {
                    (true, _) => "chaos: armed, not yet fired".to_string(),
                    (false, Some(fired)) => {
                        format!("chaos: fired at {}#{}", fired.site, fired.ordinal)
                    }
                    (false, None) => "chaos: off".to_string(),
                })
            }
            ["off"] => {
                self.warehouse.faults().clear();
                Ok("chaos: off".to_string())
            }
            [site] | [site, _] => {
                let nth: u64 = match words.get(2) {
                    Some(n) => n
                        .parse()
                        .map_err(|_| format!("usage: chaos [SITE [N]|off] (bad count {n:?})"))?,
                    None => 0,
                };
                self.warehouse.faults().arm(FaultPlan::site(
                    site.to_string(),
                    nth,
                    FaultMode::Error,
                ));
                Ok(format!(
                    "chaos: armed a fault at crossing #{nth} of {site} (fires once)"
                ))
            }
            _ => Err("usage: chaos [SITE [N]|off]".into()),
        }
    }

    fn cmd_tables(&self) -> String {
        let mut out = String::new();
        for def in self.tpcd.catalog.tables() {
            let rows = self
                .warehouse
                .database()
                .base(def.id)
                .map_or(0, |t| t.len());
            out.push_str(&format!("{:<10} {:>8} rows\n", def.name, rows));
        }
        out
    }

    // ==================================================================
    // Parsing helpers
    // ==================================================================

    fn lookup_table(&self, name: &str) -> Result<TableId, String> {
        self.tpcd
            .catalog
            .table_by_name(name)
            .map(|d| d.id)
            .ok_or_else(|| format!("unknown table {name:?}"))
    }

    /// `T1 * T2 * T3` → table ids.
    fn parse_chain(&self, spec: &str) -> Result<Vec<TableId>, String> {
        let tables: Vec<TableId> = spec
            .split('*')
            .map(|t| self.lookup_table(t.trim()))
            .collect::<Result<_, _>>()?;
        if tables.is_empty() {
            return Err("at least one table required".into());
        }
        Ok(tables)
    }

    /// Left-deep FK join of the chain: each new table must share a declared
    /// foreign key with some table already joined.
    fn join_chain(&self, tables: &[TableId]) -> Result<Arc<LogicalExpr>, String> {
        let mut expr = LogicalExpr::scan(tables[0]);
        let mut joined = vec![tables[0]];
        for &next in &tables[1..] {
            let mut conjuncts = Vec::new();
            for &prev in &joined {
                conjuncts.extend(self.fk_conjuncts(prev, next));
            }
            if conjuncts.is_empty() {
                return Err(format!(
                    "no foreign-key join path from {{{}}} to {}",
                    joined
                        .iter()
                        .map(|t| self.tpcd.catalog.table(*t).name.clone())
                        .collect::<Vec<_>>()
                        .join(", "),
                    self.tpcd.catalog.table(next).name
                ));
            }
            expr = LogicalExpr::join(
                expr,
                LogicalExpr::scan(next),
                Predicate::from_conjuncts(conjuncts),
            );
            joined.push(next);
        }
        Ok(expr)
    }

    /// Equality conjuncts from any declared FK between `a` and `b` (either
    /// direction).
    fn fk_conjuncts(&self, a: TableId, b: TableId) -> Vec<ScalarExpr> {
        let mut out = Vec::new();
        for (child, parent) in [(a, b), (b, a)] {
            for fk in &self.tpcd.catalog.table(child).foreign_keys {
                if fk.parent_table == parent {
                    for (c, p) in fk.child_attrs.iter().zip(&fk.parent_attrs) {
                        out.push(ScalarExpr::col_eq_col(*c, *p));
                    }
                }
            }
        }
        out
    }

    /// Resolve a (possibly qualified) column name within the chain tables.
    fn lookup_column(&self, tables: &[TableId], col: &str) -> Result<(AttrId, DataType), String> {
        for &t in tables {
            let def = self.tpcd.catalog.table(t);
            for attr in def.schema.attrs() {
                if attr.name == col || attr.name.ends_with(&format!(".{col}")) {
                    return Ok((attr.id, attr.data_type));
                }
            }
        }
        Err(format!("no column {col:?} in the joined tables"))
    }

    /// `COL < N`, `COL > N`, `COL = N`.
    fn parse_where(&self, tables: &[TableId], clause: &str) -> Result<Predicate, String> {
        let words: Vec<&str> = clause.split_whitespace().collect();
        let [col, op, value] = words[..] else {
            return Err("usage: where COL <|>|= VALUE".into());
        };
        let (attr, dt) = self.lookup_column(tables, col)?;
        let op = match op {
            "<" => CmpOp::Lt,
            ">" => CmpOp::Gt,
            "=" => CmpOp::Eq,
            "<=" => CmpOp::Le,
            ">=" => CmpOp::Ge,
            other => return Err(format!("unsupported operator {other:?}")),
        };
        let value = parse_value(value, dt)?;
        Ok(Predicate::from_expr(ScalarExpr::col_cmp_lit(
            attr, op, value,
        )))
    }

    /// `COL sum COL` — group by the first column, SUM + COUNT the second.
    fn parse_group(
        &mut self,
        tables: &[TableId],
        input: Arc<LogicalExpr>,
        clause: &str,
    ) -> Result<Arc<LogicalExpr>, String> {
        let words: Vec<&str> = clause.split_whitespace().collect();
        let [group_col, "sum", sum_col] = words[..] else {
            return Err("usage: group COL sum COL".into());
        };
        let (group_attr, _) = self.lookup_column(tables, group_col)?;
        let (sum_attr, _) = self.lookup_column(tables, sum_col)?;
        let sum_out = self.warehouse.fresh_attr();
        let cnt_out = self.warehouse.fresh_attr();
        Ok(LogicalExpr::aggregate(
            input,
            vec![group_attr],
            vec![
                AggSpec::new(AggFunc::Sum, ScalarExpr::Col(sum_attr), sum_out),
                AggSpec::new(AggFunc::Count, ScalarExpr::Col(sum_attr), cnt_out),
            ],
        ))
    }
}

/// Split `spec` at the last top-level occurrence of ` keyword `; returns
/// (head, tail-after-keyword).
fn split_clause<'a>(spec: &'a str, keyword: &str) -> Option<(&'a str, String)> {
    let needle = format!(" {keyword} ");
    spec.rfind(&needle).map(|i| {
        (
            spec[..i].trim(),
            spec[i + needle.len()..].trim().to_string(),
        )
    })
}

fn parse_value(text: &str, dt: DataType) -> Result<Value, String> {
    match dt {
        DataType::Int => text
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| format!("bad integer {text:?}")),
        DataType::Date => text
            .parse::<i32>()
            .map(Value::Date)
            .map_err(|_| format!("bad date (days since epoch) {text:?}")),
        DataType::Float => text
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("bad float {text:?}")),
        DataType::Str => Ok(Value::str(text)),
        DataType::Bool => match text {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => Err(format!("bad boolean {text:?}")),
        },
    }
}

pub const HELP: &str = "\
commands:
  view NAME = T1 * T2 [* ...] [where COL <op> N] [group COL sum COL]
      register a view (FK-joined chain); re-optimizes the whole view set
  drop NAME                 unregister a view; re-optimizes the rest
  ingest <table|all> PCT    queue PCT% inserts + PCT/2% deletes
  epoch                     run one maintenance epoch
  query NAME                row count + staleness of a view
  verify NAME               check materialization against recomputation
  explain                   current plan, costs, re-optimization history
  tables                    stored relations and row counts
  parallel [on [N]|off]     switch the epoch scheduler (default serial);
                            `on N` pins the worker budget to N threads
  wal [on DIR]              enable durability (snapshot + WAL) / show status
  save                      checkpoint: new snapshot, truncate the WAL
  recover DIR               rebuild the session from durable state
  chaos [SITE [N]|off]      arm a one-shot injected fault at a fault site
                            (e.g. wal:commit, exec:hash-join); an epoch
                            that hits it aborts cleanly and can be retried
  help                      this text
  # ...                     comment
";

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        Session::new(0.001, 42)
    }

    #[test]
    fn view_register_ingest_epoch_query_roundtrip() {
        let mut s = session();
        let out = s
            .exec_line("view locs = lineitem * orders * customer where o_orderdate < 1200")
            .unwrap();
        assert!(out.contains("registered locs"), "{out}");
        s.exec_line("ingest all 10").unwrap();
        let out = s.exec_line("epoch").unwrap();
        assert!(out.contains("epoch 1"), "{out}");
        let out = s.exec_line("query locs").unwrap();
        assert!(out.contains("materialized"), "{out}");
        let out = s.exec_line("verify locs").unwrap();
        assert!(out.contains("consistent"), "{out}");
    }

    #[test]
    fn aggregate_views_parse_and_verify() {
        let mut s = session();
        s.exec_line("view rev = lineitem * orders group o_custkey sum l_extendedprice")
            .unwrap();
        s.exec_line("ingest lineitem 10").unwrap();
        s.exec_line("ingest orders 10").unwrap();
        s.exec_line("epoch").unwrap();
        let out = s.exec_line("verify rev").unwrap();
        assert!(out.contains("consistent"), "{out}");
    }

    #[test]
    fn explain_reports_optimizer_session_behavior() {
        // Scripts assert on optimizer behavior through `explain`: the
        // chosen plan, the last trigger, and cold-vs-incremental replan
        // times from the re-entrant session.
        let mut s = session();
        s.exec_line("view a = lineitem * orders").unwrap();
        let out = s.exec_line("explain").unwrap();
        assert!(out.contains("cold plan"), "{out}");
        assert!(out.contains("initial plan"), "{out}");
        s.exec_line("view b = lineitem * orders * customer")
            .unwrap();
        let out = s.exec_line("explain").unwrap();
        assert!(out.contains("incremental plan"), "{out}");
        assert!(out.contains("view set changed"), "{out}");
        assert!(
            out.contains("replan time: cold"),
            "cold-vs-incremental summary missing: {out}"
        );
        assert!(out.contains("view a:"), "{out}");
        assert!(out.contains("view b:"), "{out}");
    }

    #[test]
    fn quiet_epochs_do_not_thrash_the_plan() {
        // Under the *default* policy, epochs much cheaper than the plan's
        // estimate (tiny or empty batches) must not trigger cost-drift
        // replans that would discard the persisted state.
        let mut s = session();
        s.exec_line("view v = lineitem * orders").unwrap();
        s.exec_line("ingest all 10").unwrap();
        s.exec_line("epoch").unwrap();
        let replans = s.warehouse.replans().len();
        s.exec_line("epoch").unwrap(); // empty epoch
        s.exec_line("ingest all 1").unwrap();
        s.exec_line("epoch").unwrap(); // far cheaper than estimated
        assert_eq!(
            s.warehouse.replans().len(),
            replans,
            "cheap epochs must not replan"
        );
        assert_eq!(s.warehouse.history().last().unwrap().setup_builds, 0);
    }

    #[test]
    fn consecutive_ingests_before_one_epoch_stay_consistent() {
        // Regression: two generated batches used to overlap on deletes
        // (and reuse insert keys), corrupting maintained aggregates.
        let mut s = session();
        s.exec_line("view rev = lineitem * orders group o_custkey sum l_extendedprice")
            .unwrap();
        s.exec_line("ingest all 2").unwrap();
        s.exec_line("ingest all 2").unwrap();
        s.exec_line("ingest lineitem 3").unwrap();
        s.exec_line("epoch").unwrap();
        let out = s.exec_line("verify rev").unwrap();
        assert!(out.contains("consistent"), "{out}");
    }

    #[test]
    fn parallel_scheduler_epochs_stay_consistent() {
        let mut s = session();
        assert!(s.exec_line("parallel").unwrap().contains("serial"));
        assert!(s.exec_line("parallel on").unwrap().contains("parallel"));
        s.exec_line("view locs = lineitem * orders * customer")
            .unwrap();
        s.exec_line("view rev = lineitem * orders group o_custkey sum l_extendedprice")
            .unwrap();
        s.exec_line("ingest all 10").unwrap();
        s.exec_line("epoch").unwrap();
        assert!(s.exec_line("verify locs").unwrap().contains("consistent"));
        assert!(s.exec_line("verify rev").unwrap().contains("consistent"));
        assert!(s.exec_line("parallel off").unwrap().contains("serial"));
        assert!(s.exec_line("parallel bogus").is_err());
    }

    #[test]
    fn parallel_thread_count_round_trips() {
        let mut s = session();
        let out = s.exec_line("parallel on 2").unwrap();
        // An explicit count survives the 1-core auto-disable reporting:
        // either the pinned count shows up, or the host has one thread and
        // the scheduler says so.
        assert!(
            out.contains("2 threads") || out.contains("1 thread"),
            "{out}"
        );
        assert_eq!(s.warehouse.exec_options().threads, 2);
        s.exec_line("view rev = lineitem * orders group o_custkey sum l_extendedprice")
            .unwrap();
        s.exec_line("ingest all 5").unwrap();
        s.exec_line("epoch").unwrap();
        assert!(s.exec_line("verify rev").unwrap().contains("consistent"));
        assert!(s.exec_line("parallel on 0").is_err());
        assert!(s.exec_line("parallel on two").is_err());
        // `parallel on` resets to auto.
        s.exec_line("parallel on").unwrap();
        assert_eq!(s.warehouse.exec_options().threads, 0);
    }

    #[test]
    fn errors_do_not_kill_the_session() {
        let mut s = session();
        assert!(s.exec_line("view bad = lineitem * region").is_err()); // no FK path
        assert!(s.exec_line("ingest nosuch 5").is_err());
        assert!(s.exec_line("query ghost").is_err());
        assert!(s.exec_line("frobnicate").is_err());
        // Still fully usable afterwards.
        s.exec_line("view ok = lineitem * orders").unwrap();
        s.exec_line("ingest all 5").unwrap();
        s.exec_line("epoch").unwrap();
        assert!(s.exec_line("verify ok").unwrap().contains("consistent"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let mut s = session();
        assert_eq!(s.exec_line("# a comment").unwrap(), "");
        assert_eq!(s.exec_line("   ").unwrap(), "");
        assert!(s.exec_line("help").unwrap().contains("commands"));
    }

    /// Self-cleaning scratch directory (the workspace has no tempfile
    /// crate; durable state lands under the system temp dir).
    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("mvmqo-script-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn wal_save_recover_commands_roundtrip() {
        let tmp = TempDir::new("walcmd");
        let dir = tmp.0.display().to_string();
        let mut s = session();
        s.exec_line("view locs = lineitem * orders * customer")
            .unwrap();
        assert!(s.exec_line("wal").unwrap().contains("off"));
        let out = s.exec_line(&format!("wal on {dir}")).unwrap();
        assert!(out.contains("durability on"), "{out}");
        s.exec_line("ingest all 5").unwrap();
        s.exec_line("epoch").unwrap();
        let out = s.exec_line("save").unwrap();
        assert!(out.contains("saved snapshot"), "{out}");
        // Post-save activity lands in the WAL tail and must replay.
        s.exec_line("ingest all 3").unwrap();
        s.exec_line("epoch").unwrap();
        let rows_before = s.exec_line("query locs").unwrap();

        let mut s2 = session();
        let out = s2.exec_line(&format!("recover {dir}")).unwrap();
        assert!(out.contains("recovered at epoch 2"), "{out}");
        assert_eq!(s2.exec_line("query locs").unwrap(), rows_before);
        assert!(s2.exec_line("verify locs").unwrap().contains("consistent"));
        let out = s2.exec_line("explain").unwrap();
        assert!(out.contains("durability:"), "{out}");
        assert!(out.contains("recovered:"), "{out}");
    }

    #[test]
    fn save_requires_durability_enabled() {
        let mut s = session();
        let err = s.exec_line("save").unwrap_err();
        assert!(err.contains("not enabled"), "{err}");
        assert!(s.exec_line("recover /nonexistent-mvmqo-dir").is_err());
        // Session still usable after durability errors.
        s.exec_line("view ok = lineitem * orders").unwrap();
        assert!(s.exec_line("query ok").is_ok());
    }

    #[test]
    fn chaos_command_aborts_and_retries_cleanly() {
        let mut s = session();
        s.exec_line("view locs = lineitem * orders * customer")
            .unwrap();
        s.exec_line("ingest all 5").unwrap();
        s.exec_line("epoch").unwrap();
        let baseline = s.exec_line("query locs").unwrap();

        // Arm a fault at the commit point: the executor's work is staged
        // and then dropped, so the engine must stay on the epoch-1 state.
        s.exec_line("ingest all 5").unwrap();
        assert!(s.exec_line("chaos wal:commit").unwrap().contains("armed"));
        let err = s.exec_line("epoch").unwrap_err();
        assert!(err.contains("aborted"), "{err}");
        assert!(err.contains("wal:commit"), "{err}");
        let stale = s.exec_line("query locs").unwrap();
        assert!(stale.contains("stale"), "{stale}");
        assert_eq!(
            stale.replace(", stale", ""),
            baseline,
            "abort must leave pre-epoch answers"
        );
        let out = s.exec_line("explain").unwrap();
        assert!(out.contains("epochs aborted: 1"), "{out}");
        assert!(out.contains("last abort: epoch 2 at wal:commit"), "{out}");
        assert!(s.exec_line("chaos").unwrap().contains("fired"), "status");

        // The one-shot fault is spent: the retry commits the same epoch.
        let out = s.exec_line("epoch").unwrap();
        assert!(out.contains("epoch 2"), "{out}");
        assert!(s.exec_line("verify locs").unwrap().contains("consistent"));
        assert!(s.exec_line("chaos off").unwrap().contains("off"));
        assert!(s.exec_line("chaos wal:commit bogus").is_err());
    }

    #[test]
    fn drop_reoptimizes_remaining_views() {
        let mut s = session();
        s.exec_line("view a = lineitem * orders").unwrap();
        s.exec_line("view b = lineitem * orders * customer")
            .unwrap();
        let n = s.warehouse.replans().len();
        s.exec_line("drop a").unwrap();
        assert_eq!(s.warehouse.views().len(), 1);
        assert_eq!(s.warehouse.replans().len(), n + 1);
    }
}
