//! The engine's snapshot image: what a `save` persists and `recover` reloads.
//!
//! A snapshot is a full columnar image of the engine at one epoch: its
//! reoptimization policy, the
//! catalog (with fitted statistics and the attribute-allocator position),
//! the view definitions in registration order, every base [`StoredTable`],
//! the pending delta queue, and — per view — the maintained root
//! materialization with its hidden aggregate/distinct support state
//! (footnote 1 of the paper: the counts that make deletions applicable).
//!
//! The optimizer session itself is *not* byte-serialized. The memo and
//! AND-OR DAG are reconstructed deterministically at recovery by
//! re-registering the persisted views in order against the persisted
//! catalog — the first one-view plan is cold, every subsequent plan
//! (including all post-recovery replans) runs incrementally against the
//! rebuilt memo. The snapshot also records the selection the old session
//! had chosen, so recovery can report whether the warm re-plan landed on
//! the same set.
//!
//! Materializations are persisted **per view root, keyed by view name** —
//! never by raw node id. `EqId`s are an artifact of one session's DAG
//! construction order and do not survive a restart; view names do. Interior
//! permanent materializations rebuild at the first post-recovery epoch's
//! setup (correct, at the cost of one rebuild).

use crate::policy::ReoptPolicy;
use mvmqo_exec::{AggState, DistinctState};
use mvmqo_relalg::catalog::{Catalog, TableId};
use mvmqo_relalg::codec::{self, CodecError, Dec, Enc};
use mvmqo_relalg::logical::ViewDef;
use mvmqo_relalg::schema::Schema;
use mvmqo_relalg::tuple::Tuple;
use mvmqo_relalg::types::{DataType, Value};
use mvmqo_relalg::Batch;
use mvmqo_storage::snapshot::{decode_stored_table, encode_stored_table};
use mvmqo_storage::StoredTable;

/// One view's maintained root materialization.
#[derive(Debug)]
pub struct ViewMatImage {
    /// View name — the only cross-session-stable key for a root.
    pub name: String,
    /// Whether the stored image was fresh (maintained through the last
    /// epoch) when the snapshot was taken.
    pub fresh: bool,
    pub table: StoredTable,
    pub agg: Option<AggState>,
    pub distinct: Option<DistinctState>,
}

/// Full engine image at one epoch.
#[derive(Debug)]
pub struct SnapshotData {
    pub epoch: u64,
    /// Drift counter at snapshot time (tuples ingested since last re-plan).
    pub ingested_since_plan: u64,
    /// The engine's reoptimization thresholds (`with_policy`), so a
    /// recovered engine replans when the saved one would have.
    pub policy: ReoptPolicy,
    pub catalog: Catalog,
    /// Views in registration order — recovery re-registers them in this
    /// order so the rebuilt DAG unifies identically.
    pub views: Vec<ViewDef>,
    pub base_tables: Vec<(TableId, StoredTable)>,
    /// Observed per-epoch (inserts, deletes) EMA rates.
    pub observed: Vec<(TableId, f64, f64)>,
    /// Queued-but-unapplied deltas as typed columnar batches.
    pub pending: Vec<(TableId, Batch, Batch)>,
    pub view_mats: Vec<ViewMatImage>,
    /// Sorted descriptions of the selection (materializations + indices)
    /// the old session had chosen — recovery compares its warm re-plan
    /// against this for the durability status report.
    pub selection: Vec<String>,
}

fn encode_tuple(e: &mut Enc, t: &[Value]) {
    e.u32(t.len() as u32);
    t.iter().for_each(|v| codec::encode_value(e, v));
}

fn decode_tuple(d: &mut Dec) -> Result<Tuple, CodecError> {
    let n = d.count(1)?;
    (0..n).map(|_| codec::decode_value(d)).collect()
}

fn encode_opt_value(e: &mut Enc, v: &Option<Value>) {
    match v {
        None => e.u8(0),
        Some(v) => {
            e.u8(1);
            codec::encode_value(e, v);
        }
    }
}

fn decode_opt_value(d: &mut Dec) -> Result<Option<Value>, CodecError> {
    Ok(match d.u8()? {
        0 => None,
        1 => Some(codec::decode_value(d)?),
        t => return Err(CodecError::Invalid(format!("option flag {t}"))),
    })
}

fn encode_agg_state(e: &mut Enc, st: &AggState) {
    e.u32(st.group_by.len() as u32);
    st.group_by.iter().for_each(|a| e.u32(a.0));
    e.u32(st.specs.len() as u32);
    st.specs.iter().for_each(|s| codec::encode_agg_spec(e, s));
    codec::encode_schema(e, &st.input_schema);
    // Deterministic group order: sort by key.
    let mut groups: Vec<_> = st.group_entries().collect();
    groups.sort_by_key(|(a, _, _)| *a);
    e.u32(groups.len() as u32);
    for (key, rows, accs) in groups {
        encode_tuple(e, key);
        e.i64(rows);
        e.u32(accs.len() as u32);
        for acc in accs {
            let (func, count, sum, all_int, min, max) = acc.to_parts();
            codec::encode_agg_func(e, func);
            e.i64(count);
            e.f64(sum);
            e.bool(all_int);
            encode_opt_value(e, &min);
            encode_opt_value(e, &max);
        }
    }
}

fn decode_agg_state(d: &mut Dec) -> Result<AggState, CodecError> {
    use mvmqo_relalg::agg::Accumulator;
    use mvmqo_relalg::schema::AttrId;
    let ng = d.count(4)?;
    let group_by = (0..ng)
        .map(|_| d.u32().map(AttrId))
        .collect::<Result<Vec<_>, _>>()?;
    let ns = d.count(6)?;
    let specs = (0..ns)
        .map(|_| codec::decode_agg_spec(d))
        .collect::<Result<Vec<_>, _>>()?;
    let input_schema = codec::decode_schema(d)?;
    let ngroups = d.count(8)?;
    let mut groups = Vec::with_capacity(ngroups);
    for _ in 0..ngroups {
        let key = decode_tuple(d)?;
        let rows = d.i64()?;
        let na = d.count(20)?;
        let accs = (0..na)
            .map(|_| {
                Ok(Accumulator::from_parts(
                    codec::decode_agg_func(d)?,
                    d.i64()?,
                    d.f64()?,
                    d.bool()?,
                    decode_opt_value(d)?,
                    decode_opt_value(d)?,
                ))
            })
            .collect::<Result<Vec<_>, CodecError>>()?;
        groups.push((key, rows, accs));
    }
    Ok(AggState::from_parts(group_by, specs, input_schema, groups))
}

fn encode_distinct_state(e: &mut Enc, st: &DistinctState) {
    let mut entries: Vec<_> = st.count_entries().collect();
    entries.sort_by_key(|(a, _)| *a);
    e.u32(entries.len() as u32);
    for (row, count) in entries {
        encode_tuple(e, row);
        e.i64(count);
    }
}

fn decode_distinct_state(d: &mut Dec) -> Result<DistinctState, CodecError> {
    let n = d.count(12)?;
    let entries = (0..n)
        .map(|_| Ok((decode_tuple(d)?, d.i64()?)))
        .collect::<Result<Vec<_>, CodecError>>()?;
    Ok(DistinctState::from_parts(entries))
}

/// `Err` naming `what` unless `v` fits `column`'s type `t` (NULL fits any
/// type).
fn check_fits(what: &str, v: &Value, column: &str, t: DataType) -> Result<(), String> {
    match v.data_type() {
        Some(got) if got != t => Err(format!(
            "{what} {v} is {got}, but column {column} holds {t}"
        )),
        _ => Ok(()),
    }
}

/// Check a decoded aggregate support state against `schema`, the layout of
/// the view it maintains: its group keys, then one output per aggregate.
/// Every group-key value and every finished aggregate must fit its output
/// column, and every accumulator extreme the aggregate's input type.
/// Recovery runs this before it installs the state, so a mistyped value in
/// a CRC-valid snapshot fails `recover` instead of `Column::push` at the
/// next epoch.
pub(crate) fn check_agg_state(st: &AggState, schema: &Schema) -> Result<(), String> {
    let attrs = schema.attrs();
    let (nkeys, naggs) = (st.group_by.len(), st.specs.len());
    if attrs.len() != nkeys + naggs {
        return Err(format!(
            "aggregate state of {nkeys} keys and {naggs} aggregates for {} columns",
            attrs.len()
        ));
    }
    let (key_attrs, out_attrs) = attrs.split_at(nkeys);
    for (key, _, accs) in st.group_entries() {
        if key.len() != nkeys || accs.len() != naggs {
            return Err(format!(
                "aggregate group of {} keys and {} accumulators",
                key.len(),
                accs.len()
            ));
        }
        for (v, a) in key.iter().zip(key_attrs) {
            check_fits("group key", v, &a.name, a.data_type)?;
        }
        for ((acc, spec), a) in accs.iter().zip(&st.specs).zip(out_attrs) {
            check_fits("aggregate value", &acc.finish(), &a.name, a.data_type)?;
            if let Some(input) = spec.input.result_type(&st.input_schema) {
                let (_, _, _, _, min, max) = acc.to_parts();
                for v in min.iter().chain(&max) {
                    check_fits("accumulator extreme", v, &a.name, input)?;
                }
            }
        }
    }
    Ok(())
}

/// Check a decoded DISTINCT support state against `schema`, the layout of
/// the view it maintains (see [`check_agg_state`]).
pub(crate) fn check_distinct_state(st: &DistinctState, schema: &Schema) -> Result<(), String> {
    for (row, _) in st.count_entries() {
        if row.len() != schema.len() {
            return Err(format!(
                "distinct row of {} values for {} columns",
                row.len(),
                schema.len()
            ));
        }
        for (v, a) in row.iter().zip(schema.attrs()) {
            check_fits("distinct value", v, &a.name, a.data_type)?;
        }
    }
    Ok(())
}

impl SnapshotData {
    /// The snapshot body, encoded into `buf` (cleared first; pass the
    /// previous body to reuse its memory).
    pub fn encode(&self, buf: Vec<u8>) -> Vec<u8> {
        let mut e = Enc::with_buffer(buf);
        e.u64(self.epoch);
        e.u64(self.ingested_since_plan);
        e.f64(self.policy.delta_fraction);
        e.f64(self.policy.cost_ratio);
        codec::encode_catalog(&mut e, &self.catalog);

        e.u32(self.views.len() as u32);
        self.views
            .iter()
            .for_each(|v| codec::encode_view_def(&mut e, v));

        e.u32(self.base_tables.len() as u32);
        for (t, table) in &self.base_tables {
            e.u32(t.0);
            encode_stored_table(&mut e, table);
        }

        e.u32(self.observed.len() as u32);
        for (t, ins, del) in &self.observed {
            e.u32(t.0);
            e.f64(*ins);
            e.f64(*del);
        }

        e.u32(self.pending.len() as u32);
        for (t, inserts, deletes) in &self.pending {
            e.u32(t.0);
            codec::encode_batch(&mut e, inserts);
            codec::encode_batch(&mut e, deletes);
        }

        e.u32(self.view_mats.len() as u32);
        for m in &self.view_mats {
            e.str(&m.name);
            e.bool(m.fresh);
            encode_stored_table(&mut e, &m.table);
            match &m.agg {
                None => e.u8(0),
                Some(st) => {
                    e.u8(1);
                    encode_agg_state(&mut e, st);
                }
            }
            match &m.distinct {
                None => e.u8(0),
                Some(st) => {
                    e.u8(1);
                    encode_distinct_state(&mut e, st);
                }
            }
        }

        e.u32(self.selection.len() as u32);
        self.selection.iter().for_each(|s| e.str(s));
        e.into_bytes()
    }

    pub fn decode(body: &[u8]) -> Result<SnapshotData, CodecError> {
        let mut d = Dec::new(body);
        let epoch = d.u64()?;
        let ingested_since_plan = d.u64()?;
        let policy = ReoptPolicy {
            delta_fraction: d.f64()?,
            cost_ratio: d.f64()?,
        };
        let catalog = codec::decode_catalog(&mut d)?;

        let nv = d.count(4)?;
        let views = (0..nv)
            .map(|_| codec::decode_view_def(&mut d))
            .collect::<Result<Vec<_>, _>>()?;

        let nb = d.count(8)?;
        let base_tables = (0..nb)
            .map(|_| Ok((TableId(d.u32()?), decode_stored_table(&mut d)?)))
            .collect::<Result<Vec<_>, CodecError>>()?;

        let no = d.count(20)?;
        let observed = (0..no)
            .map(|_| Ok((TableId(d.u32()?), d.f64()?, d.f64()?)))
            .collect::<Result<Vec<_>, CodecError>>()?;

        let np = d.count(4)?;
        let pending = (0..np)
            .map(|_| {
                Ok((
                    TableId(d.u32()?),
                    codec::decode_batch(&mut d)?,
                    codec::decode_batch(&mut d)?,
                ))
            })
            .collect::<Result<Vec<_>, CodecError>>()?;

        let nm = d.count(10)?;
        let mut view_mats = Vec::with_capacity(nm);
        for _ in 0..nm {
            let name = d.str()?;
            let fresh = d.bool()?;
            let table = decode_stored_table(&mut d)?;
            let agg = match d.u8()? {
                0 => None,
                1 => Some(decode_agg_state(&mut d)?),
                t => return Err(CodecError::Invalid(format!("agg flag {t}"))),
            };
            let distinct = match d.u8()? {
                0 => None,
                1 => Some(decode_distinct_state(&mut d)?),
                t => return Err(CodecError::Invalid(format!("distinct flag {t}"))),
            };
            view_mats.push(ViewMatImage {
                name,
                fresh,
                table,
                agg,
                distinct,
            });
        }

        let nsel = d.count(4)?;
        let selection = (0..nsel).map(|_| d.str()).collect::<Result<Vec<_>, _>>()?;

        if !d.is_empty() {
            return Err(CodecError::Invalid(format!(
                "{} trailing bytes after snapshot body",
                d.remaining()
            )));
        }
        Ok(SnapshotData {
            epoch,
            ingested_since_plan,
            policy,
            catalog,
            views,
            base_tables,
            observed,
            pending,
            view_mats,
            selection,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvmqo_relalg::schema::Schema;

    fn empty_snapshot() -> SnapshotData {
        SnapshotData {
            epoch: 3,
            ingested_since_plan: 0,
            policy: ReoptPolicy::default(),
            catalog: Catalog::new(),
            views: Vec::new(),
            base_tables: Vec::new(),
            observed: Vec::new(),
            pending: Vec::new(),
            view_mats: Vec::new(),
            selection: Vec::new(),
        }
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let got = SnapshotData::decode(&empty_snapshot().encode(Vec::new())).unwrap();
        assert_eq!(got.epoch, 3);
        assert!(got.view_mats.is_empty());
    }

    #[test]
    fn the_policy_roundtrips() {
        let mut data = empty_snapshot();
        data.policy = ReoptPolicy {
            delta_fraction: 0.05,
            cost_ratio: f64::INFINITY,
        };
        let got = SnapshotData::decode(&data.encode(Vec::new())).unwrap();
        assert_eq!(got.policy.delta_fraction, 0.05);
        assert_eq!(got.policy.cost_ratio, f64::INFINITY);
    }

    /// Every count prefix in the body is bounded by the bytes left, so a
    /// CRC-valid image with a crafted `u32::MAX` count is a decode error
    /// rather than a multi-gigabyte allocation that aborts the process.
    #[test]
    fn crafted_view_mat_count_is_an_error() {
        let mut bytes = empty_snapshot().encode(Vec::new());
        // The body ends in the view-mat count, then the selection count.
        let at = bytes.len() - 8;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(SnapshotData::decode(&bytes).is_err());
    }

    #[test]
    fn crafted_group_count_is_an_error() {
        let mut e = Enc::new();
        e.u32(0); // group-by attributes
        e.u32(0); // aggregate specs
        codec::encode_schema(&mut e, &Schema::default());
        e.u32(u32::MAX); // groups
        let bytes = e.into_bytes();
        assert!(decode_agg_state(&mut Dec::new(&bytes)).is_err());

        let mut e = Enc::new();
        e.u32(u32::MAX); // distinct rows
        let bytes = e.into_bytes();
        assert!(decode_distinct_state(&mut Dec::new(&bytes)).is_err());

        let mut e = Enc::new();
        e.u32(u32::MAX); // tuple width
        let bytes = e.into_bytes();
        assert!(decode_tuple(&mut Dec::new(&bytes)).is_err());
    }
}
