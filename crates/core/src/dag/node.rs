//! AND-OR DAG node types.
//!
//! Following §4 of the paper: *equivalence nodes* (OR-nodes) represent a set
//! of logical expressions producing the same result; *operation nodes*
//! (AND-nodes) represent one algebraic operation whose inputs are equivalence
//! nodes. Every operation node has exactly one parent equivalence node; an
//! equivalence node may be input to many operation nodes.

use mvmqo_relalg::agg::AggSpec;
use mvmqo_relalg::catalog::TableId;
use mvmqo_relalg::expr::Predicate;
use mvmqo_relalg::schema::{AttrId, Schema};
use mvmqo_relalg::stats::RelStats;
use std::fmt;

/// Identifies an equivalence (OR) node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EqId(pub u32);

impl fmt::Display for EqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Identifies an operation (AND) node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// The algebraic operation of an operation node. Children (equivalence-node
/// inputs) are stored on the [`OpNode`], not here, so `OpKind` is the
/// hashable "what does it compute" part of the op signature.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Scan of a base table (leaf; relation scans are explicit operations
    /// with a cost, per §5.1 footnote 4).
    Scan(TableId),
    /// Multiset selection.
    Select { pred: Predicate },
    /// Multiset projection.
    Project { attrs: Vec<AttrId> },
    /// Inner join; `pred` holds only the conjuncts spanning both inputs
    /// (side-local conjuncts are pushed into the child equivalence nodes'
    /// keys). An empty predicate is a cross product.
    Join { pred: Predicate },
    /// Group-by aggregation.
    Aggregate {
        group_by: Vec<AttrId>,
        aggs: Vec<AggSpec>,
    },
    /// Additive multiset union.
    UnionAll,
    /// Multiset difference (monus); children are ordered.
    Minus,
    /// Duplicate elimination.
    Distinct,
}

impl OpKind {
    /// Short operator name for display/tracing.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Scan(_) => "Scan",
            OpKind::Select { .. } => "Select",
            OpKind::Project { .. } => "Project",
            OpKind::Join { .. } => "Join",
            OpKind::Aggregate { .. } => "Aggregate",
            OpKind::UnionAll => "UnionAll",
            OpKind::Minus => "Minus",
            OpKind::Distinct => "Distinct",
        }
    }
}

/// An operation (AND) node.
#[derive(Debug, Clone)]
pub struct OpNode {
    pub id: OpId,
    pub kind: OpKind,
    /// Input equivalence nodes. Join children are stored in canonical
    /// order (the side containing the smallest base table first); physical
    /// costing considers both operand roles, which is how the paper leaves
    /// commutativity implicit (Figure 1 caption).
    pub children: Vec<EqId>,
    /// The equivalence node this operation computes.
    pub parent: EqId,
    /// What physical costing reads off the op's predicate, derived once.
    pub(crate) facts: OpFacts,
}

/// Static facts about an operation: functions of its kind and its
/// children's schemas, derived once when the op is created. Physical
/// costing (§5.1) visits every alternative op on every slot recompute; it
/// reads these instead of re-deriving them from the predicate.
#[derive(Debug, Clone, Default)]
pub(crate) struct OpFacts {
    /// Join: the equi-join key pairs, in conjunct order, oriented
    /// `(left attr, right attr)` at index 0 and `(right attr, left attr)` at
    /// index 1 (left/right = the op's canonical child order).
    pub(crate) join_keys: [Vec<(AttrId, AttrId)>; 2],
    /// Select: each single-attribute equality conjunct (`attr = literal`)
    /// as a one-conjunct predicate, in conjunct order — the paths an index
    /// selection can probe (indices are hash indices: equality only).
    pub(crate) eq_probes: Vec<(AttrId, Predicate)>,
}

/// Semantic key of an equivalence node — the identity that hashing-based
/// duplicate detection and unification (§4.2) compare.
///
/// For the select-project-join fragment the key is *(base-table set, applied
/// predicate)*: every reordering/pushdown variant of the same SPJ expression
/// has the same key, so equivalent nodes are unified eagerly at construction.
/// Other operators key on their parameters plus the canonical ids of their
/// children.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SemKey {
    /// Select-project-join fragment over a set of base tables with a set of
    /// applied conjuncts (both canonically ordered).
    Spj {
        tables: Vec<TableId>,
        preds: Predicate,
    },
    /// Non-SPJ operator applied to canonical children.
    Derived {
        sig: DerivedSig,
        children: Vec<EqId>,
    },
}

/// The parameter part of a non-SPJ operator's key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DerivedSig {
    Select(Predicate),
    Project(Vec<AttrId>),
    Aggregate {
        group_by: Vec<AttrId>,
        aggs: Vec<AggSpec>,
    },
    UnionAll,
    Minus,
    Distinct,
}

/// An equivalence (OR) node.
#[derive(Debug, Clone)]
pub struct EqNode {
    pub id: EqId,
    pub key: SemKey,
    /// Alternative operations computing this result.
    pub children: Vec<OpId>,
    /// Operations that consume this result (for upward cost propagation —
    /// the incremental cost update of §6.2 walks these edges).
    pub parents: Vec<OpId>,
    /// Output schema in canonical attribute order.
    pub schema: Schema,
    /// Base tables this node depends on (sorted). A node's differential
    /// w.r.t. updates on a relation outside this set is empty (§5.2).
    pub base_tables: Vec<TableId>,
    /// Statistics of the result in the *pre-update* database state.
    pub stats_old: RelStats,
    /// Row width of `schema` in bytes — the width every cost formula of
    /// this node takes.
    pub(crate) width: usize,
    /// The base table this node *is* (scan result, no predicate).
    pub(crate) relation: Option<TableId>,
    /// True for aggregate/distinct results, which are stored keyed by
    /// groups (merge behaviour and delta costing differ, §3.1.2).
    pub(crate) grouped: bool,
    /// SPJ nodes over two or more tables: the join op whose inputs their
    /// statistics derive from — the node over all tables but the last
    /// (with the conjuncts those cover) joined with the last table's
    /// selection. Statistics fold tables in id order, so joining the two
    /// inputs' statistics *is* that fold; the state sequence of §5.2
    /// re-derives one join per state instead of folding every table.
    pub(crate) stats_join: Option<OpId>,
}

impl EqNode {
    /// True if this node *is* a base relation (scan result, no predicate).
    pub fn is_base_relation(&self) -> bool {
        self.relation.is_some()
    }

    /// True if the node depends on `table`.
    pub fn depends_on(&self, table: TableId) -> bool {
        self.base_tables.binary_search(&table).is_ok()
    }

    /// The single base table, when this is a base relation node.
    pub fn as_base_table(&self) -> Option<TableId> {
        self.relation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semkey_spj_equality_ignores_construction_order() {
        // Keys are built from canonically sorted parts, so two equal sets
        // compare equal however they were assembled.
        let k1 = SemKey::Spj {
            tables: vec![TableId(1), TableId(2)],
            preds: Predicate::true_(),
        };
        let k2 = SemKey::Spj {
            tables: vec![TableId(1), TableId(2)],
            preds: Predicate::true_(),
        };
        assert_eq!(k1, k2);
    }

    #[test]
    fn opkind_names() {
        assert_eq!(OpKind::Scan(TableId(0)).name(), "Scan");
        assert_eq!(OpKind::UnionAll.name(), "UnionAll");
        assert_eq!(
            OpKind::Select {
                pred: Predicate::true_()
            }
            .name(),
            "Select"
        );
    }

    #[test]
    fn ids_are_ordered_and_display() {
        assert!(EqId(1) < EqId(2));
        assert!(OpId(0) < OpId(5));
        assert_eq!(EqId(3).to_string(), "e3");
        assert_eq!(OpId(4).to_string(), "o4");
    }
}
