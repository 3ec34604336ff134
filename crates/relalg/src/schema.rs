//! Attribute identities and schemas.
//!
//! Every base-table column receives a globally unique [`AttrId`] when the
//! table is registered in the catalog; derived attributes (aggregate outputs)
//! receive fresh ids. Predicates, projections, and grouping lists refer to
//! attributes **by id, never by position**, so a logical expression keeps its
//! meaning under join reordering — the property the AND-OR DAG's
//! hashing-based duplicate detection and unification rely on (DESIGN.md §5.1).

use crate::types::DataType;
use std::fmt;

/// Globally unique attribute identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u32);

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// A named, typed attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    pub id: AttrId,
    /// Qualified display name, e.g. `lineitem.l_orderkey` or `sum_revenue`.
    pub name: String,
    pub data_type: DataType,
}

/// An ordered list of attributes: the output shape of a (sub)expression.
///
/// Order matters for positional tuple layout at execution time; set-wise
/// equality (ignoring order) is what logical-property comparison uses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    attrs: Vec<Attribute>,
}

impl Schema {
    pub fn new(attrs: Vec<Attribute>) -> Self {
        debug_assert!(
            {
                let mut ids: Vec<_> = attrs.iter().map(|a| a.id).collect();
                ids.sort_unstable();
                ids.windows(2).all(|w| w[0] != w[1])
            },
            "schema must not contain duplicate attribute ids"
        );
        Schema { attrs }
    }

    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Position of an attribute in the tuple layout.
    pub fn position_of(&self, id: AttrId) -> Option<usize> {
        self.attrs.iter().position(|a| a.id == id)
    }

    /// Attribute metadata by id.
    pub fn attr(&self, id: AttrId) -> Option<&Attribute> {
        self.attrs.iter().find(|a| a.id == id)
    }

    /// Attribute metadata by (qualified) name.
    pub fn attr_by_name(&self, name: &str) -> Option<&Attribute> {
        self.attrs.iter().find(|a| a.name == name)
    }

    /// True if this schema contains every attribute id in `ids`.
    pub fn contains_all(&self, ids: &[AttrId]) -> bool {
        ids.iter().all(|id| self.position_of(*id).is_some())
    }

    /// Ids in layout order.
    pub fn ids(&self) -> Vec<AttrId> {
        self.attrs.iter().map(|a| a.id).collect()
    }

    /// Estimated row width in bytes (sum of per-type widths), used by the
    /// block/buffer cost accounting.
    pub fn row_width(&self) -> usize {
        self.attrs
            .iter()
            .map(|a| a.data_type.estimated_width())
            .sum()
    }

    /// Schema of the concatenation of two inputs (join output).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut attrs = self.attrs.clone();
        attrs.extend(other.attrs.iter().cloned());
        Schema::new(attrs)
    }

    /// Sub-schema restricted to `ids`, in the order given.
    pub fn select_ids(&self, ids: &[AttrId]) -> Schema {
        Schema::new(
            ids.iter()
                .map(|id| {
                    self.attr(*id)
                        .unwrap_or_else(|| panic!("attribute {id} not in schema"))
                        .clone()
                })
                .collect(),
        )
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}:{}", a.name, a.data_type)?;
        }
        write!(f, ")")
    }
}

/// Allocates fresh [`AttrId`]s. The catalog owns one; tests may own their own.
#[derive(Debug, Clone, Default)]
pub struct AttrAllocator {
    next: u32,
}

impl AttrAllocator {
    pub fn new() -> Self {
        Self::default()
    }

    /// An allocator that resumes after `next` ids were already handed out
    /// (recovery restores the persisted counter so fresh ids never collide
    /// with attributes loaded from a snapshot).
    pub fn starting_at(next: u32) -> Self {
        AttrAllocator { next }
    }

    pub fn fresh(&mut self) -> AttrId {
        let id = AttrId(self.next);
        self.next += 1;
        id
    }

    /// Never hand out `id` (or any id below it) from now on.
    pub fn reserve(&mut self, id: AttrId) {
        self.next = self.next.max(id.0.saturating_add(1));
    }

    /// Number of ids handed out so far.
    pub fn allocated(&self) -> u32 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(id: u32, name: &str, dt: DataType) -> Attribute {
        Attribute {
            id: AttrId(id),
            name: name.to_string(),
            data_type: dt,
        }
    }

    fn sample() -> Schema {
        Schema::new(vec![
            attr(0, "t.a", DataType::Int),
            attr(1, "t.b", DataType::Str),
            attr(2, "t.c", DataType::Float),
        ])
    }

    #[test]
    fn position_and_lookup() {
        let s = sample();
        assert_eq!(s.position_of(AttrId(1)), Some(1));
        assert_eq!(s.attr(AttrId(2)).unwrap().name, "t.c");
        assert_eq!(s.attr_by_name("t.a").unwrap().id, AttrId(0));
        assert!(s.position_of(AttrId(9)).is_none());
    }

    #[test]
    fn contains_all_checks_every_id() {
        let s = sample();
        assert!(s.contains_all(&[AttrId(0), AttrId(2)]));
        assert!(!s.contains_all(&[AttrId(0), AttrId(7)]));
    }

    #[test]
    fn row_width_sums_type_widths() {
        assert_eq!(sample().row_width(), 8 + 24 + 8);
    }

    #[test]
    fn concat_preserves_order() {
        let s = sample();
        let other = Schema::new(vec![attr(10, "u.x", DataType::Int)]);
        let joined = s.concat(&other);
        assert_eq!(joined.len(), 4);
        assert_eq!(joined.attrs()[3].id, AttrId(10));
    }

    #[test]
    fn select_ids_reorders() {
        let s = sample();
        let sub = s.select_ids(&[AttrId(2), AttrId(0)]);
        assert_eq!(sub.ids(), vec![AttrId(2), AttrId(0)]);
    }

    #[test]
    fn allocator_is_monotonic() {
        let mut alloc = AttrAllocator::new();
        let a = alloc.fresh();
        let b = alloc.fresh();
        assert_ne!(a, b);
        assert_eq!(alloc.allocated(), 2);
    }

    #[test]
    #[should_panic(expected = "not in schema")]
    fn select_ids_panics_on_missing() {
        sample().select_ids(&[AttrId(42)]);
    }
}
