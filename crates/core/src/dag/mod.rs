//! The AND-OR DAG (§4 of the paper): representation, construction with
//! eager unification, expansion to all join orders with selections pushed
//! down, and subsumption derivations.

pub mod build;
pub mod node;
pub mod subsume;

pub(crate) use build::join_stats;
pub use build::{spj_schema, Dag, DagRoot};
pub use node::{DerivedSig, EqId, EqNode, OpId, OpKind, OpNode, SemKey};
pub use subsume::{add_subsumption_derivations_incremental, SubsumeState, SubsumptionReport};
