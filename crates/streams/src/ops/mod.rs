//! The two stateful stream processors of Section 3 that the runtime wraps:
//! Join (⋈) and Duplicate-removal.  Select (σ), Restructure (Π) and
//! Union (∪) are evaluated directly by `p2pmon-core`'s runtime operators.

pub mod dedup;
pub mod join;

pub use dedup::Dedup;
pub use join::{Join, JoinSpec, Window};
