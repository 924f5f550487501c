//! # psc-matcher
//!
//! Publication matching for content-based publish/subscribe, built around
//! the covered/uncovered split of Algorithm 5 in the Middleware 2006
//! subsumption paper:
//!
//! - [`CoveringStore`] — the paper's two-phase store and the service's
//!   matching engine: publications are matched against the *uncovered*
//!   (active) set first, and the covered set is consulted only on a hit;
//!   covered entries remember their covering parents so irrelevant checks
//!   are skipped (the paper's "multi-level" optimization).
//! - [`NaiveMatcher`] — flat linear scan over all subscriptions; the
//!   correctness reference.
//!
//! Both return the same match sets; differential tests in `tests/`
//! enforce that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod naive;
pub mod store;

pub use naive::NaiveMatcher;
pub use store::{
    CoverParents, CoveringStore, InsertOutcome, MatchStats, RestoreError, StoreStats, StoredEntry,
};
