//! The analyst-round benchmark: drives `lte_serve::ScoringService` from
//! outside through closed-loop workloads, checks every output, and, in a
//! traced run, splits the round into its layers by replaying the service's
//! tick schedule through the public stage functions.

pub mod layers;
pub mod replay;
pub mod serve;
pub mod setup;
pub mod stats;
pub mod trace;
