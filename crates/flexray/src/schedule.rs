//! Message identifiers shared by the bus engine and the schedulers.

/// Identifier of a schedulable message, unique within a workload.
pub type MessageId = u32;
