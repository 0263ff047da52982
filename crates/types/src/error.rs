//! Workspace-wide error type.

use crate::ids::{Oid, PartitionId};
use crate::units::Bytes;
use std::fmt;

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, PgcError>;

/// Errors surfaced by the storage model, database, collector, and trace
/// codec.
///
/// The simulator is deliberately strict: operations on unknown objects or
/// malformed configurations are reported as errors rather than silently
/// ignored, because a trace that references a reclaimed object indicates a
/// bug in either the workload generator or the collector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PgcError {
    /// A configuration constraint was violated (see
    /// [`crate::config::DbConfig::validate`]).
    InvalidConfig(&'static str),
    /// An operation referenced an object id that is not (or is no longer)
    /// present in the object table.
    UnknownObject(Oid),
    /// A replayed workload event referenced a node index that was never
    /// materialised as an object (the payload is the raw node index, not
    /// an [`Oid`] — the two id spaces are unrelated).
    UnknownNode(u64),
    /// An operation referenced a slot index beyond the object's slot count.
    SlotOutOfRange {
        /// The object whose slots were indexed.
        oid: Oid,
        /// The offending slot index.
        slot: u16,
        /// How many slots the object actually has.
        len: usize,
    },
    /// An object was too large to ever fit in a partition.
    ObjectTooLarge {
        /// Requested object size.
        size: Bytes,
        /// Capacity of one partition.
        partition_capacity: Bytes,
    },
    /// An operation referenced a partition id that does not exist.
    UnknownPartition(PartitionId),
    /// An object was registered while `u32::MAX` objects were live, the
    /// most the object table indexes.
    TooManyObjects,
    /// The collector was asked to collect the designated empty partition.
    CollectEmptyPartition(PartitionId),
    /// A byte format read back was malformed, truncated or of an
    /// unsupported version: a trace file or buffer, a change-log segment,
    /// a snapshot generation or a manifest. The message names which.
    TraceFormat(String),
    /// An I/O error from reading or writing a trace file.
    TraceIo(String),
    /// A sharded-runtime session error: an unknown or duplicate stream,
    /// or a shard worker that went away.
    Session(String),
}

impl fmt::Display for PgcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PgcError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PgcError::UnknownObject(oid) => write!(f, "unknown object {oid}"),
            PgcError::UnknownNode(index) => {
                write!(f, "workload node n#{index} has no materialised object")
            }
            PgcError::SlotOutOfRange { oid, slot, len } => {
                write!(f, "slot s{slot} out of range for {oid} (has {len} slots)")
            }
            PgcError::ObjectTooLarge {
                size,
                partition_capacity,
            } => write!(
                f,
                "object of {size} cannot fit in a partition of {partition_capacity}"
            ),
            PgcError::UnknownPartition(p) => write!(f, "unknown partition {p}"),
            PgcError::TooManyObjects => {
                write!(f, "more than {} live objects", u32::MAX)
            }
            PgcError::CollectEmptyPartition(p) => {
                write!(
                    f,
                    "cannot collect {p}: it is the designated empty partition"
                )
            }
            PgcError::TraceFormat(msg) => write!(f, "malformed bytes: {msg}"),
            PgcError::TraceIo(msg) => write!(f, "trace I/O error: {msg}"),
            PgcError::Session(msg) => write!(f, "session error: {msg}"),
        }
    }
}

impl std::error::Error for PgcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_offender() {
        let e = PgcError::UnknownObject(Oid(9));
        assert_eq!(e.to_string(), "unknown object o#9");

        let e = PgcError::SlotOutOfRange {
            oid: Oid(3),
            slot: 5,
            len: 2,
        };
        assert!(e.to_string().contains("s5"));
        assert!(e.to_string().contains("o#3"));
        assert!(e.to_string().contains("2 slots"));

        let e = PgcError::ObjectTooLarge {
            size: Bytes::from_kib(512),
            partition_capacity: Bytes::from_kib(384),
        };
        assert!(e.to_string().contains("512KiB"));
        assert!(e.to_string().contains("384KiB"));

        let e = PgcError::CollectEmptyPartition(PartitionId(4));
        assert!(e.to_string().contains("P4"));

        let e = PgcError::UnknownNode(99);
        assert!(e.to_string().contains("n#99"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&PgcError::InvalidConfig("x"));
    }
}
