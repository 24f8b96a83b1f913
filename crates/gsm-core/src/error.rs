//! Error types shared across the workspace.

use std::fmt;

/// Convenience result alias using [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while building, parsing or registering query graph patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The query graph pattern contains no edges.
    EmptyQuery,
    /// The query graph pattern is not weakly connected.
    DisconnectedQuery,
    /// The textual pattern could not be parsed; the payload explains why.
    Parse(String),
    /// A query identifier was used that the engine does not know about.
    UnknownQuery(u32),
    /// A query was registered twice with the same identifier.
    DuplicateQuery(u32),
    /// The engine configuration is invalid (e.g. a zero-sized budget).
    InvalidConfig(String),
    /// The engine does not implement
    /// [`crate::engine::ContinuousEngine::unregister_query`]; the payload is
    /// the engine's name. Every production engine in this workspace supports
    /// unregistration — this is the trait default for toy and
    /// special-purpose engines that opt out of the dynamic query lifecycle.
    UnsupportedUnregister(&'static str),
    /// A durable-storage operation (write-ahead log append, fsync,
    /// checkpoint write, recovery read) failed or found corrupt data. The
    /// fields locate the failure: the storage path it happened on, the byte
    /// offset within that storage, and a human-readable detail. Persistence
    /// layers must surface this variant instead of panicking or silently
    /// dropping data; a WAL reader hitting a torn tail is *not* an error
    /// (recovery truncates and continues), but a failing backend is.
    Persistence {
        /// Path (or backend label) of the storage the failure occurred on.
        path: String,
        /// Byte offset within the storage at which the failure occurred.
        offset: u64,
        /// Human-readable failure description.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyQuery => write!(f, "query graph pattern has no edges"),
            Error::DisconnectedQuery => {
                write!(f, "query graph pattern must be weakly connected")
            }
            Error::Parse(msg) => write!(f, "failed to parse query pattern: {msg}"),
            Error::UnknownQuery(id) => write!(f, "unknown query identifier {id}"),
            Error::DuplicateQuery(id) => write!(f, "query identifier {id} already registered"),
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::UnsupportedUnregister(engine) => {
                write!(f, "engine {engine} does not support unregister_query")
            }
            Error::Persistence {
                path,
                offset,
                detail,
            } => write!(f, "persistence failure at {path}+{offset}: {detail}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        assert_eq!(
            Error::EmptyQuery.to_string(),
            "query graph pattern has no edges"
        );
        assert!(Error::Parse("bad arrow".into())
            .to_string()
            .contains("bad arrow"));
        assert!(Error::UnknownQuery(7).to_string().contains('7'));
    }

    #[test]
    fn persistence_error_carries_path_and_offset() {
        let e = Error::Persistence {
            path: "/tmp/wal-0.log".into(),
            offset: 4096,
            detail: "short write: 12 of 64 bytes".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("/tmp/wal-0.log"), "{msg}");
        assert!(msg.contains("4096"), "{msg}");
        assert!(msg.contains("short write"), "{msg}");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::EmptyQuery, Error::EmptyQuery);
        assert_ne!(Error::EmptyQuery, Error::DisconnectedQuery);
    }
}
