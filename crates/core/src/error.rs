//! Engine error type.

use std::fmt;
use std::sync::Arc;

use nob_ext4::FsError;

/// Errors returned by [`Db`](crate::Db) and the on-disk format readers.
///
/// This is the workspace-wide error currency: crates layered above the
/// engine (`nob-store`, `nob-server`, `nob-chaos`, `nob-cli`, `nob-bench`)
/// re-export it as [`Error`] instead of defining per-crate stringly
/// errors, so `?` propagates across layers. (`nob-trace` and
/// `nob-metrics` sit *below* the engine in the dependency graph and are
/// infallible by design, so they have nothing to convert.)
#[derive(Debug, Clone)]
pub enum DbError {
    /// An underlying filesystem error.
    Fs(FsError),
    /// A checksum mismatch or malformed on-disk structure.
    Corruption(String),
    /// The database directory is missing required files.
    InvalidDb(String),
    /// The caller used an API incorrectly (bad argument, wrong state).
    /// Carried by the front-end layers (store routing, CLI dispatch).
    Usage(String),
    /// A real OS I/O error from the network boundary (`nob-server`'s TCP
    /// transport). The source is preserved behind an [`Arc`] so the error
    /// stays `Clone` while `source()` still walks the causal chain.
    Io(Arc<std::io::Error>),
    /// A replication-contract violation surfaced by `nob-repl`: a fenced
    /// leader refusing writes, a follower read exceeding its
    /// staleness bound, or a subscription gap that requires a
    /// re-subscribe. Carried here (not as a repl-local enum) so `?`
    /// propagates it through the store/server layers like every other
    /// engine error.
    Replication(String),
}

impl PartialEq for DbError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (DbError::Fs(a), DbError::Fs(b)) => a == b,
            (DbError::Corruption(a), DbError::Corruption(b)) => a == b,
            (DbError::InvalidDb(a), DbError::InvalidDb(b)) => a == b,
            (DbError::Usage(a), DbError::Usage(b)) => a == b,
            (DbError::Replication(a), DbError::Replication(b)) => a == b,
            // `std::io::Error` is not `PartialEq`; kind + message is the
            // closest stable identity and is what tests assert on.
            (DbError::Io(a), DbError::Io(b)) => {
                a.kind() == b.kind() && a.to_string() == b.to_string()
            }
            _ => false,
        }
    }
}

impl Eq for DbError {}

/// Workspace-wide alias for [`DbError`], the single error type shared by
/// every fallible layer above the simulator.
pub type Error = DbError;

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Fs(e) => write!(f, "filesystem error: {e}"),
            DbError::Corruption(m) => write!(f, "corruption: {m}"),
            DbError::InvalidDb(m) => write!(f, "invalid database: {m}"),
            DbError::Usage(m) => write!(f, "usage: {m}"),
            DbError::Io(e) => write!(f, "io error: {e}"),
            DbError::Replication(m) => write!(f, "replication: {m}"),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Fs(e) => Some(e),
            DbError::Io(e) => Some(&**e),
            _ => None,
        }
    }
}

impl From<FsError> for DbError {
    fn from(e: FsError) -> Self {
        DbError::Fs(e)
    }
}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(Arc::new(e))
    }
}

impl From<String> for DbError {
    /// Ad-hoc messages (legacy stringly call sites in the CLI and chaos
    /// harness) fold into [`DbError::Usage`] so `?` keeps working while
    /// those layers migrate.
    fn from(m: String) -> Self {
        DbError::Usage(m)
    }
}

impl From<&str> for DbError {
    fn from(m: &str) -> Self {
        DbError::Usage(m.to_string())
    }
}

#[cfg(test)]
mod tests {
    use std::error::Error as _;

    use super::*;

    #[test]
    fn displays_are_lowercase() {
        assert!(DbError::Corruption("bad crc".into()).to_string().starts_with("corruption"));
        assert!(DbError::InvalidDb("no CURRENT".into()).to_string().contains("no CURRENT"));
    }

    #[test]
    fn replication_errors_display_and_compare() {
        let e = DbError::Replication("write fenced at epoch 3".into());
        assert!(e.to_string().starts_with("replication:"), "{e}");
        assert_eq!(e, DbError::Replication("write fenced at epoch 3".into()));
        assert_ne!(e, DbError::Usage("write fenced at epoch 3".into()));
    }

    #[test]
    fn fs_error_converts_and_chains() {
        let e: DbError = FsError::StaleHandle.into();
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: std::error::Error + Send + Sync + 'static>() {}
        check::<DbError>();
    }

    #[test]
    fn io_error_converts_preserving_source() {
        let e: DbError = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "peer gone").into();
        assert!(e.to_string().contains("peer gone"));
        let src = e.source().expect("io source preserved");
        assert!(src.downcast_ref::<std::io::Error>().is_some());
    }

    #[test]
    fn io_errors_compare_by_kind_and_message() {
        let mk = || -> DbError {
            std::io::Error::new(std::io::ErrorKind::ConnectionReset, "reset").into()
        };
        assert_eq!(mk(), mk());
        let other: DbError =
            std::io::Error::new(std::io::ErrorKind::ConnectionReset, "other").into();
        assert_ne!(mk(), other);
        assert_ne!(mk(), DbError::Usage("reset".into()));
    }
}
