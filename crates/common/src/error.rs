//! Error and result types shared across the workspace.

use std::fmt;

/// The error type used throughout LevelDB++.
///
/// Mirrors the `Status` categories of LevelDB: every fallible public
/// operation in the storage engine and index layers returns one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A requested key (or file) does not exist.
    NotFound(String),
    /// Stored data failed validation (bad magic, CRC mismatch, truncated
    /// block, malformed JSON, ...).
    Corruption(String),
    /// The operation is not supported in the current configuration, e.g.
    /// a `LOOKUP` on an attribute that has no index.
    NotSupported(String),
    /// The caller passed an argument that can never be valid, e.g. an empty
    /// key or an inverted range.
    InvalidArgument(String),
    /// An underlying I/O operation failed.
    Io(String),
    /// The storage device is out of space. Split from [`Error::Io`] so
    /// callers can distinguish a full disk (retryable after freeing space,
    /// never a data-integrity problem) from arbitrary I/O failures.
    NoSpace(String),
    /// The server (or a shared resource) is overloaded and shed this
    /// request. Transient by construction: the operation was *not*
    /// executed and may be retried after a backoff.
    Busy(String),
    /// An operation exceeded its deadline (socket read/write timeout,
    /// stalled peer). The outcome of the in-flight operation is unknown,
    /// so retries must be idempotent.
    Timeout(String),
    /// A message would exceed the wire protocol's frame bound. Definitive:
    /// resending the same request produces the same oversize message.
    TooLarge(String),
}

impl Error {
    /// True if this error is [`Error::NotFound`].
    pub fn is_not_found(&self) -> bool {
        matches!(self, Error::NotFound(_))
    }

    /// True if this error is [`Error::Corruption`].
    pub fn is_corruption(&self) -> bool {
        matches!(self, Error::Corruption(_))
    }

    /// Convenience constructor for [`Error::Corruption`].
    pub fn corruption(msg: impl Into<String>) -> Self {
        Error::Corruption(msg.into())
    }

    /// Convenience constructor for [`Error::InvalidArgument`].
    pub fn invalid(msg: impl Into<String>) -> Self {
        Error::InvalidArgument(msg.into())
    }

    /// Convenience constructor for [`Error::NotFound`].
    pub fn not_found(msg: impl Into<String>) -> Self {
        Error::NotFound(msg.into())
    }

    /// Convenience constructor for [`Error::NotSupported`].
    pub fn not_supported(msg: impl Into<String>) -> Self {
        Error::NotSupported(msg.into())
    }

    /// True if this error is [`Error::Io`].
    pub fn is_io(&self) -> bool {
        matches!(self, Error::Io(_))
    }

    /// Convenience constructor for [`Error::Io`].
    pub fn io(msg: impl Into<String>) -> Self {
        Error::Io(msg.into())
    }

    /// True if this error is [`Error::NoSpace`].
    pub fn is_no_space(&self) -> bool {
        matches!(self, Error::NoSpace(_))
    }

    /// Convenience constructor for [`Error::NoSpace`].
    pub fn no_space(msg: impl Into<String>) -> Self {
        Error::NoSpace(msg.into())
    }

    /// True if this error is [`Error::Busy`].
    pub fn is_busy(&self) -> bool {
        matches!(self, Error::Busy(_))
    }

    /// Convenience constructor for [`Error::Busy`].
    pub fn busy(msg: impl Into<String>) -> Self {
        Error::Busy(msg.into())
    }

    /// True if this error is [`Error::Timeout`].
    pub fn is_timeout(&self) -> bool {
        matches!(self, Error::Timeout(_))
    }

    /// Convenience constructor for [`Error::Timeout`].
    pub fn timeout(msg: impl Into<String>) -> Self {
        Error::Timeout(msg.into())
    }

    /// True if this error is [`Error::TooLarge`].
    pub fn is_too_large(&self) -> bool {
        matches!(self, Error::TooLarge(_))
    }

    /// Convenience constructor for [`Error::TooLarge`].
    pub fn too_large(msg: impl Into<String>) -> Self {
        Error::TooLarge(msg.into())
    }

    /// True if a client may safely retry the operation that produced this
    /// error (after reconnecting and backing off).
    ///
    /// `Busy` means the request was shed before execution; `Timeout` means
    /// the outcome is unknown, which is safe to retry only because writes
    /// carry idempotency ids (see the `ldbpp-proto` retry layer). All other
    /// categories are treated as fatal for the *request*: they describe a
    /// property of the arguments or of stored data that a retry cannot
    /// change.
    pub fn is_retryable(&self) -> bool {
        matches!(self, Error::Busy(_) | Error::Timeout(_))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NotFound(m) => write!(f, "not found: {m}"),
            Error::Corruption(m) => write!(f, "corruption: {m}"),
            Error::NotSupported(m) => write!(f, "not supported: {m}"),
            Error::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            Error::Io(m) => write!(f, "io error: {m}"),
            Error::NoSpace(m) => write!(f, "no space: {m}"),
            Error::Busy(m) => write!(f, "busy: {m}"),
            Error::Timeout(m) => write!(f, "timeout: {m}"),
            Error::TooLarge(m) => write!(f, "too large: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::NotFound {
            Error::NotFound(e.to_string())
        } else {
            Error::Io(e.to_string())
        }
    }
}

/// Result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_category() {
        assert_eq!(Error::NotFound("k1".into()).to_string(), "not found: k1");
        assert_eq!(
            Error::corruption("bad magic").to_string(),
            "corruption: bad magic"
        );
        assert_eq!(
            Error::invalid("empty key").to_string(),
            "invalid argument: empty key"
        );
        assert_eq!(Error::Io("disk".into()).to_string(), "io error: disk");
    }

    #[test]
    fn predicates() {
        assert!(Error::not_found("x").is_not_found());
        assert!(!Error::corruption("x").is_not_found());
        assert!(Error::corruption("x").is_corruption());
        assert!(!Error::not_found("x").is_corruption());
    }

    #[test]
    fn from_io_error_maps_not_found() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        assert!(Error::from(io).is_not_found());
        let io = std::io::Error::other("boom");
        assert!(matches!(Error::from(io), Error::Io(_)));
    }

    #[test]
    fn busy_and_timeout_are_retryable() {
        let b = Error::busy("shed");
        assert!(b.is_busy());
        assert!(b.is_retryable());
        assert!(!b.is_io());
        assert_eq!(b.to_string(), "busy: shed");
        let t = Error::timeout("read deadline");
        assert!(t.is_timeout());
        assert!(t.is_retryable());
        assert_eq!(t.to_string(), "timeout: read deadline");
        assert!(!Error::io("reset").is_retryable());
        assert!(!Error::corruption("crc").is_retryable());
        assert!(!Error::no_space("full").is_retryable());
        assert!(!Error::too_large("frame").is_retryable());
    }

    #[test]
    fn no_space_is_distinct_from_io() {
        let e = Error::no_space("device full");
        assert!(e.is_no_space());
        assert!(!e.is_io());
        assert!(!e.is_corruption());
        assert_eq!(e.to_string(), "no space: device full");
    }
}
