//! The workspace-wide error type.
//!
//! Kept deliberately small: variants map to the layers of the system so that
//! callers can tell a codec problem from a protocol-state problem from an
//! infrastructure problem without string matching.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, XsecError>;

/// Errors produced anywhere in the 6G-XSec stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XsecError {
    /// A wire message could not be decoded (truncated, bad tag, bad length).
    Codec(String),
    /// An E2/RIC subscription or routing problem.
    Ric(String),
    /// A model training or inference problem (shape mismatch, NaN loss...).
    Model(String),
    /// An I/O problem on a real transport (TCP E2 termination).
    Io(String),
}

impl XsecError {
    /// Short stable category tag, used in logs and metrics.
    pub fn category(&self) -> &'static str {
        match self {
            XsecError::Codec(_) => "codec",
            XsecError::Ric(_) => "ric",
            XsecError::Model(_) => "model",
            XsecError::Io(_) => "io",
        }
    }
}

impl fmt::Display for XsecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            XsecError::Codec(m) | XsecError::Ric(m) | XsecError::Model(m) | XsecError::Io(m) => m,
        };
        write!(f, "{}: {}", self.category(), msg)
    }
}

impl std::error::Error for XsecError {}

impl From<std::io::Error> for XsecError {
    fn from(err: std::io::Error) -> Self {
        XsecError::Io(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_are_stable() {
        assert_eq!(XsecError::Codec("x".into()).category(), "codec");
        assert_eq!(XsecError::Ric("x".into()).category(), "ric");
        assert_eq!(XsecError::Model("x".into()).category(), "model");
    }

    #[test]
    fn display_includes_category_and_message() {
        let err = XsecError::Ric("RIC rejected the MobiFlow function".into());
        assert_eq!(err.to_string(), "ric: RIC rejected the MobiFlow function");
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "peer gone");
        let err: XsecError = io.into();
        assert_eq!(err.category(), "io");
        assert!(err.to_string().contains("peer gone"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&XsecError::Codec("truncated".into()));
    }
}
