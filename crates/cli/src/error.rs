//! The CLI's error type: one enum every subcommand returns, so store,
//! network, and usage failures all flow through `?` without being
//! flattened to strings at each call site.

use ecfrm_net::NetError;
use ecfrm_store::StoreError;

/// Any failure a subcommand can surface.
#[derive(Debug)]
pub enum CliError {
    /// Bad flags, specs, or input shapes — the user's mistake.
    Usage(String),
    /// The object store failed (not found, data loss, decode, …).
    Store(StoreError),
    /// The network layer failed (timeouts, resets, remote errors).
    Net(NetError),
    /// A filesystem operation failed, with what we were doing.
    Io {
        /// What the CLI was doing when the error hit.
        context: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl CliError {
    /// Wrap an I/O error with a short description of the operation.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        CliError::Io {
            context: context.into(),
            source,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Store(e) => write!(f, "{e}"),
            CliError::Net(e) => write!(f, "{e}"),
            CliError::Io { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Store(e) => Some(e),
            CliError::Net(e) => Some(e),
            CliError::Io { source, .. } => Some(source),
            CliError::Usage(_) => None,
        }
    }
}

impl From<StoreError> for CliError {
    fn from(e: StoreError) -> Self {
        CliError::Store(e)
    }
}

impl From<NetError> for CliError {
    fn from(e: NetError) -> Self {
        CliError::Net(e)
    }
}

/// Parse-layer errors (`Options::parse`, spec parsing) are usage errors.
impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn displays_and_sources() {
        let e: CliError = StoreError::NoSuchDisk(3).into();
        assert!(e.to_string().contains("no such disk"));
        assert!(e.source().is_some());

        let e: CliError = NetError::Timeout.into();
        assert!(e.to_string().contains("timed out"));
        assert!(e.source().is_some());

        let e: CliError = String::from("missing required flag --dir").into();
        assert_eq!(e.to_string(), "missing required flag --dir");
        assert!(e.source().is_none());

        let e = CliError::io(
            "reading input.bin",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(e.to_string().starts_with("reading input.bin:"));
        assert!(e.source().is_some());
    }

    #[test]
    fn store_and_net_errors_convert_into_each_other() {
        // Both conversions live in ecfrm-net; exercise them from the
        // consumer side so a future cycle break is caught here. A
        // transport failure reads as a store error...
        let s: StoreError = NetError::Timeout.into();
        assert!(matches!(s, StoreError::Net(_)));
        // ...and a store error crosses the wire one way, and arrives
        // typed.
        use ecfrm_net::front::{unwire_error, wire_error};
        let back = unwire_error(&wire_error(&StoreError::NotFound("x".into())));
        assert!(matches!(back, StoreError::NotFound(_)), "{back:?}");
    }
}
