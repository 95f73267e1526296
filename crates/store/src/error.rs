//! Store error type.

use ecfrm_codes::CodeError;

/// Errors surfaced by the object store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No object with that name in the tenant's namespace (a
    /// [`FrontDoor`](crate::FrontDoor) error: the store keeps no names).
    NotFound(String),
    /// The tenant already has an object with that name (a
    /// [`FrontDoor`](crate::FrontDoor) error).
    AlreadyExists(String),
    /// Requested byte range exceeds the object or extent.
    RangeOutOfBounds {
        /// Object name, or `<extent @offset>` for an extent read.
        name: String,
        /// Object length in bytes.
        len: u64,
    },
    /// Too many disks are down: some requested data is unrecoverable.
    DataLoss(String),
    /// A disk index was out of range.
    NoSuchDisk(usize),
    /// A stripe index beyond what has been sealed (repair of unsealed
    /// data is meaningless — it has no parities yet).
    NoSuchStripe(u64),
    /// Decoding failed.
    Code(CodeError),
    /// A network-layer failure reached the store (remote shards only).
    ///
    /// Carries the transport error's message; `ecfrm-net` provides
    /// `From<NetError> for StoreError` so callers can `?` across the
    /// store/network boundary without stringifying.
    Net(String),
    /// Admission control rejected the request: the tenant's token
    /// bucket could not cover it within the configured maximum queueing
    /// delay. The request was not executed; retry after backing off.
    Throttled(String),
    /// More bytes than one frame may carry: a read, refused before
    /// admission and before any byte is fetched (read it in ranges), or
    /// a remote put or write, refused before a byte of it is sent.
    TooLarge(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(n) => write!(f, "object not found: {n}"),
            StoreError::AlreadyExists(n) => write!(f, "object already exists: {n}"),
            StoreError::RangeOutOfBounds { name, len } => {
                write!(f, "range out of bounds for {name} (len {len})")
            }
            StoreError::DataLoss(msg) => write!(f, "data loss: {msg}"),
            StoreError::NoSuchDisk(d) => write!(f, "no such disk: {d}"),
            StoreError::NoSuchStripe(s) => write!(f, "no such sealed stripe: {s}"),
            StoreError::Code(e) => write!(f, "decode error: {e}"),
            StoreError::Net(msg) => write!(f, "network error: {msg}"),
            StoreError::Throttled(msg) => write!(f, "throttled: {msg}"),
            StoreError::TooLarge(msg) => write!(f, "too large: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CodeError> for StoreError {
    fn from(e: CodeError) -> Self {
        StoreError::Code(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(StoreError::NotFound("a".into()).to_string().contains("a"));
        assert!(StoreError::NoSuchDisk(7).to_string().contains('7'));
        let c: StoreError = CodeError::Shape("x".into()).into();
        assert!(matches!(c, StoreError::Code(_)));
    }
}
