//! Iago-attack sanitization (paper §3.3.3, [Checkoway & Shacham 2013]).
//!
//! An Iago attack is the untrusted OS returning *malicious but
//! well-formed-looking* values from system calls — a `read` that claims
//! more bytes than the buffer holds, an `mmap` that points into enclave
//! memory, a length that overflows an addition inside the enclave. The
//! shields validate every OS-provided value before it crosses into
//! application logic. The one scalar check left is
//! [`check_bounded_slice`], which bounds `FsShield::read_range`: the
//! shields make no other call whose result is a bare size, range or
//! errno.
//!
//! Host-supplied *byte strings* (stored blobs, journal records, wire
//! frames, model files) are validated where they are parsed, by the one
//! bounded reader `securetf_tensor::bytes::Reader`: every length field
//! is compared with the bytes that actually remain before anything is
//! sliced or allocated, and a failed read converts into
//! [`ShieldError::IagoViolation`].
//!
//! # Examples
//!
//! ```
//! use securetf_shield::iago;
//!
//! // A 4096-byte range at offset 1024 of a 4096-byte object.
//! assert!(iago::check_bounded_slice(1024, 4096, 4096).is_err());
//! // An offset chosen so that `offset + len` wraps around to 0.
//! assert!(iago::check_bounded_slice(u64::MAX, 1, 4096).is_err());
//! assert!(iago::check_bounded_slice(1024, 512, 4096).is_ok());
//! ```

use crate::ShieldError;

/// Validates an OS-provided length field used in offset arithmetic.
///
/// # Errors
///
/// Returns [`ShieldError::IagoViolation`] if `offset + len` overflows or
/// exceeds `total`.
pub fn check_bounded_slice(offset: u64, len: u64, total: u64) -> Result<(), ShieldError> {
    let end = offset
        .checked_add(len)
        .ok_or(ShieldError::IagoViolation("offset + len overflows"))?;
    if end > total {
        return Err(ShieldError::IagoViolation("slice exceeds object bounds"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_slice_in_bounds_passes() {
        // Up to and including the object's last byte, and empty slices.
        assert!(check_bounded_slice(0, 10, 10).is_ok());
        assert!(check_bounded_slice(10, 0, 10).is_ok());
        assert!(check_bounded_slice(0, 0, 0).is_ok());
    }

    #[test]
    fn read_result_overflow_rejected() {
        // A read claiming more bytes than the object holds, from its start
        // or from past its end, up to the largest claim the host can make.
        assert!(check_bounded_slice(0, 11, 10).is_err());
        assert!(check_bounded_slice(0, u64::MAX, 10).is_err());
        assert!(check_bounded_slice(11, 0, 10).is_err());
    }

    #[test]
    fn bounded_slice_overflow_rejected() {
        assert!(check_bounded_slice(u64::MAX, 1, u64::MAX).is_err());
        assert!(check_bounded_slice(1, u64::MAX, u64::MAX).is_err());
        assert!(check_bounded_slice(10, 10, 15).is_err());
        assert!(check_bounded_slice(10, 5, 15).is_ok());
    }
}
