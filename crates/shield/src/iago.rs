//! Iago-attack sanitization (paper §3.3.3, [Checkoway & Shacham 2013]).
//!
//! An Iago attack is the untrusted OS returning *malicious but
//! well-formed-looking* values from system calls — a `read` that claims
//! more bytes than the buffer holds, an `mmap` that points into enclave
//! memory, a length that overflows an addition inside the enclave. The
//! shields validate every OS-provided value before it crosses into
//! application logic; this module centralizes the checks on *scalars*
//! the host returns or the caller passes on (sizes, ranges, errnos) —
//! [`check_bounded_slice`] is what bounds `FsShield::read_range`.
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
//! // The OS claims a read of 4096 bytes into a 1024-byte buffer.
//! assert!(iago::check_read_result(4096, 1024).is_err());
//! assert_eq!(iago::check_read_result(512, 1024).unwrap(), 512);
//! ```

use crate::ShieldError;
use std::ops::Range;

/// Validates a `read`-style return value against the buffer capacity.
///
/// # Errors
///
/// Returns [`ShieldError::IagoViolation`] if the OS claims more bytes than
/// the supplied buffer can hold.
pub fn check_read_result(claimed: usize, buffer_capacity: usize) -> Result<usize, ShieldError> {
    if claimed > buffer_capacity {
        return Err(ShieldError::IagoViolation(
            "read result exceeds buffer capacity",
        ));
    }
    Ok(claimed)
}

/// Validates that an OS-returned pointer range lies entirely *outside* the
/// enclave's address range. A hostile kernel that maps untrusted shared
/// memory on top of enclave memory could otherwise corrupt enclave state.
///
/// # Errors
///
/// Returns [`ShieldError::IagoViolation`] on overlap or on an empty or
/// overflowing range.
pub fn check_untrusted_range(
    returned: Range<u64>,
    enclave_range: Range<u64>,
) -> Result<Range<u64>, ShieldError> {
    if returned.start >= returned.end {
        return Err(ShieldError::IagoViolation("empty or inverted range"));
    }
    let overlaps = returned.start < enclave_range.end && enclave_range.start < returned.end;
    if overlaps {
        return Err(ShieldError::IagoViolation(
            "OS-returned memory overlaps the enclave",
        ));
    }
    Ok(returned)
}

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

/// Validates a file-size value returned by `fstat` against a sanity cap.
///
/// # Errors
///
/// Returns [`ShieldError::IagoViolation`] if the OS reports a size above
/// `cap` (a hostile size can otherwise drive enclave allocations to
/// exhaust the EPC).
pub fn check_file_size(reported: u64, cap: u64) -> Result<u64, ShieldError> {
    if reported > cap {
        return Err(ShieldError::IagoViolation("reported file size above cap"));
    }
    Ok(reported)
}

/// Validates an errno-style return: the OS may only return values from the
/// documented set for the syscall.
///
/// # Errors
///
/// Returns [`ShieldError::IagoViolation`] for undocumented error codes.
pub fn check_errno(returned: i32, allowed: &[i32]) -> Result<i32, ShieldError> {
    if returned >= 0 || allowed.contains(&returned) {
        Ok(returned)
    } else {
        Err(ShieldError::IagoViolation("undocumented errno"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_result_in_bounds_passes() {
        assert_eq!(check_read_result(0, 10).unwrap(), 0);
        assert_eq!(check_read_result(10, 10).unwrap(), 10);
    }

    #[test]
    fn read_result_overflow_rejected() {
        assert!(check_read_result(11, 10).is_err());
        assert!(check_read_result(usize::MAX, 10).is_err());
    }

    #[test]
    fn disjoint_ranges_pass() {
        assert!(check_untrusted_range(0..100, 1000..2000).is_ok());
        assert!(check_untrusted_range(2000..2100, 1000..2000).is_ok());
    }

    #[test]
    fn overlapping_ranges_rejected() {
        assert!(check_untrusted_range(900..1001, 1000..2000).is_err());
        assert!(check_untrusted_range(1500..1600, 1000..2000).is_err());
        assert!(check_untrusted_range(999..2001, 1000..2000).is_err());
    }

    #[test]
    fn inverted_range_rejected() {
        assert!(check_untrusted_range(100..100, 1000..2000).is_err());
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = 200..100;
        assert!(check_untrusted_range(inverted, 1000..2000).is_err());
    }

    #[test]
    fn bounded_slice_overflow_rejected() {
        assert!(check_bounded_slice(u64::MAX, 1, u64::MAX).is_err());
        assert!(check_bounded_slice(10, 10, 15).is_err());
        assert!(check_bounded_slice(10, 5, 15).is_ok());
    }

    #[test]
    fn file_size_cap() {
        assert!(check_file_size(1 << 20, 1 << 30).is_ok());
        assert!(check_file_size((1 << 30) + 1, 1 << 30).is_err());
    }

    #[test]
    fn errno_whitelist() {
        assert_eq!(check_errno(5, &[]).unwrap(), 5);
        assert!(check_errno(-2, &[-1, -2]).is_ok());
        assert!(check_errno(-99, &[-1, -2]).is_err());
    }
}
