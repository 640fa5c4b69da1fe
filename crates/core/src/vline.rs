//! Virtual-line block arithmetic.

/// The physical lines covered by the virtual line containing `line`.
///
/// A virtual line of `vline_bytes` loads "the words loaded with a physical
/// line of the same size" (§2.1): the *aligned* block of
/// `vline_bytes / line_bytes` physical lines around the missing one. By
/// construction all of them sit in the same page, so address translation
/// is performed once.
///
/// ```
/// use sac_core::virtual_block;
///
/// // 64-byte virtual lines over 32-byte physical lines: pairs of lines.
/// assert_eq!(virtual_block(5, 32, 64), 4..6);
/// assert_eq!(virtual_block(4, 32, 64), 4..6);
/// // Disabled virtual lines degenerate to the single physical line.
/// assert_eq!(virtual_block(5, 32, 32), 5..6);
/// ```
///
/// # Panics
///
/// Panics if `vline_bytes` is not a positive multiple of `line_bytes`.
pub fn virtual_block(line: u64, line_bytes: u64, vline_bytes: u64) -> std::ops::Range<u64> {
    assert!(
        vline_bytes >= line_bytes && vline_bytes.is_multiple_of(line_bytes),
        "virtual line must be a multiple of the physical line"
    );
    aligned_block(line, vline_bytes / line_bytes)
}

/// The aligned block of `span` physical lines containing `line` (the
/// arithmetic of [`virtual_block`], for callers that hold the span).
#[inline]
pub(crate) fn aligned_block(line: u64, span: u64) -> std::ops::Range<u64> {
    // Every paper span is a power of two: mask instead of dividing.
    let start = if span.is_power_of_two() {
        line & !(span - 1)
    } else {
        line - line % span
    };
    start..start + span
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_aligned() {
        for l in 0..16u64 {
            let b = virtual_block(l, 32, 128);
            assert_eq!(b.start % 4, 0);
            assert_eq!(b.end - b.start, 4);
            assert!(b.contains(&l));
        }
    }

    #[test]
    fn single_line_block_when_disabled() {
        assert_eq!(virtual_block(7, 32, 32), 7..8);
    }

    #[test]
    fn odd_spans_align_like_power_of_two_spans() {
        for span in 1..=9u64 {
            for l in 0..40u64 {
                let b = aligned_block(l, span);
                assert_eq!(b.start, l / span * span);
                assert_eq!(b.end - b.start, span);
            }
        }
    }

    #[test]
    fn large_virtual_line() {
        assert_eq!(virtual_block(9, 32, 256), 8..16);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn non_multiple_rejected() {
        let _ = virtual_block(0, 32, 48);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn smaller_than_physical_rejected() {
        let _ = virtual_block(0, 32, 16);
    }
}
