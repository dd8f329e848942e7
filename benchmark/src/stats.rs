//! Small helpers: order statistics, the output digest, peak RSS, CPU pinning.

/// The benchmark's own order statistics, apart from
/// `cex_core::metrics::quantile` on purpose: that function sits on the
/// measured program's window-query path, and the instrument must not change
/// with what it measures (it is also the exact reference the sketch's p95
/// is checked against).
///
/// Quantile `q` in `0..=1` of `values` by linear interpolation between
/// closest ranks (`q = 0.5` is the textbook median: the mean of the two
/// middle values for an even count). `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Median of `values`; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// `min / q1 / median / q3` of `values`, for printing beside a median.
pub fn spread(values: &[f64]) -> Option<[f64; 4]> {
    Some([
        quantile(values, 0.0)?,
        quantile(values, 0.25)?,
        quantile(values, 0.5)?,
        quantile(values, 0.75)?,
    ])
}

/// 64-bit FNV-1a over `bytes`, continuing from `state` so several
/// outputs can be chained into one digest.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The FNV-1a offset basis: the `state` to start a digest from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Restricts this process, and every thread it starts afterwards, to the
/// lowest-numbered CPU it is allowed on; returns that CPU, or `None` when
/// the affinity could not be read or set (the run then goes on unpinned).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    // glibc's `cpu_set_t`: 1024 bits as an array of `unsigned long`.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a live, writable array of exactly the
    // `cpusetsize` bytes passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().find(|(_, bits)| **bits != 0)?;
    let bit = bits.trailing_zeros();
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live array of exactly the `cpusetsize` bytes
    // passed, and the call only reads it.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(word * 64 + bit as usize)
}

/// No affinity call on this platform: the run goes on unpinned.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_hand_computed_cases() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // ranks 0..4 over five values: q1 is rank 1, q3 rank 3.
        let five = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(spread(&five), Some([10.0, 20.0, 30.0, 40.0]));
        // four values: q = 0.25 sits at rank 0.75, between 1 and 2.
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.25), Some(1.75));
        // rank 2.85: 3 + 0.85, up to rounding of the rank itself.
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0], 0.95).unwrap() - 3.85).abs() < 1e-12);
        assert_eq!(quantile(&[1.0, 9.0], 2.0), Some(9.0), "q is clamped");
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"), fnv1a(FNV_OFFSET, b"foobar"));
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().expect("VmHWM line") > 0.0);
        }
    }
}
