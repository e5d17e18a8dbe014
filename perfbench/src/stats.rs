//! Order statistics, digests and process memory readouts.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail percentile with the data it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The whole-number percentile reported.
    pub percentile: u32,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly after the percentile's rank.
    pub beyond: usize,
}

/// The highest whole-number percentile that leaves at least
/// [`TAIL_BEYOND`] samples beyond it, read by nearest rank. `None` when
/// fewer than `TAIL_BEYOND + 1` samples exist.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    // The largest p with ceil(p·n/100) ≤ n − TAIL_BEYOND.
    let percentile = (0..=100u32)
        .rev()
        .find(|&p| (p as usize * n).div_ceil(100) <= n - TAIL_BEYOND)?;
    let rank = (percentile as usize * n).div_ceil(100).max(1);
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        percentile,
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// FNV-1a offset basis, the start value for [`fnv_bytes`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Byte-wise FNV-1a, continued from `hash`.
pub fn fnv_bytes(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Digest of an estimate vector: FNV-1a over the values' bits, one 64-bit
/// word at a time, the form the repository's pins use.
pub fn digest(estimates: &[f64]) -> u64 {
    estimates.iter().fold(FNV_OFFSET, |hash, v| {
        (hash ^ v.to_bits()).wrapping_mul(FNV_PRIME)
    })
}

/// A `Vm*` field of `/proc/self/status`, in MiB.
fn proc_status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    proc_status_mb("VmHWM:")
}

/// Current resident set size of this process (`VmRSS`), in MiB.
pub fn rss_mb() -> Option<f64> {
    proc_status_mb("VmRSS:")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the rule cannot rely on input order.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond_the_highest_such_percentile() {
        let t = tail(&ramp(100)).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.samples, t.beyond),
            (90, 90.0, 100, 10)
        );

        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99, 990.0, 10));

        // 38 cycles: p73 has rank ceil(27.74) = 28, leaving 10 beyond; p74
        // would have rank 29 and leave 9.
        let t = tail(&ramp(38)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (73, 28.0, 10));

        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50, 10.0, 10));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&ramp(10)), None);
        let t = tail(&ramp(11)).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn digest_matches_the_word_wise_fnv_of_the_pins() {
        // FNV-1a of the single word 0 is offset × prime.
        assert_eq!(digest(&[0.0]), FNV_OFFSET.wrapping_mul(FNV_PRIME));
        assert_ne!(digest(&[1.0, 2.0]), digest(&[2.0, 1.0]));
    }
}
