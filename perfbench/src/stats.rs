//! Pure summary logic: percentiles, span self time, and the per-layer
//! ratios derived from counts. Nothing here touches the system under test.

/// The percentiles a latency tail may be reported at, highest last.
pub const TAIL_PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps float error in `p / 100 * n` (e.g. 99.9% of 10 000) from bumping an
/// exact rank up by one.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest of [`TAIL_PERCENTILES`] that still has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` for fewer than 20 samples.
pub fn highest_reportable(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// A tail latency reported at `wanted` when the sample count allows it,
/// otherwise at the highest percentile the count allows, otherwise the
/// maximum. Returns `(percentile used, value)`.
pub fn tail(values: &[f64], wanted: f64) -> (f64, f64) {
    let p = match highest_reportable(values.len()) {
        Some(allowed) => allowed.min(wanted),
        None => 100.0,
    };
    (p, percentile(values, p))
}

/// Length of the union of `spans`, each clipped to `window`. Spans are
/// `(start, end)` pairs in any order and may overlap.
pub fn covered(window: (f64, f64), spans: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = spans
        .iter()
        .map(|&(s, e)| (s.max(window.0), e.min(window.1)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time of a span: its duration minus the part of it covered by its
/// child spans (overlapping children are counted once).
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    (span.1 - span.0) - covered(span, children)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-round counts from which the ratio metrics are derived. Every field
/// is an exact count of one round, so the ratios repeat exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundCounts {
    /// Logical bytes backed up.
    pub logical: u64,
    /// Bytes restored (and verified).
    pub restored: u64,
    /// Share bytes the servers received.
    pub received_share_bytes: u64,
    /// Sum of every backend's `total_bytes()` after the final flush.
    pub stored: u64,
    /// Fingerprints sent in intra-user dedup queries.
    pub queried: u64,
    /// Queried fingerprints the user already owned.
    pub intra_hits: u64,
    /// Shares the servers received.
    pub shares_received: u64,
    /// Received shares that were inter-user duplicates.
    pub inter_dups: u64,
    /// Backend bytes written, by key class (see [`KEY_CLASSES`]).
    pub written: [u64; 5],
    /// Backend bytes read during the restore phase.
    pub restore_reads: u64,
}

/// Key classes of [`RoundCounts::written`], in order. `other` catches any
/// key none of the known prefixes match, so a new key family shows up
/// rather than being folded into another class.
pub const KEY_CLASSES: [&str; 5] = ["container", "wal", "ckpt", "idx", "other"];

impl RoundCounts {
    /// `wire_bytes_per_logical`: share bytes received per logical byte.
    pub fn wire_per_logical(&self) -> f64 {
        ratio(self.received_share_bytes as f64, self.logical as f64)
    }

    /// `stored_bytes_per_logical`: backend bytes after flush per logical
    /// byte.
    pub fn stored_per_logical(&self) -> f64 {
        ratio(self.stored as f64, self.logical as f64)
    }

    /// The per-layer ratio metrics, by name.
    pub fn layer_ratios(&self) -> Vec<(String, f64)> {
        let logical = self.logical as f64;
        let mut out = vec![
            (
                "dedup.intra_hit_ratio".to_string(),
                ratio(self.intra_hits as f64, self.queried as f64),
            ),
            (
                "dedup.inter_dup_ratio".to_string(),
                ratio(self.inter_dups as f64, self.shares_received as f64),
            ),
        ];
        for (class, &bytes) in KEY_CLASSES.iter().zip(&self.written) {
            out.push((
                format!("storage.write_amp.{class}"),
                ratio(bytes as f64, logical),
            ));
        }
        out.push((
            "storage.read_amp".to_string(),
            ratio(self.restore_reads as f64, self.restored as f64),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 90.0), 90.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn reportable_percentile_keeps_ten_samples_beyond() {
        // Fewer than 20 samples: not even the median has ten beyond it.
        assert_eq!(highest_reportable(19), None);
        assert_eq!(highest_reportable(20), Some(50.0));
        // p90 needs 100 samples; 99 leaves only 9 beyond.
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(highest_reportable(99), Some(50.0));
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(highest_reportable(100), Some(90.0));
        assert_eq!(highest_reportable(999), Some(90.0));
        assert_eq!(highest_reportable(1000), Some(99.0));
        assert_eq!(highest_reportable(10_000), Some(99.9));
    }

    #[test]
    fn tail_falls_back_to_the_allowed_percentile() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred, 90.0), (90.0, 90.0));
        let fifty: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&fifty, 90.0), (50.0, 25.0));
        assert_eq!(tail(&[1.0, 5.0, 3.0], 90.0), (100.0, 5.0));
        // Never above the wanted percentile, even with many samples.
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&many, 90.0), (90.0, 9000.0));
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // Parent 0..10; children 1..3 and 2..4 overlap (union 1..4), 6..7
        // is separate, 9..12 is clipped to 9..10.
        let children = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (9.0, 12.0)];
        assert_eq!(covered((0.0, 10.0), &children), 5.0);
        assert_eq!(self_time((0.0, 10.0), &children), 5.0);
        // Children outside the parent do not count; order does not matter.
        assert_eq!(self_time((0.0, 10.0), &[(11.0, 12.0), (-3.0, -1.0)]), 10.0);
        assert_eq!(self_time((0.0, 4.0), &[(2.0, 4.0), (0.0, 2.0)]), 0.0);
        assert_eq!(self_time((0.0, 4.0), &[]), 4.0);
    }

    #[test]
    fn ratios_derive_from_counts() {
        let counts = RoundCounts {
            logical: 1000,
            restored: 500,
            received_share_bytes: 400,
            stored: 250,
            queried: 200,
            intra_hits: 150,
            shares_received: 80,
            inter_dups: 20,
            written: [300, 40, 10, 0, 0],
            restore_reads: 750,
        };
        assert_eq!(counts.wire_per_logical(), 0.4);
        assert_eq!(counts.stored_per_logical(), 0.25);
        let ratios: std::collections::BTreeMap<String, f64> =
            counts.layer_ratios().into_iter().collect();
        assert_eq!(ratios["dedup.intra_hit_ratio"], 0.75);
        assert_eq!(ratios["dedup.inter_dup_ratio"], 0.25);
        assert_eq!(ratios["storage.write_amp.container"], 0.3);
        assert_eq!(ratios["storage.write_amp.wal"], 0.04);
        assert_eq!(ratios["storage.write_amp.ckpt"], 0.01);
        assert_eq!(ratios["storage.write_amp.idx"], 0.0);
        assert_eq!(ratios["storage.write_amp.other"], 0.0);
        assert_eq!(ratios["storage.read_amp"], 1.5);
        assert_eq!(ratios.len(), 8);
    }

    #[test]
    fn ratios_of_nothing_are_zero() {
        let counts = RoundCounts::default();
        assert_eq!(counts.wire_per_logical(), 0.0);
        assert!(counts.layer_ratios().iter().all(|(_, v)| *v == 0.0));
    }
}
