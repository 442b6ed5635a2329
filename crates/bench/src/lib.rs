//! Shared measurement helpers for the figure/table harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§5) and prints the same rows/series the paper
//! reports. Absolute numbers differ from the 2015 testbed — the substrate is
//! a simulator and a different CPU — but the comparisons (who wins, by
//! roughly what factor, where the knees fall) are expected to match; see
//! `EXPERIMENTS.md` for the recorded results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use cdstore_secretsharing::SecretSharing;

pub mod encodebench;
pub mod indexbench;
pub mod kernelbench;
pub mod netbench;
pub mod transfer;

/// Number of bytes in a mebibyte.
pub const MB: f64 = 1024.0 * 1024.0;

/// Generates `total_bytes` of pseudo-random data split into variable-size
/// chunks with the given average (mimicking the paper's "2GB of random data
/// ... generate secrets using variable-size chunking with an average chunk
/// size 8KB").
pub fn random_secrets(total_bytes: usize, avg_chunk: usize, seed: u64) -> Vec<Vec<u8>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut secrets = Vec::new();
    let mut produced = 0usize;
    while produced < total_bytes {
        let size = rng
            .gen_range(avg_chunk / 2..avg_chunk * 3 / 2)
            .min(total_bytes - produced)
            .max(1);
        let mut chunk = vec![0u8; size];
        rng.fill(&mut chunk[..]);
        produced += size;
        secrets.push(chunk);
    }
    secrets
}

/// Applies `op` to every item on `threads` scoped coding threads, each
/// taking one contiguous slice, and returns the results in input order —
/// the secret-level parallelism of §4.6 applied to an in-memory batch, as
/// the Figure 5 thread sweeps measure it. One thread runs inline.
pub(crate) fn parallel_map<I: Sync, O: Send>(
    items: &[I],
    threads: usize,
    op: impl Fn(&I) -> O + Sync,
) -> Vec<O> {
    if threads <= 1 || items.is_empty() {
        return items.iter().map(op).collect();
    }
    let per_thread = items.len().div_ceil(threads.min(items.len()));
    let op = &op;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(per_thread)
            .map(|slice| scope.spawn(move || slice.iter().map(op).collect::<Vec<O>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("coding thread panicked"))
            .collect()
    })
}

/// Measures the encoding speed (MB/s of original data) of a scheme over a
/// batch of secrets using `threads` coding threads.
pub fn encoding_speed(
    scheme: &(dyn SecretSharing + Sync),
    secrets: &[Vec<u8>],
    threads: usize,
) -> f64 {
    let total_bytes: usize = secrets.iter().map(|s| s.len()).sum();
    let start = Instant::now();
    let shares = parallel_map(secrets, threads, |s| {
        scheme.split(s).expect("encoding failed")
    });
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(shares.len(), secrets.len());
    total_bytes as f64 / MB / elapsed
}

/// Measures the decoding speed (MB/s of original data) of a scheme when one
/// share is missing from every secret.
pub fn decoding_speed(
    scheme: &(dyn SecretSharing + Sync),
    secrets: &[Vec<u8>],
    threads: usize,
) -> f64 {
    let encoded = parallel_map(secrets, threads, |s| {
        scheme.split(s).expect("encoding failed")
    });
    let items: Vec<(Vec<Option<Vec<u8>>>, usize)> = encoded
        .into_iter()
        .zip(secrets)
        .map(|(shares, secret)| {
            let mut slots: Vec<Option<Vec<u8>>> = shares.into_iter().map(Some).collect();
            slots[0] = None;
            (slots, secret.len())
        })
        .collect();
    let total_bytes: usize = secrets.iter().map(|s| s.len()).sum();
    let start = Instant::now();
    let decoded = parallel_map(&items, threads, |(shares, len)| {
        scheme.reconstruct(shares, *len).expect("decoding failed")
    });
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(decoded.len(), secrets.len());
    total_bytes as f64 / MB / elapsed
}

/// Measures the combined chunking + encoding speed over a flat buffer, as in
/// the last paragraph of §5.3.
pub fn chunk_and_encode_speed(
    scheme: &(dyn SecretSharing + Sync),
    data: &[u8],
    threads: usize,
) -> f64 {
    let chunker = cdstore_chunking::RabinChunker::default();
    let start = Instant::now();
    let chunks = cdstore_chunking::Chunker::chunk(&chunker, data);
    let secrets: Vec<Vec<u8>> = chunks.into_iter().map(|c| c.data).collect();
    parallel_map(&secrets, threads, |s| {
        scheme.split(s).expect("encoding failed")
    });
    let elapsed = start.elapsed().as_secs_f64();
    data.len() as f64 / MB / elapsed
}

/// Formats a floating-point MB/s value for table output.
pub fn fmt_speed(mbps: f64) -> String {
    format!("{mbps:8.1}")
}

/// Formats a percentage for table output.
pub fn fmt_pct(fraction: f64) -> String {
    format!("{:6.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdstore_secretsharing::CaontRs;

    #[test]
    fn random_secrets_cover_the_requested_bytes() {
        let secrets = random_secrets(100_000, 8192, 1);
        let total: usize = secrets.iter().map(|s| s.len()).sum();
        assert_eq!(total, 100_000);
        assert!(
            secrets.len() >= 9 && secrets.len() <= 25,
            "{} chunks",
            secrets.len()
        );
    }

    #[test]
    fn speed_measurements_are_positive_and_scale_sanely() {
        let scheme = CaontRs::new(4, 3).unwrap();
        let secrets = random_secrets(512 * 1024, 8192, 2);
        let enc = encoding_speed(&scheme, &secrets, 2);
        let dec = decoding_speed(&scheme, &secrets, 2);
        assert!(enc > 0.0);
        assert!(dec > 0.0);
        let combined = chunk_and_encode_speed(&scheme, &vec![7u8; 256 * 1024], 2);
        assert!(combined > 0.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_pct(0.5), "  50.0%");
        assert!(fmt_speed(123.456).contains("123.5"));
    }
}
