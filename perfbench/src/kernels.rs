//! Direct calls into the kernel crates on one round's own inputs: the
//! stages a backup's encode and a restore's decode go through, each timed
//! on its own, single-threaded.

use std::time::Instant;

use cdstore_chunking::{ChunkerConfig, ChunkerKind};
use cdstore_crypto::{ctr, sha256, Fingerprint};
use cdstore_erasure::ReedSolomon;
use cdstore_secretsharing::{CaontRs, SecretSharing};

use crate::workload::{Plan, Step};
use crate::{K, N};

/// Seconds and bytes processed by one kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    pub seconds: f64,
    pub bytes: u64,
}

impl Probe {
    fn time<R>(&mut self, bytes: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.seconds += start.elapsed().as_secs_f64();
        self.bytes += bytes as u64;
        out
    }
}

/// Every kernel probe of one round.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kernels {
    pub fastcdc: Probe,
    pub mask: Probe,
    pub sha256: Probe,
    pub fingerprint: Probe,
    pub rs_encode: Probe,
    pub rs_decode: Probe,
    pub caont_split: Probe,
    pub caont_reconstruct: Probe,
}

impl Kernels {
    /// `(metric prefix, probe)` pairs in report order.
    pub fn named(&self) -> [(&'static str, Probe); 8] {
        [
            ("chunking.fastcdc", self.fastcdc),
            ("crypto.mask", self.mask),
            ("crypto.sha256", self.sha256),
            ("crypto.fingerprint", self.fingerprint),
            ("erasure.rs_encode", self.rs_encode),
            ("erasure.rs_decode", self.rs_decode),
            ("secretsharing.caont_split", self.caont_split),
            ("secretsharing.caont_reconstruct", self.caont_reconstruct),
        ]
    }

    /// The encode stages a backup's client time breaks down into.
    pub fn encode_stage_sum(&self) -> f64 {
        self.fastcdc.seconds
            + self.sha256.seconds
            + self.mask.seconds
            + self.rs_encode.seconds
            + self.fingerprint.seconds
    }
}

/// Cuts `data` with FastCDC at the client's default sizes, timing only the
/// boundary scan, and returns the chunks.
fn fastcdc_chunks(data: &[u8], probe: Option<&mut Probe>) -> Vec<Vec<u8>> {
    let chunker = ChunkerKind::FastCdc.build(ChunkerConfig::default());
    let mut cutter = chunker.cutter();
    let mut bounds = Vec::new();
    let mut cut = || {
        let mut start = 0;
        while start < data.len() {
            let end = match cutter.find_boundary(&data[start..]) {
                Some(consumed) => start + consumed,
                None => data.len(),
            };
            bounds.push((start, end));
            start = end;
        }
    };
    match probe {
        Some(p) => p.time(data.len(), cut),
        None => cut(),
    }
    bounds.iter().map(|&(s, e)| data[s..e].to_vec()).collect()
}

/// The secrets of input `i` as the client encodes them.
fn secrets(plan: &Plan, i: usize, fastcdc: Option<&mut Probe>) -> Vec<Vec<u8>> {
    let input = &plan.inputs[i];
    match input.chunks() {
        Some(chunks) => chunks,
        None => fastcdc_chunks(&input.bytes(), fastcdc),
    }
}

/// Times every kernel over the secrets of the plan's backups (encode side)
/// and restores (decode side).
pub fn probe(plan: &Plan) -> Kernels {
    let scheme = CaontRs::new(N, K).expect("valid (n, k)");
    let rs = ReedSolomon::new(N, K).expect("valid (n, k)");
    let mut k = Kernels::default();
    let mut shards: Vec<Vec<u8>> = Vec::new();
    let mut split_out: Vec<Vec<u8>> = Vec::new();
    for step in &plan.steps {
        match *step {
            Step::Backup(i) => {
                for secret in secrets(plan, i, Some(&mut k.fastcdc)) {
                    // The package build, stage by stage: H(X), mask, H(Y).
                    let padded = scheme.padded_secret_len(secret.len());
                    let mut package = secret.clone();
                    package.resize(padded + 32, 0);
                    let h = k.sha256.time(padded, || sha256::hash(&package[..padded]));
                    k.mask.time(padded, || {
                        ctr::apply_generator_mask(&h, &mut package[..padded])
                    });
                    let hy = k.sha256.time(padded, || sha256::hash(&package[..padded]));
                    for j in 0..32 {
                        package[padded + j] = h[j] ^ hy[j];
                    }
                    k.rs_encode.time(package.len(), || {
                        rs.encode_into(&package, &mut shards).expect("encode")
                    });
                    let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
                    let share_bytes = refs.iter().map(|s| s.len()).sum();
                    k.fingerprint
                        .time(share_bytes, || Fingerprint::of_batch(&refs));
                    k.caont_split.time(secret.len(), || {
                        scheme.split_into(&secret, &mut split_out).expect("split")
                    });
                }
            }
            Step::Restore(i) => {
                for secret in secrets(plan, i, None) {
                    let shares = scheme.split(&secret).expect("split");
                    // A restore reads the first k clouds.
                    let slots: Vec<Option<Vec<u8>>> = shares
                        .iter()
                        .enumerate()
                        .map(|(c, s)| (c < K).then(|| s.clone()))
                        .collect();
                    let borrowed: Vec<Option<&[u8]>> = slots.iter().map(|s| s.as_deref()).collect();
                    let package_len = shares[0].len() * K;
                    k.rs_decode.time(package_len, || {
                        rs.reconstruct_data_borrowed(&borrowed, package_len)
                            .expect("rs decode")
                    });
                    let restored = k.caont_reconstruct.time(secret.len(), || {
                        scheme
                            .reconstruct(&slots, secret.len())
                            .expect("reconstruct")
                    });
                    assert_eq!(restored, secret, "kernel probe decoded a different secret");
                }
            }
            Step::Delete(_) | Step::Gc | Step::Flush => {}
        }
    }
    k
}

/// Seconds the table CRC-32 takes over frames of the given payload sizes,
/// once at the sender and once at the receiver.
pub fn crc32_seconds(payloads: &[u64]) -> Probe {
    let largest = payloads.iter().copied().max().unwrap_or(0) as usize;
    let mut rng = crate::workload::SplitMix::new(largest as u64);
    let buffer: Vec<u8> = (0..largest).map(|_| rng.next_u64() as u8).collect();
    let mut probe = Probe::default();
    for _side in 0..2 {
        for &len in payloads {
            let frame = &buffer[..len as usize];
            probe.time(frame.len(), || cdstore_storage::journal::crc32(frame));
        }
    }
    probe
}
