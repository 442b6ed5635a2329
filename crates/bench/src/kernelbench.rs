//! Measurement helpers for the low-level encode kernels: the GF(2^8) region
//! primitives (`xor_into`, `mul_into`, `mul_acc`), SHA-256 and AES-256, per
//! backend.
//!
//! Used by the `bench_kernels` binary (perf trajectory `BENCH_kernels.json`).
//! Every backend reported by [`Backend::available()`] is measured over the
//! same buffers, so the scalar row doubles as the baseline for the speedup
//! columns.

use std::time::Instant;

use cdstore_crypto::aes::{self, Aes256};
use cdstore_crypto::ctr::Aes256Ctr;
use cdstore_crypto::sha256;
use cdstore_gf::region::Backend;

use crate::MB;

/// Throughput of one measured kernel on one backend.
#[derive(Debug, Clone)]
pub struct KernelSpeed {
    /// Backend name (`scalar`, `ssse3`, `avx2`, `neon`, `sha-ni`, `aes-ni`).
    pub backend: &'static str,
    /// Median throughput in MB/s of region bytes processed.
    pub mbps: f64,
}

fn fill_deterministic(buf: &mut [u8], mut seed: u64) {
    for b in buf.iter_mut() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        *b = (seed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8;
    }
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite throughput"));
    samples[samples.len() / 2]
}

/// Measures `op` over `reps` timed repetitions (after one warmup) of a
/// `region_len`-byte pass and returns the median MB/s.
fn measure<F: FnMut()>(region_len: usize, reps: usize, mut op: F) -> f64 {
    op(); // warmup: fault pages in, settle the dispatch
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            op();
            region_len as f64 / MB / start.elapsed().as_secs_f64()
        })
        .collect();
    median(samples)
}

/// Measures one GF region kernel (`"xor"`, `"mul"`, or `"mul_acc"`) on one
/// backend: `reps` timed passes over a `region_len`-byte region, median MB/s.
pub fn gf_kernel_speed(backend: Backend, kernel: &str, region_len: usize, reps: usize) -> f64 {
    let mut src = vec![0u8; region_len];
    let mut dst = vec![0u8; region_len];
    fill_deterministic(&mut src, 0x9E37_79B9_7F4A_7C15);
    fill_deterministic(&mut dst, 0xD1B5_4A32_D192_ED03);
    // An arbitrary multiplier > 1 so the shuffle path is exercised (0 and 1
    // short-circuit before backend dispatch).
    let c = 0x1d;
    let mbps = measure(region_len, reps, || match kernel {
        "xor" => backend.xor_into(&mut dst, &src),
        "mul" => backend.mul_into(&mut dst, &src, c),
        "mul_acc" => backend.mul_acc(&mut dst, &src, c),
        other => panic!("unknown kernel {other}"),
    });
    std::hint::black_box(&dst);
    mbps
}

/// Measures single-message SHA-256 throughput on one backend: `reps` hashes
/// of one `msg_len`-byte message, median MB/s.
pub fn sha_single_speed(backend: sha256::Backend, msg_len: usize, reps: usize) -> f64 {
    let mut msg = vec![0u8; msg_len];
    fill_deterministic(&mut msg, 0xA076_1D64_78BD_642F);
    let mut sink = [0u8; 32];
    let mbps = measure(msg_len, reps, || {
        sink = sha256::hash_with(backend, &msg);
    });
    std::hint::black_box(sink);
    mbps
}

/// Measures batched SHA-256 throughput on one backend: `reps` batch calls
/// over `lanes` messages of `msg_len` bytes each, median MB/s of total bytes.
/// On scalar hosts this is the 4-lane interleaved scheduler; on SHA-NI hosts
/// the hardware path per message.
pub fn sha_batch_speed(backend: sha256::Backend, msg_len: usize, lanes: usize, reps: usize) -> f64 {
    let mut flat = vec![0u8; msg_len * lanes];
    fill_deterministic(&mut flat, 0xE703_7ED1_A0B4_28DB);
    let msgs: Vec<&[u8]> = flat.chunks(msg_len).collect();
    let mut sink = 0u8;
    let mbps = measure(msg_len * lanes, reps, || {
        let digests = sha256::hash_batch_with(backend, &msgs);
        sink ^= digests[0][0];
    });
    std::hint::black_box(sink);
    mbps
}

/// Measures AES-256-CTR keystream throughput on one backend: `reps` passes
/// of the keystream XOR over one `region_len`-byte buffer, median MB/s.
pub fn aes_ctr_speed(backend: aes::Backend, region_len: usize, reps: usize) -> f64 {
    let mut buf = vec![0u8; region_len];
    fill_deterministic(&mut buf, 0x8EBC_6AF0_9C88_C6E3);
    let ctr = Aes256Ctr::new(&[0x42; aes::KEY_SIZE], 0);
    let mbps = measure(region_len, reps, || {
        ctr.apply_keystream_with(backend, &mut buf, 0);
    });
    std::hint::black_box(&buf);
    mbps
}

/// Measures single-block AES-256 throughput on one backend: every 16-byte
/// block of a `region_len`-byte buffer encrypted by its own
/// `encrypt_block` call (the per-word pattern of Rivest's AONT), median MB/s.
pub fn aes_block_speed(backend: aes::Backend, region_len: usize, reps: usize) -> f64 {
    let mut buf = vec![0u8; region_len];
    fill_deterministic(&mut buf, 0x5899_65CC_7537_4CC3);
    let cipher = Aes256::new(&[0x42; aes::KEY_SIZE]);
    let mbps = measure(region_len, reps, || {
        for block in buf.chunks_exact_mut(aes::BLOCK_SIZE) {
            cipher.encrypt_block_with(backend, block.try_into().expect("16-byte block"));
        }
    });
    std::hint::black_box(&buf);
    mbps
}

/// Runs one GF kernel across all available backends.
pub fn gf_kernel_all_backends(kernel: &str, region_len: usize, reps: usize) -> Vec<KernelSpeed> {
    Backend::available()
        .into_iter()
        .map(|b| KernelSpeed {
            backend: b.name(),
            mbps: gf_kernel_speed(b, kernel, region_len, reps),
        })
        .collect()
}
