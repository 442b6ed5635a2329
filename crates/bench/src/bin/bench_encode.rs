//! Perf trajectory for the client-side data path: chunking throughput per
//! algorithm plus buffered vs streamed encode throughput, with fixed seeds,
//! written to `BENCH_encode.json` so this and future PRs leave a comparable
//! curve (companion to `bench_net`'s `BENCH_net.json`).
//!
//! ```text
//! cargo run --release -p cdstore_bench --bin bench_encode [-- out_path] [size_mb]
//! ```
//!
//! Defaults: `BENCH_encode.json` in the current directory, 64 MB of seeded
//! data. Also records the streamed pipeline's peak live pooled buffers — the
//! bounded-memory evidence: the buffered batch encode holds every chunk and
//! every share at once (`num_secrets * (n + 1)` buffers), the streamed path
//! holds a pipeline-depth's worth regardless of input size.

use serde::Serialize;

use cdstore_bench::encodebench::{buffered_encode_speed, chunking_speed, streamed_encode_speed};
use cdstore_bench::random_secrets;
use cdstore_chunking::{ChunkerConfig, ChunkerKind};
use cdstore_secretsharing::CaontRs;

/// The whole snapshot written to `BENCH_encode.json`.
#[derive(Serialize)]
struct BenchEncode {
    schema_version: u32,
    n: usize,
    k: usize,
    size_mb: usize,
    encode_threads: usize,
    /// Chunking alone (streaming cutter, reused buffer), MB/s.
    chunking_fixed_mbps: f64,
    chunking_rabin_mbps: f64,
    chunking_fastcdc_mbps: f64,
    /// FastCDC over Rabin — the point of shipping the second cutter.
    fastcdc_over_rabin: f64,
    /// Chunk + CAONT-RS encode, buffered batch path vs streamed pipeline.
    buffered_encode_mbps: f64,
    streamed_encode_mbps: f64,
    /// streamed / buffered; ≥ 0.9 means the pipeline costs ≤ 10%.
    streamed_over_buffered: f64,
    /// Peak live pooled buffers during the streamed run vs the pipeline's
    /// structural budget and vs what the buffered path materialises.
    streamed_peak_live_buffers: usize,
    streamed_num_secrets: u64,
    buffered_equivalent_buffers: u64,
    streamed_pool_allocations: u64,
    streamed_pool_reuses: u64,
}

fn median_of<F: FnMut() -> f64>(runs: usize, mut f: F) -> f64 {
    let mut xs: Vec<f64> = (0..runs).map(|_| f()).collect();
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn main() {
    let mut out_path = String::from("BENCH_encode.json");
    let mut size_mb: usize = 64;
    for arg in std::env::args().skip(1) {
        if let Ok(mb) = arg.parse() {
            size_mb = mb;
        } else {
            out_path = arg;
        }
    }
    let (n, k) = (4usize, 3usize);
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(8);
    let chunk_config = ChunkerConfig::default();

    eprintln!("bench_encode: generating {size_mb} MB of seeded data...");
    let data = random_secrets(size_mb * 1024 * 1024, 8 * 1024, 17).concat();
    let scheme = CaontRs::new(n, k).expect("valid (n, k)");

    eprintln!("bench_encode: chunking throughput (3 runs each, median)...");
    let chunk = |kind| median_of(3, || chunking_speed(kind, chunk_config, &data));
    let fixed = chunk(ChunkerKind::Fixed);
    let rabin = chunk(ChunkerKind::Rabin);
    let fastcdc = chunk(ChunkerKind::FastCdc);
    eprintln!(
        "bench_encode:   fixed {fixed:.0} MB/s, rabin {rabin:.0} MB/s, fastcdc {fastcdc:.0} MB/s"
    );

    eprintln!("bench_encode: buffered chunk+encode at {threads} threads...");
    let buffered = median_of(3, || {
        buffered_encode_speed(&scheme, ChunkerKind::FastCdc, chunk_config, &data, threads)
    });

    eprintln!("bench_encode: streamed chunk+encode at {threads} threads...");
    let mut last_run = None;
    let streamed = median_of(3, || {
        let run =
            streamed_encode_speed(&scheme, ChunkerKind::FastCdc, chunk_config, &data, threads);
        let mbps = run.mbps;
        last_run = Some(run);
        mbps
    });
    let run = last_run.expect("at least one streamed run");

    let snapshot = BenchEncode {
        schema_version: 1,
        n,
        k,
        size_mb,
        encode_threads: threads,
        chunking_fixed_mbps: fixed,
        chunking_rabin_mbps: rabin,
        chunking_fastcdc_mbps: fastcdc,
        fastcdc_over_rabin: fastcdc / rabin,
        buffered_encode_mbps: buffered,
        streamed_encode_mbps: streamed,
        streamed_over_buffered: streamed / buffered,
        streamed_peak_live_buffers: run.pool.peak_outstanding,
        streamed_num_secrets: run.num_secrets,
        // Buffered path: every secret plus its n shares live at once.
        buffered_equivalent_buffers: run.num_secrets * (n as u64 + 1),
        streamed_pool_allocations: run.pool.allocations,
        streamed_pool_reuses: run.pool.reuses,
    };

    let json = serde_json::to_string_pretty(&snapshot).expect("serialize snapshot");
    std::fs::write(&out_path, format!("{json}\n")).expect("write snapshot");
    println!("{json}");
    eprintln!("bench_encode: wrote {out_path}");

    // The acceptance comparisons only hold with optimisations on.
    if cfg!(debug_assertions) {
        eprintln!("bench_encode: debug build — skipping ratio checks");
        return;
    }
    assert!(
        snapshot.fastcdc_over_rabin >= 2.0,
        "FastCDC must chunk at >= 2x Rabin (got {:.2}x)",
        snapshot.fastcdc_over_rabin
    );
    assert!(
        snapshot.streamed_over_buffered >= 0.9,
        "streamed path must be within 10% of buffered (got {:.2})",
        snapshot.streamed_over_buffered
    );
}
