//! End-to-end wire benchmark of CDStore.
//!
//! One client thread drives a 4-server `(n, k) = (4, 3)` loopback TCP
//! deployment in a closed loop through one of three workloads (`unique`,
//! `fsl-weekly`, `vm-clones`), verifies every restore byte for byte against
//! the input regenerated from the seed, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer budget of a traced run (`--trace 1`).
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod kernels;
mod report;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use cdstore_chunking::ChunkerKind;
use cdstore_core::server::GcReport;
use cdstore_core::{CdStore, CdStoreConfig, CdStoreServer, ServerTransport};
use cdstore_net::{LoopbackCluster, NetClientConfig, RemoteServer};
use cdstore_storage::MemoryBackend;

use report::{Metrics, Outcome};
use stats::{median, ratio, self_time, tail, RoundCounts};
use trace::{replay, Call, MeteredBackend, Rpc, RpcSpan, SpanLog, StorageCounts, StorageMeter};
use trace::{Traced, STORAGE_OPS};
use workload::{Kind, Plan, Step};

/// Clouds (servers) and reconstruction threshold.
pub const N: usize = 4;
pub const K: usize = 3;
/// One MB, as in the repository's other benches.
pub const MB: f64 = 1024.0 * 1024.0;
/// Set-ups timed before the first round; `setup_s` is the median of these
/// and of every round's own set-up.
const SETUP_SAMPLES: usize = 8;
/// Hard stop for the round loop, well inside the 180 s a run may take.
const MAX_SECONDS: f64 = 120.0;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

fn store_config() -> CdStoreConfig {
    CdStoreConfig::new(N, K)
        .expect("valid (n, k)")
        .with_chunker_kind(ChunkerKind::FastCdc)
}

/// A running deployment. Field order is drop order: the client side goes
/// before the servers shut down.
struct Deployment<T: ServerTransport> {
    store: CdStore<T>,
    cluster: LoopbackCluster,
}

/// Spawns one wire server per prebuilt server, connects one transport per
/// server (wrapped by `wrap`) and probes each once. Returns the deployment
/// and the seconds all of that took.
fn deploy<T: ServerTransport>(
    servers: Vec<Arc<CdStoreServer>>,
    wrap: impl Fn(RemoteServer) -> T,
) -> Result<(Deployment<T>, f64), String> {
    let start = Instant::now();
    let cluster = LoopbackCluster::spawn_with_servers(servers).map_err(|e| e.to_string())?;
    let client = NetClientConfig {
        connections: 1,
        ..NetClientConfig::default()
    };
    // Connect to the servers at once, as a client fans out to its clouds.
    // One after another, each connect would wait out the next tick of the
    // wire server's 50 ms accept poll, and the total would jump between
    // multiples of it with host scheduling noise.
    let transports = std::thread::scope(|scope| {
        let connects: Vec<_> = cluster
            .addrs()
            .iter()
            .map(|&addr| {
                let client = client.clone();
                scope.spawn(move || RemoteServer::connect(addr, client))
            })
            .collect();
        connects
            .into_iter()
            .map(|c| c.join().expect("connect thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| e.to_string())?;
    let store =
        CdStore::from_transports(store_config(), transports.into_iter().map(wrap).collect())
            .map_err(|e| e.to_string())?;
    store
        .with_servers(|s| s.iter().try_for_each(|t| t.probe().map(|_| ())))
        .map_err(|e| e.to_string())?;
    Ok((Deployment { store, cluster }, start.elapsed().as_secs_f64()))
}

fn plain_servers() -> Vec<Arc<CdStoreServer>> {
    (0..N).map(|i| Arc::new(CdStoreServer::new(i))).collect()
}

fn metered_servers(meter: &Arc<StorageMeter>) -> Vec<CdStoreServer> {
    (0..N)
        .map(|i| {
            let backend = MeteredBackend::new(MemoryBackend::new(), Arc::clone(meter));
            CdStoreServer::with_backend(i, Arc::new(backend))
        })
        .collect()
}

fn deploy_plain() -> Result<(Deployment<RemoteServer>, f64), String> {
    deploy(plain_servers(), |r| r)
}

/// What one round did.
#[derive(Default)]
struct Round {
    backups: Vec<(Instant, Instant)>,
    restores: Vec<(Instant, Instant)>,
    /// Process CPU seconds of each backup and restore op.
    backup_cpu: Vec<f64>,
    restore_cpu: Vec<f64>,
    attempted: u64,
    failed: u64,
    gc_seconds: f64,
    gc: GcReport,
    counts: RoundCounts,
    /// Storage counters when the restore phase began.
    storage_at_restore: Option<StorageCounts>,
}

impl Round {
    fn backup_seconds(&self) -> f64 {
        self.backups
            .iter()
            .map(|(s, e)| (*e - *s).as_secs_f64())
            .sum()
    }

    fn restore_seconds(&self) -> f64 {
        self.restores
            .iter()
            .map(|(s, e)| (*e - *s).as_secs_f64())
            .sum()
    }

    /// Percentile `p` of the round's backup-op latencies, in ms.
    fn backup_ms(&self, p: f64) -> f64 {
        tail(&durations_ms(&self.backups), p).1
    }

    /// Percentile `p` of the round's restore-op latencies, in ms.
    fn restore_ms(&self, p: f64) -> f64 {
        tail(&durations_ms(&self.restores), p).1
    }

    /// Percentile `p` of the round's per-backup-op CPU time, in ms.
    fn backup_cpu_ms(&self, p: f64) -> f64 {
        tail(&seconds_to_ms(&self.backup_cpu), p).1
    }

    /// Percentile `p` of the round's per-restore-op CPU time, in ms.
    fn restore_cpu_ms(&self, p: f64) -> f64 {
        tail(&seconds_to_ms(&self.restore_cpu), p).1
    }

    /// Logical MB backed up per CPU second the backup ops took.
    fn backup_mb_per_cpu_s(&self) -> f64 {
        self.counts.logical as f64 / MB / self.backup_cpu.iter().sum::<f64>()
    }

    /// Verified MB restored per CPU second the restore ops took.
    fn restore_mb_per_cpu_s(&self) -> f64 {
        self.counts.restored as f64 / MB / self.restore_cpu.iter().sum::<f64>()
    }

    /// Logical MB backed up per second of backup-op time.
    fn backup_mbps(&self) -> f64 {
        self.counts.logical as f64 / MB / self.backup_seconds()
    }

    /// Verified MB restored per second of restore-op time.
    fn restore_mbps(&self) -> f64 {
        self.counts.restored as f64 / MB / self.restore_seconds()
    }

    fn fail(&mut self, what: &str, path: &str, err: impl std::fmt::Display) {
        self.failed += 1;
        eprintln!("perfbench: {what} {path} failed: {err}");
    }
}

/// Runs the plan once against a fresh deployment. Inputs are generated
/// (and restores verified) outside the timed calls.
fn run_round<T: ServerTransport>(
    plan: &Plan,
    dep: &Deployment<T>,
    meter: Option<&StorageMeter>,
) -> Round {
    let store = &dep.store;
    let mut r = Round::default();
    for step in &plan.steps {
        r.attempted += 1;
        match *step {
            Step::Backup(i) => {
                let input = &plan.inputs[i];
                let chunks = input.chunks();
                let bytes = if chunks.is_some() {
                    Vec::new()
                } else {
                    input.bytes()
                };
                let cpu = report::process_cpu_seconds();
                let start = Instant::now();
                let result = match &chunks {
                    Some(chunks) => store.backup_chunks(input.user, &input.path, chunks),
                    None => store.backup(input.user, &input.path, &bytes),
                };
                r.backups.push((start, Instant::now()));
                r.backup_cpu.push(report::process_cpu_seconds() - cpu);
                r.counts.logical += input.len();
                if let Err(e) = result {
                    r.fail("backup", &input.path, e);
                }
            }
            Step::Delete(i) => {
                let input = &plan.inputs[i];
                match store.delete(input.user, &input.path) {
                    Ok(true) => {}
                    Ok(false) => r.fail("delete", &input.path, "file not found"),
                    Err(e) => r.fail("delete", &input.path, e),
                }
            }
            Step::Gc => {
                let start = Instant::now();
                let result = store.gc();
                r.gc_seconds += start.elapsed().as_secs_f64();
                match result {
                    Ok(report) => r.gc.absorb(&report),
                    Err(e) => r.fail("gc", "", e),
                }
            }
            Step::Flush => {
                if let Err(e) = store.flush() {
                    r.fail("flush", "", e);
                }
                r.counts.stored = (0..N)
                    .map(|i| dep.cluster.core(i).backend().total_bytes().unwrap_or(0))
                    .sum();
            }
            Step::Restore(i) => {
                if r.storage_at_restore.is_none() {
                    r.storage_at_restore = meter.map(StorageMeter::counts);
                }
                let input = &plan.inputs[i];
                let cpu = report::process_cpu_seconds();
                let start = Instant::now();
                let result = store.restore(input.user, &input.path);
                r.restores.push((start, Instant::now()));
                r.restore_cpu.push(report::process_cpu_seconds() - cpu);
                r.counts.restored += input.len();
                match result {
                    Ok(restored) if restored == input.bytes() => {}
                    Ok(_) => r.fail("restore", &input.path, "restored bytes differ from input"),
                    Err(e) => r.fail("restore", &input.path, e),
                }
            }
        }
    }
    for i in 0..N {
        let s = dep.cluster.core(i).stats();
        r.counts.received_share_bytes += s.received_share_bytes;
        r.counts.shares_received += s.shares_received;
        r.counts.inter_dups += s.inter_user_duplicates;
    }
    r
}

/// Whether the round loop may stop.
fn done(start: Instant, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed >= seconds || elapsed >= MAX_SECONDS
}

/// Warns when a count that should repeat exactly differs between rounds.
fn check_repeats(rounds: &[RoundCounts]) {
    if rounds.windows(2).any(|w| w[0] != w[1]) {
        eprintln!("perfbench: warning: exact counts differ between rounds: {rounds:?}");
    }
}

fn seconds_to_ms(seconds: &[f64]) -> Vec<f64> {
    seconds.iter().map(|s| s * 1e3).collect()
}

fn durations_ms(spans: &[(Instant, Instant)]) -> Vec<f64> {
    spans
        .iter()
        .map(|(s, e)| (*e - *s).as_secs_f64() * 1e3)
        .collect()
}

/// The untraced run: the end-to-end metrics.
fn run_untraced(args: &Args, plan: &Plan) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut setups = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let (dep, seconds) = deploy_plain()?;
        setups.push(seconds);
        drop(dep);
    }
    let mut rounds: Vec<Round> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        let (dep, seconds) = deploy_plain()?;
        setups.push(seconds);
        rounds.push(run_round(plan, &dep, None));
        drop(dep);
        let r = &rounds[rounds.len() - 1];
        eprintln!(
            "perfbench: round {}: backup {:.3} MB/s p50 {:.3} ms p90 {:.3} ms; \
             restore {:.3} MB/s p50 {:.3} ms p90 {:.3} ms",
            rounds.len(),
            r.backup_mbps(),
            r.backup_ms(50.0),
            r.backup_ms(90.0),
            r.restore_mbps(),
            r.restore_ms(50.0),
            r.restore_ms(90.0),
        );
        eprintln!(
            "perfbench: round {} cpu: backup {:.3} MB/cpu-s p50 {:.3} ms p90 {:.3} ms; \
             restore {:.3} MB/cpu-s p50 {:.3} ms p90 {:.3} ms",
            rounds.len(),
            r.backup_mb_per_cpu_s(),
            r.backup_cpu_ms(50.0),
            r.backup_cpu_ms(90.0),
            r.restore_mb_per_cpu_s(),
            r.restore_cpu_ms(50.0),
            r.restore_cpu_ms(90.0),
        );
        if rounds.len() == 1 {
            peak_rss = report::peak_rss_mb();
        }
        if done(start, args.seconds) {
            break;
        }
    }
    check_repeats(&rounds.iter().map(|r| r.counts.clone()).collect::<Vec<_>>());
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let first = &rounds[0].counts;

    let mut m = Metrics::default();
    m.push("setup_s", median(&setups));
    m.push(
        "backup_MB_per_cpu_s",
        per_round(&Round::backup_mb_per_cpu_s),
    );
    m.push("backup_cpu_p50_ms", per_round(&|r| r.backup_cpu_ms(50.0)));
    m.push("backup_cpu_p90_ms", per_round(&|r| r.backup_cpu_ms(90.0)));
    m.push(
        "restore_MB_per_cpu_s",
        per_round(&Round::restore_mb_per_cpu_s),
    );
    m.push("restore_cpu_p50_ms", per_round(&|r| r.restore_cpu_ms(50.0)));
    m.push("restore_cpu_p90_ms", per_round(&|r| r.restore_cpu_ms(90.0)));
    m.push("wire_bytes_per_logical", first.wire_per_logical());
    m.push("stored_bytes_per_logical", first.stored_per_logical());
    m.push("peak_rss_MB", peak_rss);
    for (name, value) in wall_clock(&rounds) {
        eprintln!("perfbench: {name} {value:.6} {}", report::unit_of(name));
    }
    eprintln!(
        "perfbench: {} rounds of {} backups and {} restores; {} set-ups",
        rounds.len(),
        plan.backups(),
        plan.restores(),
        setups.len()
    );
    Ok(Outcome {
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        metrics: m,
    })
}

/// Wall-clock throughput and latency of `rounds` (each the median over
/// rounds). The host's CPU steal and wake-up delays move these from run to
/// run, so they are reported, not gated: see `README.md`.
fn wall_clock(rounds: &[Round]) -> [(&'static str, f64); 6] {
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    [
        ("wall.backup_MBps", per_round(&Round::backup_mbps)),
        ("wall.backup_p50_ms", per_round(&|r| r.backup_ms(50.0))),
        ("wall.backup_p90_ms", per_round(&|r| r.backup_ms(90.0))),
        ("wall.restore_MBps", per_round(&Round::restore_mbps)),
        ("wall.restore_p50_ms", per_round(&|r| r.restore_ms(50.0))),
        ("wall.restore_p90_ms", per_round(&|r| r.restore_ms(90.0))),
    ]
}

/// Spans as `(start, end)` seconds since `base`.
fn intervals(spans: &[RpcSpan], base: Instant) -> Vec<(f64, f64)> {
    spans
        .iter()
        .map(|s| ((s.start - base).as_secs_f64(), (s.end - base).as_secs_f64()))
        .collect()
}

/// Summed self time of `ops`: each op's duration minus the RPC spans
/// inside it.
fn client_self_seconds(ops: &[(Instant, Instant)], rpc: &[(f64, f64)], base: Instant) -> f64 {
    ops.iter()
        .map(|(s, e)| {
            let op = ((*s - base).as_secs_f64(), (*e - base).as_secs_f64());
            let inside: Vec<(f64, f64)> = rpc
                .iter()
                .copied()
                .filter(|&(rs, re)| re > op.0 && rs < op.1)
                .collect();
            self_time(op, &inside)
        })
        .sum()
}

fn rpc_seconds(spans: &[RpcSpan], rpc: Rpc) -> f64 {
    spans
        .iter()
        .filter(|s| s.rpc == rpc)
        .map(|s| (s.end - s.start).as_secs_f64())
        .sum()
}

/// The per-layer metrics of one traced round, by name.
fn layer_round(
    round: &Round,
    spans: &[RpcSpan],
    replayed: &[RpcSpan],
    storage: &StorageCounts,
    base: Instant,
) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let rpc = intervals(spans, base);
    out.insert(
        "client.backup_self_s".into(),
        client_self_seconds(&round.backups, &rpc, base),
    );
    out.insert(
        "client.restore_self_s".into(),
        client_self_seconds(&round.restores, &rpc, base),
    );
    for op in Rpc::REPORTED {
        let calls = spans.iter().filter(|s| s.rpc == op).count();
        out.insert(format!("rpc.{}.calls", op.name()), calls as f64);
        out.insert(format!("rpc.{}.s", op.name()), rpc_seconds(spans, op));
    }
    let sum = |op: Rpc, f: fn(&RpcSpan) -> u64| -> u64 {
        spans.iter().filter(|s| s.rpc == op).map(f).sum()
    };
    out.insert(
        "rpc.intra_user_query.fingerprints".into(),
        sum(Rpc::IntraUserQuery, |s| s.items) as f64,
    );
    out.insert(
        "rpc.store_shares.shares".into(),
        sum(Rpc::StoreShares, |s| s.items) as f64,
    );
    out.insert(
        "rpc.store_shares.bytes".into(),
        sum(Rpc::StoreShares, |s| s.bytes) as f64,
    );
    out.insert(
        "rpc.fetch_shares.bytes".into(),
        sum(Rpc::FetchShares, |s| s.bytes) as f64,
    );
    for (name, op) in [
        ("net.store_shares_overhead_s", Rpc::StoreShares),
        ("net.fetch_shares_overhead_s", Rpc::FetchShares),
    ] {
        out.insert(
            name.into(),
            rpc_seconds(spans, op) - rpc_seconds(replayed, op),
        );
    }

    let mut counts = round.counts.clone();
    counts.queried = sum(Rpc::IntraUserQuery, |s| s.items);
    counts.intra_hits = sum(Rpc::IntraUserQuery, |s| s.hits);
    counts.written = storage.written;
    counts.restore_reads = storage.read_bytes()
        - round
            .storage_at_restore
            .map_or(storage.read_bytes(), |c| c.read_bytes());
    out.extend(counts.layer_ratios());

    for (i, op) in STORAGE_OPS.iter().enumerate() {
        out.insert(format!("storage.{op}.calls"), storage.calls[i] as f64);
        if *op != "delete" {
            out.insert(format!("storage.{op}.bytes"), storage.bytes[i] as f64);
            out.insert(format!("storage.{op}.s"), storage.seconds[i]);
        }
    }
    out.insert("gc.s".into(), round.gc_seconds);
    out.insert("gc.rewritten_bytes".into(), round.gc.rewritten_bytes as f64);
    out.insert("gc.reclaimed_bytes".into(), round.gc.reclaimed_bytes as f64);
    out
}

/// The traced run: alternates an untraced round with a traced one (whose
/// RPCs are then replayed in-process), then probes the kernels once on the
/// round's inputs.
fn run_traced(args: &Args, plan: &Plan) -> Result<Outcome, String> {
    let base = Instant::now();
    let mut plain_rounds: Vec<Round> = Vec::new();
    let mut traced_rounds: Vec<Round> = Vec::new();
    let mut layers: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut rpc_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut wire_payloads: Vec<u64> = Vec::new();
    loop {
        let (dep, _) = deploy_plain()?;
        plain_rounds.push(run_round(plan, &dep, None));
        drop(dep);

        let spans = Arc::new(SpanLog::default());
        let meter = Arc::new(StorageMeter::default());
        let servers = metered_servers(&meter).into_iter().map(Arc::new).collect();
        let (dep, _) = deploy(servers, |r| Traced::new(r, Arc::clone(&spans), true))?;
        let round = run_round(plan, &dep, Some(&meter));
        let storage = meter.counts();
        let calls: Vec<Vec<Call>> = dep
            .store
            .with_servers(|s| s.iter().map(Traced::take_calls).collect());
        drop(dep);
        let rpc_spans = spans.take();

        let replay_spans = Arc::new(SpanLog::default());
        let replay_meter = Arc::new(StorageMeter::default());
        for (server, calls) in metered_servers(&replay_meter).into_iter().zip(&calls) {
            let server = Traced::new(server, Arc::clone(&replay_spans), false);
            replay(&server, calls).map_err(|e| format!("in-process replay failed: {e}"))?;
        }
        drop(calls);

        layers.push(layer_round(
            &round,
            &rpc_spans,
            &replay_spans.take(),
            &storage,
            base,
        ));
        for s in &rpc_spans {
            rpc_ms
                .entry(s.rpc.name())
                .or_default()
                .push((s.end - s.start).as_secs_f64() * 1e3);
        }
        if wire_payloads.is_empty() {
            wire_payloads = rpc_spans
                .iter()
                .filter(|s| matches!(s.rpc, Rpc::StoreShares | Rpc::FetchShares))
                .map(|s| s.bytes)
                .collect();
        }
        traced_rounds.push(round);
        if done(base, args.seconds) {
            break;
        }
    }
    check_repeats(
        &traced_rounds
            .iter()
            .map(|r| r.counts.clone())
            .collect::<Vec<_>>(),
    );

    let kernels = kernels::probe(plan);
    let crc = kernels::crc32_seconds(&wire_payloads);

    let per_round = |name: &str| median(&layers.iter().map(|l| l[name]).collect::<Vec<_>>());
    let mut m = Metrics::default();
    for name in ["client.backup_self_s", "client.restore_self_s"] {
        m.push(name, per_round(name));
    }
    m.push("encode.stage_sum_s", kernels.encode_stage_sum());
    m.push(
        "encode.unaccounted_s",
        per_round("client.backup_self_s") - kernels.encode_stage_sum(),
    );
    for (name, probe) in kernels.named() {
        m.push(&format!("{name}_s"), probe.seconds);
        m.push(
            &format!("{name}_MBps"),
            ratio(probe.bytes as f64 / MB, probe.seconds),
        );
    }
    for op in Rpc::REPORTED {
        let name = op.name();
        m.push(
            &format!("rpc.{name}.calls"),
            per_round(&format!("rpc.{name}.calls")),
        );
        m.push(
            &format!("rpc.{name}.s"),
            per_round(&format!("rpc.{name}.s")),
        );
        let samples = rpc_ms.get(name).map_or(&[][..], |v| v.as_slice());
        m.push(&format!("rpc.{name}.p90_ms"), tail(samples, 90.0).1);
    }
    for name in [
        "rpc.intra_user_query.fingerprints",
        "rpc.store_shares.shares",
        "rpc.store_shares.bytes",
        "rpc.fetch_shares.bytes",
        "net.store_shares_overhead_s",
        "net.fetch_shares_overhead_s",
    ] {
        m.push(name, per_round(name));
    }
    m.push("net.crc32_s", crc.seconds);
    let layer_names: Vec<String> = layers[0]
        .keys()
        .filter(|k| k.starts_with("dedup.") || k.starts_with("storage.") || k.starts_with("gc."))
        .cloned()
        .collect();
    for name in &layer_names {
        m.push(name, per_round(name));
    }

    let backup_s = |rs: &[Round]| median(&rs.iter().map(Round::backup_seconds).collect::<Vec<_>>());
    let restore_s =
        |rs: &[Round]| median(&rs.iter().map(Round::restore_seconds).collect::<Vec<_>>());
    let mbps = |f: fn(&Round) -> f64| median(&traced_rounds.iter().map(f).collect::<Vec<_>>());
    for (name, value) in wall_clock(&plain_rounds) {
        m.push(name, value);
    }
    m.push("traced.backup_MBps", mbps(Round::backup_mbps));
    m.push("traced.restore_MBps", mbps(Round::restore_mbps));
    m.push(
        "trace.backup_time_ratio",
        backup_s(&traced_rounds) / backup_s(&plain_rounds),
    );
    m.push(
        "trace.restore_time_ratio",
        restore_s(&traced_rounds) / restore_s(&plain_rounds),
    );
    eprintln!(
        "perfbench: {} traced and {} untraced rounds",
        traced_rounds.len(),
        plain_rounds.len()
    );
    let rounds = plain_rounds.iter().chain(&traced_rounds);
    Ok(Outcome {
        attempted: rounds.clone().map(|r| r.attempted).sum(),
        failed: rounds.map(|r| r.failed).sum(),
        metrics: m,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <unique|fsl-weekly|vm-clones> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let plan = Plan::new(args.kind, args.seed);
    println!(
        "{}",
        report::environment(args.kind.name(), args.seed, args.trace)
    );
    let outcome = if args.trace {
        run_traced(&args, &plan)
    } else {
        run_untraced(&args, &plan)
    };
    match outcome {
        Ok(outcome) => {
            outcome.print();
            if outcome.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
