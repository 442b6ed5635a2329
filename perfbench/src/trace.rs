//! Timing wrappers installed around the system's public boundaries: a
//! [`ServerTransport`] wrapper that records one span per RPC (and, for the
//! in-process replay, the call itself), and a [`StorageBackend`] wrapper
//! that counts calls, bytes and seconds per backend operation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cdstore_core::server::{GcConfig, GcReport};
use cdstore_core::transport::{ServerProbe, ServerTransport, StoreReceipt};
use cdstore_core::{CdStoreError, FileRecipe, ShareMetadata};
use cdstore_crypto::Fingerprint;
use cdstore_storage::journal::{CHECKPOINT_PREFIX, WAL_PREFIX};
use cdstore_storage::store::CONTAINER_KEY_PREFIX;
use cdstore_storage::{StorageBackend, StorageError};

/// The RPCs of [`ServerTransport`] that carry work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rpc {
    IntraUserQuery,
    StoreShares,
    PutFile,
    ReleaseUploads,
    HasFile,
    GetRecipe,
    DeleteFile,
    FetchShares,
    Flush,
    Gc,
}

impl Rpc {
    /// The RPCs reported as per-layer metrics, in report order.
    pub const REPORTED: [Rpc; 8] = [
        Rpc::IntraUserQuery,
        Rpc::StoreShares,
        Rpc::PutFile,
        Rpc::GetRecipe,
        Rpc::FetchShares,
        Rpc::DeleteFile,
        Rpc::Flush,
        Rpc::Gc,
    ];

    /// Metric name of the RPC.
    pub fn name(self) -> &'static str {
        match self {
            Rpc::IntraUserQuery => "intra_user_query",
            Rpc::StoreShares => "store_shares",
            Rpc::PutFile => "put_file",
            Rpc::ReleaseUploads => "release_uploads",
            Rpc::HasFile => "has_file",
            Rpc::GetRecipe => "get_recipe",
            Rpc::DeleteFile => "delete_file",
            Rpc::FetchShares => "fetch_shares",
            Rpc::Flush => "flush",
            Rpc::Gc => "gc",
        }
    }
}

/// One completed RPC as seen by the client.
#[derive(Debug, Clone, Copy)]
pub struct RpcSpan {
    pub rpc: Rpc,
    pub start: Instant,
    pub end: Instant,
    /// Fingerprints queried, shares stored, or shares fetched.
    pub items: u64,
    /// Share payload bytes sent (store) or received (fetch).
    pub bytes: u64,
    /// Intra-user query answers that were "already owned".
    pub hits: u64,
}

/// One RPC with its arguments, kept for the in-process replay.
pub enum Call {
    IntraUserQuery(u64, Vec<Fingerprint>),
    StoreShares(u64, Vec<(ShareMetadata, Vec<u8>)>),
    PutFile(u64, Vec<u8>, FileRecipe, Vec<Fingerprint>),
    ReleaseUploads(u64, Vec<Fingerprint>),
    HasFile(u64, Vec<u8>),
    GetRecipe(u64, Vec<u8>),
    DeleteFile(u64, Vec<u8>),
    FetchShares(u64, Vec<Fingerprint>),
    Flush,
    Gc(GcConfig),
}

/// Spans shared by every traced transport of one deployment.
#[derive(Default)]
pub struct SpanLog {
    spans: Mutex<Vec<RpcSpan>>,
}

impl SpanLog {
    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<RpcSpan> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

/// A [`ServerTransport`] that times every call into `inner`.
pub struct Traced<T> {
    inner: T,
    spans: Arc<SpanLog>,
    /// Present when the calls are to be replayed later.
    calls: Option<Mutex<Vec<Call>>>,
}

impl<T: ServerTransport> Traced<T> {
    /// Wraps `inner`, recording spans into `spans`; with `keep_calls`, also
    /// keeps every call's arguments for [`replay`].
    pub fn new(inner: T, spans: Arc<SpanLog>, keep_calls: bool) -> Self {
        Traced {
            inner,
            spans,
            calls: keep_calls.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Takes the calls kept so far (empty without `keep_calls`).
    pub fn take_calls(&self) -> Vec<Call> {
        self.calls
            .as_ref()
            .map(|c| std::mem::take(&mut *c.lock().expect("call log poisoned")))
            .unwrap_or_default()
    }

    fn keep(&self, call: impl FnOnce() -> Call) {
        if let Some(calls) = &self.calls {
            calls.lock().expect("call log poisoned").push(call());
        }
    }

    fn timed<R>(
        &self,
        rpc: Rpc,
        f: impl FnOnce(&T) -> Result<R, CdStoreError>,
        measure: impl FnOnce(&R) -> (u64, u64, u64),
    ) -> Result<R, CdStoreError> {
        let start = Instant::now();
        let result = f(&self.inner);
        let end = Instant::now();
        let (items, bytes, hits) = result.as_ref().map(measure).unwrap_or_default();
        self.spans
            .spans
            .lock()
            .expect("span log poisoned")
            .push(RpcSpan {
                rpc,
                start,
                end,
                items,
                bytes,
                hits,
            });
        result
    }
}

fn unmeasured<R>(_: &R) -> (u64, u64, u64) {
    (0, 0, 0)
}

impl<T: ServerTransport> ServerTransport for Traced<T> {
    fn cloud_index(&self) -> usize {
        self.inner.cloud_index()
    }

    fn intra_user_query(
        &self,
        user: u64,
        fingerprints: &[Fingerprint],
    ) -> Result<Vec<bool>, CdStoreError> {
        self.keep(|| Call::IntraUserQuery(user, fingerprints.to_vec()));
        self.timed(
            Rpc::IntraUserQuery,
            |t| t.intra_user_query(user, fingerprints),
            |owned| {
                let hits = owned.iter().filter(|&&o| o).count() as u64;
                (fingerprints.len() as u64, 0, hits)
            },
        )
    }

    fn store_shares(
        &self,
        user: u64,
        shares: &[(ShareMetadata, Vec<u8>)],
    ) -> Result<StoreReceipt, CdStoreError> {
        self.keep(|| Call::StoreShares(user, shares.to_vec()));
        let bytes: u64 = shares.iter().map(|(_, s)| s.len() as u64).sum();
        self.timed(
            Rpc::StoreShares,
            |t| t.store_shares(user, shares),
            |_| (shares.len() as u64, bytes, 0),
        )
    }

    fn put_file(
        &self,
        user: u64,
        encoded_pathname: &[u8],
        recipe: &FileRecipe,
        uploaded: &[Fingerprint],
    ) -> Result<(), CdStoreError> {
        self.keep(|| {
            Call::PutFile(
                user,
                encoded_pathname.to_vec(),
                recipe.clone(),
                uploaded.to_vec(),
            )
        });
        self.timed(
            Rpc::PutFile,
            |t| t.put_file(user, encoded_pathname, recipe, uploaded),
            unmeasured,
        )
    }

    fn release_uploads(&self, user: u64, fingerprints: &[Fingerprint]) -> Result<(), CdStoreError> {
        self.keep(|| Call::ReleaseUploads(user, fingerprints.to_vec()));
        self.timed(
            Rpc::ReleaseUploads,
            |t| t.release_uploads(user, fingerprints),
            unmeasured,
        )
    }

    fn has_file(&self, user: u64, encoded_pathname: &[u8]) -> Result<bool, CdStoreError> {
        self.keep(|| Call::HasFile(user, encoded_pathname.to_vec()));
        self.timed(
            Rpc::HasFile,
            |t| t.has_file(user, encoded_pathname),
            unmeasured,
        )
    }

    fn get_recipe(&self, user: u64, encoded_pathname: &[u8]) -> Result<FileRecipe, CdStoreError> {
        self.keep(|| Call::GetRecipe(user, encoded_pathname.to_vec()));
        self.timed(
            Rpc::GetRecipe,
            |t| t.get_recipe(user, encoded_pathname),
            unmeasured,
        )
    }

    fn delete_file(&self, user: u64, encoded_pathname: &[u8]) -> Result<bool, CdStoreError> {
        self.keep(|| Call::DeleteFile(user, encoded_pathname.to_vec()));
        self.timed(
            Rpc::DeleteFile,
            |t| t.delete_file(user, encoded_pathname),
            unmeasured,
        )
    }

    fn fetch_shares(
        &self,
        user: u64,
        fingerprints: &[Fingerprint],
    ) -> Result<Vec<Vec<u8>>, CdStoreError> {
        self.keep(|| Call::FetchShares(user, fingerprints.to_vec()));
        self.timed(
            Rpc::FetchShares,
            |t| t.fetch_shares(user, fingerprints),
            |shares| {
                let bytes = shares.iter().map(|s| s.len() as u64).sum();
                (shares.len() as u64, bytes, 0)
            },
        )
    }

    fn flush(&self) -> Result<(), CdStoreError> {
        self.keep(|| Call::Flush);
        self.timed(Rpc::Flush, |t| t.flush(), unmeasured)
    }

    fn gc_with(&self, config: GcConfig) -> Result<GcReport, CdStoreError> {
        self.keep(|| Call::Gc(config));
        self.timed(Rpc::Gc, |t| t.gc_with(config), unmeasured)
    }

    fn probe(&self) -> Result<ServerProbe, CdStoreError> {
        self.inner.probe()
    }
}

/// Re-issues `calls`, in order, against `server`. Errors are returned as
/// they would have been to the original caller.
pub fn replay<T: ServerTransport>(server: &T, calls: &[Call]) -> Result<(), CdStoreError> {
    for call in calls {
        match call {
            Call::IntraUserQuery(user, fps) => {
                server.intra_user_query(*user, fps)?;
            }
            Call::StoreShares(user, shares) => {
                server.store_shares(*user, shares)?;
            }
            Call::PutFile(user, path, recipe, uploaded) => {
                server.put_file(*user, path, recipe, uploaded)?;
            }
            Call::ReleaseUploads(user, fps) => server.release_uploads(*user, fps)?,
            Call::HasFile(user, path) => {
                server.has_file(*user, path)?;
            }
            Call::GetRecipe(user, path) => {
                server.get_recipe(*user, path)?;
            }
            Call::DeleteFile(user, path) => {
                server.delete_file(*user, path)?;
            }
            Call::FetchShares(user, fps) => {
                server.fetch_shares(*user, fps)?;
            }
            Call::Flush => server.flush()?,
            Call::Gc(config) => {
                server.gc_with(*config)?;
            }
        }
    }
    Ok(())
}

/// Backend operations counted by [`StorageMeter`].
pub const STORAGE_OPS: [&str; 5] = ["put", "append", "get", "read_range", "delete"];
const PUT: usize = 0;
const APPEND: usize = 1;
const GET: usize = 2;
const READ_RANGE: usize = 3;
const DELETE: usize = 4;

/// Calls, bytes and nanoseconds of each backend operation, plus bytes
/// written by key class, summed over every backend sharing the meter.
#[derive(Default)]
pub struct StorageMeter {
    calls: [AtomicU64; 5],
    bytes: [AtomicU64; 5],
    nanos: [AtomicU64; 5],
    written: [AtomicU64; 5],
}

/// A point-in-time copy of a [`StorageMeter`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StorageCounts {
    pub calls: [u64; 5],
    pub bytes: [u64; 5],
    pub seconds: [f64; 5],
    /// Bytes written by key class, in [`crate::stats::KEY_CLASSES`] order.
    pub written: [u64; 5],
}

impl StorageCounts {
    /// Backend bytes read (whole-object and ranged reads).
    pub fn read_bytes(&self) -> u64 {
        self.bytes[GET] + self.bytes[READ_RANGE]
    }
}

impl StorageMeter {
    /// Snapshot of every counter.
    pub fn counts(&self) -> StorageCounts {
        let load = |a: &[AtomicU64; 5]| a.each_ref().map(|v| v.load(Ordering::Relaxed));
        StorageCounts {
            calls: load(&self.calls),
            bytes: load(&self.bytes),
            seconds: load(&self.nanos).map(|n| n as f64 * 1e-9),
            written: load(&self.written),
        }
    }

    fn record(&self, op: usize, bytes: usize, start: Instant) {
        let nanos = start.elapsed().as_nanos() as u64;
        self.calls[op].fetch_add(1, Ordering::Relaxed);
        self.bytes[op].fetch_add(bytes as u64, Ordering::Relaxed);
        self.nanos[op].fetch_add(nanos, Ordering::Relaxed);
    }

    fn wrote(&self, key: &str, bytes: usize) {
        let class = if key.starts_with(CONTAINER_KEY_PREFIX) {
            0
        } else if key.starts_with(WAL_PREFIX) {
            1
        } else if key.starts_with(CHECKPOINT_PREFIX) {
            2
        } else if key.starts_with("idx-") {
            3
        } else {
            4
        };
        self.written[class].fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// A [`StorageBackend`] that meters every call into `inner`. Each method
/// forwards to the same method of `inner`, so the wrapped backend behaves
/// exactly as the bare one.
pub struct MeteredBackend<B> {
    inner: B,
    meter: Arc<StorageMeter>,
}

impl<B: StorageBackend> MeteredBackend<B> {
    pub fn new(inner: B, meter: Arc<StorageMeter>) -> Self {
        MeteredBackend { inner, meter }
    }
}

impl<B: StorageBackend> StorageBackend for MeteredBackend<B> {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), StorageError> {
        let start = Instant::now();
        let result = self.inner.put(key, data);
        self.meter.record(PUT, data.len(), start);
        self.meter.wrote(key, data.len());
        result
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        let start = Instant::now();
        let result = self.inner.get(key);
        let bytes = result.as_ref().map_or(0, |d| d.len());
        self.meter.record(GET, bytes, start);
        result
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        let start = Instant::now();
        let result = self.inner.delete(key);
        self.meter.record(DELETE, 0, start);
        result
    }

    fn exists(&self, key: &str) -> Result<bool, StorageError> {
        self.inner.exists(key)
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }

    fn append(&self, key: &str, data: &[u8]) -> Result<(), StorageError> {
        let start = Instant::now();
        let result = self.inner.append(key, data);
        self.meter.record(APPEND, data.len(), start);
        self.meter.wrote(key, data.len());
        result
    }

    fn object_size(&self, key: &str) -> Result<u64, StorageError> {
        self.inner.object_size(key)
    }

    fn read_range(&self, key: &str, offset: u64, len: usize) -> Result<Vec<u8>, StorageError> {
        let start = Instant::now();
        let result = self.inner.read_range(key, offset, len);
        let bytes = result.as_ref().map_or(0, |d| d.len());
        self.meter.record(READ_RANGE, bytes, start);
        result
    }

    fn total_bytes(&self) -> Result<u64, StorageError> {
        self.inner.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdstore_core::CdStoreServer;
    use cdstore_storage::MemoryBackend;

    #[test]
    fn metered_backend_counts_by_op_and_key_class() {
        let meter = Arc::new(StorageMeter::default());
        let backend = MeteredBackend::new(MemoryBackend::new(), Arc::clone(&meter));
        backend.put("container-0001", &[0; 100]).unwrap();
        backend.append("meta-wal-01-02", &[0; 10]).unwrap();
        backend.append("meta-wal-01-02", &[0; 5]).unwrap();
        backend.put("meta-ckpt-01", &[0; 7]).unwrap();
        backend.put("idx-share-r-01", &[0; 3]).unwrap();
        backend.put("unrelated", &[0; 1]).unwrap();
        assert_eq!(backend.get("container-0001").unwrap().len(), 100);
        assert_eq!(backend.read_range("meta-wal-01-02", 2, 4).unwrap().len(), 4);
        backend.delete("unrelated").unwrap();
        let c = meter.counts();
        assert_eq!(c.calls, [4, 2, 1, 1, 1]);
        assert_eq!(c.bytes, [111, 15, 100, 4, 0]);
        assert_eq!(c.written, [100, 15, 7, 3, 1]);
        assert_eq!(c.read_bytes(), 104);
        // The wrapper forwards: the inner backend holds the same objects.
        assert_eq!(backend.total_bytes().unwrap(), 100 + 15 + 7 + 3);
    }

    #[test]
    fn traced_transport_records_spans_and_replays_the_same_state() {
        let spans = Arc::new(SpanLog::default());
        let traced = Traced::new(CdStoreServer::new(0), Arc::clone(&spans), true);
        let share = b"a share payload".to_vec();
        let meta = ShareMetadata {
            fingerprint: Fingerprint::of(&share),
            share_size: share.len() as u32,
            secret_seq: 0,
            secret_size: 40,
        };
        let fps = [meta.fingerprint];
        assert_eq!(traced.intra_user_query(1, &fps).unwrap(), vec![false]);
        traced.store_shares(1, &[(meta, share.clone())]).unwrap();
        assert_eq!(traced.intra_user_query(1, &fps).unwrap(), vec![true]);
        assert_eq!(traced.fetch_shares(1, &fps).unwrap(), vec![share.clone()]);

        let recorded = spans.take();
        let ops: Vec<Rpc> = recorded.iter().map(|s| s.rpc).collect();
        use Rpc::*;
        assert_eq!(
            ops,
            [IntraUserQuery, StoreShares, IntraUserQuery, FetchShares]
        );
        assert_eq!(recorded[0].hits, 0);
        assert_eq!(recorded[2].hits, 1);
        assert_eq!(
            (recorded[1].items, recorded[1].bytes),
            (1, share.len() as u64)
        );
        assert_eq!(recorded[3].bytes, share.len() as u64);

        let replica = CdStoreServer::new(0);
        replay(&replica, &traced.take_calls()).unwrap();
        assert_eq!(replica.stats().received_share_bytes, share.len() as u64);
        assert_eq!(replica.intra_user_query(1, &fps), vec![true]);
    }
}
