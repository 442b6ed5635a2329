//! A `Read` source is byte-exact equivalent to the same bytes cut up front.
//!
//! The chunk-boundary contract (`ChunkCutter` decisions depend only on the
//! byte stream, never on `Read`-call slicing) plus the deterministic CAONT-RS
//! encoding mean a streamed backup must produce the same secrets, the same
//! shares, the same dedup accounting, and the same restored bytes as a
//! `backup_chunks` of `chunker.chunk(data)` — for every chunking algorithm
//! and every way the input arrives. These tests pin that equivalence down.
//! (The memory bound of the pipeline plus per-cloud batches is asserted by
//! the `client` unit tests, which can shrink the batch size.)

use std::io::Read;

use cdstore_chunking::{ChunkerConfig, ChunkerKind};
use cdstore_core::{CdStore, CdStoreConfig, CdStoreError, PipelineConfig, UploadReport};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Backup-like data: blocks of pseudo-random content where some blocks
/// repeat, so chunking and both dedup stages have real work to do.
fn backup_data(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let blocks: Vec<Vec<u8>> = (0..7)
        .map(|_| (0..4096).map(|_| rng.gen()).collect())
        .collect();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let b = &blocks[rng.gen_range(0..blocks.len())];
        let take = b.len().min(len - out.len());
        out.extend_from_slice(&b[..take]);
    }
    out
}

/// Hands out the underlying bytes in reads capped at `cap` bytes, so chunk
/// boundaries see every possible slicing of the stream.
struct DribbleReader<'a> {
    data: &'a [u8],
    pos: usize,
    cap: usize,
}

impl<'a> DribbleReader<'a> {
    fn new(data: &'a [u8], cap: usize) -> Self {
        DribbleReader {
            data,
            pos: 0,
            cap: cap.max(1),
        }
    }
}

impl Read for DribbleReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let take = self.cap.min(buf.len()).min(self.data.len() - self.pos);
        buf[..take].copy_from_slice(&self.data[self.pos..self.pos + take]);
        self.pos += take;
        Ok(take)
    }
}

/// Fails with an I/O error after yielding `good` bytes of the data.
struct FailAfter<'a> {
    data: &'a [u8],
    pos: usize,
    good: usize,
}

impl Read for FailAfter<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.good {
            return Err(std::io::Error::other("source truncated mid-backup"));
        }
        let take = buf
            .len()
            .min(self.good - self.pos)
            .min(self.data.len() - self.pos);
        buf[..take].copy_from_slice(&self.data[self.pos..self.pos + take]);
        self.pos += take;
        Ok(take)
    }
}

fn small_chunks() -> ChunkerConfig {
    ChunkerConfig::new(512, 1024, 4096)
}

fn store_with(kind: ChunkerKind) -> CdStore {
    CdStore::new(
        CdStoreConfig::new(4, 3)
            .unwrap()
            .with_chunker(small_chunks())
            .with_chunker_kind(kind),
    )
}

/// The pre-cut reference path: the whole file is cut up front by the
/// deployment's chunker and backed up with `backup_chunks`.
fn buffered_backup(store: &CdStore, user: u64, path: &str, data: &[u8]) -> UploadReport {
    let client = store.client(user).unwrap();
    let chunks: Vec<Vec<u8>> = client
        .chunker()
        .chunk(data)
        .into_iter()
        .map(|c| c.data)
        .collect();
    store.backup_chunks(user, path, &chunks).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary content, chunker, read-slicing, and pipeline read-buffer
    /// size: the streamed upload produces the same secret count and dedup
    /// accounting as the pre-cut path, and both restore byte-exact.
    #[test]
    fn streamed_backup_equals_buffered(
        seed in any::<u64>(),
        kind_index in 0usize..3,
        read_buffer in 1usize..5000,
    ) {
        let kind = ChunkerKind::ALL[kind_index];
        let data = backup_data(seed, 150_000 + (seed % 50_000) as usize);
        let read_cap = 1 + (seed % 7919) as usize;

        // Pre-cut reference deployment.
        let buffered_store = store_with(kind);
        let buffered = buffered_backup(&buffered_store, 1, "/f", &data);

        // Streamed deployment: same content arrives in dribbled reads
        // through a pipeline with an arbitrary read-buffer size.
        let streamed_store = store_with(kind);
        let client = streamed_store.client(1).unwrap();
        let config = PipelineConfig {
            read_buffer,
            ..PipelineConfig::default()
        };
        let streamed = streamed_store.with_servers(|servers| {
            client
                .upload_stream(servers, "/f", DribbleReader::new(&data, read_cap), &config)
                .unwrap()
        });

        prop_assert_eq!(streamed.num_secrets, buffered.num_secrets);
        prop_assert_eq!(streamed.dedup, buffered.dedup);
        prop_assert_eq!(&streamed.transferred_per_cloud, &buffered.transferred_per_cloud);
        prop_assert_eq!(&streamed.physical_per_cloud, &buffered.physical_per_cloud);

        // Both deployments restore the original bytes — buffered wrapper and
        // explicit streamed writer alike.
        prop_assert_eq!(buffered_store.restore(1, "/f").unwrap(), data.clone());
        let mut restored = Vec::new();
        let written = streamed_store.restore_stream(1, "/f", &mut restored).unwrap();
        prop_assert_eq!(written, data.len() as u64);
        prop_assert_eq!(restored, data);
    }

    /// Re-streaming identical content transfers zero share bytes: intra-user
    /// dedup works identically on the streamed path.
    #[test]
    fn streamed_reupload_dedups_everything(
        seed in any::<u64>(),
        kind_index in 0usize..3,
    ) {
        let kind = ChunkerKind::ALL[kind_index];
        let data = backup_data(seed, 120_000);
        let store = store_with(kind);
        let first = store.backup_stream(1, "/v1", &data[..]).unwrap();
        prop_assert!(first.dedup.transferred_share_bytes > 0);
        let second = store.backup_stream(1, "/v2", &data[..]).unwrap();
        prop_assert_eq!(second.dedup.transferred_share_bytes, 0);
        prop_assert_eq!(store.restore(1, "/v1").unwrap(), data.clone());
        prop_assert_eq!(store.restore(1, "/v2").unwrap(), data);
    }
}

/// A mid-stream read failure surfaces as `CdStoreError::Io`, releases all
/// transient upload state, and a retry of the same pathname succeeds.
#[test]
fn failed_streamed_backup_leaves_no_leaked_state() {
    let store = store_with(ChunkerKind::Rabin);
    let data = backup_data(7, 400_000);
    let err = store
        .backup_stream(
            1,
            "/flaky",
            FailAfter {
                data: &data,
                pos: 0,
                good: 250_000,
            },
        )
        .expect_err("truncated source must fail the backup");
    assert!(
        matches!(err, CdStoreError::Io(_)),
        "unexpected error {err:?}"
    );
    assert!(store.restore(1, "/flaky").is_err());

    // Retry with a healthy source: the abandoned upload's transient
    // references must not block or corrupt anything.
    store.backup_stream(1, "/flaky", &data[..]).unwrap();
    assert_eq!(store.restore(1, "/flaky").unwrap(), data);

    // The abandoned shares are reclaimable: delete + gc drains the backends.
    assert!(store.delete(1, "/flaky").unwrap());
    store.gc().unwrap();
    assert_eq!(store.stats().backend_bytes.iter().sum::<u64>(), 0);
}

/// `CdStore::backup` (buffered wrapper) and `CdStore::backup_stream` land
/// identical state — a slice really is just one shape of `Read` source.
#[test]
fn wrapper_and_streaming_facade_apis_agree() {
    let data = backup_data(21, 200_000);
    let via_slice = store_with(ChunkerKind::FastCdc);
    let a = via_slice.backup(1, "/f", &data).unwrap();
    let via_stream = store_with(ChunkerKind::FastCdc);
    let b = via_stream.backup_stream(1, "/f", &data[..]).unwrap();
    assert_eq!(a.num_secrets, b.num_secrets);
    assert_eq!(a.dedup, b.dedup);
    assert_eq!(via_slice.restore(1, "/f").unwrap(), data);
    assert_eq!(via_stream.restore(1, "/f").unwrap(), data);
}
