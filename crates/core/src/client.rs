//! The CDStore client (§4.1–§4.3): chunking, CAONT-RS encoding, intra-user
//! deduplication, batched uploads, and restores.
//!
//! Every upload takes one path: the chunks — cut from any [`std::io::Read`]
//! by [`CdStoreClient::upload_stream`], or supplied pre-cut to
//! [`CdStoreClient::upload_chunks`] — run through the encode pipeline
//! ([`crate::pipeline`]), and one committer applies both dedup stages and
//! ships each cloud's shares in 4 MB batches while later chunks are still
//! being encoded. Restores ([`CdStoreClient::download_stream`]) push to any
//! [`std::io::Write`] in bounded windows. Peak memory is set by the pipeline
//! depth, the per-cloud batches and the restore window, never the file size.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::sync::Arc;

use cdstore_chunking::{ChunkStream, Chunker, ChunkerConfig, ChunkerKind};
use cdstore_crypto::Fingerprint;
use cdstore_secretsharing::{BufferPool, CaontRs, SecretSharing};

use crate::dedup::DedupStats;
use crate::error::CdStoreError;
use crate::metadata::{FileRecipe, RecipeEntry, ShareMetadata};
use crate::pipeline::{encode_source, ChunkSource, EncodedSecret, PipelineConfig, PreCutChunks};
use crate::retry::{is_transient, RetryPolicy};
use crate::transport::ServerTransport;

/// Size of the per-cloud upload buffer: shares are batched into 4 MB units
/// before being sent over the Internet (§4.1).
pub const UPLOAD_BATCH_BYTES: u64 = 4 * 1024 * 1024;

/// Number of secrets a streamed restore fetches per window. With the default
/// 8 KB average chunk size this keeps roughly 8 MB of shares in flight per
/// chosen cloud — enough to amortise the RPC, bounded regardless of file
/// size.
pub const RESTORE_WINDOW_SECRETS: usize = 1024;

/// The result of one file upload.
#[derive(Debug, Clone, PartialEq)]
pub struct UploadReport {
    /// Number of secrets (chunks) the file produced.
    pub num_secrets: usize,
    /// Deduplication byte counters for this upload.
    pub dedup: DedupStats,
    /// Share bytes transferred to each cloud after intra-user deduplication.
    pub transferred_per_cloud: Vec<u64>,
    /// Share bytes newly stored at each cloud after inter-user deduplication.
    pub physical_per_cloud: Vec<u64>,
}

impl UploadReport {
    /// Convenience accessor mirroring §5.4's "logical data".
    pub fn logical_bytes(&self) -> u64 {
        self.dedup.logical_bytes
    }
}

/// The CDStore client run by each user machine.
pub struct CdStoreClient {
    user: u64,
    n: usize,
    k: usize,
    scheme: CaontRs,
    chunker: Box<dyn Chunker + Send + Sync>,
    retry: RetryPolicy,
}

impl CdStoreClient {
    /// Creates a client for `user` dispersing across `n` clouds with
    /// threshold `k`, using the default 8 KB average chunk size.
    pub fn new(user: u64, n: usize, k: usize) -> Result<Self, CdStoreError> {
        Self::with_chunker(user, n, k, ChunkerConfig::default())
    }

    /// Creates a client with an explicit chunking configuration (Rabin
    /// content-defined chunking, the paper's default algorithm).
    pub fn with_chunker(
        user: u64,
        n: usize,
        k: usize,
        chunker: ChunkerConfig,
    ) -> Result<Self, CdStoreError> {
        Self::with_chunker_kind(user, n, k, ChunkerKind::Rabin, chunker)
    }

    /// Creates a client with an explicit chunking algorithm and size bounds
    /// (e.g. [`ChunkerKind::FastCdc`] for gear-hash chunking).
    pub fn with_chunker_kind(
        user: u64,
        n: usize,
        k: usize,
        kind: ChunkerKind,
        chunker: ChunkerConfig,
    ) -> Result<Self, CdStoreError> {
        let scheme = CaontRs::new(n, k).map_err(CdStoreError::Sharing)?;
        Ok(CdStoreClient {
            user,
            n,
            k,
            scheme,
            chunker: kind.build(chunker),
            retry: RetryPolicy::default(),
        })
    }

    /// Sets the bounded retry-with-backoff policy applied to transient cloud
    /// faults during uploads and restores (see [`crate::retry`]).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The transient-fault retry policy in use.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The user this client acts for.
    pub fn user(&self) -> u64 {
        self.user
    }

    /// The convergent dispersal scheme in use.
    pub fn scheme(&self) -> &CaontRs {
        &self.scheme
    }

    /// The chunking algorithm in use.
    pub fn chunker(&self) -> &dyn Chunker {
        self.chunker.as_ref()
    }

    /// Encodes a pathname into its per-cloud shares. Pathnames are sensitive
    /// metadata, so they are dispersed via secret sharing rather than
    /// replicated (§4.3); because convergent dispersal is deterministic, the
    /// client can recompute the same encoded pathname at restore time.
    pub fn encode_pathname(&self, pathname: &str) -> Result<Vec<Vec<u8>>, CdStoreError> {
        Ok(self.scheme.split(pathname.as_bytes())?)
    }

    /// Uploads a file: chunk → encode → intra-user dedup → batched upload →
    /// metadata offload. `servers[i]` must be the server co-located with
    /// cloud `i` — either in-process [`crate::server::CdStoreServer`]s or any
    /// other [`ServerTransport`] (e.g. `cdstore_net`'s remote handles).
    /// Uploads require all `n` clouds so redundancy is not silently degraded.
    ///
    /// Thin wrapper over [`CdStoreClient::upload_stream`] — an in-memory
    /// slice is just one shape of `Read` source.
    pub fn upload<T: ServerTransport>(
        &self,
        servers: &[T],
        pathname: &str,
        data: &[u8],
    ) -> Result<UploadReport, CdStoreError> {
        self.upload_stream(servers, pathname, data, &PipelineConfig::default())
    }

    /// Uploads a file pulled incrementally from `reader`: the streaming
    /// counterpart of [`CdStoreClient::upload`].
    ///
    /// Chunks are cut as bytes arrive, encoded by the staged pipeline (see
    /// [`crate::pipeline`]), deduplicated intra-user, and shipped to each
    /// cloud in [`UPLOAD_BATCH_BYTES`] batches *while later chunks are still
    /// being encoded* — CPU and network overlap, and peak memory is bounded
    /// by the pipeline depth plus the per-cloud batch buffers, never the
    /// file size.
    pub fn upload_stream<T: ServerTransport, R: Read + Send>(
        &self,
        servers: &[T],
        pathname: &str,
        reader: R,
        config: &PipelineConfig,
    ) -> Result<UploadReport, CdStoreError> {
        let source =
            ChunkStream::with_buffer_size(self.chunker.as_ref(), reader, config.read_buffer.max(1));
        self.upload_source(servers, pathname, source, config, UPLOAD_BATCH_BYTES)
    }

    /// Uploads a file already divided into secrets (chunks). Used directly by
    /// the trace-driven experiments, where the datasets provide chunk
    /// boundaries (§5.2). The chunks take the same pipeline and batching as
    /// [`CdStoreClient::upload_stream`]; only the chunker is bypassed.
    pub fn upload_chunks<T: ServerTransport>(
        &self,
        servers: &[T],
        pathname: &str,
        chunks: &[Vec<u8>],
    ) -> Result<UploadReport, CdStoreError> {
        let source = PreCutChunks(chunks.iter());
        let config = PipelineConfig::default();
        self.upload_source(servers, pathname, source, &config, UPLOAD_BATCH_BYTES)
    }

    /// The one upload path: encodes `source` through the pipeline and feeds
    /// each secret, in order, to a [`StreamCommitter`] shipping per-cloud
    /// batches of `batch_bytes`.
    fn upload_source<T: ServerTransport>(
        &self,
        servers: &[T],
        pathname: &str,
        source: impl ChunkSource + Send,
        config: &PipelineConfig,
        batch_bytes: u64,
    ) -> Result<UploadReport, CdStoreError> {
        if servers.len() != self.n {
            return Err(CdStoreError::InvalidConfig(format!(
                "expected {} servers, got {}",
                self.n,
                servers.len()
            )));
        }
        // Resolve the buffer pool here so the committer can keep recycling
        // batch buffers after the encode pipeline itself has shut down.
        let pool = config
            .pool
            .clone()
            .unwrap_or_else(|| Arc::new(BufferPool::new()));
        let mut pipeline_config = config.clone();
        pipeline_config.pool = Some(Arc::clone(&pool));
        let mut committer = StreamCommitter::new(self, servers, pool, batch_bytes.max(1));
        let encoded = encode_source(&self.scheme, source, &pipeline_config, |enc, _| {
            committer.absorb(enc)
        });
        let report = match encoded {
            Ok(_) => committer.finalize(pathname),
            Err(e) => Err(e),
        };
        report.inspect_err(|_| committer.abandon())
    }

    /// Restores a file by contacting any `k` of the `n` servers.
    /// `available[i]` states whether cloud `i` (and its server) is reachable.
    ///
    /// Thin wrapper over [`CdStoreClient::download_stream`] collecting into
    /// a `Vec<u8>`.
    pub fn download<T: ServerTransport>(
        &self,
        servers: &[T],
        available: &[bool],
        pathname: &str,
    ) -> Result<Vec<u8>, CdStoreError> {
        let mut out = Vec::new();
        self.download_stream(servers, available, pathname, &mut out)?;
        Ok(out)
    }

    /// Restores a file into any [`Write`] destination, fetching shares in
    /// bounded windows of [`RESTORE_WINDOW_SECRETS`] secrets per chosen cloud
    /// — the whole file is never buffered. Over `cdstore_net` each window
    /// drains through the credit-window `StreamShares` protocol, so the
    /// server side stays bounded too. Returns the number of bytes written.
    pub fn download_stream<T: ServerTransport, W: Write + ?Sized>(
        &self,
        servers: &[T],
        available: &[bool],
        pathname: &str,
        out: &mut W,
    ) -> Result<u64, CdStoreError> {
        if servers.len() != self.n || available.len() != self.n {
            return Err(CdStoreError::InvalidConfig(format!(
                "expected {} servers/availability flags",
                self.n
            )));
        }
        let mut candidates: Vec<usize> = (0..self.n).filter(|&i| available[i]).collect();
        if candidates.len() < self.k {
            return Err(CdStoreError::NotEnoughClouds {
                needed: self.k,
                available: candidates.len(),
            });
        }
        // The first k available clouds serve the restore; the rest stand by
        // as spares. When a chosen cloud keeps failing transiently (its
        // availability flag lagging behind reality), the restore fails over
        // to a spare instead of giving up — k-of-n reads survive a
        // single-cloud outage even when nobody flagged the cloud down.
        let mut spares: Vec<usize> = candidates.split_off(self.k);
        spares.reverse(); // pop() takes the lowest index first
        let encoded_paths = self.encode_pathname(pathname)?;

        // Fetch the per-cloud recipes. (Metadata is a few dozen bytes per
        // secret; only share payloads are windowed.)
        let fetch_recipe = |cloud: usize| {
            self.retry
                .run(|_| servers[cloud].get_recipe(self.user, &encoded_paths[cloud]))
        };
        let mut recipes: Vec<(usize, FileRecipe)> = Vec::with_capacity(self.k);
        for mut cloud in candidates {
            let recipe = loop {
                match fetch_recipe(cloud) {
                    Ok(recipe) => break recipe,
                    Err(e) if is_transient(&e) => match spares.pop() {
                        Some(spare) => cloud = spare,
                        None => return Err(e),
                    },
                    Err(e) => return Err(e),
                }
            };
            recipes.push((cloud, recipe));
        }
        let num_secrets = recipes[0].1.num_secrets();
        let file_size = recipes[0].1.file_size;
        if recipes
            .iter()
            .any(|(_, r)| r.num_secrets() != num_secrets || r.file_size != file_size)
        {
            return Err(CdStoreError::InconsistentMetadata(
                "servers disagree on the file recipe".into(),
            ));
        }

        // Fetch a window of shares from each chosen cloud, decode secret by
        // secret, write out, repeat.
        let mut written = 0u64;
        let mut window_start = 0usize;
        while window_start < num_secrets {
            let window_end = (window_start + RESTORE_WINDOW_SECRETS).min(num_secrets);
            let mut shares_by_cloud: Vec<(usize, Vec<Vec<u8>>)> = Vec::with_capacity(self.k);
            // Indexing, not iterating: the failover arm below reassigns
            // `recipes[slot]`, which an element iterator would hold borrowed.
            #[allow(clippy::needless_range_loop)]
            for slot in 0..self.k {
                let shares = loop {
                    let (cloud, fps) = {
                        let (cloud, recipe) = &recipes[slot];
                        let fps: Vec<Fingerprint> = recipe.entries[window_start..window_end]
                            .iter()
                            .map(|e| e.share_fingerprint)
                            .collect();
                        (*cloud, fps)
                    };
                    match self
                        .retry
                        .run(|_| servers[cloud].fetch_shares(self.user, &fps))
                    {
                        Ok(shares) => break shares,
                        Err(e) if is_transient(&e) => {
                            // Mid-file failover: swap the failing cloud for a
                            // spare whose recipe agrees, then refetch this
                            // window from it. Earlier windows are already
                            // decoded and written; every window decodes from
                            // any k clouds independently.
                            let Some(spare) = spares.pop() else {
                                return Err(e);
                            };
                            let recipe = fetch_recipe(spare)?;
                            if recipe.num_secrets() != num_secrets || recipe.file_size != file_size
                            {
                                return Err(CdStoreError::InconsistentMetadata(
                                    "failover server disagrees on the file recipe".into(),
                                ));
                            }
                            recipes[slot] = (spare, recipe);
                        }
                        Err(e) => return Err(e),
                    }
                };
                shares_by_cloud.push((recipes[slot].0, shares));
            }
            for seq in window_start..window_end {
                let mut share_slots: Vec<Option<Vec<u8>>> = vec![None; self.n];
                for (cloud, shares) in &mut shares_by_cloud {
                    // Each share is decoded exactly once: move, don't clone.
                    share_slots[*cloud] = Some(std::mem::take(&mut shares[seq - window_start]));
                }
                let secret_size = recipes[0].1.entries[seq].secret_size as usize;
                let secret =
                    self.scheme
                        .reconstruct(&share_slots, secret_size)
                        .map_err(|e| match e {
                            cdstore_secretsharing::SharingError::IntegrityCheckFailed => {
                                CdStoreError::IntegrityFailure(format!(
                                    "secret {seq} failed its hash check"
                                ))
                            }
                            other => CdStoreError::Sharing(other),
                        })?;
                out.write_all(&secret)?;
                written += secret.len() as u64;
            }
            window_start = window_end;
        }
        Ok(written)
    }
}

/// What one successfully shipped batch did: the fingerprints physically
/// sent (holding transient per-upload references), the share bytes
/// transferred, and the bytes newly stored after inter-user dedup.
#[derive(Default)]
struct BatchShipment {
    uploaded: Vec<Fingerprint>,
    transferred: u64,
    new_bytes: u64,
}

/// Ships one batch of candidate shares to one server: second-stage
/// intra-user dedup query, then `store_shares` for the survivors, with
/// bounded retry-with-backoff on transient faults.
///
/// A failed `store_shares` may have taken per-upload references on shares it
/// reached before the fault, and a blind replay would double-count them
/// (duplicate outcomes still add references). Every retry therefore first
/// releases the failed attempt's references and redoes the dedup query from
/// scratch — release is a tolerant no-op for shares the attempt never
/// reached.
///
/// On success the batch is consumed (buffers recycled through `pool`); on a
/// permanent failure the batch is left intact and the failing server holds
/// no references from it.
fn ship_batch<T: ServerTransport>(
    server: &T,
    user: u64,
    retry: &RetryPolicy,
    batch: &mut Vec<(ShareMetadata, Vec<u8>)>,
    pool: &BufferPool,
) -> Result<BatchShipment, CdStoreError> {
    if batch.is_empty() {
        return Ok(BatchShipment::default());
    }
    let shipment = retry.run(|_| {
        let fps: Vec<Fingerprint> = batch.iter().map(|(m, _)| m.fingerprint).collect();
        let already = server.intra_user_query(user, &fps)?;
        // Move the non-duplicate shares out of the batch for the transfer;
        // the slots stay in place so a failed attempt can put them back.
        let mut to_upload: Vec<(ShareMetadata, Vec<u8>)> = Vec::new();
        let mut taken: Vec<usize> = Vec::new();
        for (i, dup) in already.into_iter().enumerate() {
            if !dup {
                to_upload.push((batch[i].0.clone(), std::mem::take(&mut batch[i].1)));
                taken.push(i);
            }
        }
        match server.store_shares(user, &to_upload) {
            Ok(receipt) => {
                let transferred: u64 = to_upload.iter().map(|(_, d)| d.len() as u64).sum();
                let uploaded: Vec<Fingerprint> =
                    to_upload.iter().map(|(m, _)| m.fingerprint).collect();
                for (_, share) in to_upload {
                    pool.put(share);
                }
                Ok(BatchShipment {
                    uploaded,
                    transferred,
                    new_bytes: receipt.new_bytes,
                })
            }
            Err(e) => {
                let sent: Vec<Fingerprint> = to_upload.iter().map(|(m, _)| m.fingerprint).collect();
                let _ = server.release_uploads(user, &sent);
                for (idx, (_, share)) in taken.into_iter().zip(to_upload) {
                    batch[idx].1 = share;
                }
                Err(e)
            }
        }
    })?;
    // Recycle the remaining (duplicate) share buffers and empty the batch.
    for (_, share) in batch.drain(..) {
        if !share.is_empty() {
            pool.put(share);
        }
    }
    Ok(shipment)
}

/// The store half of every upload: accumulates per-cloud 4 MB batches of
/// non-duplicate shares as the encode pipeline emits secrets, flushes each
/// batch through second-stage intra-user dedup + `store_shares`, and
/// offloads the per-cloud recipes once the stream ends.
///
/// A file whose shares fit in one batch per cloud issues the query and
/// store for cloud 0, then 1, …, then `put_file` on every cloud in order.
struct StreamCommitter<'a, T: ServerTransport> {
    client: &'a CdStoreClient,
    servers: &'a [T],
    pool: Arc<BufferPool>,
    batch_bytes: u64,
    dedup: DedupStats,
    recipes: Vec<Vec<RecipeEntry>>,
    /// First-stage intra-user dedup: shares already scheduled in this upload.
    scheduled: Vec<HashSet<Fingerprint>>,
    /// Per-cloud batch under construction (pooled share buffers).
    batches: Vec<Vec<(ShareMetadata, Vec<u8>)>>,
    batch_fill: Vec<u64>,
    /// Shares physically sent per cloud, for put_file / rollback.
    uploaded: Vec<Vec<Fingerprint>>,
    transferred_per_cloud: Vec<u64>,
    physical_per_cloud: Vec<u64>,
    num_secrets: usize,
    file_size: u64,
}

impl<'a, T: ServerTransport> StreamCommitter<'a, T> {
    fn new(
        client: &'a CdStoreClient,
        servers: &'a [T],
        pool: Arc<BufferPool>,
        batch_bytes: u64,
    ) -> Self {
        let n = client.n;
        StreamCommitter {
            client,
            servers,
            pool,
            batch_bytes,
            dedup: DedupStats::new(),
            recipes: vec![Vec::new(); n],
            scheduled: vec![HashSet::new(); n],
            batches: vec![Vec::new(); n],
            batch_fill: vec![0; n],
            uploaded: vec![Vec::new(); n],
            transferred_per_cloud: vec![0; n],
            physical_per_cloud: vec![0; n],
            num_secrets: 0,
            file_size: 0,
        }
    }

    /// Absorbs one encoded secret from the pipeline (in input order).
    fn absorb(&mut self, enc: EncodedSecret) -> Result<(), CdStoreError> {
        self.num_secrets += 1;
        self.file_size += enc.secret_size as u64;
        self.dedup.logical_bytes += enc.secret_size as u64;
        let EncodedSecret {
            seq,
            secret_size,
            shares,
            fingerprints,
        } = enc;
        for (cloud, (share, fp)) in shares.into_iter().zip(fingerprints).enumerate() {
            self.dedup.logical_share_bytes += share.len() as u64;
            self.recipes[cloud].push(RecipeEntry {
                share_fingerprint: fp,
                secret_size,
            });
            // First-stage intra-user dedup: drop shares already scheduled in
            // this upload before they ever hit a batch.
            if !self.scheduled[cloud].insert(fp) {
                self.pool.put(share);
                continue;
            }
            self.batch_fill[cloud] += share.len() as u64;
            self.batches[cloud].push((
                ShareMetadata {
                    fingerprint: fp,
                    share_size: share.len() as u32,
                    secret_seq: seq,
                    secret_size,
                },
                share,
            ));
            if self.batch_fill[cloud] >= self.batch_bytes {
                self.flush(cloud)?;
            }
        }
        Ok(())
    }

    /// Ships cloud `cloud`'s current batch: second-stage intra-user dedup
    /// query, then `store_shares` for the survivors, with bounded retry on
    /// transient faults (see [`ship_batch`]).
    fn flush(&mut self, cloud: usize) -> Result<(), CdStoreError> {
        let mut batch = std::mem::take(&mut self.batches[cloud]);
        self.batch_fill[cloud] = 0;
        if batch.is_empty() {
            return Ok(());
        }
        let shipment = ship_batch(
            &self.servers[cloud],
            self.client.user,
            &self.client.retry,
            &mut batch,
            &self.pool,
        )?;
        self.transferred_per_cloud[cloud] += shipment.transferred;
        self.dedup.transferred_share_bytes += shipment.transferred;
        self.uploaded[cloud].extend(shipment.uploaded);
        self.physical_per_cloud[cloud] += shipment.new_bytes;
        self.dedup.physical_share_bytes += shipment.new_bytes;
        Ok(())
    }

    /// Stream ended cleanly: flush the final partial batches and offload the
    /// per-cloud recipes. On error the caller must still call
    /// [`StreamCommitter::abandon`].
    fn finalize(&mut self, pathname: &str) -> Result<UploadReport, CdStoreError> {
        for cloud in 0..self.client.n {
            self.flush(cloud)?;
        }
        let encoded_paths = self.client.encode_pathname(pathname)?;
        for (cloud, server) in self.servers.iter().enumerate() {
            let recipe = FileRecipe {
                file_size: self.file_size,
                entries: std::mem::take(&mut self.recipes[cloud]),
            };
            if let Err(e) = server.put_file(
                self.client.user,
                &encoded_paths[cloud],
                &recipe,
                &self.uploaded[cloud],
            ) {
                // The failing server rolled its own references back and
                // earlier clouds keep their committed recipes (a retried
                // backup supersedes them); only clouds not yet reached still
                // hold transient per-upload references — drop exactly those.
                for later in cloud + 1..self.client.n {
                    let _ = self.servers[later]
                        .release_uploads(self.client.user, &self.uploaded[later]);
                }
                // Everything is settled; make the caller's abandon a no-op.
                self.uploaded.iter_mut().for_each(Vec::clear);
                return Err(e);
            }
        }
        Ok(UploadReport {
            num_secrets: self.num_secrets,
            dedup: self.dedup,
            transferred_per_cloud: std::mem::take(&mut self.transferred_per_cloud),
            physical_per_cloud: std::mem::take(&mut self.physical_per_cloud),
        })
    }

    /// Abandons the upload after a failure without leaking: drops the
    /// transient per-upload references taken by every `store_shares` batch
    /// that was sent but never settled by `put_file`.
    fn abandon(&self) {
        for (cloud, server) in self.servers.iter().enumerate() {
            if !self.uploaded[cloud].is_empty() {
                let _ = server.release_uploads(self.client.user, &self.uploaded[cloud]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::CdStoreServer;

    fn make_servers(n: usize) -> Vec<CdStoreServer> {
        (0..n).map(CdStoreServer::new).collect()
    }

    fn test_data(len: usize, seed: u8) -> Vec<u8> {
        // Low-entropy but position-dependent data so chunking finds stable
        // boundaries and dedup behaves deterministically.
        (0..len)
            .map(|i| ((i / 512) as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn upload_then_download_round_trips() {
        let servers = make_servers(4);
        let client = CdStoreClient::new(1, 4, 3).unwrap();
        let data = test_data(300_000, 1);
        let report = client.upload(&servers, "/backup/a.tar", &data).unwrap();
        assert!(report.num_secrets > 1);
        assert_eq!(report.dedup.logical_bytes, data.len() as u64);
        let restored = client
            .download(&servers, &[true; 4], "/backup/a.tar")
            .unwrap();
        assert_eq!(restored, data);
    }

    #[test]
    fn download_works_with_any_k_clouds() {
        let servers = make_servers(4);
        let client = CdStoreClient::new(1, 4, 3).unwrap();
        let data = test_data(150_000, 2);
        client.upload(&servers, "/f", &data).unwrap();
        for down in 0..4 {
            let mut available = [true; 4];
            available[down] = false;
            let restored = client.download(&servers, &available, "/f").unwrap();
            assert_eq!(restored, data, "cloud {down} down");
        }
        // Two clouds down is too many for k = 3.
        assert!(matches!(
            client.download(&servers, &[true, true, false, false], "/f"),
            Err(CdStoreError::NotEnoughClouds { .. })
        ));
    }

    #[test]
    fn second_identical_upload_transfers_no_share_data() {
        let servers = make_servers(4);
        let client = CdStoreClient::new(1, 4, 3).unwrap();
        let data = test_data(200_000, 3);
        let first = client.upload(&servers, "/weekly/v1", &data).unwrap();
        assert!(first.dedup.transferred_share_bytes > 0);
        // The same content under a new pathname: intra-user dedup removes
        // every share transfer.
        let second = client.upload(&servers, "/weekly/v2", &data).unwrap();
        assert_eq!(second.dedup.transferred_share_bytes, 0);
        assert!((second.dedup.intra_user_saving() - 1.0).abs() < 1e-9);
        // Both versions remain restorable.
        assert_eq!(
            client.download(&servers, &[true; 4], "/weekly/v1").unwrap(),
            data
        );
        assert_eq!(
            client.download(&servers, &[true; 4], "/weekly/v2").unwrap(),
            data
        );
    }

    #[test]
    fn cross_user_duplicates_are_removed_server_side_only() {
        let servers = make_servers(4);
        let alice = CdStoreClient::new(1, 4, 3).unwrap();
        let bob = CdStoreClient::new(2, 4, 3).unwrap();
        let data = test_data(120_000, 4);
        let a = alice.upload(&servers, "/a", &data).unwrap();
        let b = bob.upload(&servers, "/b", &data).unwrap();
        // Bob still transfers his shares (no client-side global dedup — that
        // would open the side channel)...
        assert!(b.dedup.transferred_share_bytes > 0);
        assert_eq!(
            b.dedup.transferred_share_bytes,
            a.dedup.transferred_share_bytes
        );
        // ...but the servers store nothing new for Bob.
        assert_eq!(b.dedup.physical_share_bytes, 0);
        assert!((b.dedup.inter_user_saving() - 1.0).abs() < 1e-9);
        // Both users can restore independently.
        assert_eq!(alice.download(&servers, &[true; 4], "/a").unwrap(), data);
        assert_eq!(bob.download(&servers, &[true; 4], "/b").unwrap(), data);
    }

    #[test]
    fn modified_backup_transfers_only_changed_chunks() {
        let servers = make_servers(4);
        let client = CdStoreClient::new(1, 4, 3).unwrap();
        let week1 = test_data(400_000, 5);
        let mut week2 = week1.clone();
        // Modify a small region (simulating an incremental change).
        for b in &mut week2[100_000..101_000] {
            *b ^= 0xff;
        }
        let r1 = client.upload(&servers, "/w1", &week1).unwrap();
        let r2 = client.upload(&servers, "/w2", &week2).unwrap();
        assert!(r2.dedup.transferred_share_bytes < r1.dedup.transferred_share_bytes / 4);
        assert!(r2.dedup.intra_user_saving() > 0.7);
        assert_eq!(client.download(&servers, &[true; 4], "/w2").unwrap(), week2);
    }

    #[test]
    fn unknown_file_and_wrong_user_are_rejected() {
        let servers = make_servers(4);
        let client = CdStoreClient::new(1, 4, 3).unwrap();
        let data = test_data(50_000, 6);
        client.upload(&servers, "/mine", &data).unwrap();
        assert!(matches!(
            client.download(&servers, &[true; 4], "/missing"),
            Err(CdStoreError::FileNotFound(_))
        ));
        // Another user cannot restore the file even if they guess the path.
        let eve = CdStoreClient::new(66, 4, 3).unwrap();
        assert!(eve.download(&servers, &[true; 4], "/mine").is_err());
    }

    #[test]
    fn upload_requires_matching_server_count() {
        let servers = make_servers(3);
        let client = CdStoreClient::new(1, 4, 3).unwrap();
        assert!(matches!(
            client.upload(&servers, "/f", b"data"),
            Err(CdStoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn empty_file_round_trips() {
        let servers = make_servers(4);
        let client = CdStoreClient::new(1, 4, 3).unwrap();
        let report = client.upload(&servers, "/empty", b"").unwrap();
        assert_eq!(report.num_secrets, 0);
        assert_eq!(
            client.download(&servers, &[true; 4], "/empty").unwrap(),
            Vec::<u8>::new()
        );
    }

    /// Backup-like data: blocks of pseudo-random content where some blocks
    /// repeat, so chunking and both dedup stages have real work to do.
    fn backup_data(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let blocks: Vec<Vec<u8>> = (0..7)
            .map(|_| (0..4096).map(|_| (next() >> 24) as u8).collect())
            .collect();
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let b = &blocks[(next() % blocks.len() as u64) as usize];
            let take = b.len().min(len - out.len());
            out.extend_from_slice(&b[..take]);
        }
        out
    }

    /// A small pipeline observed through an explicit pool.
    fn bounded_pipeline(pool: &Arc<BufferPool>) -> PipelineConfig {
        PipelineConfig {
            encode_threads: 2,
            chunk_queue: 4,
            encoded_queue: 4,
            read_buffer: 16 * 1024,
            pool: Some(Arc::clone(pool)),
        }
    }

    /// A streamed backup of a file several times larger than the pipeline's
    /// buffer budget keeps peak live chunk/share buffers bounded by the
    /// pipeline depth plus the per-cloud batches — never O(file) — and
    /// restores byte-exact.
    #[test]
    fn streamed_backup_memory_is_bounded_by_pipeline_depth_not_file_size() {
        let (n, k) = (4usize, 3usize);
        let servers = make_servers(n);
        let chunking = ChunkerConfig::new(2048, 8192, 16384);
        let client =
            CdStoreClient::with_chunker_kind(1, n, k, ChunkerKind::FastCdc, chunking).unwrap();
        let pool = Arc::new(BufferPool::new());
        let config = bounded_pipeline(&pool);
        let batch_bytes: u64 = 64 * 1024;

        // Byte budget of the pipeline: every pooled buffer holds at most one
        // max chunk (or one of its shares, which are smaller), plus the n
        // per-cloud batches. The input is >4x that.
        let max_chunk = 16 * 1024u64;
        let budget_bytes =
            config.max_live_buffers(n) as u64 * max_chunk + n as u64 * (batch_bytes + max_chunk);
        let data = backup_data(99, 8 * 1024 * 1024);
        assert!(
            (data.len() as u64) >= 4 * budget_bytes,
            "input ({}) must dwarf the buffer budget ({budget_bytes})",
            data.len()
        );

        let source = ChunkStream::with_buffer_size(client.chunker(), &data[..], config.read_buffer);
        let report = client
            .upload_source(&servers, "/huge", source, &config, batch_bytes)
            .unwrap();
        assert!(report.num_secrets as u64 > 4 * config.max_live_secrets() as u64);

        // Buffer-count bound: the pipeline's live secrets, plus what the
        // per-cloud batches can retain (each batched share is at least a
        // min-chunk share).
        let min_share = client.scheme().total_share_size(2048) as u64 / n as u64;
        let bound = config.max_live_buffers(n) as u64 + n as u64 * (batch_bytes / min_share + 1);
        let stats = pool.stats();
        assert!(
            (stats.peak_outstanding as u64) <= bound,
            "peak live buffers {} exceeded the pipeline bound {bound}",
            stats.peak_outstanding
        );
        assert_eq!(stats.outstanding, 0, "all buffers must return to the pool");
        assert!(
            stats.reuses > 10 * stats.allocations,
            "steady state must recycle buffers (allocs={}, reuses={})",
            stats.allocations,
            stats.reuses
        );

        let mut restored = Vec::new();
        let written = client
            .download_stream(&servers, &[true; 4], "/huge", &mut restored)
            .unwrap();
        assert_eq!(written, data.len() as u64);
        assert_eq!(restored, data);
    }

    /// Pre-cut chunks stream through the same pipeline and batches: live
    /// buffers stay within the pipeline-plus-batch bound however many chunks
    /// the file has, rather than one buffer per share of the whole file.
    #[test]
    fn precut_upload_buffers_are_bounded_by_pipeline_and_batches() {
        let n = 4usize;
        let servers = make_servers(n);
        let client = CdStoreClient::new(1, n, 3).unwrap();
        let pool = Arc::new(BufferPool::new());
        let config = bounded_pipeline(&pool);
        let batch_bytes: u64 = 32 * 1024;
        let chunk_len = 1024usize;
        let chunks: Vec<Vec<u8>> = (0..600u64).map(|i| backup_data(i + 1, chunk_len)).collect();
        assert!(chunks.len() > 20 * config.max_live_secrets());

        let report = client
            .upload_source(
                &servers,
                "/trace",
                PreCutChunks(chunks.iter()),
                &config,
                batch_bytes,
            )
            .unwrap();
        assert_eq!(report.num_secrets, chunks.len());

        let share = (client.scheme().total_share_size(chunk_len) / n) as u64;
        let bound = config.max_live_buffers(n) as u64 + n as u64 * (batch_bytes / share + 1);
        assert!(
            bound < (chunks.len() * n) as u64,
            "bound must not cover the file"
        );
        let stats = pool.stats();
        assert!(
            (stats.peak_outstanding as u64) <= bound,
            "peak live buffers {} exceeded the pipeline-plus-batch bound {bound}",
            stats.peak_outstanding
        );
        assert_eq!(stats.outstanding, 0, "all buffers must return to the pool");
        assert_eq!(
            client.download(&servers, &[true; 4], "/trace").unwrap(),
            chunks.concat()
        );
    }

    #[test]
    fn logical_share_bytes_reflect_dispersal_blowup() {
        let servers = make_servers(4);
        let client = CdStoreClient::new(1, 4, 3).unwrap();
        let data = test_data(256_000, 7);
        let report = client.upload(&servers, "/blowup", &data).unwrap();
        let blowup = report.dedup.logical_share_bytes as f64 / report.dedup.logical_bytes as f64;
        // n/k = 4/3 plus the per-secret CAONT tail overhead.
        assert!(blowup > 1.33 && blowup < 1.40, "blowup {blowup}");
    }
}
