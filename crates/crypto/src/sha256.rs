//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Used for the convergent hash key `h = H(X)` of CAONT-RS, for share
//! fingerprints in two-stage deduplication, and for the integrity hash inside
//! the CAONT package tail.
//!
//! # Kernel dispatch
//!
//! The compression function has two implementations: the portable scalar
//! schedule, and an x86 SHA-NI path (`sha256rnds2`/`sha256msg1`/`sha256msg2`)
//! selected once per process by runtime feature detection (see
//! [`Backend::active`]). Setting `CDSTORE_FORCE_SCALAR` (to anything but
//! `0`) before first use forces the scalar path — the same override the
//! GF(2^8) region kernels honour, so CI can pin golden vectors under both
//! dispatch modes.
//!
//! [`hash_batch`] hashes many independent messages. On SHA-NI hosts each
//! message takes the (already instruction-parallel) NI path; on scalar hosts
//! a 4-lane interleaved scheduler compresses four messages in lockstep so
//! their four dependency chains fill the ALU ports — the fast path for
//! fingerprinting the `n` shares of each secret.

/// Output size of SHA-256 in bytes.
pub const DIGEST_SIZE: usize = 32;
/// Internal block size of SHA-256 in bytes.
pub const BLOCK_SIZE: usize = 64;

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A SHA-256 compression implementation selected by runtime CPU detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar schedule; always available. Batches take the 4-lane
    /// interleaved path.
    Scalar,
    /// x86 SHA extensions (`sha256rnds2` et al.).
    ShaNi,
}

static ACTIVE: std::sync::OnceLock<Backend> = std::sync::OnceLock::new();

impl Backend {
    /// Every backend runnable on this CPU, scalar first (for the
    /// differential test suite).
    pub fn available() -> Vec<Backend> {
        let mut v = vec![Backend::Scalar];
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        {
            if is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1")
            {
                v.push(Backend::ShaNi);
            }
        }
        v
    }

    /// The backend hashing dispatches to, chosen once per process: SHA-NI
    /// where detected, unless `CDSTORE_FORCE_SCALAR` is set at first use.
    pub fn active() -> Backend {
        *ACTIVE.get_or_init(|| {
            if crate::force_scalar() {
                Backend::Scalar
            } else {
                *Self::available().last().expect("scalar always available")
            }
        })
    }

    /// Human-readable backend name (used by benches and logs).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::ShaNi => "sha-ni",
        }
    }
}

/// Runs the compression function over `data` (a whole number of 64-byte
/// blocks) with the given backend.
#[allow(unsafe_code)] // the ShaNi variant exists only after feature detection
fn compress_blocks_with(backend: Backend, state: &mut [u32; 8], data: &[u8]) {
    debug_assert!(data.len().is_multiple_of(BLOCK_SIZE));
    match backend {
        Backend::Scalar => {
            for block in data.chunks_exact(BLOCK_SIZE) {
                compress_scalar(state, block.try_into().expect("block is 64 bytes"));
            }
        }
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        // SAFETY: the ShaNi variant is only constructed after
        // `is_x86_feature_detected!("sha")` (plus ssse3/sse4.1) succeeded.
        Backend::ShaNi => unsafe { ni::compress_blocks(state, data) },
        #[allow(unreachable_patterns)]
        _ => {
            for block in data.chunks_exact(BLOCK_SIZE) {
                compress_scalar(state, block.try_into().expect("block is 64 bytes"));
            }
        }
    }
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_SIZE],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_SIZE],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs more input bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        let backend = Backend::active();
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        // Fill a partially filled buffer first.
        if self.buffer_len > 0 {
            let take = (BLOCK_SIZE - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == BLOCK_SIZE {
                let block = self.buffer;
                compress_blocks_with(backend, &mut self.state, &block);
                self.buffer_len = 0;
            }
        }
        // Process all full blocks directly from the input in one dispatch.
        let full = data.len() - data.len() % BLOCK_SIZE;
        if full > 0 {
            compress_blocks_with(backend, &mut self.state, &data[..full]);
            data = &data[full..];
        }
        // Stash the remainder.
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffer_len = data.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    ///
    /// The FIPS 180-4 padding (0x80 terminator, zero fill, 64-bit big-endian
    /// message length) is laid out directly in a tail buffer and compressed
    /// in a single pass — the buffered bytes are copied exactly once.
    pub fn finalize(self) -> [u8; DIGEST_SIZE] {
        let mut state = self.state;
        let mut tail = [0u8; BLOCK_SIZE * 2];
        tail[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        let tail_len = padded_tail(&mut tail, self.buffer_len, self.total_len);
        compress_blocks_with(Backend::active(), &mut state, &tail[..tail_len]);
        digest_bytes(&state)
    }
}

/// Writes the 0x80 terminator and the big-endian bit length into `tail`
/// (which already holds `rem` leftover message bytes), returning the padded
/// tail length (one or two blocks).
fn padded_tail(tail: &mut [u8; BLOCK_SIZE * 2], rem: usize, total_len: u64) -> usize {
    tail[rem] = 0x80;
    let tail_len = if rem < 56 { BLOCK_SIZE } else { BLOCK_SIZE * 2 };
    let bit_len = total_len.wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    tail_len
}

fn digest_bytes(state: &[u32; 8]) -> [u8; DIGEST_SIZE] {
    let mut out = [0u8; DIGEST_SIZE];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

fn compress_scalar(state: &mut [u32; 8], block: &[u8; BLOCK_SIZE]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
#[allow(unsafe_code)]
mod ni {
    //! x86 SHA-NI compression: two rounds per `sha256rnds2`, message
    //! schedule via `sha256msg1`/`sha256msg2`, state held as the ABEF/CDGH
    //! register pair the instructions expect.

    use super::{BLOCK_SIZE, K};
    #[cfg(target_arch = "x86")]
    use core::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $g:expr) => {{
            let wk = _mm_add_epi32($w, _mm_loadu_si128(K.as_ptr().add($g * 4).cast()));
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }};
    }

    macro_rules! schedule {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {{
            let t = _mm_sha256msg1_epu32($w0, $w1);
            let t = _mm_add_epi32(t, _mm_alignr_epi8($w3, $w2, 4));
            _mm_sha256msg2_epu32(t, $w3)
        }};
    }

    /// # Safety
    ///
    /// Caller must ensure the `sha`, `ssse3`, and `sse4.1` features are
    /// available. `data.len()` must be a multiple of 64.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub unsafe fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
        // Big-endian dword loads: byte-reverse each 32-bit lane.
        let bswap = _mm_set_epi64x(0x0c0d0e0f08090a0b_u64 as i64, 0x0405060700010203_u64 as i64);
        let mut abef = _mm_set_epi32(
            state[0] as i32,
            state[1] as i32,
            state[4] as i32,
            state[5] as i32,
        );
        let mut cdgh = _mm_set_epi32(
            state[2] as i32,
            state[3] as i32,
            state[6] as i32,
            state[7] as i32,
        );
        for block in data.chunks_exact(BLOCK_SIZE) {
            let abef_save = abef;
            let cdgh_save = cdgh;
            let p = block.as_ptr();
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), bswap);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), bswap);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), bswap);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), bswap);
            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            let mut g = 4;
            for _ in 0..3 {
                w0 = schedule!(w0, w1, w2, w3);
                rounds4!(abef, cdgh, w0, g);
                w1 = schedule!(w1, w2, w3, w0);
                rounds4!(abef, cdgh, w1, g + 1);
                w2 = schedule!(w2, w3, w0, w1);
                rounds4!(abef, cdgh, w2, g + 2);
                w3 = schedule!(w3, w0, w1, w2);
                rounds4!(abef, cdgh, w3, g + 3);
                g += 4;
            }
            abef = _mm_add_epi32(abef, abef_save);
            cdgh = _mm_add_epi32(cdgh, cdgh_save);
        }
        let mut fe_ba = [0u32; 4];
        let mut hg_dc = [0u32; 4];
        _mm_storeu_si128(fe_ba.as_mut_ptr().cast(), abef);
        _mm_storeu_si128(hg_dc.as_mut_ptr().cast(), cdgh);
        state[0] = fe_ba[3];
        state[1] = fe_ba[2];
        state[4] = fe_ba[1];
        state[5] = fe_ba[0];
        state[2] = hg_dc[3];
        state[3] = hg_dc[2];
        state[6] = hg_dc[1];
        state[7] = hg_dc[0];
    }
}

/// One-shot SHA-256 of a byte buffer.
pub fn hash(data: &[u8]) -> [u8; DIGEST_SIZE] {
    hash_with(Backend::active(), data)
}

/// One-shot SHA-256 with an explicit backend (differential tests and
/// benches; production code uses [`hash`]).
pub fn hash_with(backend: Backend, data: &[u8]) -> [u8; DIGEST_SIZE] {
    let mut state = H0;
    let full = data.len() - data.len() % BLOCK_SIZE;
    compress_blocks_with(backend, &mut state, &data[..full]);
    let mut tail = [0u8; BLOCK_SIZE * 2];
    let rem = data.len() - full;
    tail[..rem].copy_from_slice(&data[full..]);
    let tail_len = padded_tail(&mut tail, rem, data.len() as u64);
    compress_blocks_with(backend, &mut state, &tail[..tail_len]);
    digest_bytes(&state)
}

/// One-shot SHA-256 over the concatenation of several buffers.
pub fn hash_parts(parts: &[&[u8]]) -> [u8; DIGEST_SIZE] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// Hashes many independent messages, returning one digest per input in
/// order. Dispatches like [`hash`]; on scalar hosts, four messages are
/// compressed in lockstep (see the module docs). This is the API the
/// client's share-fingerprint loop batches through.
pub fn hash_batch(inputs: &[&[u8]]) -> Vec<[u8; DIGEST_SIZE]> {
    hash_batch_with(Backend::active(), inputs)
}

/// [`hash_batch`] with an explicit backend (differential tests and benches).
pub fn hash_batch_with(backend: Backend, inputs: &[&[u8]]) -> Vec<[u8; DIGEST_SIZE]> {
    match backend {
        // SHA-NI single-stream already saturates the sha ports; lanes would
        // only add copies.
        Backend::ShaNi => inputs.iter().map(|m| hash_with(backend, m)).collect(),
        Backend::Scalar => {
            let mut out = vec![[0u8; DIGEST_SIZE]; inputs.len()];
            multilane::hash_all(inputs, &mut out);
            out
        }
    }
}

mod multilane {
    //! 4-lane interleaved scalar SHA-256 for batches of messages.
    //!
    //! One scalar SHA-256 stream is latency-bound: each round depends on the
    //! previous one, leaving ALU ports idle. Compressing four independent
    //! messages in lockstep — every round variable becomes a `[u32; 4]`
    //! lane array — gives the scheduler four parallel dependency chains
    //! (and lets LLVM vectorise the lane loops). A small scheduler feeds the
    //! lanes: when a message finishes, its digest is written out and the
    //! lane is refilled with the next pending message, so mixed-length
    //! batches stay in lockstep; leftovers (fewer than four live lanes)
    //! finish on the single-stream scalar path.

    use super::{compress_scalar, digest_bytes, padded_tail, Backend, BLOCK_SIZE, DIGEST_SIZE, H0};

    const LANES: usize = 4;

    struct Lane<'a> {
        msg: &'a [u8],
        /// Index into the output array.
        out: usize,
        state: [u32; 8],
        /// Next block to compress.
        block: usize,
        nblocks: usize,
        /// Padded tail block(s); block indices `>= tail_start` read here.
        tail: [u8; BLOCK_SIZE * 2],
        tail_start: usize,
    }

    impl<'a> Lane<'a> {
        fn new(msg: &'a [u8], out: usize) -> Self {
            let full = msg.len() / BLOCK_SIZE;
            let rem = msg.len() % BLOCK_SIZE;
            let mut tail = [0u8; BLOCK_SIZE * 2];
            tail[..rem].copy_from_slice(&msg[full * BLOCK_SIZE..]);
            let tail_len = padded_tail(&mut tail, rem, msg.len() as u64);
            Lane {
                msg,
                out,
                state: H0,
                block: 0,
                nblocks: full + tail_len / BLOCK_SIZE,
                tail,
                tail_start: full,
            }
        }

        fn block_at(&self, i: usize) -> &[u8] {
            if i < self.tail_start {
                &self.msg[i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE]
            } else {
                let off = (i - self.tail_start) * BLOCK_SIZE;
                &self.tail[off..off + BLOCK_SIZE]
            }
        }

        fn finished(&self) -> bool {
            self.block >= self.nblocks
        }

        /// Compresses the remaining blocks single-stream.
        fn finish_scalar(&mut self) {
            while !self.finished() {
                let block: [u8; BLOCK_SIZE] =
                    self.block_at(self.block).try_into().expect("64 bytes");
                compress_scalar(&mut self.state, &block);
                self.block += 1;
            }
        }
    }

    pub fn hash_all(inputs: &[&[u8]], out: &mut [[u8; DIGEST_SIZE]]) {
        let mut next = 0usize;
        let mut lanes: Vec<Lane> = Vec::with_capacity(LANES);
        while lanes.len() < LANES && next < inputs.len() {
            lanes.push(Lane::new(inputs[next], next));
            next += 1;
        }
        // Lockstep while all four lanes are live.
        while lanes.len() == LANES {
            let mut blocks = [[0u8; BLOCK_SIZE]; LANES];
            for (l, lane) in lanes.iter().enumerate() {
                blocks[l].copy_from_slice(lane.block_at(lane.block));
            }
            let mut states = [[0u32; 8]; LANES];
            for (l, lane) in lanes.iter().enumerate() {
                states[l] = lane.state;
            }
            compress4(&mut states, &blocks);
            for (l, lane) in lanes.iter_mut().enumerate() {
                lane.state = states[l];
                lane.block += 1;
            }
            // Retire finished lanes (digest out, refill or drop).
            let mut l = 0;
            while l < lanes.len() {
                if lanes[l].finished() {
                    out[lanes[l].out] = digest_bytes(&lanes[l].state);
                    if next < inputs.len() {
                        lanes[l] = Lane::new(inputs[next], next);
                        next += 1;
                        l += 1;
                    } else {
                        lanes.swap_remove(l);
                    }
                } else {
                    l += 1;
                }
            }
        }
        // Fewer than four lanes left: single-stream the rest.
        for lane in &mut lanes {
            lane.finish_scalar();
            out[lane.out] = digest_bytes(&lane.state);
        }
        debug_assert_eq!(next, inputs.len());
        // Keep the unused-variant lint honest: this module is scalar-only.
        debug_assert_eq!(Backend::Scalar.name(), "scalar");
    }

    /// Compresses one block into each of four states in lockstep.
    fn compress4(states: &mut [[u32; 8]; LANES], blocks: &[[u8; BLOCK_SIZE]; LANES]) {
        #[cfg(target_arch = "x86_64")]
        sse2::compress4(states, blocks);
        #[cfg(not(target_arch = "x86_64"))]
        portable::compress4(states, blocks);
    }

    /// Portable lane-array rounds: every round variable is a `[u32; 4]`, so
    /// the four dependency chains run interleaved and LLVM may vectorise the
    /// element-wise helpers. Kept compiled on every target so it cannot rot,
    /// used on non-x86_64 (x86_64 takes the explicit SSE2 path below —
    /// LLVM's cost model refuses to auto-vectorise the rotate-heavy rounds
    /// there because scalar x86 has single-op rotates).
    #[cfg_attr(target_arch = "x86_64", allow(dead_code))]
    mod portable {
        use super::super::K;
        use super::{BLOCK_SIZE, LANES};

        type V = [u32; LANES];

        #[inline(always)]
        fn add(a: V, b: V) -> V {
            std::array::from_fn(|l| a[l].wrapping_add(b[l]))
        }

        #[inline(always)]
        fn xor3(a: V, b: V, c: V) -> V {
            std::array::from_fn(|l| a[l] ^ b[l] ^ c[l])
        }

        #[inline(always)]
        fn rotr(a: V, n: u32) -> V {
            std::array::from_fn(|l| a[l].rotate_right(n))
        }

        #[inline(always)]
        fn shr(a: V, n: u32) -> V {
            std::array::from_fn(|l| a[l] >> n)
        }

        /// SHA-256 `Ch(e, f, g) = (e & f) ^ (!e & g)`, lane-wise.
        #[inline(always)]
        fn ch(e: V, f: V, g: V) -> V {
            std::array::from_fn(|l| (e[l] & f[l]) ^ (!e[l] & g[l]))
        }

        /// SHA-256 `Maj(a, b, c)`, lane-wise.
        #[inline(always)]
        fn maj(a: V, b: V, c: V) -> V {
            std::array::from_fn(|l| (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]))
        }

        pub fn compress4(states: &mut [[u32; 8]; LANES], blocks: &[[u8; BLOCK_SIZE]; LANES]) {
            let mut w = [[0u32; LANES]; 64];
            for (t, wt) in w.iter_mut().take(16).enumerate() {
                for l in 0..LANES {
                    wt[l] = u32::from_be_bytes(
                        blocks[l][t * 4..(t + 1) * 4].try_into().expect("4 bytes"),
                    );
                }
            }
            for t in 16..64 {
                let s0 = xor3(rotr(w[t - 15], 7), rotr(w[t - 15], 18), shr(w[t - 15], 3));
                let s1 = xor3(rotr(w[t - 2], 17), rotr(w[t - 2], 19), shr(w[t - 2], 10));
                w[t] = add(add(w[t - 16], s0), add(w[t - 7], s1));
            }
            let load = |i: usize| -> V { std::array::from_fn(|l| states[l][i]) };
            let mut a = load(0);
            let mut b = load(1);
            let mut c = load(2);
            let mut d = load(3);
            let mut e = load(4);
            let mut f = load(5);
            let mut g = load(6);
            let mut h = load(7);
            for t in 0..64 {
                let s1 = xor3(rotr(e, 6), rotr(e, 11), rotr(e, 25));
                let temp1 = add(add(h, s1), add(ch(e, f, g), add([K[t]; LANES], w[t])));
                let s0 = xor3(rotr(a, 2), rotr(a, 13), rotr(a, 22));
                let temp2 = add(s0, maj(a, b, c));
                h = g;
                g = f;
                f = e;
                e = add(d, temp1);
                d = c;
                c = b;
                b = a;
                a = add(temp1, temp2);
            }
            let v = [a, b, c, d, e, f, g, h];
            for l in 0..LANES {
                for i in 0..8 {
                    states[l][i] = states[l][i].wrapping_add(v[i][l]);
                }
            }
        }
    }

    /// Explicit SSE2 rounds: one 128-bit register holds the same round
    /// variable for all four lanes, so every round costs roughly one lane's
    /// worth of vector ops. SSE2 is part of the x86_64 baseline, so this
    /// needs no runtime detection — it IS the scalar batch path on x86_64.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    mod sse2 {
        use core::arch::x86_64::*;

        use super::super::K;
        use super::{BLOCK_SIZE, LANES};

        /// `rotr!(v, n)`: rotate each 32-bit lane right by the literal `n`
        /// (SSE2 has no vector rotate; shift-shift-or).
        macro_rules! rotr {
            ($v:expr, $n:literal) => {
                _mm_or_si128(_mm_srli_epi32($v, $n), _mm_slli_epi32($v, 32 - $n))
            };
        }

        macro_rules! add {
            ($a:expr, $b:expr) => {
                _mm_add_epi32($a, $b)
            };
        }

        macro_rules! xor3 {
            ($a:expr, $b:expr, $c:expr) => {
                _mm_xor_si128(_mm_xor_si128($a, $b), $c)
            };
        }

        pub fn compress4(states: &mut [[u32; 8]; LANES], blocks: &[[u8; BLOCK_SIZE]; LANES]) {
            // SAFETY: SSE2 is unconditionally available on x86_64 (baseline
            // target feature); all memory access goes through the safe
            // `states`/`blocks` references and a local store buffer.
            unsafe {
                let word = |l: usize, t: usize| -> i32 {
                    u32::from_be_bytes(blocks[l][t * 4..(t + 1) * 4].try_into().expect("4 bytes"))
                        as i32
                };
                let mut w = [_mm_setzero_si128(); 64];
                for (t, wt) in w.iter_mut().take(16).enumerate() {
                    // `_mm_set_epi32` takes lanes high-to-low: lane 0 last.
                    *wt = _mm_set_epi32(word(3, t), word(2, t), word(1, t), word(0, t));
                }
                for t in 16..64 {
                    let w15 = w[t - 15];
                    let w2 = w[t - 2];
                    let s0 = xor3!(rotr!(w15, 7), rotr!(w15, 18), _mm_srli_epi32(w15, 3));
                    let s1 = xor3!(rotr!(w2, 17), rotr!(w2, 19), _mm_srli_epi32(w2, 10));
                    w[t] = add!(add!(w[t - 16], s0), add!(w[t - 7], s1));
                }
                let load = |i: usize| -> __m128i {
                    _mm_set_epi32(
                        states[3][i] as i32,
                        states[2][i] as i32,
                        states[1][i] as i32,
                        states[0][i] as i32,
                    )
                };
                let mut a = load(0);
                let mut b = load(1);
                let mut c = load(2);
                let mut d = load(3);
                let mut e = load(4);
                let mut f = load(5);
                let mut g = load(6);
                let mut h = load(7);
                for (&k, &wt) in K.iter().zip(&w) {
                    let s1 = xor3!(rotr!(e, 6), rotr!(e, 11), rotr!(e, 25));
                    let ch = _mm_xor_si128(_mm_and_si128(e, f), _mm_andnot_si128(e, g));
                    let temp1 = add!(add!(h, s1), add!(ch, add!(_mm_set1_epi32(k as i32), wt)));
                    let s0 = xor3!(rotr!(a, 2), rotr!(a, 13), rotr!(a, 22));
                    let maj = xor3!(
                        _mm_and_si128(a, b),
                        _mm_and_si128(a, c),
                        _mm_and_si128(b, c)
                    );
                    let temp2 = add!(s0, maj);
                    h = g;
                    g = f;
                    f = e;
                    e = add!(d, temp1);
                    d = c;
                    c = b;
                    b = a;
                    a = add!(temp1, temp2);
                }
                let mut lanes = [0u32; LANES];
                for (i, v) in [a, b, c, d, e, f, g, h].into_iter().enumerate() {
                    _mm_storeu_si128(lanes.as_mut_ptr().cast::<__m128i>(), v);
                    for l in 0..LANES {
                        states[l][i] = states[l][i].wrapping_add(lanes[l]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FIPS 180-4 / NIST CAVP test vectors, including the padding-boundary
    /// lengths (empty, 55, 56, 64 bytes) and a multi-block message, run
    /// against every available backend and through the incremental hasher.
    #[test]
    fn nist_test_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                // Empty message: padding-only single block.
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                // 55 bytes: the largest message whose padding fits one block.
                &[0xaau8; 55],
                "a8fb7c3a4d8ea13ca3cbe329d52274d3224c732d4e53e8c90c06bd3089248cf2",
            ),
            (
                // 56 bytes: the first length that forces a second pad block.
                &[0xaau8; 56],
                "d464bb04abbc80a2254cd4ad0f3356f1b70b5b6390085b193edcd291f065b01e",
            ),
            (
                // Exactly one full block: the tail is padding-only.
                &[0xaau8; 64],
                "693e5f0f347a5d70acbb7baaab9beb988301b3e9588e32c73d7dcdfb7b2c4604",
            ),
            (
                // Two-message-block NIST vector (112 bytes).
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                // Multi-block with a partial tail (3 blocks + 8 bytes).
                &[0x42u8; 200],
                "91870890f4d01121c77b099d1360c0287186a45e37f03a3c3fde4e08e1f565be",
            ),
        ];
        for (input, expected) in cases {
            for backend in Backend::available() {
                assert_eq!(
                    hex(&hash_with(backend, input)),
                    *expected,
                    "backend {} len {}",
                    backend.name(),
                    input.len()
                );
            }
            let mut h = Sha256::new();
            h.update(input);
            assert_eq!(
                hex(&h.finalize()),
                *expected,
                "incremental len {}",
                input.len()
            );
        }
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_one_shot_at_block_boundaries() {
        let data: Vec<u8> = (0..300u32).map(|i| (i % 256) as u8).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 200, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), hash(&data), "split={split}");
        }
    }

    #[test]
    fn hash_parts_matches_concatenation() {
        let a = b"hello ".as_slice();
        let b = b"convergent ".as_slice();
        let c = b"dispersal".as_slice();
        let concat: Vec<u8> = [a, b, c].concat();
        assert_eq!(hash_parts(&[a, b, c]), hash(&concat));
    }

    #[test]
    fn lengths_around_padding_edge_are_all_distinct() {
        // 55, 56, 57, 63, 64, 65 bytes exercise the two padding branches.
        let mut digests = Vec::new();
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            digests.push(hash(&data));
        }
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j]);
            }
        }
    }

    #[test]
    fn backends_agree_on_padding_boundaries() {
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 127, 128, 129, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 13 + 7) as u8).collect();
            let scalar = hash_with(Backend::Scalar, &data);
            for backend in Backend::available() {
                assert_eq!(
                    hash_with(backend, &data),
                    scalar,
                    "backend {} len {len}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn hash_batch_matches_individual_hashes() {
        // Mixed lengths force lane refills mid-batch in the 4-lane path.
        let msgs: Vec<Vec<u8>> = [0usize, 1, 55, 56, 64, 65, 200, 1000, 31, 64, 128, 5]
            .iter()
            .map(|&len| (0..len).map(|i| (i * 31 + len) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        for count in 0..=refs.len() {
            let batch = hash_batch(&refs[..count]);
            assert_eq!(batch.len(), count);
            for (i, digest) in batch.iter().enumerate() {
                assert_eq!(*digest, hash(refs[i]), "count={count} msg={i}");
            }
            for backend in Backend::available() {
                let with = hash_batch_with(backend, &refs[..count]);
                assert_eq!(with, batch, "backend {} count {count}", backend.name());
            }
        }
    }

    proptest! {
        #[test]
        fn incremental_equals_one_shot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                       splits in proptest::collection::vec(any::<usize>(), 0..5)) {
            let mut h = Sha256::new();
            let mut offset = 0usize;
            let mut cuts: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
            cuts.sort_unstable();
            for cut in cuts {
                if cut > offset {
                    h.update(&data[offset..cut]);
                    offset = cut;
                }
            }
            h.update(&data[offset..]);
            prop_assert_eq!(h.finalize(), hash(&data));
        }

        #[test]
        fn different_inputs_give_different_digests(a in proptest::collection::vec(any::<u8>(), 0..128),
                                                   b in proptest::collection::vec(any::<u8>(), 0..128)) {
            prop_assume!(a != b);
            prop_assert_ne!(hash(&a), hash(&b));
        }

        #[test]
        fn batch_of_arbitrary_messages_matches_one_shot(
            msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 0..12)
        ) {
            let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
            let batch = hash_batch(&refs);
            for (i, digest) in batch.iter().enumerate() {
                prop_assert_eq!(*digest, hash(refs[i]));
            }
        }
    }
}
