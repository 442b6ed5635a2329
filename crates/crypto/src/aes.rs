//! AES-256 block cipher (FIPS 197), forward direction only.
//!
//! CAONT-RS uses AES-256 as the encryption function `E` inside the mask
//! generator `G(h) = E(h, C)` (Equation (3) of the paper), run in CTR mode
//! (see [`crate::ctr`]); Rivest's AONT baseline encrypts one index block per
//! word. Both only need the forward cipher.
//!
//! # Kernel dispatch
//!
//! The rounds have two implementations over one shared key schedule: a
//! byte-wise, table-driven software cipher, and x86 AES-NI
//! (`aesenc`/`aesenclast`), which consumes the FIPS byte-order round keys
//! directly. The software cipher is the reference the AES-NI path is
//! differentially tested against, and the fallback on CPUs without AES-NI.
//! Its S-box lookups are indexed by key-dependent bytes, so its timing
//! depends on the cache and it is not constant-time; the key here is the
//! convergent secret `h = H(X)`, which is why AES-NI (constant-time) is
//! preferred wherever it is detected. [`Backend::active`] picks once per
//! process and honours `CDSTORE_FORCE_SCALAR`, like the SHA-256 and GF(2^8)
//! kernels.

/// AES block size in bytes.
pub const BLOCK_SIZE: usize = 16;
/// AES-256 key size in bytes.
pub const KEY_SIZE: usize = 32;
/// Number of rounds for AES-256.
pub const ROUNDS: usize = 14;

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiplies a byte by `x` in AES's GF(2^8) (polynomial 0x11b).
#[inline]
const fn xtime(b: u8) -> u8 {
    let shifted = b << 1;
    if b & 0x80 != 0 {
        shifted ^ 0x1b
    } else {
        shifted
    }
}

/// An AES implementation selected by runtime CPU detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable table-driven software cipher; always available, not
    /// constant-time.
    Scalar,
    /// x86 AES-NI; CTR keystream runs eight counter blocks per pass.
    #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
    AesNi,
}

static ACTIVE: std::sync::OnceLock<Backend> = std::sync::OnceLock::new();

impl Backend {
    /// Every backend runnable on this CPU, scalar first (for the
    /// differential test suite).
    pub fn available() -> Vec<Backend> {
        let mut v = vec![Backend::Scalar];
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        if ni::detected() {
            v.push(Backend::AesNi);
        }
        v
    }

    /// The backend encryption dispatches to, chosen once per process:
    /// AES-NI where detected, unless `CDSTORE_FORCE_SCALAR` is set at first
    /// use.
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
            #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
            Backend::AesNi => "aes-ni",
        }
    }
}

/// An expanded AES-256 key schedule.
#[derive(Clone)]
pub struct Aes256 {
    round_keys: [[u8; 16]; ROUNDS + 1],
}

impl Aes256 {
    /// Expands a 32-byte key into the full key schedule.
    pub fn new(key: &[u8; KEY_SIZE]) -> Self {
        // 60 32-bit words for AES-256.
        let nk = 8usize;
        let total_words = 4 * (ROUNDS + 1);
        let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for (i, word) in w.iter_mut().take(nk).enumerate() {
            word.copy_from_slice(&key[i * 4..(i + 1) * 4]);
        }
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                // RotWord + SubWord + Rcon.
                temp.rotate_left(1);
                for t in temp.iter_mut() {
                    *t = SBOX[*t as usize];
                }
                temp[0] ^= RCON[i / nk - 1];
            } else if i % nk == 4 {
                for t in temp.iter_mut() {
                    *t = SBOX[*t as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; ROUNDS + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[c * 4..(c + 1) * 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        Aes256 { round_keys }
    }

    /// Encrypts a single 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_SIZE]) {
        self.encrypt_block_with(Backend::active(), block);
    }

    /// [`Aes256::encrypt_block`] on an explicit backend, so one process can
    /// compare every backend.
    ///
    /// # Panics
    ///
    /// If `backend` is not in [`Backend::available`].
    #[allow(unsafe_code)] // the AES-NI arm checks CPU support first
    pub fn encrypt_block_with(&self, backend: Backend, block: &mut [u8; BLOCK_SIZE]) {
        match backend {
            Backend::Scalar => encrypt_scalar(&self.round_keys, &self.round_keys[ROUNDS], block),
            #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
            Backend::AesNi => {
                assert!(ni::detected(), "AES-NI backend on a CPU without AES-NI");
                // SAFETY: `ni::detected()` confirmed the `aes` and `sse2`
                // features the function is compiled for.
                unsafe { ni::encrypt_block(&self.round_keys, block) }
            }
        }
    }

    /// Encrypts a block, returning the ciphertext instead of mutating.
    pub fn encrypt(&self, block: &[u8; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }

    /// XORs the CTR keystream, each byte also XORed with `constant`, into
    /// `buf`: `buf ^= E(nonce ‖ counter) ⊕ constant`, with 16-byte
    /// big-endian counter blocks starting at `start_block`. The low 64 bits
    /// wrap without carrying into the nonce. `constant` is folded into the
    /// last round key, which `aesenclast`/`AddRoundKey` XOR in anyway, so it
    /// costs no pass of its own.
    ///
    /// # Panics
    ///
    /// If `backend` is not in [`Backend::available`].
    #[allow(unsafe_code)] // the AES-NI arm checks CPU support first
    pub(crate) fn xor_ctr_keystream(
        &self,
        backend: Backend,
        nonce: u64,
        start_block: u64,
        constant: u8,
        buf: &mut [u8],
    ) {
        let mut last = self.round_keys[ROUNDS];
        for k in last.iter_mut() {
            *k ^= constant;
        }
        match backend {
            Backend::Scalar => {
                let mut counter = start_block;
                for chunk in buf.chunks_mut(BLOCK_SIZE) {
                    let mut block = [0u8; BLOCK_SIZE];
                    block[..8].copy_from_slice(&nonce.to_be_bytes());
                    block[8..].copy_from_slice(&counter.to_be_bytes());
                    encrypt_scalar(&self.round_keys, &last, &mut block);
                    for (b, k) in chunk.iter_mut().zip(block.iter()) {
                        *b ^= k;
                    }
                    counter = counter.wrapping_add(1);
                }
            }
            #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
            Backend::AesNi => {
                assert!(ni::detected(), "AES-NI backend on a CPU without AES-NI");
                // SAFETY: `ni::detected()` confirmed the `aes` and `sse2`
                // features the function is compiled for.
                unsafe { ni::xor_ctr_keystream(&self.round_keys, &last, nonce, start_block, buf) }
            }
        }
    }
}

/// The software cipher: rounds keyed by `round_keys[..ROUNDS]`, then `last`
/// in place of `round_keys[ROUNDS]` as the final round key.
fn encrypt_scalar(
    round_keys: &[[u8; 16]; ROUNDS + 1],
    last: &[u8; 16],
    block: &mut [u8; BLOCK_SIZE],
) {
    add_round_key(block, &round_keys[0]);
    for rk in &round_keys[1..ROUNDS] {
        sub_bytes(block);
        shift_rows(block);
        mix_columns(block);
        add_round_key(block, rk);
    }
    sub_bytes(block);
    shift_rows(block);
    add_round_key(block, last);
}

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk) {
        *s ^= k;
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for s in state.iter_mut() {
        *s = SBOX[*s as usize];
    }
}

// The state is stored column-major as in FIPS 197: state[r + 4c] is row r,
// column c, i.e. byte index `4c + r` of the flat block.
#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    // Row 1: shift left by 1.
    let t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    // Row 2: shift left by 2.
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: shift left by 3 (== right by 1).
    let t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
        state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
#[allow(unsafe_code)]
mod ni {
    //! x86 AES-NI: `aesenc` for rounds 1..13 and `aesenclast` for round 14,
    //! keyed by the software schedule's round keys loaded as-is.

    use super::{BLOCK_SIZE, ROUNDS};
    #[cfg(target_arch = "x86")]
    use core::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    /// Counter blocks encrypted per CTR pass. `aesenc` has a latency of
    /// several cycles but issues every cycle, so eight independent blocks
    /// keep the unit busy.
    const LANES: usize = 8;

    /// Whether this CPU runs the functions below.
    pub fn detected() -> bool {
        is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse2")
    }

    #[inline]
    #[target_feature(enable = "aes,sse2")]
    fn load_keys(round_keys: &[[u8; 16]; ROUNDS + 1], last: &[u8; 16]) -> [__m128i; ROUNDS + 1] {
        let mut keys = [_mm_setzero_si128(); ROUNDS + 1];
        for (k, rk) in keys.iter_mut().zip(&round_keys[..ROUNDS]) {
            // SAFETY: `rk` is 16 readable bytes; the load is unaligned.
            *k = unsafe { _mm_loadu_si128(rk.as_ptr().cast()) };
        }
        // SAFETY: as above.
        keys[ROUNDS] = unsafe { _mm_loadu_si128(last.as_ptr().cast()) };
        keys
    }

    #[inline]
    #[target_feature(enable = "aes,sse2")]
    fn encrypt(keys: &[__m128i; ROUNDS + 1], block: __m128i) -> __m128i {
        let mut b = _mm_xor_si128(block, keys[0]);
        for k in &keys[1..ROUNDS] {
            b = _mm_aesenc_si128(b, *k);
        }
        _mm_aesenclast_si128(b, keys[ROUNDS])
    }

    /// The CTR counter block `nonce ‖ counter`, both big-endian; `nonce_le`
    /// is the nonce already byte-swapped for a little-endian lane.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn counter_block(nonce_le: i64, counter: u64) -> __m128i {
        _mm_set_epi64x(counter.swap_bytes() as i64, nonce_le)
    }

    /// # Safety
    ///
    /// Caller must ensure the `aes` and `sse2` features are available.
    #[target_feature(enable = "aes,sse2")]
    pub unsafe fn encrypt_block(round_keys: &[[u8; 16]; ROUNDS + 1], block: &mut [u8; BLOCK_SIZE]) {
        let keys = load_keys(round_keys, &round_keys[ROUNDS]);
        let p = block.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(p, encrypt(&keys, _mm_loadu_si128(p)));
    }

    /// `buf ^= E(nonce ‖ counter)` from `start_block` on, with `last` as the
    /// final round key (see `Aes256::xor_ctr_keystream`).
    ///
    /// # Safety
    ///
    /// Caller must ensure the `aes` and `sse2` features are available.
    #[target_feature(enable = "aes,sse2")]
    pub unsafe fn xor_ctr_keystream(
        round_keys: &[[u8; 16]; ROUNDS + 1],
        last: &[u8; 16],
        nonce: u64,
        start_block: u64,
        buf: &mut [u8],
    ) {
        let keys = load_keys(round_keys, last);
        let nonce_le = nonce.swap_bytes() as i64;
        let mut counter = start_block;
        let mut body = buf.chunks_exact_mut(BLOCK_SIZE * LANES);
        for chunk in &mut body {
            let mut lanes = [_mm_setzero_si128(); LANES];
            for (i, lane) in lanes.iter_mut().enumerate() {
                let block = counter_block(nonce_le, counter.wrapping_add(i as u64));
                *lane = _mm_xor_si128(block, keys[0]);
            }
            for k in &keys[1..ROUNDS] {
                for lane in lanes.iter_mut() {
                    *lane = _mm_aesenc_si128(*lane, *k);
                }
            }
            for (lane, out) in lanes.iter().zip(chunk.chunks_exact_mut(BLOCK_SIZE)) {
                let p = out.as_mut_ptr().cast::<__m128i>();
                let keystream = _mm_aesenclast_si128(*lane, keys[ROUNDS]);
                _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), keystream));
            }
            counter = counter.wrapping_add(LANES as u64);
        }
        // Fewer than eight blocks left, the last possibly partial: one block
        // at a time through a stack copy.
        for chunk in body.into_remainder().chunks_mut(BLOCK_SIZE) {
            let mut keystream = [0u8; BLOCK_SIZE];
            let block = encrypt(&keys, counter_block(nonce_le, counter));
            _mm_storeu_si128(keystream.as_mut_ptr().cast(), block);
            for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// FIPS 197 Appendix C.3 AES-256 example vector, on every backend.
    #[test]
    fn fips197_appendix_c3() {
        let key_bytes =
            parse_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        let key: [u8; 32] = key_bytes.try_into().unwrap();
        let aes = Aes256::new(&key);
        let pt: [u8; 16] = parse_hex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        for backend in Backend::available() {
            let mut ct = pt;
            aes.encrypt_block_with(backend, &mut ct);
            assert_eq!(
                ct.to_vec(),
                parse_hex("8ea2b7ca516745bfeafc49904b496089"),
                "{}",
                backend.name()
            );
        }
        assert_eq!(
            aes.encrypt(&pt).to_vec(),
            parse_hex("8ea2b7ca516745bfeafc49904b496089")
        );
    }

    /// NIST SP 800-38A F.1.5 (ECB-AES256.Encrypt) vectors, on every backend.
    #[test]
    fn sp800_38a_ecb_vectors() {
        let key: [u8; 32] =
            parse_hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
                .try_into()
                .unwrap();
        let aes = Aes256::new(&key);
        let cases = [
            (
                "6bc1bee22e409f96e93d7e117393172a",
                "f3eed1bdb5d2a03c064b5a7e3db181f8",
            ),
            (
                "ae2d8a571e03ac9c9eb76fac45af8e51",
                "591ccb10d410ed26dc5ba74a31362870",
            ),
            (
                "30c81c46a35ce411e5fbc1191a0a52ef",
                "b6ed21b99ca6f4f9f153e7b1beafed1d",
            ),
            (
                "f69f2445df4f9b17ad2b417be66c3710",
                "23304b7a39f9f3ff067d8d8f9e24ecc7",
            ),
        ];
        for backend in Backend::available() {
            for (pt_hex, ct_hex) in cases {
                let mut block: [u8; 16] = parse_hex(pt_hex).try_into().unwrap();
                aes.encrypt_block_with(backend, &mut block);
                assert_eq!(block.to_vec(), parse_hex(ct_hex), "{}", backend.name());
            }
        }
    }

    #[test]
    fn different_keys_produce_different_ciphertexts() {
        let pt = [0u8; 16];
        let k1 = [0u8; 32];
        let mut k2 = [0u8; 32];
        k2[31] = 1;
        assert_ne!(Aes256::new(&k1).encrypt(&pt), Aes256::new(&k2).encrypt(&pt));
    }

    proptest! {
        #[test]
        fn backends_agree_on_random_blocks(key in proptest::array::uniform32(any::<u8>()),
                                           block in proptest::collection::vec(any::<u8>(), 16)) {
            let aes = Aes256::new(&key);
            let block: [u8; 16] = block.try_into().unwrap();
            let mut reference = block;
            aes.encrypt_block_with(Backend::Scalar, &mut reference);
            for backend in Backend::available() {
                let mut ct = block;
                aes.encrypt_block_with(backend, &mut ct);
                prop_assert_eq!((backend, ct), (backend, reference));
            }
        }
    }
}
