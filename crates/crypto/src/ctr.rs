//! AES-256 counter (CTR) mode and the CAONT-RS mask generator.
//!
//! CAONT-RS builds its OAEP-style all-or-nothing transform around a
//! generator function `G(h) = E(h, C)` (Equation (3)): a constant-value
//! block `C` with the same size as the secret is encrypted under the hash
//! key `h`. Implementing `E` as AES-256 in CTR mode makes `G` a single bulk
//! encryption over the whole secret — the performance advantage of CAONT-RS
//! over Rivest's word-by-word AONT that §5.3 measures.

use crate::aes::{Aes256, Backend, KEY_SIZE};

/// AES-256 CTR-mode keystream generator / encryptor.
///
/// The counter block is a 16-byte big-endian value formed from an 8-byte
/// nonce followed by an 8-byte block counter. The counter wraps within its
/// 64 bits and never carries into the nonce.
pub struct Aes256Ctr {
    cipher: Aes256,
    nonce: u64,
}

impl Aes256Ctr {
    /// Creates a CTR encryptor from a 32-byte key and an 8-byte nonce.
    pub fn new(key: &[u8; KEY_SIZE], nonce: u64) -> Self {
        Aes256Ctr {
            cipher: Aes256::new(key),
            nonce,
        }
    }

    /// XORs the keystream starting at block `start_block` into `buf`
    /// (encrypt and decrypt are the same operation).
    pub fn apply_keystream(&self, buf: &mut [u8], start_block: u64) {
        self.apply_keystream_with(Backend::active(), buf, start_block);
    }

    /// [`Aes256Ctr::apply_keystream`] on an explicit backend, so one process
    /// can compare every backend.
    ///
    /// # Panics
    ///
    /// If `backend` is not in [`Backend::available`].
    pub fn apply_keystream_with(&self, backend: Backend, buf: &mut [u8], start_block: u64) {
        self.cipher
            .xor_ctr_keystream(backend, self.nonce, start_block, 0, buf);
    }

    /// Encrypts `data`, returning a new buffer.
    pub fn encrypt(&self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        self.apply_keystream(&mut out, 0);
        out
    }
}

/// The byte value of the constant block `C` used by the CAONT-RS generator.
///
/// Any fixed public constant works; the security of the AONT rests on the
/// secrecy of the key `h`, not of `C`.
pub const CONSTANT_BLOCK_BYTE: u8 = 0x43;

/// Computes the CAONT-RS mask `G(h) = E(h, C)` of the given length.
///
/// `h` is the 32-byte convergent hash key; `len` is the secret size. The
/// result has exactly `len` bytes. Because `C` is constant and public, two
/// identical secrets always produce identical masks — the property that makes
/// convergent dispersal deduplicable.
pub fn generator_mask(h: &[u8; 32], len: usize) -> Vec<u8> {
    let mut mask = vec![0u8; len];
    apply_generator_mask(h, &mut mask);
    mask
}

/// Applies the mask `G(h)` to `data` in place: `data[i] ^= G(h)[i]`.
///
/// This computes `Y = X ⊕ G(h)` (encoding) or `X = Y ⊕ G(h)` (decoding) in
/// one keystream pass: `G(h) = E(h, C)` is the CTR keystream XOR `C`, and
/// `C` rides in the cipher's last round key, so each byte of `data` is
/// touched once.
pub fn apply_generator_mask(h: &[u8; 32], data: &mut [u8]) {
    apply_generator_mask_with(Backend::active(), h, data);
}

/// [`apply_generator_mask`] on an explicit backend, so one process can
/// compare every backend.
///
/// # Panics
///
/// If `backend` is not in [`Backend::available`].
pub fn apply_generator_mask_with(backend: Backend, h: &[u8; 32], data: &mut [u8]) {
    Aes256::new(h).xor_ctr_keystream(backend, 0, 0, CONSTANT_BLOCK_BYTE, data);
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

    /// NIST SP 800-38A F.5.5 (CTR-AES256.Encrypt), adapted: the standard
    /// vector uses the full 16-byte initial counter
    /// f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff, which we reproduce by passing its
    /// upper half as the nonce and its lower half as the starting block.
    #[test]
    fn sp800_38a_ctr_vector() {
        let key: [u8; 32] =
            parse_hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
                .try_into()
                .unwrap();
        let nonce = u64::from_be_bytes(parse_hex("f0f1f2f3f4f5f6f7").try_into().unwrap());
        let start = u64::from_be_bytes(parse_hex("f8f9fafbfcfdfeff").try_into().unwrap());
        let ctr = Aes256Ctr::new(&key, nonce);
        let plaintext = parse_hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710"
        ));
        let expected = parse_hex(concat!(
            "601ec313775789a5b7a7f504bbf3d228",
            "f443e3ca4d62b59aca84e990cacaf5c5",
            "2b0930daa23de94ce87017ba2d84988d",
            "dfc9c58db67aada613c2dd08457941a6"
        ));
        for backend in Backend::available() {
            let mut data = plaintext.clone();
            ctr.apply_keystream_with(backend, &mut data, start);
            assert_eq!(data, expected, "{}", backend.name());
        }
        let mut data = plaintext;
        ctr.apply_keystream(&mut data, start);
        assert_eq!(data, expected);
    }

    /// The keystream built block by block from the scalar cipher: counter
    /// blocks `nonce ‖ counter`, the counter wrapping in its low 64 bits.
    fn reference_keystream(key: &[u8; 32], nonce: u64, start_block: u64, len: usize) -> Vec<u8> {
        let aes = Aes256::new(key);
        let mut out = Vec::with_capacity(len + 16);
        let mut counter = start_block;
        while out.len() < len {
            let mut block = [0u8; 16];
            block[..8].copy_from_slice(&nonce.to_be_bytes());
            block[8..].copy_from_slice(&counter.to_be_bytes());
            aes.encrypt_block_with(Backend::Scalar, &mut block);
            out.extend_from_slice(&block);
            counter = counter.wrapping_add(1);
        }
        out.truncate(len);
        out
    }

    /// Every length from 0 to 300 bytes: the 8-block body, every tail
    /// length, and a counter that wraps mid-buffer.
    #[test]
    fn backends_match_reference_at_every_length() {
        let key = [0x3cu8; 32];
        let (nonce, start) = (0x0102_0304_0506_0708, u64::MAX - 9);
        let reference = reference_keystream(&key, nonce, start, 300);
        let ctr = Aes256Ctr::new(&key, nonce);
        for backend in Backend::available() {
            for len in 0..=300 {
                let mut ks = vec![0u8; len];
                ctr.apply_keystream_with(backend, &mut ks, start);
                assert_eq!(ks, reference[..len], "{} at {len} bytes", backend.name());
            }
        }
    }

    #[test]
    fn ctr_round_trips() {
        let key = [7u8; 32];
        let ctr = Aes256Ctr::new(&key, 99);
        let data = b"all-or-nothing transforms need bulk encryption".to_vec();
        let ct = ctr.encrypt(&data);
        assert_ne!(ct, data);
        let pt = ctr.encrypt(&ct);
        assert_eq!(pt, data);
    }

    #[test]
    fn generator_mask_is_deterministic_and_key_sensitive() {
        let h1 = [1u8; 32];
        let h2 = [2u8; 32];
        let m1 = generator_mask(&h1, 100);
        let m1b = generator_mask(&h1, 100);
        let m2 = generator_mask(&h2, 100);
        assert_eq!(m1, m1b);
        assert_ne!(m1, m2);
        assert_eq!(m1.len(), 100);
    }

    #[test]
    fn generator_mask_prefix_property() {
        // The mask for a shorter length is a prefix of the mask for a longer
        // length (CTR keystream is position-based).
        let h = [0xaau8; 32];
        let long = generator_mask(&h, 333);
        let short = generator_mask(&h, 100);
        assert_eq!(&long[..100], &short[..]);
    }

    #[test]
    fn apply_generator_mask_matches_explicit_xor() {
        let h = [0x11u8; 32];
        let data: Vec<u8> = (0..777u32).map(|i| (i % 256) as u8).collect();
        let mask = generator_mask(&h, data.len());
        let mut masked = data.clone();
        apply_generator_mask(&h, &mut masked);
        for i in 0..data.len() {
            assert_eq!(masked[i], data[i] ^ mask[i]);
        }
    }

    proptest! {
        /// Every backend matches the block-by-block scalar keystream for
        /// random keys, nonces and lengths up to 300 bytes, from a random
        /// start block and from one just below the 64-bit counter wrap.
        #[test]
        fn backends_agree_on_keystream(key in proptest::array::uniform32(any::<u8>()),
                                       nonce in any::<u64>(),
                                       start in any::<u64>(),
                                       below_wrap in 0u64..=40,
                                       len in 0usize..=300) {
            let ctr = Aes256Ctr::new(&key, nonce);
            for start in [start, u64::MAX - below_wrap] {
                let reference = reference_keystream(&key, nonce, start, len);
                for backend in Backend::available() {
                    let mut ks = vec![0u8; len];
                    ctr.apply_keystream_with(backend, &mut ks, start);
                    prop_assert_eq!((backend, &ks), (backend, &reference));
                }
            }
        }

        /// The fused mask equals the two-pass reference: `^= C`, then the
        /// scalar keystream.
        #[test]
        fn fused_generator_mask_matches_two_pass_reference(
            h in proptest::array::uniform32(any::<u8>()),
            data in proptest::collection::vec(any::<u8>(), 0..=300),
        ) {
            let mut reference = data.clone();
            for b in reference.iter_mut() {
                *b ^= CONSTANT_BLOCK_BYTE;
            }
            Aes256Ctr::new(&h, 0).apply_keystream_with(Backend::Scalar, &mut reference, 0);
            for backend in Backend::available() {
                let mut fused = data.clone();
                apply_generator_mask_with(backend, &h, &mut fused);
                prop_assert_eq!((backend, &fused), (backend, &reference));
            }
        }

        #[test]
        fn apply_generator_mask_is_involutive(h in proptest::array::uniform32(any::<u8>()),
                                              data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut work = data.clone();
            apply_generator_mask(&h, &mut work);
            apply_generator_mask(&h, &mut work);
            prop_assert_eq!(work, data);
        }

        #[test]
        fn keystream_segments_are_consistent(key in proptest::array::uniform32(any::<u8>()),
                                             len in 1usize..200) {
            // Applying the keystream to a whole buffer equals applying it
            // block-by-block with matching start offsets.
            let ctr = Aes256Ctr::new(&key, 5);
            let mut whole = vec![0u8; len * 16];
            ctr.apply_keystream(&mut whole, 0);
            let mut pieces = vec![0u8; len * 16];
            for (i, chunk) in pieces.chunks_mut(16).enumerate() {
                ctr.apply_keystream(chunk, i as u64);
            }
            prop_assert_eq!(whole, pieces);
        }
    }
}
