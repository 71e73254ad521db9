//! SHA-256 and HMAC-SHA256, implemented in-tree.
//!
//! The audit chain needs a collision-resistant digest and a keyed MAC; the
//! workspace is offline and vendors no cryptography crate, so the two
//! primitives are implemented here directly from FIPS 180-4 and RFC 2104,
//! in safe Rust.
//!
//! Every audited decision appends a chain record, so the MAC sits on the
//! request path and is built for it. [`Sha256`] is a streaming state that
//! hashes its input where it lies, with no padded copy. [`HmacKey`] absorbs
//! the key's inner and outer pad blocks once, so each MAC costs only the
//! compressions of its message plus one for the outer hash, and
//! [`HmacKey::mac_parts`] takes the message in pieces so callers need not
//! join them into one buffer first.

/// First 32 bits of the fractional parts of the cube roots of the first 64
/// primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// Initial hash value: fractional parts of the square roots of the first
/// eight primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// One SHA-256 compression (FIPS 180-4 §6.2.2): folds a 64-byte block
/// into `state`.
///
/// The message schedule rolls through 16 words (`w[t % 16]` holds `W[t]`)
/// and the 64 rounds are unrolled, so the eight working variables rotate
/// by renaming instead of by moves and every schedule index is a constant.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*bytes);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    // Round `t` with the working variables named in their current roles;
    // rounds 16.. first extend the schedule in place.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $t:expr) => {
            if $t >= 16 {
                let w15 = w[($t + 1) % 16];
                let w2 = w[($t + 14) % 16];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[$t % 16] = w[$t % 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[($t + 9) % 16])
                    .wrapping_add(s1);
            }
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = $g ^ ($e & ($f ^ $g));
            let t1 = $h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[$t])
                .wrapping_add(w[$t % 16]);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) | ($c & ($a | $b));
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(s0.wrapping_add(maj));
        };
    }
    macro_rules! eight_rounds {
        ($t:expr) => {
            round!(a, b, c, d, e, f, g, h, $t);
            round!(h, a, b, c, d, e, f, g, $t + 1);
            round!(g, h, a, b, c, d, e, f, $t + 2);
            round!(f, g, h, a, b, c, d, e, $t + 3);
            round!(e, f, g, h, a, b, c, d, $t + 4);
            round!(d, e, f, g, h, a, b, c, $t + 5);
            round!(c, d, e, f, g, h, a, b, $t + 6);
            round!(b, c, d, e, f, g, h, a, $t + 7);
        };
    }
    eight_rounds!(0);
    eight_rounds!(8);
    eight_rounds!(16);
    eight_rounds!(24);
    eight_rounds!(32);
    eight_rounds!(40);
    eight_rounds!(48);
    eight_rounds!(56);

    for (slot, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *slot = slot.wrapping_add(v);
    }
}

/// A streaming SHA-256 state: [`Sha256::update`] any number of times,
/// then [`Sha256::finish`]. Whole blocks are compressed straight from the
/// caller's slice; only a partial block is buffered.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// The pending partial block, `buf[..buffered]`.
    buf: [u8; 64],
    buffered: usize,
    /// Message bytes absorbed so far.
    len: u64,
}

impl Sha256 {
    /// The state before any input.
    pub const fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buf: [0; 64],
            buffered: 0,
            len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buffered = 0;
        }
        let (blocks, rest) = data.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Pads the message (`0x80`, zeros, 64-bit big-endian bit length) and
    /// returns its digest.
    pub fn finish(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        self.buf[self.buffered] = 0x80;
        self.buf[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            // No room for the length: it goes in one more block.
            compress(&mut self.state, &self.buf);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(self.state) {
            *bytes = word.to_be_bytes();
        }
        out
    }
}

/// SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finish()
}

/// An HMAC-SHA256 key (RFC 2104) with its inner and outer pad blocks
/// already absorbed: build it once per key, and each MAC under it starts
/// one block in.
#[derive(Debug)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Precomputes the key states; a key longer than a block is hashed
    /// first.
    pub fn new(key: &[u8]) -> HmacKey {
        let mut block = [0u8; 64];
        if key.len() > 64 {
            block[..32].copy_from_slice(&sha256(key));
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let padded = |pad: u8| {
            let mut state = Sha256::new();
            state.update(&block.map(|b| b ^ pad));
            state
        };
        HmacKey {
            inner: padded(0x36),
            outer: padded(0x5c),
        }
    }

    /// HMAC of the concatenation of `parts`, without joining them.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finish());
        outer.finish()
    }
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Lowercase hex of a digest, as bytes.
pub fn hex_bytes(digest: &[u8; 32]) -> [u8; 64] {
    let mut out = [0u8; 64];
    for (pair, byte) in out.as_chunks_mut::<2>().0.iter_mut().zip(digest) {
        *pair = [
            HEX_DIGITS[usize::from(byte >> 4)],
            HEX_DIGITS[usize::from(byte & 0xf)],
        ];
    }
    out
}

/// Lowercase hex of a digest.
pub fn hex(digest: &[u8; 32]) -> String {
    String::from_utf8(hex_bytes(digest).to_vec()).expect("hex digits are ASCII")
}

/// `value` as 16 lowercase hex digits: the bytes `format!("{value:016x}")`
/// renders.
pub fn hex_u64(value: u64) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (i, digit) in out.iter_mut().enumerate() {
        *digit = HEX_DIGITS[((value >> (60 - 4 * i)) & 0xf) as usize];
    }
    out
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// One-shot HMAC-SHA256 of `data` under `key`.
    fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
        HmacKey::new(key).mac_parts(&[data])
    }

    /// The RFC 2104 definition, written out over joined buffers: the
    /// reference the precomputed key states must match.
    fn hmac_reference(key: &[u8], data: &[u8]) -> [u8; 32] {
        let mut block = [0u8; 64];
        if key.len() > 64 {
            block[..32].copy_from_slice(&sha256(key));
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let mut inner: Vec<u8> = block.iter().map(|b| b ^ 0x36).collect();
        inner.extend_from_slice(data);
        let mut outer: Vec<u8> = block.iter().map(|b| b ^ 0x5c).collect();
        outer.extend_from_slice(&sha256(&inner));
        sha256(&outer)
    }

    /// Cuts `data` at the given offsets (clamped, sorted) into pieces.
    fn split_at_points(data: &[u8], points: &[usize]) -> Vec<Vec<u8>> {
        let mut cuts: Vec<usize> = points.iter().map(|&p| p.min(data.len())).collect();
        cuts.sort_unstable();
        let mut pieces = Vec::new();
        let mut start = 0;
        for cut in cuts.into_iter().chain([data.len()]) {
            pieces.push(data[start..cut].to_vec());
            start = cut;
        }
        pieces
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        #[test]
        fn streaming_over_any_split_equals_one_shot(
            data in proptest::collection::vec(any::<u8>(), 0..300),
            points in proptest::collection::vec(0usize..300, 0..6),
            key in proptest::collection::vec(any::<u8>(), 0..140),
        ) {
            let pieces = split_at_points(&data, &points);
            let mut hasher = Sha256::new();
            for piece in &pieces {
                hasher.update(piece);
            }
            prop_assert_eq!(hasher.finish(), sha256(&data));

            let parts: Vec<&[u8]> = pieces.iter().map(Vec::as_slice).collect();
            let mac = HmacKey::new(&key).mac_parts(&parts);
            prop_assert_eq!(mac, hmac_sha256(&key, &data));
            prop_assert_eq!(mac, hmac_reference(&key, &data));
        }

        #[test]
        fn hex_helpers_match_format(value in any::<u64>(), seed in any::<u64>()) {
            prop_assert_eq!(hex_u64(value).to_vec(), format!("{value:016x}").into_bytes());
            let digest = sha256(&seed.to_le_bytes());
            let formatted: String = digest.iter().map(|b| format!("{b:02x}")).collect();
            prop_assert_eq!(hex(&digest), formatted);
        }
    }

    #[test]
    fn sha256_block_boundaries_match_the_reference_hmac_path() {
        // Every length across three blocks, so padding that spills into a
        // second block and updates that end exactly on a boundary are hit.
        for len in 0..=192usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let mut hasher = Sha256::new();
            for byte in &data {
                hasher.update(std::slice::from_ref(byte));
            }
            assert_eq!(hasher.finish(), sha256(&data), "length {len}");
            assert_eq!(
                hmac_sha256(b"key", &data),
                hmac_reference(b"key", &data),
                "length {len}"
            );
        }
    }

    #[test]
    fn sha256_known_answers() {
        // FIPS 180-4 / NIST CAVP vectors.
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_multi_block_known_answers() {
        // FIPS 180-4 examples: a two-block message and one million 'a's,
        // fed in uneven pieces.
        assert_eq!(
            hex(&sha256(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
        let mut hasher = Sha256::new();
        let chunk = [b'a'; 1000];
        for i in 0..1000 {
            let cut = i % 97;
            hasher.update(&chunk[..cut]);
            hasher.update(&chunk[cut..]);
        }
        assert_eq!(
            hex(&hasher.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_padding_edge_lengths() {
        // 55/56/64 bytes straddle the one-vs-two-block padding boundary.
        for len in [55usize, 56, 63, 64, 65, 119, 120] {
            let data = vec![0x61u8; len];
            let digest = sha256(&data);
            // Self-consistency: appending one byte must change the digest.
            let mut longer = data.clone();
            longer.push(0x61);
            assert_ne!(digest, sha256(&longer), "length {len}");
        }
        // 64-byte vector from NIST CAVP (SHA256LongMsg-style sanity check).
        assert_eq!(
            hex(&sha256(&[0x61u8; 64])),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
        );
    }

    #[test]
    fn hmac_known_answers() {
        // RFC 4231 test case 2.
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // RFC 4231 test case 1.
        assert_eq!(
            hex(&hmac_sha256(&[0x0b; 20], b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn hmac_long_keys_are_hashed_first() {
        // RFC 4231 test case 6: a 131-byte key exceeds the block size.
        assert_eq!(
            hex(&hmac_sha256(
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }
}
