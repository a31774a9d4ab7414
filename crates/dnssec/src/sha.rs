//! SHA-1, SHA-256 and SHA-384 (FIPS 180-4), the digests DNSSEC needs:
//! NSEC3 owner hashing (SHA-1, RFC 5155), DS digests (RFC 4509, 6605),
//! and the simulated signatures (SHA-256).
//!
//! The SHA-1 and SHA-256 block functions run on the x86 SHA extensions
//! when the CPU has them and on portable kernels otherwise; the portable
//! kernels are also the reference the tests hold the fast ones to.

/// A cryptographic hash with a fixed-size output.
pub(crate) trait Digest: Sized {
    /// The finished hash value.
    type Output: AsRef<[u8]>;

    fn new() -> Self;
    fn update(&mut self, data: impl AsRef<[u8]>);
    fn finalize(self) -> Self::Output;

    fn digest(data: impl AsRef<[u8]>) -> Self::Output {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }
}

/// Merkle–Damgård buffering shared by the SHA family: collects input into
/// `N`-byte blocks and pads the tail with the message bit length in a
/// big-endian field (FIPS 180-4 §5.1).
#[derive(Clone)]
struct BlockBuffer<const N: usize> {
    block: [u8; N],
    filled: usize,
    len_bytes: u128,
}

impl<const N: usize> Default for BlockBuffer<N> {
    fn default() -> Self {
        BlockBuffer {
            block: [0; N],
            filled: 0,
            len_bytes: 0,
        }
    }
}

impl<const N: usize> BlockBuffer<N> {
    fn update(&mut self, mut data: &[u8], mut compress: impl FnMut(&[u8; N])) {
        self.len_bytes += data.len() as u128;
        while !data.is_empty() {
            let take = (N - self.filled).min(data.len());
            self.block[self.filled..self.filled + take].copy_from_slice(&data[..take]);
            self.filled += take;
            data = &data[take..];
            if self.filled == N {
                compress(&self.block);
                self.filled = 0;
            }
        }
    }

    /// Appends the padding and the `len_field`-byte length, compressing
    /// the final one or two blocks.
    fn pad(mut self, len_field: usize, mut compress: impl FnMut(&[u8; N])) {
        let bits = self.len_bytes.wrapping_mul(8);
        self.block[self.filled] = 0x80;
        self.block[self.filled + 1..].fill(0);
        if self.filled + 1 > N - len_field {
            compress(&self.block);
            self.block.fill(0);
        }
        let be = bits.to_be_bytes();
        self.block[N - len_field..].copy_from_slice(&be[16 - len_field..]);
        compress(&self.block);
    }
}

// ------------------------------------------------------------- SHA-1

#[derive(Clone)]
pub(crate) struct Sha1 {
    state: [u32; 5],
    buf: BlockBuffer<64>,
}

fn compress160_portable(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    for t in 16..80 {
        w[t] = (w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]).rotate_left(1);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    for (t, wt) in w.iter().enumerate() {
        let (f, k) = match t {
            0..=19 => ((b & c) | (!b & d), 0x5a82_7999),
            20..=39 => (b ^ c ^ d, 0x6ed9_eba1),
            40..=59 => ((b & c) | (b & d) | (c & d), 0x8f1b_bcdc),
            _ => (b ^ c ^ d, 0xca62_c1d6),
        };
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(*wt);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
        *s = s.wrapping_add(v);
    }
}

const SHA1_IV: [u32; 5] = [
    0x6745_2301,
    0xefcd_ab89,
    0x98ba_dcfe,
    0x1032_5476,
    0xc3d2_e1f0,
];

fn sha1_output(state: [u32; 5]) -> [u8; 20] {
    let mut out = [0u8; 20];
    for (o, s) in out.chunks_exact_mut(4).zip(state) {
        o.copy_from_slice(&s.to_be_bytes());
    }
    out
}

impl Digest for Sha1 {
    type Output = [u8; 20];

    fn new() -> Self {
        Sha1 {
            state: SHA1_IV,
            buf: BlockBuffer::default(),
        }
    }

    fn update(&mut self, data: impl AsRef<[u8]>) {
        let state = &mut self.state;
        self.buf.update(data.as_ref(), |b| compress160(state, b));
    }

    fn finalize(mut self) -> [u8; 20] {
        let state = &mut self.state;
        self.buf.pad(8, |b| compress160(state, b));
        sha1_output(self.state)
    }
}

/// A SHA-1 message of one fixed length, padded once (FIPS 180-4 §5.1) and
/// then rewritten and rehashed in place. A loop that hashes many messages
/// of the same length (the NSEC3 iterations) skips [`Sha1`]'s buffering
/// and padding on every pass. Held on the stack: the message is at most
/// [`PaddedSha1::MAX_LEN`] bytes, room for a digest and the longest NSEC3
/// salt.
pub(crate) struct PaddedSha1 {
    blocks: [u8; 5 * 64],
    /// Bytes of `blocks` in use: whole blocks.
    end: usize,
    len: usize,
}

impl PaddedSha1 {
    /// The longest message: five blocks less the padding's nine bytes.
    pub(crate) const MAX_LEN: usize = 5 * 64 - 9;

    /// An all-zero message of `len` bytes, at most [`Self::MAX_LEN`].
    pub(crate) fn new(len: usize) -> Self {
        assert!(len <= Self::MAX_LEN, "a padded message of {len} bytes");
        let mut blocks = [0; 5 * 64];
        let end = (len + 9).div_ceil(64) * 64;
        blocks[len] = 0x80;
        blocks[end - 8..end].copy_from_slice(&(len as u64 * 8).to_be_bytes());
        PaddedSha1 { blocks, end, len }
    }

    /// The message bytes, to rewrite before the next [`Self::digest`].
    pub(crate) fn message_mut(&mut self) -> &mut [u8] {
        &mut self.blocks[..self.len]
    }

    /// SHA-1 of the message as it stands.
    pub(crate) fn digest(&self) -> [u8; 20] {
        let mut state = SHA1_IV;
        for block in self.blocks[..self.end].chunks_exact(64) {
            compress160(&mut state, block.try_into().expect("whole blocks"));
        }
        sha1_output(state)
    }
}

// --------------------------------------------------------- SHA-256/384

const K256: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const K512: [u64; 80] = [
    0x428a2f98d728ae22,
    0x7137449123ef65cd,
    0xb5c0fbcfec4d3b2f,
    0xe9b5dba58189dbbc,
    0x3956c25bf348b538,
    0x59f111f1b605d019,
    0x923f82a4af194f9b,
    0xab1c5ed5da6d8118,
    0xd807aa98a3030242,
    0x12835b0145706fbe,
    0x243185be4ee4b28c,
    0x550c7dc3d5ffb4e2,
    0x72be5d74f27b896f,
    0x80deb1fe3b1696b1,
    0x9bdc06a725c71235,
    0xc19bf174cf692694,
    0xe49b69c19ef14ad2,
    0xefbe4786384f25e3,
    0x0fc19dc68b8cd5b5,
    0x240ca1cc77ac9c65,
    0x2de92c6f592b0275,
    0x4a7484aa6ea6e483,
    0x5cb0a9dcbd41fbd4,
    0x76f988da831153b5,
    0x983e5152ee66dfab,
    0xa831c66d2db43210,
    0xb00327c898fb213f,
    0xbf597fc7beef0ee4,
    0xc6e00bf33da88fc2,
    0xd5a79147930aa725,
    0x06ca6351e003826f,
    0x142929670a0e6e70,
    0x27b70a8546d22ffc,
    0x2e1b21385c26c926,
    0x4d2c6dfc5ac42aed,
    0x53380d139d95b3df,
    0x650a73548baf63de,
    0x766a0abb3c77b2a8,
    0x81c2c92e47edaee6,
    0x92722c851482353b,
    0xa2bfe8a14cf10364,
    0xa81a664bbc423001,
    0xc24b8b70d0f89791,
    0xc76c51a30654be30,
    0xd192e819d6ef5218,
    0xd69906245565a910,
    0xf40e35855771202a,
    0x106aa07032bbd1b8,
    0x19a4c116b8d2d0c8,
    0x1e376c085141ab53,
    0x2748774cdf8eeb99,
    0x34b0bcb5e19b48a8,
    0x391c0cb3c5c95a63,
    0x4ed8aa4ae3418acb,
    0x5b9cca4f7763e373,
    0x682e6ff3d6b2b8a3,
    0x748f82ee5defb2fc,
    0x78a5636f43172f60,
    0x84c87814a1f0ab72,
    0x8cc702081a6439ec,
    0x90befffa23631e28,
    0xa4506cebde82bde9,
    0xbef9a3f7b2c67915,
    0xc67178f2e372532b,
    0xca273eceea26619c,
    0xd186b8c721c0c207,
    0xeada7dd6cde0eb1e,
    0xf57d4f7fee6ed178,
    0x06f067aa72176fba,
    0x0a637dc5a2c898a6,
    0x113f9804bef90dae,
    0x1b710b35131c471b,
    0x28db77f523047d84,
    0x32caab7b40c72493,
    0x3c9ebe0a15c9bebc,
    0x431d67c49c100d4c,
    0x4cc5d4becb3e42b6,
    0x597f299cfc657e2a,
    0x5fcb6fab3ad6faec,
    0x6c44198c4a475817,
];

fn compress256_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K256[t])
            .wrapping_add(w[t]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

fn compress512(state: &mut [u64; 8], block: &[u8; 128]) {
    let mut w = [0u64; 80];
    for (i, chunk) in block.chunks_exact(8).enumerate() {
        w[i] = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    for t in 16..80 {
        let s0 = w[t - 15].rotate_right(1) ^ w[t - 15].rotate_right(8) ^ (w[t - 15] >> 7);
        let s1 = w[t - 2].rotate_right(19) ^ w[t - 2].rotate_right(61) ^ (w[t - 2] >> 6);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in 0..80 {
        let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K512[t])
            .wrapping_add(w[t]);
        let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

#[derive(Clone)]
pub(crate) struct Sha256 {
    state: [u32; 8],
    buf: BlockBuffer<64>,
}

impl Digest for Sha256 {
    type Output = [u8; 32];

    fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: BlockBuffer::default(),
        }
    }

    fn update(&mut self, data: impl AsRef<[u8]>) {
        let state = &mut self.state;
        self.buf.update(data.as_ref(), |b| compress256(state, b));
    }

    fn finalize(mut self) -> [u8; 32] {
        let state = &mut self.state;
        self.buf.pad(8, |b| compress256(state, b));
        let mut out = [0u8; 32];
        for (o, s) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&s.to_be_bytes());
        }
        out
    }
}

#[derive(Clone)]
pub(crate) struct Sha384 {
    state: [u64; 8],
    buf: BlockBuffer<128>,
}

impl Digest for Sha384 {
    type Output = [u8; 48];

    fn new() -> Self {
        Sha384 {
            state: [
                0xcbbb9d5dc1059ed8,
                0x629a292a367cd507,
                0x9159015a3070dd17,
                0x152fecd8f70e5939,
                0x67332667ffc00b31,
                0x8eb44a8768581511,
                0xdb0c2e0d64f98fa7,
                0x47b5481dbefa4fa4,
            ],
            buf: BlockBuffer::default(),
        }
    }

    fn update(&mut self, data: impl AsRef<[u8]>) {
        let state = &mut self.state;
        self.buf.update(data.as_ref(), |b| compress512(state, b));
    }

    fn finalize(mut self) -> [u8; 48] {
        let state = &mut self.state;
        self.buf.pad(16, |b| compress512(state, b));
        let mut out = [0u8; 48];
        for (o, s) in out.chunks_exact_mut(8).zip(self.state) {
            o.copy_from_slice(&s.to_be_bytes());
        }
        out
    }
}

// ------------------------------------------------- kernel selection

#[cfg(test)]
thread_local! {
    /// Set by the digest tests to run the portable kernels on a CPU that
    /// has the SHA extensions.
    static FORCE_PORTABLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether this CPU can run the SHA-extension kernels. The standard
/// library caches the CPUID answer, so this costs an atomic load.
fn sha_extensions() -> bool {
    #[cfg(test)]
    if FORCE_PORTABLE.get() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The SHA-1 block function: the SHA-extension kernel where the CPU has
/// it, else [`compress160_portable`].
fn compress160(state: &mut [u32; 5], block: &[u8; 64]) {
    if sha_extensions() {
        // SAFETY: `sha_extensions` has just seen the CPU report `sha`,
        // `ssse3` and `sse4.1`, and every x86_64 CPU has `sse2`.
        #[cfg(target_arch = "x86_64")]
        return unsafe { compress160_sha(state, block) };
    }
    compress160_portable(state, block)
}

/// The SHA-256 block function: the SHA-extension kernel where the CPU has
/// it, else [`compress256_portable`].
fn compress256(state: &mut [u32; 8], block: &[u8; 64]) {
    if sha_extensions() {
        // SAFETY: as in `compress160`, the CPU has every feature the
        // kernel enables.
        #[cfg(target_arch = "x86_64")]
        return unsafe { compress256_sha(state, block) };
    }
    compress256_portable(state, block)
}

/// [`compress160_portable`] on the x86 SHA extensions, in the order of
/// Intel's reference sequence: each `sha1rnds4` runs four rounds, and
/// `sha1msg1`/`sha1msg2` expand the next four message words.
///
/// # Safety
///
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress160_sha(state: &mut [u32; 5], block: &[u8; 64]) {
    use std::arch::x86_64::*;

    // Reverses all 16 bytes: big-endian words, first word in the top lane.
    let bswap = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    // The loads are unaligned and in bounds: 16 of `state`'s 20 bytes, and
    // four 16-byte quarters of the 64-byte block.
    let abcd_save = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().cast()), 0x1B);
    let e_save = _mm_set_epi32(state[4] as i32, 0, 0, 0);
    macro_rules! words {
        ($i:literal) => {
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16 * $i).cast()), bswap)
        };
    }
    let (mut w0, mut w1, mut w2, mut w3) = (words!(0), words!(1), words!(2), words!(3));

    let mut abcd = abcd_save;
    // `e` holds ABCD from before the previous four rounds; `sha1nexte`
    // rotates it into that group's E and adds the next message words.
    let mut e = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, _mm_add_epi32(e_save, w0), 0);
    macro_rules! rounds4 {
        ($w:expr, $f:literal) => {
            let ew = _mm_sha1nexte_epu32(e, $w);
            e = abcd;
            abcd = _mm_sha1rnds4_epu32(abcd, ew, $f);
        };
    }
    // W[t..t+4] from the 16 words before it, into the oldest of the four.
    macro_rules! schedule {
        ($w0:ident, $w1:ident, $w2:ident, $w3:ident) => {
            $w0 = _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32($w0, $w1), $w2), $w3);
        };
    }
    rounds4!(w1, 0);
    rounds4!(w2, 0);
    rounds4!(w3, 0);
    schedule!(w0, w1, w2, w3);
    rounds4!(w0, 0);
    schedule!(w1, w2, w3, w0);
    rounds4!(w1, 1);
    schedule!(w2, w3, w0, w1);
    rounds4!(w2, 1);
    schedule!(w3, w0, w1, w2);
    rounds4!(w3, 1);
    schedule!(w0, w1, w2, w3);
    rounds4!(w0, 1);
    schedule!(w1, w2, w3, w0);
    rounds4!(w1, 1);
    schedule!(w2, w3, w0, w1);
    rounds4!(w2, 2);
    schedule!(w3, w0, w1, w2);
    rounds4!(w3, 2);
    schedule!(w0, w1, w2, w3);
    rounds4!(w0, 2);
    schedule!(w1, w2, w3, w0);
    rounds4!(w1, 2);
    schedule!(w2, w3, w0, w1);
    rounds4!(w2, 2);
    schedule!(w3, w0, w1, w2);
    rounds4!(w3, 3);
    schedule!(w0, w1, w2, w3);
    rounds4!(w0, 3);
    schedule!(w1, w2, w3, w0);
    rounds4!(w1, 3);
    schedule!(w2, w3, w0, w1);
    rounds4!(w2, 3);
    schedule!(w3, w0, w1, w2);
    rounds4!(w3, 3);

    let e = _mm_sha1nexte_epu32(e, e_save);
    let abcd = _mm_shuffle_epi32(_mm_add_epi32(abcd, abcd_save), 0x1B);
    _mm_storeu_si128(state.as_mut_ptr().cast(), abcd);
    state[4] = _mm_extract_epi32(e, 3) as u32;
}

/// [`compress256_portable`] on the x86 SHA extensions, in the order of
/// Intel's reference sequence: each `sha256rnds2` runs two rounds on the
/// state split as ABEF/CDGH, and `sha256msg1`/`sha256msg2` expand the
/// next four message words.
///
/// # Safety
///
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress256_sha(state: &mut [u32; 8], block: &[u8; 64]) {
    use std::arch::x86_64::*;

    // Byte-swaps each 32-bit lane: big-endian words, first word lowest.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // The loads are unaligned and in bounds: the two halves of `state`,
    // and four 16-byte quarters of the 64-byte block.
    let cdab = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().cast()), 0xB1);
    let efgh = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().add(4).cast()), 0x1B);
    let abef_save = _mm_alignr_epi8(cdab, efgh, 8);
    let cdgh_save = _mm_blend_epi16(efgh, cdab, 0xF0);
    macro_rules! words {
        ($i:literal) => {
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16 * $i).cast()), bswap)
        };
    }
    let (mut w0, mut w1, mut w2, mut w3) = (words!(0), words!(1), words!(2), words!(3));

    let (mut abef, mut cdgh) = (abef_save, cdgh_save);
    macro_rules! rounds4 {
        ($w:expr, $t:literal) => {
            let k = _mm_set_epi32(
                K256[$t + 3] as i32,
                K256[$t + 2] as i32,
                K256[$t + 1] as i32,
                K256[$t] as i32,
            );
            let wk = _mm_add_epi32($w, k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
        };
    }
    // W[t..t+4] from the 16 words before it, into the oldest of the four.
    macro_rules! schedule {
        ($w0:ident, $w1:ident, $w2:ident, $w3:ident) => {
            let w = _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
            $w0 = _mm_sha256msg2_epu32(w, $w3);
        };
    }
    rounds4!(w0, 0);
    rounds4!(w1, 4);
    rounds4!(w2, 8);
    rounds4!(w3, 12);
    schedule!(w0, w1, w2, w3);
    rounds4!(w0, 16);
    schedule!(w1, w2, w3, w0);
    rounds4!(w1, 20);
    schedule!(w2, w3, w0, w1);
    rounds4!(w2, 24);
    schedule!(w3, w0, w1, w2);
    rounds4!(w3, 28);
    schedule!(w0, w1, w2, w3);
    rounds4!(w0, 32);
    schedule!(w1, w2, w3, w0);
    rounds4!(w1, 36);
    schedule!(w2, w3, w0, w1);
    rounds4!(w2, 40);
    schedule!(w3, w0, w1, w2);
    rounds4!(w3, 44);
    schedule!(w0, w1, w2, w3);
    rounds4!(w0, 48);
    schedule!(w1, w2, w3, w0);
    rounds4!(w1, 52);
    schedule!(w2, w3, w0, w1);
    rounds4!(w2, 56);
    schedule!(w3, w0, w1, w2);
    rounds4!(w3, 60);

    let feba = _mm_shuffle_epi32(_mm_add_epi32(abef, abef_save), 0x1B);
    let dchg = _mm_shuffle_epi32(_mm_add_epi32(cdgh, cdgh_save), 0xB1);
    _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(
        state.as_mut_ptr().add(4).cast(),
        _mm_alignr_epi8(dchg, feba, 8),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `check` on the kernels this CPU selects, then on the portable
    /// kernels alone (the same ones where the CPU lacks the extensions).
    fn on_both_kernels(check: impl Fn()) {
        check();
        FORCE_PORTABLE.set(true);
        check();
        FORCE_PORTABLE.set(false);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn million_a<D: Digest>() -> D::Output {
        // Streamed in chunks that straddle block boundaries.
        let mut h = D::new();
        let chunk = [b'a'; 997];
        let mut left = 1_000_000;
        while left > 0 {
            let n = left.min(chunk.len());
            h.update(&chunk[..n]);
            left -= n;
        }
        h.finalize()
    }

    const M448: &[u8] = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    const M896: &[u8] = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";

    // FIPS 180-4 example vectors: "abc", the 448-bit message, and one
    // million repetitions of "a".
    #[test]
    fn sha1_fips_vectors() {
        on_both_kernels(|| {
            assert_eq!(
                hex(&Sha1::digest(b"abc")),
                "a9993e364706816aba3e25717850c26c9cd0d89d"
            );
            assert_eq!(
                hex(&Sha1::digest(M448)),
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
            );
            assert_eq!(
                hex(&million_a::<Sha1>()),
                "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
            );
            assert_eq!(
                hex(&Sha1::digest(b"")),
                "da39a3ee5e6b4b0d3255bfef95601890afd80709"
            );
        });
    }

    #[test]
    fn sha256_fips_vectors() {
        on_both_kernels(|| {
            assert_eq!(
                hex(&Sha256::digest(b"abc")),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
            );
            assert_eq!(
                hex(&Sha256::digest(M448)),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
            );
            assert_eq!(
                hex(&million_a::<Sha256>()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
            );
        });
    }

    #[test]
    fn sha384_fips_vectors() {
        assert_eq!(
            hex(&Sha384::digest(b"abc")),
            "cb00753f45a35e8bb5a03d699ac65007272c32ab0eded1631a8b605a43ff5bed\
             8086072ba1e7cc2358baeca134c825a7"
        );
        assert_eq!(
            hex(&Sha384::digest(M448)),
            "3391fdddfc8dc7393707a65b1b4709397cf8b1d162af05abfe8f450de5f36bc6\
             b0455a8520bc4e6f5fe95b1fe3c8452b"
        );
        assert_eq!(
            hex(&Sha384::digest(M896)),
            "09330c33f71147e83d192fc782cd1b4753111b173b3b05d22fa08086e3b0f712\
             fcc7c71a557e2db966c3e9fa91746039"
        );
        assert_eq!(
            hex(&million_a::<Sha384>()),
            "9d0e1809716474cb086e834e310a4a1ced149e9c00f248527972cec5704c2a5b\
             07b8b3dc38ecc4ebae97ddd87f3d8985"
        );
    }

    #[test]
    fn padding_boundaries_and_reset_match_one_shot() {
        on_both_kernels(|| {
            // 55/56/63/64 (and 111/112/127/128) straddle the one- versus
            // two-block padding split.
            for len in [55usize, 56, 63, 64, 111, 112, 127, 128] {
                let data = vec![0x5au8; len];
                let mut h = Sha256::new();
                let mut g = Sha384::new();
                for b in &data {
                    h.update([*b]);
                    g.update([*b]);
                }
                assert_eq!(h.finalize(), Sha256::digest(&data), "sha256 len {len}");
                assert_eq!(g.finalize(), Sha384::digest(&data), "sha384 len {len}");
            }
            // A padded SHA-1 message rewritten in place hashes like a fresh
            // one, on both sides of the one- versus two-block split and at
            // the longest NSEC3 round (20-byte digest, 255-byte salt).
            for len in [0usize, 20, 28, 55, 56, 63, 64, 119, 120, 275] {
                let mut msg = PaddedSha1::new(len);
                for fill in [0x5au8, 0xa5] {
                    msg.message_mut().fill(fill);
                    assert_eq!(
                        msg.digest(),
                        Sha1::digest(vec![fill; len]),
                        "sha1 len {len}"
                    );
                }
            }
        });
    }

    #[test]
    fn selected_kernels_match_portable() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        if !sha_extensions() {
            eprintln!(
                "this CPU lacks the SHA extensions: both sides ran the portable kernels, \
                 so the SHA-extension kernels went unchecked"
            );
        }
        let mut rng = StdRng::seed_from_u64(1804);
        for i in 0..1_000 {
            let mut block = [0u8; 64];
            rng.fill(&mut block);
            let s1: [u32; 5] = std::array::from_fn(|_| rng.gen());
            let s2: [u32; 8] = std::array::from_fn(|_| rng.gen());
            let (mut a1, mut b1, mut a2, mut b2) = (s1, s1, s2, s2);
            compress160(&mut a1, &block);
            compress160_portable(&mut b1, &block);
            assert_eq!(a1, b1, "SHA-1 block {i}");
            compress256(&mut a2, &block);
            compress256_portable(&mut b2, &block);
            assert_eq!(a2, b2, "SHA-256 block {i}");
        }
    }
}
