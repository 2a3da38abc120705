//! CRC32C (Castagnoli) — the checksum used by NVMe end-to-end data
//! protection (DIF/DIX guard tags) and by most storage stacks.
//! Polynomial 0x1EDC6F41, reflected = 0x82F63B78.
//!
//! Three kernels compute the same function (DESIGN.md §11.3). With
//! AVX-512 and VPCLMULQDQ, inputs of 256 bytes and more are folded by
//! carry-less multiplication, 256 bytes per step over four 512-bit
//! accumulators. With SSE4.2 the `crc32` instruction — which implements
//! exactly this polynomial — folds eight bytes per step, on three
//! interleaved lanes for inputs of 384 bytes and more. Everywhere else a
//! portable slice-by-8 table kernel does. [`tier`] names the widest one
//! this CPU runs, from feature bits that `std` probes once and caches.
//! Every DFS cell and every WAL record is checksummed through here, so
//! this is per-byte work on the DPU's cores: it has to run at memory
//! speed, not at a table lookup per byte.

const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[j][b]` is
/// the CRC of byte `b` followed by `j` zero bytes, which is what lets
/// eight bytes be folded with eight independent lookups.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

/// CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// The kernels of [`update`], narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Slice-by-8 tables, on any CPU.
    Slice8,
    /// `crc32q` on three interleaved lanes (SSE4.2).
    Sse42,
    /// Carry-less-multiply folding over 512-bit lanes (AVX-512F and
    /// VPCLMULQDQ) from 256 bytes on; `crc32q` below that.
    Fold512,
}

impl Tier {
    /// The tier as test logs and benches print it.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Slice8 => "slice8",
            Tier::Sse42 => "sse4.2",
            Tier::Fold512 => "fold512",
        }
    }
}

/// The widest tier this CPU runs: the one [`update`] dispatches to.
pub fn tier() -> Tier {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("sse4.2") {
        if std::is_x86_feature_detected!("pclmulqdq")
            && std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("vpclmulqdq")
        {
            return Tier::Fold512;
        }
        return Tier::Sse42;
    }
    Tier::Slice8
}

/// Streaming update: feed chunks, starting from `!0` and finishing with
/// a final XOR (use [`crc32c`] for the one-shot form).
pub(crate) fn update(state: u32, data: &[u8]) -> u32 {
    match tier() {
        // SAFETY: `tier` reports AVX-512F, VPCLMULQDQ, PCLMULQDQ and
        // SSE4.2, the requirements of `update_fold512`.
        #[cfg(target_arch = "x86_64")]
        Tier::Fold512 => unsafe { update_fold512(state, data) },
        // SAFETY: `tier` reports SSE4.2, the only requirement of
        // `update_sse42`.
        #[cfg(target_arch = "x86_64")]
        Tier::Sse42 => unsafe { update_sse42(state, data) },
        _ => update_slice8(state, data),
    }
}

/// The portable kernel: slice-by-8, eight table lookups per eight bytes
/// with no dependency between them.
fn update_slice8(mut state: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        state = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    for &b in words.remainder() {
        state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// Lane lengths of the three-lane hardware kernel: rounds of three
/// `LONG_LANE` lanes first, then of three `SHORT_LANE` lanes, then one
/// lane for the rest. Powers of two, so each has a shift table below.
const LONG_LANE: usize = 1024;
const SHORT_LANE: usize = 128;

/// `SHIFT_*[j][b]`: the CRC register `b << 8j` after that lane's length
/// of zero bytes, so four lookups move a lane's CRC past the next lane.
static SHIFT_LONG: [[u32; 256]; 4] = shift_tables(LONG_LANE);
static SHIFT_SHORT: [[u32; 256]; 4] = shift_tables(SHORT_LANE);

/// `mat · vec` over GF(2): `mat[i]` is the image of bit `i`.
const fn gf2_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

const fn gf2_square(mat: &[u32; 32]) -> [u32; 32] {
    let mut sq = [0u32; 32];
    let mut n = 0;
    while n < 32 {
        sq[n] = gf2_times(mat, mat[n]);
        n += 1;
    }
    sq
}

/// The register operator of `len` zero bytes (`len` a power of two), by
/// repeated squaring of the one-zero-bit operator (Adler's `crc32c.c`).
const fn zeros_op(len: usize) -> [u32; 32] {
    let mut op = [0u32; 32];
    op[0] = POLY;
    let mut n = 1;
    while n < 32 {
        op[n] = 1 << (n - 1);
        n += 1;
    }
    // One bit → two → four → one zero byte.
    op = gf2_square(&op);
    op = gf2_square(&op);
    op = gf2_square(&op);
    let mut bytes = 1;
    while bytes < len {
        op = gf2_square(&op);
        bytes <<= 1;
    }
    op
}

const fn shift_tables(len: usize) -> [[u32; 256]; 4] {
    let op = zeros_op(len);
    let mut t = [[0u32; 256]; 4];
    let mut b = 0;
    while b < 256 {
        let mut j = 0;
        while j < 4 {
            t[j][b] = gf2_times(&op, (b as u32) << (8 * j));
            j += 1;
        }
        b += 1;
    }
    t
}

/// Feed a lane's length of zero bytes through the register `crc`.
fn shift(table: &[[u32; 256]; 4], crc: u32) -> u32 {
    table[0][(crc & 0xFF) as usize]
        ^ table[1][((crc >> 8) & 0xFF) as usize]
        ^ table[2][((crc >> 16) & 0xFF) as usize]
        ^ table[3][(crc >> 24) as usize]
}

/// The hardware kernel: one `crc32q` per eight bytes, on three
/// interleaved lanes while at least `3 × SHORT_LANE` bytes remain.
///
/// `crc32q` has a latency of three cycles and a throughput of one, so a
/// single chain runs at a third of the unit's speed. Each round runs the
/// first lane from the running register and the other two from zero,
/// then joins them: the register is linear in (state, data), so
/// `crc(A‖B) = shift(crc(A), |B|) ⊕ crc₀(B)`.
///
/// # Safety
/// The CPU must support SSE4.2 (`is_x86_feature_detected!("sse4.2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_sse42(state: u32, data: &[u8]) -> u32 {
    use core::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    // `from_le_bytes` on a chunk is an unaligned load: no alignment is
    // assumed of `data`.
    let word = |w: &[u8]| u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
    let mut state = state;
    let mut data = data;
    for (lane, table) in [(LONG_LANE, &SHIFT_LONG), (SHORT_LANE, &SHIFT_SHORT)] {
        while data.len() >= 3 * lane {
            let (a, rest) = data.split_at(lane);
            let (b, rest) = rest.split_at(lane);
            let (c, rest) = rest.split_at(lane);
            let (mut x, mut y, mut z) = (state as u64, 0u64, 0u64);
            for ((wa, wb), wc) in a
                .chunks_exact(8)
                .zip(b.chunks_exact(8))
                .zip(c.chunks_exact(8))
            {
                x = _mm_crc32_u64(x, word(wa));
                y = _mm_crc32_u64(y, word(wb));
                z = _mm_crc32_u64(z, word(wc));
            }
            state = shift(table, x as u32) ^ y as u32;
            state = shift(table, state) ^ z as u32;
            data = rest;
        }
    }
    let mut words = data.chunks_exact(8);
    let mut crc = state as u64;
    for w in &mut words {
        crc = _mm_crc32_u64(crc, word(w));
    }
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// Bytes the fold kernel takes per step: four 512-bit accumulators.
const FOLD_BLOCK: usize = 256;

/// `x^n mod P` in the register's reflected form, where bit 31 is `x^0`:
/// `n` zero bits fed through a register holding 1.
const fn x_pow_mod(n: u32) -> u32 {
    let mut v = 0x8000_0000u32;
    let mut i = 0;
    while i < n {
        v = if v & 1 != 0 { (v >> 1) ^ POLY } else { v >> 1 };
        i += 1;
    }
    v
}

/// The multipliers that move a 128-bit lane `bits` further down the
/// message: `(low, high)` for its first and its second 64 bits,
/// `x^(bits + 32)` and `x^(bits − 32) mod P`. Each is reflected and
/// shifted left by one, so a 64 × 33-bit carry-less product of reflected
/// operands lands at the lane's own bit positions.
const fn fold_pair(bits: u32) -> (u64, u64) {
    (
        (x_pow_mod(bits + 32) as u64) << 1,
        (x_pow_mod(bits - 32) as u64) << 1,
    )
}

/// One step of the main loop, each accumulator past the other three.
const FOLD_BLOCK_PAIR: (u64, u64) = fold_pair(8 * FOLD_BLOCK as u32);
/// One 512-bit accumulator past the next.
const FOLD_512_PAIR: (u64, u64) = fold_pair(512);
/// Lanes 0, 1 and 2 of a 512-bit accumulator past lane 3.
const FOLD_LANE_PAIRS: [(u64, u64); 3] = [fold_pair(384), fold_pair(256), fold_pair(128)];

/// The fold kernel: carry-less multiplication over 512-bit lanes, for
/// inputs of [`FOLD_BLOCK`] bytes and more (shorter ones go to
/// [`update_sse42`]).
///
/// The register after a message `M` is `M · x³² mod P` once the starting
/// state is XORed into `M`'s first four bytes, and folding keeps that
/// residue: a 128-bit lane `A = H·x⁶⁴ + L` that is `d` bits ahead of
/// another is worth `H·x^(d+64) + L·x^d` there, two 64-bit carry-less
/// products that fit in 128 bits. Four accumulators take 64 bytes each
/// of every 256-byte block; at the end they fold into one, which then
/// takes the whole 64-byte chunks left, and its four lanes fold into one
/// 128-bit remainder. Two `crc32q` from a zero register compute that
/// remainder's `· x³² mod P` — the CRC register — so no Barrett step is
/// needed, and the last 63 bytes or fewer go to the `crc32q` tier.
///
/// # Safety
/// The CPU must support AVX-512F, VPCLMULQDQ, PCLMULQDQ and SSE4.2
/// ([`tier`] returns [`Tier::Fold512`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse4.2")]
unsafe fn update_fold512(state: u32, data: &[u8]) -> u32 {
    use core::arch::x86_64::*;
    if data.len() < FOLD_BLOCK {
        return update_sse42(state, data);
    }
    // An unaligned load of one `chunks_exact(64)` chunk.
    let load = |c: &[u8]| _mm512_loadu_si512(c.as_ptr().cast());
    let pair = |(lo, hi): (u64, u64)| _mm512_broadcast_i32x4(_mm_set_epi64x(hi as i64, lo as i64));
    // `acc` moved as far as `k` says, plus `next`.
    let fold = |acc, k, next| {
        _mm512_ternarylogic_epi64(
            _mm512_clmulepi64_epi128(acc, k, 0x00),
            _mm512_clmulepi64_epi128(acc, k, 0x11),
            next,
            0x96,
        )
    };
    let (first, rest) = data.split_at(FOLD_BLOCK);
    let mut acc = [_mm512_setzero_si512(); 4];
    for (a, c) in acc.iter_mut().zip(first.chunks_exact(64)) {
        *a = load(c);
    }
    let st = _mm512_zextsi128_si512(_mm_cvtsi32_si128(state as i32));
    acc[0] = _mm512_xor_si512(acc[0], st);
    let mut blocks = rest.chunks_exact(FOLD_BLOCK);
    let k = pair(FOLD_BLOCK_PAIR);
    for block in &mut blocks {
        for (a, c) in acc.iter_mut().zip(block.chunks_exact(64)) {
            *a = fold(*a, k, load(c));
        }
    }
    let k = pair(FOLD_512_PAIR);
    let mut x = fold(fold(fold(acc[0], k, acc[1]), k, acc[2]), k, acc[3]);
    let mut tail = blocks.remainder().chunks_exact(64);
    for c in &mut tail {
        x = fold(x, k, load(c));
    }
    // Lanes 0–2 by their distance to lane 3; lane 3's multiplier is zero,
    // so the masked move carries it over unchanged.
    let [(l0, h0), (l1, h1), (l2, h2)] = FOLD_LANE_PAIRS;
    let k = _mm512_set_epi64(
        0, 0, h2 as i64, l2 as i64, h1 as i64, l1 as i64, h0 as i64, l0 as i64,
    );
    let x = fold(x, k, _mm512_maskz_mov_epi64(0b1100_0000, x));
    let x = _mm256_xor_si256(_mm512_castsi512_si256(x), _mm512_extracti64x4_epi64(x, 1));
    let x = _mm_xor_si128(_mm256_castsi256_si128(x), _mm256_extracti128_si256(x, 1));
    let crc = _mm_crc32_u64(0, _mm_cvtsi128_si64(x) as u64);
    let crc = _mm_crc32_u64(crc, _mm_extract_epi64(x, 1) as u64);
    update_sse42(crc as u32, tail.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: the polynomial division itself, one bit at a time,
    /// sharing no table with the kernels under test.
    fn update_bitwise(mut state: u32, data: &[u8]) -> u32 {
        for &b in data {
            state ^= b as u32;
            for _ in 0..8 {
                state = if state & 1 != 0 {
                    (state >> 1) ^ POLY
                } else {
                    state >> 1
                };
            }
        }
        state
    }

    type Kernel = fn(u32, &[u8]) -> u32;

    /// `update`, the oracle, and every tier up to the one [`tier`]
    /// detects, each called directly.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> = vec![
            ("dispatch", update),
            ("bitwise", update_bitwise),
            (Tier::Slice8.name(), update_slice8),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if tier() >= Tier::Sse42 {
                // SAFETY: `tier` reports SSE4.2.
                all.push((Tier::Sse42.name(), |st, d| unsafe { update_sse42(st, d) }));
            }
            if tier() >= Tier::Fold512 {
                // SAFETY: `tier` reports every feature the fold kernel needs.
                all.push((Tier::Fold512.name(), |st, d| unsafe {
                    update_fold512(st, d)
                }));
            }
        }
        all
    }

    fn pattern(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors_on_every_kernel() {
        // RFC 3720 appendix / well-known CRC32C test vectors.
        let ascending: Vec<u8> = (0..32u8).collect();
        let descending: Vec<u8> = (0..32u8).rev().collect();
        for (name, k) in kernels() {
            let crc = |d: &[u8]| k(0xFFFF_FFFF, d) ^ 0xFFFF_FFFF;
            assert_eq!(crc(b""), 0, "{name}");
            assert_eq!(crc(b"123456789"), 0xE306_9283, "{name}");
            assert_eq!(crc(&[0u8; 32]), 0x8A91_36AA, "{name}");
            assert_eq!(crc(&[0xFFu8; 32]), 0x62A8_AB43, "{name}");
            assert_eq!(crc(&ascending), 0x46DD_794E, "{name}");
            assert_eq!(crc(&descending), 0x113F_DB5C, "{name}");
        }
    }

    #[test]
    fn update_is_the_detected_tier() {
        let detected = tier();
        eprintln!("crc32c tier: {}", detected.name());
        let (_, direct) = kernels()
            .into_iter()
            .find(|(name, _)| *name == detected.name())
            .expect("the detected tier is among the kernels");
        let buf = pattern(8196);
        for len in [0, 1, 63, 255, 256, 257, 4096, 8192, 8196] {
            let data = &buf[..len];
            assert_eq!(
                update(0x1234_5678, data),
                direct(0x1234_5678, data),
                "len {len}"
            );
        }
    }

    #[test]
    fn fold_constants_are_x_to_the_n_mod_p() {
        // `x^n mod P` is `n` zero bits through a register holding 1, which
        // the bitwise oracle computes without `x_pow_mod`.
        for bytes in [0, 1, 12, 16, 20, 28, 36, 44, 60, 68, 260] {
            let n = 8 * bytes as u32;
            assert_eq!(
                x_pow_mod(n),
                update_bitwise(0x8000_0000, &vec![0; bytes]),
                "n {n}"
            );
        }
        // The 512-bit pair, as published for CRC32C folding by four lanes.
        assert_eq!(FOLD_512_PAIR, (0x740e_ef02, 0x9e4a_ddf8));
    }

    #[test]
    fn kernels_agree_at_every_length_and_misalignment() {
        const LONG: usize = (1 << 20) + 3;
        let buf = pattern(LONG + 16);
        // Past 0..=257 (the fold kernel's threshold is 256): every length
        // up to three fold blocks, so every 64- and 16-byte residue past
        // 256 with none, one or two whole 64-byte tail chunks; the
        // three-lane kernel's thresholds (3 × 128, 3 × 1024) and lane
        // boundaries around them; the sizes of a DFS block and of its
        // coded cell (8 KiB + a 4-byte tag).
        let folds = 258..=3 * FOLD_BLOCK;
        let lanes = [
            3 * SHORT_LANE,
            3 * LONG_LANE,
            3 * LONG_LANE + 3 * SHORT_LANE,
        ]
        .into_iter()
        .flat_map(|n| [n - 8, n - 1, n, n + 1, n + 7, n + 8, n + 9]);
        let more = [2 * 3 * SHORT_LANE, 2 * 3 * LONG_LANE, 4096, 8192, 8196];
        for len in (0..=257)
            .chain(folds)
            .chain(lanes)
            .chain(more)
            .chain([LONG])
        {
            // The bitwise oracle is slow, so the long buffer is checked at
            // three starts; every other length at all sixteen.
            let starts: Vec<usize> = if len == LONG {
                vec![0, 1, 7]
            } else {
                (0..16).collect()
            };
            for start in starts {
                let data = &buf[start..start + len];
                let want = update_bitwise(0xDEAD_BEEF, data);
                for (name, k) in kernels() {
                    assert_eq!(k(0xDEAD_BEEF, data), want, "{name} len {len} start {start}");
                }
            }
        }
    }

    #[test]
    fn streaming_equals_oneshot_at_every_split() {
        let data: Vec<u8> = (0..=255u8).cycle().take(40_000).collect();
        // One chunk size at a time, then mixes, so the running register
        // flows from the fold tier to `crc32q` and back.
        let runs: [&[usize]; 9] = [
            &[97],
            &[255],
            &[256],
            &[257],
            &[4096],
            &[8196],
            &[255, 256, 257],
            &[8196, 97, 4096, 255],
            &[257, 8196, 256, 4096, 97],
        ];
        for (name, k) in kernels() {
            for sizes in runs {
                let mut st = 0xFFFF_FFFFu32;
                let mut rest = &data[..];
                for &n in sizes.iter().cycle() {
                    if rest.is_empty() {
                        break;
                    }
                    let (chunk, tail) = rest.split_at(n.min(rest.len()));
                    st = k(st, chunk);
                    rest = tail;
                }
                assert_eq!(st ^ 0xFFFF_FFFF, crc32c(&data), "{name} chunks {sizes:?}");
            }
            // One split point anywhere in a buffer past two fold blocks.
            let whole = k(0xFFFF_FFFF, &data[..600]);
            for split in 0..=600 {
                let st = k(k(0xFFFF_FFFF, &data[..split]), &data[split..600]);
                assert_eq!(st, whole, "{name} split {split}");
            }
        }
    }
}
