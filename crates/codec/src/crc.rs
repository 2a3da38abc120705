//! CRC32C (Castagnoli) — the checksum used by NVMe end-to-end data
//! protection (DIF/DIX guard tags) and by most storage stacks.
//! Polynomial 0x1EDC6F41, reflected = 0x82F63B78.
//!
//! Two kernels compute the same function (DESIGN.md §11.3). On x86_64
//! with SSE4.2 the `crc32` instruction — which implements exactly this
//! polynomial — folds eight bytes per step, on three interleaved lanes
//! for inputs of 384 bytes and more; everywhere else a portable
//! slice-by-8 table kernel does. [`update`] picks between them from the
//! CPU's feature bits, which `std` probes once and caches. Every DFS
//! cell and every WAL record is checksummed through here, so this is
//! per-byte work on the DPU's cores: it has to run at memory speed, not
//! at a table lookup per byte.

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

/// Streaming update: feed chunks, starting from `!0` and finishing with
/// a final XOR (use [`crc32c`] for the one-shot form).
pub fn update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the CPU reports SSE4.2, the only requirement of
        // `update_sse42`.
        return unsafe { update_sse42(state, data) };
    }
    update_slice8(state, data)
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

    /// Every kernel this machine can run, each called directly.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> = vec![
            ("dispatch", update),
            ("slice8", update_slice8),
            ("bitwise", update_bitwise),
        ];
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("sse4.2") {
            // SAFETY: SSE4.2 was just detected.
            all.push(("sse4.2", |st, d| unsafe { update_sse42(st, d) }));
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
    fn kernels_agree_at_every_length_and_misalignment() {
        const LONG: usize = (1 << 20) + 3;
        let buf = pattern(LONG + 16);
        // Past 0..=257: the three-lane kernel's thresholds (3 × 128,
        // 3 × 1024) and lane boundaries around them, the sizes of a DFS
        // block and of its coded cell (8 KiB + a 4-byte tag).
        let lanes = [
            3 * SHORT_LANE,
            3 * LONG_LANE,
            3 * LONG_LANE + 3 * SHORT_LANE,
        ]
        .into_iter()
        .flat_map(|n| [n - 8, n - 1, n, n + 1, n + 7, n + 8, n + 9]);
        let more = [2 * 3 * SHORT_LANE, 2 * 3 * LONG_LANE, 4096, 8192, 8196];
        for len in (0..=257).chain(lanes).chain(more).chain([LONG]) {
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
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for (name, k) in kernels() {
            let mut st = 0xFFFF_FFFFu32;
            for chunk in data.chunks(97) {
                st = k(st, chunk);
            }
            assert_eq!(st ^ 0xFFFF_FFFF, crc32c(&data), "{name}");
            // One split point anywhere in a chunk-sized buffer.
            let whole = k(0xFFFF_FFFF, &data[..97]);
            for split in 0..=97 {
                let st = k(k(0xFFFF_FFFF, &data[..split]), &data[split..97]);
                assert_eq!(st, whole, "{name} split {split}");
            }
        }
    }
}
