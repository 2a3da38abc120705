//! CRC32C (Castagnoli) — the checksum used by NVMe end-to-end data
//! protection (DIF/DIX guard tags) and by most storage stacks.
//! Polynomial 0x1EDC6F41, reflected = 0x82F63B78.
//!
//! Two kernels compute the same function (DESIGN.md §16). On x86_64
//! with SSE4.2 the `crc32` instruction — which implements exactly this
//! polynomial — folds eight bytes per step; everywhere else a portable
//! slice-by-8 table kernel does. [`update`] picks between them from the
//! CPU's feature bits, which `std` probes once and caches. Every DFS
//! shard and every WAL record is checksummed through here, so this is
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

/// The hardware kernel: one `crc32q` per eight bytes.
///
/// # Safety
/// The CPU must support SSE4.2 (`is_x86_feature_detected!("sse4.2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_sse42(state: u32, data: &[u8]) -> u32 {
    use core::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = data.chunks_exact(8);
    let mut crc = state as u64;
    for w in &mut words {
        // `from_le_bytes` on the chunk is an unaligned load: no alignment
        // is assumed of `data`.
        let word = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        crc = _mm_crc32_u64(crc, word);
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
        for len in (0..=257).chain([4096, 8192, LONG]) {
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
