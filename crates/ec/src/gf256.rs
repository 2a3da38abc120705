//! GF(2^8) arithmetic over the AES-friendly polynomial x^8+x^4+x^3+x^2+1
//! (0x11D), the field used by practically every storage erasure code.
//!
//! Scalar multiplication uses compile-time exp/log tables. The bulk
//! operations (`mul_slice`, `mul_acc_slice`) are the encode/decode hot
//! loops and use split-nibble product tables instead (DESIGN.md §11.3):
//! `c·x = c·(x & 0x0F) ^ c·(x & 0xF0)`, so two 16-entry tables per
//! coefficient replace the log/exp walk and its zero test. A 16-entry
//! byte table is exactly what `pshufb` looks up sixteen (SSSE3) or
//! thirty-two (AVX2) lanes at a time; without those instructions the
//! same two tables are indexed a byte at a time, branch-free. The
//! tables of all 256 coefficients are built at compile time, so no call
//! — and no [`ReedSolomon`](crate::ReedSolomon) — ever builds one.

/// The irreducible polynomial (without the x^8 term bit kept implicit).
const POLY: u16 = 0x11D;

/// exp table over two periods so `exp[log_a + log_b]` needs no modulo.
const EXP: [u8; 512] = build_exp();
/// log table; `LOG[0]` is unused (log of zero is undefined).
const LOG: [u8; 256] = build_log();

const fn build_exp() -> [u8; 512] {
    let mut exp = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        exp[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    // Positions 510/511 are never indexed (max log sum is 254+254=508)
    // but keep them consistent.
    exp[510] = exp[0];
    exp[511] = exp[1];
    exp
}

const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut log = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    log
}

/// Addition in GF(2^8) is XOR.
#[inline]
pub(crate) fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplication via log/exp tables.
#[inline]
pub(crate) fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Multiplicative inverse. Panics on zero.
#[inline]
pub(crate) fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no inverse in GF(256)");
    EXP[255 - LOG[a as usize] as usize]
}

/// `a^n` by square-and-multiply on the log representation.
#[inline]
pub(crate) fn pow(a: u8, n: usize) -> u8 {
    if n == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let l = LOG[a as usize] as usize * (n % 255);
    EXP[l % 255]
}

/// The split-nibble product tables of one coefficient `c`:
/// `lo[x] = c·x` and `hi[x] = c·(x << 4)` for `x` in `0..16`.
struct Nibbles {
    lo: [u8; 16],
    hi: [u8; 16],
}

/// `NIBBLES[c]` for every coefficient (8 KiB, built at compile time).
static NIBBLES: [Nibbles; 256] = build_nibbles();

const fn build_nibbles() -> [Nibbles; 256] {
    const ZERO: Nibbles = Nibbles {
        lo: [0; 16],
        hi: [0; 16],
    };
    let mut all = [ZERO; 256];
    let mut c = 1;
    while c < 256 {
        let mut x = 1;
        while x < 16 {
            // `mul` is not const; same log/exp walk (x and x << 4 are
            // non-zero here, products with zero stay zero).
            all[c].lo[x] = EXP[LOG[c] as usize + LOG[x] as usize];
            all[c].hi[x] = EXP[LOG[c] as usize + LOG[x << 4] as usize];
            x += 1;
        }
        c += 1;
    }
    all
}

/// `dst[i] = c * src[i]` for whole slices.
pub(crate) fn mul_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len());
    match c {
        0 => dst.fill(0),
        1 => dst.copy_from_slice(src),
        _ => mul_kernel::<false>(&NIBBLES[c as usize], src, dst),
    }
}

/// `dst[i] ^= c * src[i]` — the inner loop of RS encoding.
pub fn mul_acc_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len());
    if c != 0 {
        mul_kernel::<true>(&NIBBLES[c as usize], src, dst);
    }
}

/// Pick the widest kernel this CPU runs (`std` caches the probe).
/// `ACC` selects `dst ^= c·src` over `dst = c·src`.
fn mul_kernel<const ACC: bool>(t: &Nibbles, src: &[u8], dst: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU reports AVX2, `mul_avx2`'s only requirement.
            return unsafe { mul_avx2::<ACC>(t, src, dst) };
        }
        if std::is_x86_feature_detected!("ssse3") {
            // SAFETY: the CPU reports SSSE3, `mul_ssse3`'s only requirement.
            return unsafe { mul_ssse3::<ACC>(t, src, dst) };
        }
    }
    mul_portable::<ACC>(t, src, dst)
}

/// The portable kernel, and the tail of the SIMD ones: two table
/// lookups and an XOR per byte, no branch on the data.
fn mul_portable<const ACC: bool>(t: &Nibbles, src: &[u8], dst: &mut [u8]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        let p = t.lo[(s & 0x0F) as usize] ^ t.hi[(s >> 4) as usize];
        *d = if ACC { *d ^ p } else { p };
    }
}

/// Sixteen products per `pshufb` pair.
///
/// # Safety
/// The CPU must support SSSE3 (`is_x86_feature_detected!("ssse3")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
unsafe fn mul_ssse3<const ACC: bool>(t: &Nibbles, src: &[u8], dst: &mut [u8]) {
    use core::arch::x86_64::*;
    // SAFETY (every load and store below): `lo`/`hi` are 16-byte arrays
    // and `chunks_exact(16)` yields exactly 16 readable (`src`) or
    // writable (`dst`) bytes; the `loadu`/`storeu` forms assume no
    // alignment.
    let lo = _mm_loadu_si128(t.lo.as_ptr().cast());
    let hi = _mm_loadu_si128(t.hi.as_ptr().cast());
    let mask = _mm_set1_epi8(0x0F);
    let mut s_chunks = src.chunks_exact(16);
    let mut d_chunks = dst.chunks_exact_mut(16);
    for (s, d) in (&mut s_chunks).zip(&mut d_chunks) {
        let x = _mm_loadu_si128(s.as_ptr().cast());
        let l = _mm_shuffle_epi8(lo, _mm_and_si128(x, mask));
        let h = _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(x, 4), mask));
        let mut p = _mm_xor_si128(l, h);
        if ACC {
            p = _mm_xor_si128(p, _mm_loadu_si128(d.as_ptr().cast()));
        }
        _mm_storeu_si128(d.as_mut_ptr().cast(), p);
    }
    mul_portable::<ACC>(t, s_chunks.remainder(), d_chunks.into_remainder());
}

/// Thirty-two products per `vpshufb` pair.
///
/// # Safety
/// The CPU must support AVX2 (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_avx2<const ACC: bool>(t: &Nibbles, src: &[u8], dst: &mut [u8]) {
    use core::arch::x86_64::*;
    // SAFETY (every load and store below): `lo`/`hi` are 16-byte arrays
    // and `chunks_exact(32)` yields exactly 32 readable (`src`) or
    // writable (`dst`) bytes; the `loadu`/`storeu` forms assume no
    // alignment.
    let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo.as_ptr().cast()));
    let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi.as_ptr().cast()));
    let mask = _mm256_set1_epi8(0x0F);
    let mut s_chunks = src.chunks_exact(32);
    let mut d_chunks = dst.chunks_exact_mut(32);
    for (s, d) in (&mut s_chunks).zip(&mut d_chunks) {
        let x = _mm256_loadu_si256(s.as_ptr().cast());
        let l = _mm256_shuffle_epi8(lo, _mm256_and_si256(x, mask));
        let h = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(x, 4), mask));
        let mut p = _mm256_xor_si256(l, h);
        if ACC {
            p = _mm256_xor_si256(p, _mm256_loadu_si256(d.as_ptr().cast()));
        }
        _mm256_storeu_si256(d.as_mut_ptr().cast(), p);
    }
    mul_portable::<ACC>(t, s_chunks.remainder(), d_chunks.into_remainder());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_xor() {
        assert_eq!(add(0b1010, 0b0110), 0b1100);
        assert_eq!(add(77, 77), 0);
    }

    #[test]
    fn mul_basics() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
        }
        // 2 * 0x80 wraps through the polynomial: 0x100 ^ 0x11D = 0x1D.
        assert_eq!(mul(2, 0x80), 0x1D);
    }

    #[test]
    fn mul_commutative_and_associative() {
        let samples = [0u8, 1, 2, 3, 5, 7, 11, 0x53, 0xCA, 0xFF];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(mul(a, b), mul(b, a));
                for &c in &samples {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                    // distributivity
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in 1..=255u8 {
            let ia = inv(a);
            assert_eq!(mul(a, ia), 1, "a={a} inv={ia}");
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        for &a in &[1u8, 2, 3, 0x1D, 0xFE] {
            let mut acc = 1u8;
            for n in 0..520 {
                assert_eq!(pow(a, n), acc, "a={a} n={n}");
                acc = mul(acc, a);
            }
        }
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(0, 5), 0);
    }

    #[test]
    fn generator_has_full_order() {
        // 2 generates the multiplicative group: 2^i distinct for i in 0..255.
        let mut seen = [false; 256];
        let mut x = 1u8;
        for _ in 0..255 {
            assert!(!seen[x as usize]);
            seen[x as usize] = true;
            x = mul(x, 2);
        }
        assert_eq!(x, 1);
    }

    type Kernel = fn(&Nibbles, &[u8], &mut [u8]);

    /// Every kernel this machine can run as (name, `dst = c·src`,
    /// `dst ^= c·src`), each called directly.
    fn kernels() -> Vec<(&'static str, Kernel, Kernel)> {
        let mut all: Vec<(&'static str, Kernel, Kernel)> = vec![
            ("dispatch", mul_kernel::<false>, mul_kernel::<true>),
            ("portable", mul_portable::<false>, mul_portable::<true>),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY (all four closures): pushed only after the feature
            // each kernel requires was detected.
            if std::is_x86_feature_detected!("ssse3") {
                all.push((
                    "ssse3",
                    |t, s, d| unsafe { mul_ssse3::<false>(t, s, d) },
                    |t, s, d| unsafe { mul_ssse3::<true>(t, s, d) },
                ));
            }
            if std::is_x86_feature_detected!("avx2") {
                all.push((
                    "avx2",
                    |t, s, d| unsafe { mul_avx2::<false>(t, s, d) },
                    |t, s, d| unsafe { mul_avx2::<true>(t, s, d) },
                ));
            }
        }
        all
    }

    #[test]
    fn nibble_tables_match_scalar_mul() {
        for c in 0..=255u8 {
            let t = &NIBBLES[c as usize];
            for x in 0..=255u8 {
                assert_eq!(
                    t.lo[(x & 0x0F) as usize] ^ t.hi[(x >> 4) as usize],
                    mul(c, x),
                    "c={c} x={x}"
                );
            }
        }
    }

    #[test]
    fn every_kernel_matches_scalar_mul() {
        // All coefficients × lengths straddling the 16- and 32-byte
        // vector widths × src and dst starting off any alignment.
        let src: Vec<u8> = (0..=255u8)
            .cycle()
            .skip(3)
            .step_by(7)
            .take(67 + 3)
            .collect();
        let old: Vec<u8> = (0..=255u8).rev().cycle().step_by(5).take(67 + 5).collect();
        for (name, set, acc) in kernels() {
            for c in 0..=255u8 {
                let t = &NIBBLES[c as usize];
                for len in 0..=67usize {
                    for (s_off, d_off) in [(0, 0), (1, 0), (0, 1), (3, 5)] {
                        let s = &src[s_off..s_off + len];
                        let mut d = old.clone();
                        set(t, s, &mut d[d_off..d_off + len]);
                        let mut a = old.clone();
                        acc(t, s, &mut a[d_off..d_off + len]);
                        for i in 0..old.len() {
                            let inside = (d_off..d_off + len).contains(&i);
                            let p = if inside { mul(c, s[i - d_off]) } else { 0 };
                            let ctx = (name, c, len, s_off, d_off, i);
                            assert_eq!(d[i], if inside { p } else { old[i] }, "set {ctx:?}");
                            assert_eq!(a[i], old[i] ^ p, "acc {ctx:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn slice_ops_match_scalar() {
        let src: Vec<u8> = (0..=255).collect();
        for c in 0..=255u8 {
            let mut dst = vec![0u8; 256];
            mul_slice(c, &src, &mut dst);
            for (i, &d) in dst.iter().enumerate() {
                assert_eq!(d, mul(c, src[i]));
            }
            let mut acc = src.clone();
            mul_acc_slice(c, &src, &mut acc);
            for (i, &d) in acc.iter().enumerate() {
                assert_eq!(d, add(src[i], mul(c, src[i])));
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero has no inverse")]
    fn inv_zero_panics() {
        inv(0);
    }
}
