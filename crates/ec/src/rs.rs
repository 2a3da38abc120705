//! Systematic Reed–Solomon erasure coding.
//!
//! The DPC paper moves client-side EC calculation ("Client-side EC
//! calculation", §2.1) from the host CPU to the DPU; this module is the
//! actual computation both run. `k` data shards are extended with `m`
//! parity shards; any `m` erasures are recoverable.
//!
//! The encoding matrix is the systematic form of a Vandermonde matrix:
//! `E = V · V_top⁻¹`, so the first `k` rows are the identity (data shards
//! pass through untouched) and any `k` rows of `E` remain invertible,
//! which is exactly the decode property.

use crate::gf256;
use crate::matrix::Matrix;

/// Errors from encode/reconstruct.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EcError {
    /// Wrong number of shards passed (want `k + m`).
    WrongShardCount { want: usize, got: usize },
    /// Shards have differing lengths.
    UnequalShardLengths,
    /// Fewer than `k` shards survive; reconstruction is impossible.
    TooFewShards { want: usize, got: usize },
}

impl core::fmt::Display for EcError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EcError::WrongShardCount { want, got } => {
                write!(f, "expected {want} shards, got {got}")
            }
            EcError::UnequalShardLengths => write!(f, "shards must have equal lengths"),
            EcError::TooFewShards { want, got } => {
                write!(
                    f,
                    "need at least {want} surviving shards, only {got} present"
                )
            }
        }
    }
}

impl std::error::Error for EcError {}

/// A `(k, m)` systematic Reed–Solomon code.
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// The full `(k+m) × k` systematic encoding matrix.
    encode: Matrix,
}

impl ReedSolomon {
    /// Create a code with `k` data shards and `m` parity shards.
    ///
    /// Panics if `k == 0`, `m == 0`, or `k + m > 256` (GF(256) limit).
    pub fn new(k: usize, m: usize) -> ReedSolomon {
        assert!(k > 0 && m > 0, "k and m must be positive");
        assert!(k + m <= 256, "k+m may not exceed the field size");
        let v = Matrix::vandermonde(k + m, k);
        let top_inv = v
            .select_rows(&(0..k).collect::<Vec<_>>())
            .invert()
            .expect("top of a Vandermonde matrix is always invertible");
        let encode = v.mul(&top_inv);
        ReedSolomon { k, m, encode }
    }

    /// The coefficient data shard `data` carries into parity shard
    /// `parity`: parity `p` is `Σᵢ coefficient(p, i) · dataᵢ`, so a change
    /// `δ` to data shard `i` is `coefficient(p, i) · δ` applied to `p`.
    pub fn coefficient(&self, parity: usize, data: usize) -> u8 {
        self.encode.get(self.k + parity, data)
    }

    fn check_lengths(shards: &[impl AsRef<[u8]>]) -> Result<usize, EcError> {
        let len = shards[0].as_ref().len();
        if shards.iter().any(|s| s.as_ref().len() != len) {
            return Err(EcError::UnequalShardLengths);
        }
        Ok(len)
    }

    /// Compute the `m` parity shards from the `k` data shards.
    ///
    /// `shards` must hold `k + m` equal-length shards; the first `k` are
    /// read, the last `m` are overwritten.
    pub fn encode(&self, shards: &mut [Vec<u8>]) -> Result<(), EcError> {
        if shards.len() != self.k + self.m {
            return Err(EcError::WrongShardCount {
                want: self.k + self.m,
                got: shards.len(),
            });
        }
        Self::check_lengths(shards)?;
        let (data, parity) = shards.split_at_mut(self.k);
        for (p, out) in parity.iter_mut().enumerate() {
            let row = self.encode.row(self.k + p);
            // The first column overwrites, so `out` needs no zeroing pass.
            gf256::mul_slice(row[0], &data[0], out);
            for (d, &coeff) in data.iter().zip(row).skip(1) {
                gf256::mul_acc_slice(coeff, d, out);
            }
        }
        Ok(())
    }

    /// True when the parity shards are consistent with the data shards.
    pub fn verify(&self, shards: &[Vec<u8>]) -> Result<bool, EcError> {
        if shards.len() != self.k + self.m {
            return Err(EcError::WrongShardCount {
                want: self.k + self.m,
                got: shards.len(),
            });
        }
        let len = Self::check_lengths(shards)?;
        let mut expect = vec![vec![0u8; len]; self.m];
        for (p, out) in expect.iter_mut().enumerate() {
            for (d, &coeff) in shards[..self.k].iter().zip(self.encode.row(self.k + p)) {
                gf256::mul_acc_slice(coeff, d, out);
            }
        }
        Ok(expect.iter().zip(&shards[self.k..]).all(|(e, s)| e == s))
    }

    /// Rebuild every missing shard (`None` entries) in place.
    ///
    /// Succeeds when at least `k` shards survive; fills all `None`s with
    /// their reconstructed contents (data *and* parity).
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), EcError> {
        if shards.len() != self.k + self.m {
            return Err(EcError::WrongShardCount {
                want: self.k + self.m,
                got: shards.len(),
            });
        }
        let present: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_some()).collect();
        if present.len() < self.k {
            return Err(EcError::TooFewShards {
                want: self.k,
                got: present.len(),
            });
        }
        if present.len() == shards.len() {
            return Ok(()); // nothing missing
        }
        let len = {
            let refs: Vec<&Vec<u8>> = present
                .iter()
                .map(|&i| shards[i].as_ref().unwrap())
                .collect();
            Self::check_lengths(&refs)?
        };

        // Decode matrix: pick k surviving rows of the encode matrix and
        // invert. data_i = sum_j decode[i][j] * survived_j.
        let rows: Vec<usize> = present.iter().take(self.k).copied().collect();
        let sub = self.encode.select_rows(&rows);
        let decode = sub
            .invert()
            .expect("any k rows of a systematic Vandermonde code are invertible");

        // Reconstruct missing *data* shards first.
        let survived: Vec<Vec<u8>> = rows
            .iter()
            .map(|&i| shards[i].as_ref().unwrap().clone())
            .collect();
        #[allow(clippy::needless_range_loop)] // `i` also indexes the decode matrix row
        for i in 0..self.k {
            if shards[i].is_some() {
                continue;
            }
            let mut out = vec![0u8; len];
            for (j, s) in survived.iter().enumerate() {
                gf256::mul_acc_slice(decode.get(i, j), s, &mut out);
            }
            shards[i] = Some(out);
        }
        // Then recompute missing parity from the (now complete) data.
        for p in 0..self.m {
            if shards[self.k + p].is_some() {
                continue;
            }
            let mut out = vec![0u8; len];
            for (d, shard) in shards[..self.k].iter().enumerate() {
                let coeff = self.encode.get(self.k + p, d);
                gf256::mul_acc_slice(coeff, shard.as_ref().unwrap(), &mut out);
            }
            shards[self.k + p] = Some(out);
        }
        Ok(())
    }

    /// Split a buffer into `k` equal data shards (zero-padded) and append
    /// `m` freshly encoded parity shards. Convenience used by the DFS
    /// clients' stripe path.
    pub fn encode_buffer(&self, buf: &[u8]) -> Result<Vec<Vec<u8>>, EcError> {
        let shard_len = buf.len().div_ceil(self.k).max(1);
        let mut shards: Vec<Vec<u8>> = Vec::with_capacity(self.k + self.m);
        for i in 0..self.k {
            let start = (i * shard_len).min(buf.len());
            let end = ((i + 1) * shard_len).min(buf.len());
            let mut s = buf[start..end].to_vec();
            s.resize(shard_len, 0);
            shards.push(s);
        }
        shards.resize(self.k + self.m, vec![0u8; shard_len]);
        self.encode(&mut shards)?;
        Ok(shards)
    }

    /// [`encode_buffer`](Self::encode_buffer) into caller-owned shard
    /// buffers: once `shards` has grown to `k + m` entries of the
    /// working size, repeated calls perform no allocation. Used by
    /// `ClientCore::write_block`'s steady state.
    pub fn encode_buffer_into(&self, buf: &[u8], shards: &mut Vec<Vec<u8>>) -> Result<(), EcError> {
        let shard_len = buf.len().div_ceil(self.k).max(1);
        shards.resize(self.k + self.m, Vec::new());
        for (i, s) in shards.iter_mut().enumerate() {
            s.clear();
            if i < self.k {
                let start = (i * shard_len).min(buf.len());
                let end = ((i + 1) * shard_len).min(buf.len());
                s.extend_from_slice(&buf[start..end]);
            }
            s.resize(shard_len, 0);
        }
        self.encode(shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_shards(k: usize, m: usize, len: usize) -> Vec<Vec<u8>> {
        let mut shards = vec![vec![0u8; len]; k + m];
        for (i, s) in shards.iter_mut().take(k).enumerate() {
            for (j, b) in s.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(31).wrapping_add(j as u8);
            }
        }
        shards
    }

    #[test]
    fn encode_then_verify() {
        let rs = ReedSolomon::new(4, 2);
        let mut shards = sample_shards(4, 2, 1024);
        rs.encode(&mut shards).unwrap();
        assert!(rs.verify(&shards).unwrap());
        shards[5][3] ^= 1;
        assert!(!rs.verify(&shards).unwrap());
    }

    #[test]
    fn systematic_property() {
        // Data shards are untouched by encoding.
        let rs = ReedSolomon::new(4, 2);
        let mut shards = sample_shards(4, 2, 64);
        let original: Vec<_> = shards[..4].to_vec();
        rs.encode(&mut shards).unwrap();
        assert_eq!(&shards[..4], &original[..]);
    }

    /// Every subset of exactly `m` erased shards, as index bitmasks.
    fn erasure_sets(n: usize, m: usize) -> impl Iterator<Item = u32> {
        (0u32..1 << n).filter(move |mask| mask.count_ones() as usize == m)
    }

    #[test]
    fn recovers_any_m_erasures() {
        // 131 bytes: four AVX2 vectors plus a 3-byte portable tail.
        for (k, m) in [(4usize, 2usize), (2, 1), (6, 3)] {
            let rs = ReedSolomon::new(k, m);
            let mut shards = sample_shards(k, m, 131);
            rs.encode(&mut shards).unwrap();
            for mask in erasure_sets(k + m, m) {
                let mut damaged: Vec<Option<Vec<u8>>> = shards
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (mask & (1 << i) == 0).then(|| s.clone()))
                    .collect();
                rs.reconstruct(&mut damaged).unwrap();
                for (i, s) in damaged.iter().enumerate() {
                    assert_eq!(
                        s.as_ref().unwrap(),
                        &shards[i],
                        "({k},{m}) erasures {mask:#b} shard {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn parity_bytes_are_pinned() {
        // Stripes at rest were encoded by earlier builds: whatever kernel
        // computes parity today must produce the very same bytes, or old
        // stripes stop verifying and degraded reads decode garbage. The
        // digests below were taken from the log/exp-table encoder this
        // code replaced.
        fn fnv(d: &[u8]) -> u64 {
            d.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
            })
        }
        let input: Vec<u8> = (0..8192u32)
            .map(|i| (i.wrapping_mul(131) ^ (i >> 8).wrapping_mul(29) ^ (i >> 3)) as u8)
            .collect();
        let shards = ReedSolomon::new(4, 2).encode_buffer(&input).unwrap();
        assert_eq!(shards[..4].concat(), input, "systematic");
        let (p, q) = (&shards[4], &shards[5]);
        assert_eq!((p.len(), q.len()), (2048, 2048));
        assert_eq!(
            p[..16],
            [
                0x1b, 0x98, 0x1d, 0x92, 0x17, 0x94, 0x09, 0x8e, 0x02, 0x81, 0x04, 0xbb, 0x3e, 0xbd,
                0x30, 0xb7
            ]
        );
        assert_eq!(
            q[..16],
            [
                0xd4, 0x57, 0xd2, 0x5d, 0xd8, 0x5b, 0xc6, 0x41, 0xcd, 0x4e, 0xcb, 0x74, 0xf1, 0x72,
                0xff, 0x78
            ]
        );
        assert_eq!(p[2040..], [0x15, 0x96, 0x13, 0x8c, 0x09, 0x8a, 0x07, 0x80]);
        assert_eq!(q[2040..], [0x30, 0xb3, 0x36, 0xa9, 0x2c, 0xaf, 0x22, 0xa5]);
        assert_eq!(fnv(p), 0x4465_d8b0_a080_4fa5);
        assert_eq!(fnv(q), 0xa0af_c550_e959_c1e5);
    }

    #[test]
    fn too_many_erasures_fails() {
        let rs = ReedSolomon::new(4, 2);
        let mut shards = sample_shards(4, 2, 16);
        rs.encode(&mut shards).unwrap();
        let mut damaged: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        damaged[0] = None;
        damaged[1] = None;
        damaged[2] = None;
        assert_eq!(
            rs.reconstruct(&mut damaged),
            Err(EcError::TooFewShards { want: 4, got: 3 })
        );
    }

    #[test]
    fn no_erasures_is_noop() {
        let rs = ReedSolomon::new(3, 2);
        let mut shards = sample_shards(3, 2, 8);
        rs.encode(&mut shards).unwrap();
        let mut all: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        rs.reconstruct(&mut all).unwrap();
        for (i, s) in all.iter().enumerate() {
            assert_eq!(s.as_ref().unwrap(), &shards[i]);
        }
    }

    #[test]
    fn wrong_shard_count_rejected() {
        let rs = ReedSolomon::new(4, 2);
        let mut shards = sample_shards(4, 1, 8);
        assert!(matches!(
            rs.encode(&mut shards),
            Err(EcError::WrongShardCount { want: 6, got: 5 })
        ));
    }

    #[test]
    fn unequal_lengths_rejected() {
        let rs = ReedSolomon::new(2, 1);
        let mut shards = vec![vec![0u8; 8], vec![0u8; 9], vec![0u8; 8]];
        assert_eq!(rs.encode(&mut shards), Err(EcError::UnequalShardLengths));
    }

    #[test]
    fn encode_buffer_round_trip() {
        let rs = ReedSolomon::new(4, 2);
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let shards = rs.encode_buffer(&data).unwrap();
        assert_eq!(shards.len(), 6);
        assert!(rs.verify(&shards).unwrap());
        // Reassemble data from the data shards.
        let shard_len = shards[0].len();
        let mut rebuilt: Vec<u8> = shards[..4].concat();
        rebuilt.truncate(1000);
        assert_eq!(rebuilt, data);
        assert_eq!(shard_len, 250);
    }

    #[test]
    fn encode_buffer_into_matches_encode_buffer() {
        let rs = ReedSolomon::new(4, 2);
        let mut reused: Vec<Vec<u8>> = Vec::new();
        // Shrinking then growing inputs across the same reused buffers.
        for len in [1000usize, 64, 1, 4096, 777] {
            let data: Vec<u8> = (0..len as u32).map(|i| (i * 17 % 256) as u8).collect();
            rs.encode_buffer_into(&data, &mut reused).unwrap();
            assert_eq!(reused, rs.encode_buffer(&data).unwrap(), "len {len}");
        }
    }

    #[test]
    fn paper_scale_code_works() {
        // A typical DFS stripe: 8+2 over 8K blocks.
        let rs = ReedSolomon::new(8, 2);
        let mut shards = sample_shards(8, 2, 8192);
        rs.encode(&mut shards).unwrap();
        let mut damaged: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        damaged[1] = None;
        damaged[9] = None;
        rs.reconstruct(&mut damaged).unwrap();
        assert_eq!(damaged[1].as_ref().unwrap(), &shards[1]);
        assert_eq!(damaged[9].as_ref().unwrap(), &shards[9]);
    }
}
