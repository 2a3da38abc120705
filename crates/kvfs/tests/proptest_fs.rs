//! Model-based property test: KVFS under arbitrary operation sequences
//! behaves exactly like a trivial in-memory reference file system
//! (HashMap of paths → byte vectors). This exercises the small→big
//! promotion boundary hard by biasing sizes around 8 KiB, and truncate
//! (grow, shrink, mid-block, to 0, to the same size, over holes) by
//! modelling which 8 KiB blocks a file must hold afterwards.

use std::collections::{BTreeSet, HashMap};

use dpc_kvfs::{FsError, Kvfs};
use dpc_kvstore::KvStore;
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Clone, Debug)]
enum Op {
    Create(u8),
    Write {
        file: u8,
        offset: u32,
        len: u32,
        fill: u8,
    },
    Read {
        file: u8,
        offset: u32,
        len: u32,
    },
    Truncate {
        file: u8,
        size: u32,
    },
    Unlink(u8),
    Stat(u8),
}

const BLOCK: usize = 8192;

/// Sizes biased around the 8 KiB promotion boundary.
fn arb_len() -> impl Strategy<Value = u32> {
    prop_oneof![1u32..100, 7_900u32..8_500, 1u32..40_000,]
}

/// Truncate targets: empty, block-aligned, around the promotion boundary,
/// anywhere. (A repeat of the current size comes up through `Just(0)` and
/// the aligned arm often enough to exercise the no-op path.)
fn arb_size() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        (0u32..6).prop_map(|b| b * BLOCK as u32),
        7_900u32..8_500,
        0u32..60_000,
    ]
}

/// The reference file: its bytes, and — once it has been promoted to the
/// block space — exactly which blocks must exist.
#[derive(Default)]
struct Model {
    bytes: Vec<u8>,
    big: bool,
    blocks: BTreeSet<usize>,
}

impl Model {
    /// Small→big promotion moves the existing bytes (always < one block)
    /// into block 0.
    fn promote(&mut self) {
        if !self.bytes.is_empty() {
            self.blocks.insert(0);
        }
        self.big = true;
    }

    fn write(&mut self, offset: usize, data: &[u8]) {
        let end = offset + data.len();
        if !self.big && end >= BLOCK {
            self.promote();
        }
        if self.big {
            self.blocks.extend(offset / BLOCK..=(end - 1) / BLOCK);
        }
        if self.bytes.len() < end {
            self.bytes.resize(end, 0);
        }
        self.bytes[offset..end].copy_from_slice(data);
    }

    fn truncate(&mut self, size: usize) {
        if size == self.bytes.len() {
            return;
        }
        if !self.big && size >= BLOCK {
            self.promote();
        } else if self.big {
            self.blocks.retain(|&lbn| lbn < size.div_ceil(BLOCK));
        }
        self.bytes.resize(size, 0);
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    let file = 0u8..6;
    prop_oneof![
        (0u8..6).prop_map(Op::Create),
        (
            file.clone(),
            prop_oneof![0u32..20_000, 0u32..80_000],
            arb_len(),
            any::<u8>()
        )
            .prop_map(|(file, offset, len, fill)| Op::Write {
                file,
                offset,
                len,
                fill
            }),
        (file.clone(), 0u32..50_000, arb_len()).prop_map(|(file, offset, len)| Op::Read {
            file,
            offset,
            len
        }),
        (file.clone(), arb_size()).prop_map(|(file, size)| Op::Truncate { file, size }),
        (0u8..6).prop_map(Op::Unlink),
        (0u8..6).prop_map(Op::Stat),
    ]
}

fn path(file: u8) -> String {
    format!("/f{file}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kvfs_matches_reference_model(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let fs = Kvfs::new(Arc::new(KvStore::new()));
        let mut model: HashMap<u8, Model> = HashMap::new();
        let mut inos: HashMap<u8, u64> = HashMap::new();

        for op in ops {
            match op {
                Op::Create(f) => {
                    let r = fs.create(&path(f), 0o644);
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(f) {
                        let ino = r.unwrap();
                        inos.insert(f, ino);
                        e.insert(Model::default());
                    } else {
                        prop_assert_eq!(r, Err(FsError::AlreadyExists));
                    }
                }
                Op::Write { file, offset, len, fill } => {
                    let Some(&ino) = inos.get(&file) else { continue };
                    let data = vec![fill; len as usize];
                    prop_assert_eq!(fs.write(ino, offset as u64, &data), Ok(len as usize));
                    model.get_mut(&file).unwrap().write(offset as usize, &data);
                }
                Op::Read { file, offset, len } => {
                    let Some(&ino) = inos.get(&file) else { continue };
                    let mut buf = vec![0xAA; len as usize];
                    let n = fs.read(ino, offset as u64, &mut buf).unwrap();
                    let m = &model[&file].bytes;
                    let expect_n = m.len().saturating_sub(offset as usize).min(len as usize);
                    prop_assert_eq!(n, expect_n);
                    if n > 0 {
                        prop_assert_eq!(&buf[..n], &m[offset as usize..offset as usize + n]);
                    }
                    // The vectored read agrees, and zero-fills past EOF —
                    // bytes cut by an earlier truncate never come back.
                    let mut ext = vec![0xAA; len as usize];
                    let mut segs: Vec<&mut [u8]> = ext.chunks_mut(4096).collect();
                    prop_assert_eq!(fs.read_extent(ino, offset as u64, &mut segs), Ok(n));
                    prop_assert_eq!(&ext[..n], &buf[..n]);
                    prop_assert!(ext[n..].iter().all(|&b| b == 0));
                }
                Op::Truncate { file, size } => {
                    let Some(&ino) = inos.get(&file) else { continue };
                    fs.truncate(ino, size as u64).unwrap();
                    let m = model.get_mut(&file).unwrap();
                    m.truncate(size as usize);
                    prop_assert_eq!(fs.big_file_blocks(ino), m.blocks.len());
                }
                Op::Unlink(f) => {
                    let r = fs.unlink(&path(f));
                    if model.remove(&f).is_some() {
                        inos.remove(&f);
                        prop_assert_eq!(r, Ok(()));
                    } else {
                        prop_assert_eq!(r, Err(FsError::NotFound));
                    }
                }
                Op::Stat(f) => {
                    let r = fs.stat(&path(f));
                    match model.get(&f) {
                        Some(m) => prop_assert_eq!(r.unwrap().size, m.bytes.len() as u64),
                        None => prop_assert_eq!(r, Err(FsError::NotFound)),
                    }
                }
            }
        }

        // Full final content check for every surviving file.
        for (f, m) in &model {
            let ino = inos[f];
            let mut buf = vec![0u8; m.bytes.len() + 10];
            let n = fs.read(ino, 0, &mut buf).unwrap();
            prop_assert_eq!(n, m.bytes.len());
            prop_assert_eq!(&buf[..n], &m.bytes[..]);
            prop_assert_eq!(fs.big_file_blocks(ino), m.blocks.len());
        }
    }
}
