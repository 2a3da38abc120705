//! vdbench-style *file-set* workloads: metadata-heavy operation streams
//! over a population of small files (the paper's "8K small-file read" and
//! "8K file creation write" tests, and general create/stat/delete mixes).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One metadata/data operation over the file set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FileOp {
    /// Create a new file of `size` bytes and write it.
    CreateWrite { name: String, size: usize },
    /// Read an existing file in full.
    ReadWhole { name: String },
    /// Stat an existing file.
    Stat { name: String },
    /// Delete an existing file.
    Delete { name: String },
    /// List the directory.
    List,
}

/// Operation mix in percent; must sum to 100.
#[derive(Copy, Clone, Debug)]
pub struct FileSetMix {
    pub create_pct: u8,
    pub read_pct: u8,
    pub stat_pct: u8,
    pub delete_pct: u8,
    pub list_pct: u8,
}

impl FileSetMix {
    /// A general metadata-churn mix (fileserver-like).
    pub fn churn() -> FileSetMix {
        FileSetMix {
            create_pct: 20,
            read_pct: 50,
            stat_pct: 20,
            delete_pct: 8,
            list_pct: 2,
        }
    }

    fn validate(&self) {
        let sum = self.create_pct as u32
            + self.read_pct as u32
            + self.stat_pct as u32
            + self.delete_pct as u32
            + self.list_pct as u32;
        assert_eq!(sum, 100, "mix percentages must sum to 100");
    }
}

/// Deterministic file-set operation generator.
///
/// Tracks which names currently exist so reads/stats/deletes always hit
/// live files and creates always pick fresh names; ops degrade gracefully
/// (a read against an empty set becomes a create).
pub struct FileSetGen {
    mix: FileSetMix,
    file_size: usize,
    rng: SmallRng,
    live: Vec<String>,
    next_id: u64,
    /// Cap on the live population (deletes are forced above it).
    pub max_files: usize,
}

impl FileSetGen {
    pub fn new(mix: FileSetMix, file_size: usize, seed: u64) -> FileSetGen {
        mix.validate();
        FileSetGen {
            mix,
            file_size,
            rng: SmallRng::seed_from_u64(seed),
            live: Vec::new(),
            next_id: 0,
            max_files: 100_000,
        }
    }

    /// Pre-populate `n` files (returned ops must be applied by the caller
    /// before generating the main stream).
    pub fn populate(&mut self, n: usize) -> Vec<FileOp> {
        (0..n).map(|_| self.fresh_create()).collect()
    }

    fn fresh_create(&mut self) -> FileOp {
        let name = format!("f{:08}", self.next_id);
        self.next_id += 1;
        self.live.push(name.clone());
        FileOp::CreateWrite {
            name,
            size: self.file_size,
        }
    }

    fn pick_live(&mut self) -> Option<String> {
        if self.live.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..self.live.len());
        Some(self.live[i].clone())
    }

    pub fn next_op(&mut self) -> FileOp {
        if self.live.len() >= self.max_files {
            let i = self.rng.gen_range(0..self.live.len());
            let name = self.live.swap_remove(i);
            return FileOp::Delete { name };
        }
        let roll: u32 = self.rng.gen_range(0..100);
        let m = self.mix;
        let c1 = m.create_pct as u32;
        let c2 = c1 + m.read_pct as u32;
        let c3 = c2 + m.stat_pct as u32;
        let c4 = c3 + m.delete_pct as u32;
        if roll < c1 {
            self.fresh_create()
        } else if roll < c2 {
            match self.pick_live() {
                Some(name) => FileOp::ReadWhole { name },
                None => self.fresh_create(),
            }
        } else if roll < c3 {
            match self.pick_live() {
                Some(name) => FileOp::Stat { name },
                None => self.fresh_create(),
            }
        } else if roll < c4 {
            match self.pick_live() {
                Some(name) => {
                    let i = self.live.iter().position(|n| n == &name).unwrap();
                    self.live.swap_remove(i);
                    FileOp::Delete { name }
                }
                None => self.fresh_create(),
            }
        } else {
            FileOp::List
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The paper's small-file read test: pure reads over a pre-created set.
    fn read_only() -> FileSetMix {
        FileSetMix {
            create_pct: 0,
            read_pct: 100,
            stat_pct: 0,
            delete_pct: 0,
            list_pct: 0,
        }
    }

    /// The paper's file-creation test: pure create+write.
    fn create_only() -> FileSetMix {
        FileSetMix {
            create_pct: 100,
            read_pct: 0,
            stat_pct: 0,
            delete_pct: 0,
            list_pct: 0,
        }
    }

    #[test]
    fn mixes_validate() {
        read_only().validate();
        create_only().validate();
        FileSetMix::churn().validate();
    }

    #[test]
    #[should_panic(expected = "sum to 100")]
    fn bad_mix_rejected() {
        FileSetGen::new(
            FileSetMix {
                create_pct: 50,
                read_pct: 20,
                stat_pct: 0,
                delete_pct: 0,
                list_pct: 0,
            },
            8192,
            1,
        );
    }

    #[test]
    fn stream_is_internally_consistent() {
        // Reads/stats/deletes only ever reference live names; creates are
        // unique.
        let mut g = FileSetGen::new(FileSetMix::churn(), 8192, 42);
        let mut live: HashSet<String> = HashSet::new();
        for op in g.populate(100) {
            match op {
                FileOp::CreateWrite { name, .. } => assert!(live.insert(name)),
                _ => panic!("populate emits creates only"),
            }
        }
        for _ in 0..5000 {
            match g.next_op() {
                FileOp::CreateWrite { name, size } => {
                    assert_eq!(size, 8192);
                    assert!(live.insert(name), "duplicate create");
                }
                FileOp::ReadWhole { name } | FileOp::Stat { name } => {
                    assert!(live.contains(&name), "op against dead file");
                }
                FileOp::Delete { name } => {
                    assert!(live.remove(&name), "delete of dead file");
                }
                FileOp::List => {}
            }
        }
        // The generator's live set is the model's. Capped at zero, it
        // deletes a live name at every op; capped at one, an empty set is
        // no longer forced to delete.
        g.max_files = 0;
        for _ in 0..live.len() {
            match g.next_op() {
                FileOp::Delete { name } => assert!(live.remove(&name), "{name} was not live"),
                other => panic!("a generator over its cap produced {other:?}"),
            }
        }
        g.max_files = 1;
        let op = g.next_op();
        assert!(
            !matches!(op, FileOp::Delete { .. }),
            "a name the model lacks: {op:?}"
        );
    }

    #[test]
    fn read_only_mix_never_mutates_after_population() {
        let mut g = FileSetGen::new(read_only(), 8192, 7);
        g.populate(50);
        for _ in 0..1000 {
            match g.next_op() {
                FileOp::ReadWhole { .. } => {}
                other => panic!("read-only mix produced {other:?}"),
            }
        }
    }

    #[test]
    fn max_files_forces_deletes() {
        let mut g = FileSetGen::new(create_only(), 1024, 9);
        g.max_files = 10;
        let mut live = 0i64;
        for _ in 0..100 {
            match g.next_op() {
                FileOp::CreateWrite { .. } => live += 1,
                FileOp::Delete { .. } => live -= 1,
                _ => {}
            }
            assert!(live <= 10);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| -> Vec<FileOp> {
            let mut g = FileSetGen::new(FileSetMix::churn(), 4096, seed);
            g.populate(10);
            (0..100).map(|_| g.next_op()).collect()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
