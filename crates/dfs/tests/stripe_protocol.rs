//! The stripe write protocol (DESIGN.md §10.1): a block is one stripe cell
//! on a server of its own, a write is one swap and `m` deltas, and the
//! repairs a refused swap or delta leaves behind. What must hold:
//!
//! - interleaved overwrites from two clients — partial blocks, one block
//!   written by both — leave every stripe's parity equal to a fresh
//!   encode of its blocks, and every ≤ m loss pattern reads every block
//!   byte-exact (a never-written one `NotFound`);
//! - a client never reads a block back from a server it owes a restore;
//! - a server that crashed answers what it held as lost, never as zeros:
//!   a lost parity cell is rebuilt, a lost old block reconstructed;
//! - a rotten block or parity cell is never blessed with a fresh CRC.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};

use dpc_dfs::{Cell, ClientCore, DfsBackend, DfsConfig, DfsError, Refusal, DFS_BLOCK};
use dpc_fault::{FaultPlan, FaultSpec};
use proptest::prelude::*;

fn block_bytes(tag: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9).wrapping_add(tag * 131) >> 9) as u8)
        .collect()
}

/// Does every written stripe of `ino` among `stripes` verify?
fn stripes_verify(b: &DfsBackend, ino: u64, stripes: u64) -> bool {
    (0..stripes).all(|s| {
        let cells = b.stripe_cells(ino, s).expect("every server up");
        b.ec().verify(&cells).expect("k + m equal cells")
    })
}

/// Read every block of `model` (and the never-written ones up to
/// `blocks`) under every loss pattern of at most `m` servers, through a
/// client that owes nothing.
fn every_loss_pattern_reads_exact(
    b: &Arc<DfsBackend>,
    ino: u64,
    blocks: u64,
    model: &HashMap<u64, Vec<u8>>,
) -> Result<(), String> {
    let n = b.data_server_count();
    let mut reader = ClientCore::new(b.clone(), 99);
    for x in 0..n {
        for y in x..n {
            b.data_server(x).set_failed(true);
            b.data_server(y).set_failed(true);
            for block in 0..blocks {
                let got = reader.read_block(ino, block).map(|(d, _)| d);
                let want = model.get(&block).cloned().ok_or(DfsError::NotFound);
                if got != want {
                    return Err(format!("servers {{{x}, {y}}} down, block {block}"));
                }
            }
            b.data_server(x).set_failed(false);
            b.data_server(y).set_failed(false);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn interleaved_overwrites_keep_parity_exact_under_every_loss_pattern(
        writes in proptest::collection::vec(
            (0usize..2, 0u64..8, prop_oneof![3 => Just(DFS_BLOCK), 1 => 0usize..DFS_BLOCK], any::<u8>()),
            1..40,
        ),
    ) {
        let b = DfsBackend::new(DfsConfig::default());
        let mut clients = [ClientCore::new(b.clone(), 1), ClientCore::new(b.clone(), 2)];
        let (attr, _) = clients[0].create(0, "shared").unwrap();
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for (i, (who, block, len, tag)) in writes.into_iter().enumerate() {
            let data = block_bytes(tag as u64 + i as u64, len);
            clients[who].write_block(attr.ino, block, &data).unwrap();
            model.insert(block, data);
        }
        prop_assert!(stripes_verify(&b, attr.ino, 2));
        every_loss_pattern_reads_exact(&b, attr.ino, 8, &model)?;
    }
}

#[test]
fn concurrent_writers_of_one_stripe_leave_its_parity_exact() {
    // Two dispatchers, two `ClientCore`s, one stripe: swaps of one block
    // race, deltas land in any order. XOR deltas commute and each swap
    // hands back its exact predecessor, so the parity ends right.
    let b = DfsBackend::new(DfsConfig::default());
    let (attr, _) = ClientCore::new(b.clone(), 0).create(0, "race").unwrap();
    let start = Arc::new(Barrier::new(2));
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let (b, start) = (b.clone(), start.clone());
            std::thread::spawn(move || {
                let mut core = ClientCore::new(b, 1 + w);
                start.wait();
                for i in 0..400u64 {
                    let block = (i * 7 + w) % 4;
                    let len = if i % 5 == 0 {
                        100 + i as usize
                    } else {
                        DFS_BLOCK
                    };
                    core.write_block(attr.ino, block, &block_bytes(w * 1000 + i, len))
                        .unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    assert!(stripes_verify(&b, attr.ino, 1));
    let mut reader = ClientCore::new(b.clone(), 9);
    let model: HashMap<u64, Vec<u8>> = (0..4)
        .map(|block| (block, reader.read_block(attr.ino, block).unwrap().0))
        .collect();
    every_loss_pattern_reads_exact(&b, attr.ino, 4, &model).unwrap();
}

#[test]
fn an_overwrite_a_server_refused_never_reads_back_torn() {
    // The block's server refuses the swap and its three reissues, then
    // recovers still holding the old block under a valid CRC. The writer
    // owes it a restore and must not read the block back from it.
    let b = DfsBackend::new(DfsConfig::default());
    let plan = FaultPlan::new(0x7042);
    b.set_fault_plan(&plan);
    let mut core = ClientCore::new(b.clone(), 1);
    let (attr, _) = core.create(0, "torn").unwrap();
    for block in 0..4u64 {
        core.write_block(attr.ino, block, &vec![0x11; DFS_BLOCK])
            .unwrap();
    }
    let victim = b.placement(attr.ino, 0)[0];
    plan.arm(&format!("ds.{victim}.rpc"), FaultSpec::first_n(4));
    let new = vec![0x22; DFS_BLOCK];
    core.write_block(attr.ino, 0, &new).unwrap();
    assert_eq!(core.pending_repairs(), 1, "the block is owed a restore");
    let (back, _) = core.read_block(attr.ino, 0).unwrap();
    assert_eq!(back, new, "read back from the queued bytes, whole");
    // The restore lands on the next metadata sync; then anyone reads it.
    core.sync_meta().unwrap();
    assert_eq!(core.pending_repairs(), 0);
    let (other, _) = ClientCore::new(b.clone(), 2)
        .read_block(attr.ino, 0)
        .unwrap();
    assert_eq!(other, new);
    assert!(stripes_verify(&b, attr.ino, 1));
}

#[test]
fn a_parity_server_that_crashed_is_rebuilt_never_delta_d_from_zeros() {
    let b = DfsBackend::new(DfsConfig::default());
    b.enable_recovery();
    let mut core = ClientCore::new(b.clone(), 1);
    let (attr, _) = core.create(0, "parity").unwrap();
    let mut model: HashMap<u64, Vec<u8>> = (0..4u64)
        .map(|block| (block, block_bytes(block, DFS_BLOCK)))
        .collect();
    for (&block, data) in &model {
        core.write_block(attr.ino, block, data).unwrap();
    }
    let placement = b.placement(attr.ino, 0).to_vec();
    let (k, p0) = (b.cfg.ec_k, placement[b.cfg.ec_k]);
    b.data_server(p0).crash();
    b.data_server(p0).restart();
    let parity = Cell::Parity {
        ino: attr.ino,
        stripe: 0,
        p: 0,
    };
    let mut buf = Vec::new();
    assert_eq!(b.data_server(p0).get(parity, &mut buf), Err(Refusal::Lost));

    let new = block_bytes(77, 3000);
    core.write_block(attr.ino, 1, &new).unwrap();
    model.insert(1, new);
    assert_eq!(
        b.data_server(p0).get(parity, &mut buf),
        Err(Refusal::Lost),
        "the delta was refused, not applied to zeros"
    );
    assert_eq!(core.pending_repairs(), 1, "a rebuild is owed");
    core.sync_meta().unwrap();
    assert_eq!(core.pending_repairs(), 0);
    assert!(stripes_verify(&b, attr.ino, 1));
    // The rebuilt cell is the one a read must use: block 0's server and
    // the other parity down.
    b.data_server(placement[0]).set_failed(true);
    b.data_server(placement[k + 1]).set_failed(true);
    let (got, _) = ClientCore::new(b.clone(), 2)
        .read_block(attr.ino, 0)
        .unwrap();
    assert_eq!(&got, &model[&0]);
    b.data_server(placement[0]).set_failed(false);
    b.data_server(placement[k + 1]).set_failed(false);
    every_loss_pattern_reads_exact(&b, attr.ino, 4, &model).unwrap();
}

#[test]
fn a_block_whose_server_crashed_is_reconstructed_not_assumed_zero() {
    let b = DfsBackend::new(DfsConfig::default());
    b.enable_recovery();
    let mut core = ClientCore::new(b.clone(), 1);
    let (attr, _) = core.create(0, "block").unwrap();
    let mut model: HashMap<u64, Vec<u8>> = (0..4u64)
        .map(|block| (block, block_bytes(10 + block, DFS_BLOCK)))
        .collect();
    for (&block, data) in &model {
        core.write_block(attr.ino, block, data).unwrap();
    }
    let victim = b.placement(attr.ino, 2)[2];
    b.data_server(victim).crash();
    b.data_server(victim).restart();

    // A partial overwrite: the old block's tail matters to the delta.
    let new = block_bytes(99, 1234);
    let before = b.recovery().snapshot().reconstructions;
    let t = core.write_block(attr.ino, 2, &new).unwrap();
    model.insert(2, new.clone());
    assert_eq!(b.recovery().snapshot().reconstructions, before + 1);
    // The refused swap, k survivors, m deltas.
    assert_eq!(t.ds_rpcs as usize, 1 + b.cfg.ec_k + b.cfg.ec_m);
    // Before the restore lands, another client's read reconstructs the
    // new bytes: the deltas were taken against the real old block.
    let (seen, _) = ClientCore::new(b.clone(), 2)
        .read_block(attr.ino, 2)
        .unwrap();
    assert_eq!(seen, new);
    core.sync_meta().unwrap();
    assert!(stripes_verify(&b, attr.ino, 1));
    every_loss_pattern_reads_exact(&b, attr.ino, 4, &model).unwrap();
}

#[test]
fn a_rotten_old_block_or_parity_cell_is_never_blessed_with_a_fresh_crc() {
    let b = DfsBackend::new(DfsConfig::default());
    b.enable_recovery();
    let mut core = ClientCore::new(b.clone(), 1);
    let (attr, _) = core.create(0, "rot").unwrap();
    let ino = attr.ino;
    let mut model: HashMap<u64, Vec<u8>> = (0..4u64)
        .map(|block| (block, block_bytes(20 + block, DFS_BLOCK)))
        .collect();
    for (&block, data) in &model {
        core.write_block(ino, block, data).unwrap();
    }
    let placement = b.placement(ino, 0).to_vec();
    let k = b.cfg.ec_k;
    let mut buf = Vec::new();

    // A rotten old block: the swap verifies it, refuses, stores nothing.
    let block0 = Cell::Block { ino, block: 0 };
    assert!(b.data_server(placement[0]).corrupt(block0));
    let new0 = block_bytes(50, DFS_BLOCK);
    core.write_block(ino, 0, &new0).unwrap();
    model.insert(0, new0.clone());
    assert_eq!(
        b.data_server(placement[0]).get(block0, &mut buf),
        Err(Refusal::Rotten),
        "still rotten: the new bytes wait in the restore queue"
    );
    assert_eq!(core.read_block(ino, 0).unwrap().0, new0);

    // A rotten parity cell: the delta verifies it, refuses, applies
    // nothing; the client owes it a rebuild.
    let parity1 = Cell::Parity {
        ino,
        stripe: 0,
        p: 1,
    };
    assert!(b.data_server(placement[k + 1]).corrupt(parity1));
    let new3 = block_bytes(51, 700);
    core.write_block(ino, 3, &new3).unwrap();
    model.insert(3, new3);
    assert_eq!(
        b.data_server(placement[k + 1]).get(parity1, &mut buf),
        Err(Refusal::Rotten)
    );
    // The write drained the restore first: block 0's server holds the
    // new bytes under their own CRC. The rebuild is still owed.
    assert_eq!(core.pending_repairs(), 1);
    buf.clear();
    assert_eq!(b.data_server(placement[0]).get(block0, &mut buf), Ok(true));
    assert_eq!(buf, new0);
    assert!(b.recovery().snapshot().crc_rejects >= 2);

    core.sync_meta().unwrap();
    assert_eq!(core.pending_repairs(), 0);
    assert!(stripes_verify(&b, ino, 1));
    every_loss_pattern_reads_exact(&b, ino, 4, &model).unwrap();
}
