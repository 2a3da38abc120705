//! The DFS client's block data path, driven through `ClientCore` against
//! a live backend: what a healthy read or write costs in data-server
//! RPCs (one block is one stripe cell on a server of its own), that
//! `read_block` returns what `read_block_to` writes, and that every
//! integrity check still stands between a rotten cell and the caller.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use dpc_dfs::{Cell, ClientCore, DfsBackend, DfsConfig, CELL, DFS_BLOCK};

fn backend() -> Arc<DfsBackend> {
    DfsBackend::new(DfsConfig::default())
}

fn block_bytes(tag: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (i.wrapping_mul(2654435761).wrapping_add(tag * 97) >> 7) as u8)
        .collect()
}

/// RPCs served by all data servers so far — the cells `dpc-e2e` sums
/// into `backend_ops_per_op`.
fn ds_rpcs(b: &DfsBackend) -> u64 {
    (0..b.data_server_count())
        .map(|i| b.data_server(i).rpcs.load(Ordering::Relaxed))
        .sum()
}

#[test]
fn healthy_block_io_costs_one_read_and_one_plus_m_writes() {
    let b = backend();
    let m = b.cfg.ec_m as u64;
    let mut core = ClientCore::new(b.clone(), 1);
    let (attr, _) = core.create(0, "f").unwrap();
    let data = block_bytes(1, DFS_BLOCK);
    let mut out = vec![0u8; DFS_BLOCK];
    for round in 0..3u64 {
        // Round 0 inserts the block and its parity, later rounds swap and
        // delta them in place: the same RPCs either way.
        let before = ds_rpcs(&b);
        let t = core.write_block(attr.ino, 5, &data).unwrap();
        assert_eq!(ds_rpcs(&b) - before, 1 + m, "round {round}");
        assert_eq!(t.ds_rpcs as u64, 1 + m);
        // The new block out, m deltas out, the old block back.
        assert_eq!(t.bytes_out, (DFS_BLOCK + m as usize * CELL) as u64);
        let old = if round == 0 { 0 } else { DFS_BLOCK as u64 };
        assert_eq!(t.bytes_in, old, "round {round}");

        let before = ds_rpcs(&b);
        let (n, t) = core.read_block_to(attr.ino, 5, &mut out).unwrap();
        assert_eq!(ds_rpcs(&b) - before, 1, "round {round}");
        assert_eq!((n, t.ds_rpcs, t.bytes_in), (DFS_BLOCK, 1, DFS_BLOCK as u64));
        assert_eq!(out, data);
    }
    let snap = b.recovery().snapshot();
    assert_eq!(
        (snap.crc_rejects, snap.reconstructions, snap.repairs),
        (0, 0, 0)
    );
}

#[test]
fn a_degraded_read_is_at_most_k_plus_one_rpcs() {
    let b = backend();
    let k = b.cfg.ec_k as u64;
    let mut core = ClientCore::new(b.clone(), 1);
    let (attr, _) = core.create(0, "f").unwrap();
    let blocks: Vec<Vec<u8>> = (0..k).map(|i| block_bytes(10 + i, DFS_BLOCK)).collect();
    for (i, data) in blocks.iter().enumerate() {
        core.write_block(attr.ino, i as u64, data).unwrap();
    }
    let placement = b.placement(attr.ino, 0).to_vec();
    for (i, data) in blocks.iter().enumerate() {
        b.data_server(placement[i]).set_failed(true);
        let before = ds_rpcs(&b);
        let (got, t) = core.read_block(attr.ino, i as u64).unwrap();
        assert_eq!(&got, data, "block {i}");
        // The refused get, then k survivors (a parity cell among them).
        assert_eq!((t.ds_rpcs as u64, ds_rpcs(&b) - before), (k + 1, k + 1));
        b.data_server(placement[i]).set_failed(false);
    }
    assert_eq!(b.recovery().snapshot().reconstructions, k);
}

#[test]
fn read_block_returns_what_read_block_to_writes() {
    let b = backend();
    let mut core = ClientCore::new(b.clone(), 1);
    let (attr, _) = core.create(0, "f").unwrap();
    let ino = attr.ino;
    // Block 0 full, block 1 a partial tail, block 3 never written.
    let full = block_bytes(2, DFS_BLOCK);
    let tail = block_bytes(3, 5000);
    core.write_block(ino, 0, &full).unwrap();
    core.write_block(ino, 1, &tail).unwrap();

    // A recycled buffer holding something else entirely: the block lands
    // at its front, and nothing past the block's length is touched.
    let mut out = vec![0xEEu8; 3 * DFS_BLOCK];
    for (block, want) in [(0u64, &full), (1, &tail)] {
        let (fresh, t_fresh) = core.read_block(ino, block).unwrap();
        out.fill(0xEE);
        let (n, t_to) = core.read_block_to(ino, block, &mut out).unwrap();
        assert_eq!(&fresh, want, "block {block}");
        assert_eq!((n, &out[..n]), (fresh.len(), &fresh[..]), "block {block}");
        assert!(out[n..].iter().all(|&x| x == 0xEE), "block {block}");
        assert_eq!(t_to, t_fresh, "block {block}");
    }
    assert!(core.read_block(ino, 3).is_err());
    out.fill(0xEE);
    assert!(core.read_block_to(ino, 3, &mut out).is_err());
    assert!(out.iter().all(|&x| x == 0xEE), "an error writes nothing");
}

#[test]
fn rotten_shards_are_rejected_reconstructed_and_repaired() {
    for rotten in [vec![1u64], vec![0, 3], vec![2, 1]] {
        let b = backend();
        b.enable_recovery();
        let k = b.cfg.ec_k as u64;
        let mut core = ClientCore::new(b.clone(), 1);
        let (attr, _) = core.create(0, "f").unwrap();
        let blocks: Vec<Vec<u8>> = (0..k).map(|i| block_bytes(6 + i, DFS_BLOCK)).collect();
        for (i, data) in blocks.iter().enumerate() {
            core.write_block(attr.ino, i as u64, data).unwrap();
        }
        let placement = b.placement(attr.ino, 0).to_vec();
        for &block in &rotten {
            let cell = Cell::Block {
                ino: attr.ino,
                block,
            };
            assert!(b.data_server(placement[block as usize]).corrupt(cell));
        }
        let n_rotten = rotten.len() as u64;
        let mut out = vec![0u8; DFS_BLOCK];
        let before = ds_rpcs(&b);
        let (_, t) = core.read_block_to(attr.ino, rotten[0], &mut out).unwrap();
        assert_eq!(out, blocks[rotten[0] as usize], "rotten {rotten:?}");
        // The rejected get and k survivors: a second rotten block is one
        // more rejected survivor, replaced by the next cell of the stripe.
        assert_eq!(t.ds_rpcs as u64, 1 + k + (n_rotten - 1));
        let snap = b.recovery().snapshot();
        // Rot is an answer, not an outage: never reissued.
        assert_eq!(snap.crc_rejects, n_rotten, "rotten {rotten:?}");
        assert_eq!(snap.ds_retries, 0);
        assert_eq!(snap.reconstructions, 1);
        assert_eq!(snap.repairs, 1, "read-repair rewrote the block read");
        // The reads, and the repair.
        assert_eq!(ds_rpcs(&b) - before, t.ds_rpcs as u64 + 1);
        // Healed: the next read of it is a healthy one.
        let before = ds_rpcs(&b);
        let (again, t) = core.read_block(attr.ino, rotten[0]).unwrap();
        assert_eq!(again, blocks[rotten[0] as usize]);
        assert_eq!((t.ds_rpcs as u64, ds_rpcs(&b) - before), (1, 1));
        assert_eq!(b.recovery().snapshot().crc_rejects, snap.crc_rejects);
    }
}

#[test]
fn a_block_that_does_not_fit_is_an_error_not_a_panic() {
    let b = backend();
    let mut core = ClientCore::new(b.clone(), 1);
    let (attr, _) = core.create(0, "f").unwrap();
    let before = ds_rpcs(&b);
    assert!(core
        .write_block(attr.ino, 0, &vec![0u8; DFS_BLOCK + 1])
        .is_err());
    assert!(core
        .write_block(attr.ino, u64::MAX / 4096, &[0u8; 16])
        .is_err());
    assert_eq!(ds_rpcs(&b), before, "rejected before anything was sent");
    core.write_block(attr.ino, 0, &[7u8; 16]).unwrap();
}
