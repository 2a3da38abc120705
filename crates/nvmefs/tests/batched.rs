//! Batched submission/completion semantics: doorbell coalescing, and
//! correctness through ring wrap under load — staged through the pool's
//! one stager (one guard per `stage`), served by the file target, every
//! reply read through its lease. (That batched and one-per-doorbell
//! staging put identical bytes on the wire is `queue.rs`'s
//! `batched_and_single_submission_produce_identical_wire_bytes`, where raw
//! headers reach the target.)

use std::collections::VecDeque;

use dpc_nvmefs::{
    create_fabric, ChannelPool, DispatchType, FileIncomingBatch, FileRequest, FileResponse,
    FileTarget, Initiator, Payload, QueueFull, QueuePair, QueuePairConfig, ReadSide, Sides, Ticket,
};
use dpc_pcie::DmaEngine;

fn cfg(depth: u16, max_io: usize) -> QueuePairConfig {
    QueuePairConfig {
        depth,
        max_io_bytes: max_io,
    }
}

/// A one-byte write that expects nothing back.
const X: Payload<'static> = Payload::Flat(b"x");

/// A bare initiator, for what the doorbell guard does on its own.
fn initiator(depth: u16, max_io: usize) -> (Initiator, DmaEngine) {
    let dma = DmaEngine::new();
    let (ini, _) = QueuePair::new(cfg(depth, max_io)).split(dma.clone());
    (ini, dma)
}

/// One queue pair behind a pool, and its target.
fn pool(depth: u16, max_io: usize) -> (ChannelPool, FileTarget, DmaEngine) {
    let dma = DmaEngine::new();
    let (chans, mut tgts) = create_fabric(1, cfg(depth, max_io), &dma);
    (ChannelPool::new(chans), tgts.pop().unwrap(), dma)
}

/// A 4-byte read that names its tag in the request: the echo server
/// answers it with the tag's bytes, so each reply shows whose it is.
fn tagged(tag: usize) -> FileRequest {
    FileRequest::Read {
        ino: tag as u64,
        offset: 0,
        len: 4,
    }
}

const TAGGED: Sides<'static> = Sides {
    dispatch: DispatchType::Standalone,
    write: Payload::Flat(b""),
    read_len: 4,
};

/// Answer every request in `inb` with its tag.
fn echo_tags(tgt: &mut FileTarget, inb: &FileIncomingBatch) {
    for inc in inb {
        let FileRequest::Read { ino, .. } = inc.request else {
            panic!("unexpected {:?}", inc.request);
        };
        let tag = (ino as u32).to_le_bytes();
        tgt.reply(inc.slot, &FileResponse::Bytes(4), &tag);
    }
}

/// Wait for `ticket`'s reply to `tagged(tag)` and check it is the tag's.
fn expect_tag(pool: &ChannelPool, ticket: Ticket, tag: usize) {
    let got = pool
        .wait(ticket, &TAGGED, &tagged(tag), |resp, reply| {
            assert_eq!(resp, FileResponse::Bytes(4));
            let mut b = [0u8; 4];
            reply.copy_to(0, &mut b);
            u32::from_le_bytes(b)
        })
        .unwrap();
    assert_eq!(got as usize, tag, "reply routed to another command");
}

#[test]
fn a_batch_rings_exactly_one_doorbell() {
    let (pool, mut tgt, dma) = pool(16, 8192);
    let payload = vec![0x11u8; 4096];
    let sides = Sides {
        dispatch: DispatchType::Standalone,
        write: Payload::Flat(&payload),
        read_len: 0,
    };
    let reqs: [FileRequest; 8] = std::array::from_fn(|i| FileRequest::Write {
        ino: 1,
        offset: i as u64 * 4096,
        len: 4096,
    });
    let mut tickets = [Ticket::default(); 8];

    let before = dma.snapshot();
    assert_eq!(pool.stage(0, &sides, &reqs, &mut tickets), 8);
    let delta = dma.snapshot().since(&before);
    assert_eq!(delta.doorbells, 1, "8 staged SQEs, one tail doorbell");

    // The target sees all 8 under a single tail read, and completes them.
    let mut inb = FileIncomingBatch::new();
    assert_eq!(tgt.poll_many(&mut inb), 8);
    for inc in &inb {
        assert_eq!(inc.payload, payload);
        tgt.reply(inc.slot, &FileResponse::Bytes(4096), b"");
    }
    for (&ticket, req) in tickets.iter().zip(&reqs) {
        let resp = pool.wait(ticket, &sides, req, |resp, _| resp).unwrap();
        assert_eq!(resp, FileResponse::Bytes(4096));
    }
    assert_eq!(pool.outstanding(0), 0);
}

#[test]
fn a_batch_stages_only_what_the_ring_holds() {
    let (mut ini, dma) = initiator(4, 4096);
    // depth-1 = 3 usable slots: the fourth op is refused, the three that
    // fit go out under one doorbell — rung when the guard drops, not
    // before.
    let before = dma.snapshot();
    let mut batch = ini.batch();
    for _ in 0..3 {
        batch
            .stage(DispatchType::Standalone, b"", X, ReadSide::Buffer(0))
            .unwrap();
    }
    assert_eq!(
        batch.stage(DispatchType::Standalone, b"", X, ReadSide::Buffer(0)),
        Err(QueueFull)
    );
    assert_eq!(batch.staged(), 3);
    assert_eq!(
        dma.snapshot().since(&before).doorbells,
        0,
        "nothing rung yet"
    );
    drop(batch);
    assert_eq!(ini.outstanding(), 3);
    assert_eq!(dma.snapshot().since(&before).doorbells, 1);
    // A batch on a full ring stages nothing and rings nothing.
    let mut batch = ini.batch();
    assert!(batch
        .stage(DispatchType::Standalone, b"", X, ReadSide::Buffer(0))
        .is_err());
    drop(batch);
    assert_eq!(ini.outstanding(), 3);
    assert_eq!(dma.snapshot().since(&before).doorbells, 1);
}

#[test]
fn batched_ring_wrap_and_phase_flip_at_depth_4() {
    // Depth 4 leaves 3 usable slots; driving 3-deep batches many times
    // around the ring exercises SQ wrap, CQ wrap, and the phase-bit flip
    // on every lap — all under coalesced doorbells.
    let (pool, mut tgt, dma) = pool(4, 4096);
    let mut inb = FileIncomingBatch::new();
    let before = dma.snapshot();
    for round in 0..23usize {
        let reqs: [FileRequest; 3] = std::array::from_fn(|i| tagged(round * 3 + i));
        let mut tickets = [Ticket::default(); 3];
        assert_eq!(pool.stage(0, &TAGGED, &reqs, &mut tickets), 3);
        assert_eq!(tgt.poll_many(&mut inb), 3);
        echo_tags(&mut tgt, &inb);
        for (i, &ticket) in tickets.iter().enumerate() {
            expect_tag(&pool, ticket, round * 3 + i);
        }
    }
    // 23 rounds, one doorbell each.
    assert_eq!(dma.snapshot().since(&before).doorbells, 23);
    assert_eq!(pool.outstanding(0), 0);
}

#[test]
fn empty_doorbell_guard_rings_nothing() {
    let (mut ini, dma) = initiator(8, 4096);
    let before = dma.snapshot();
    {
        let guard = ini.batch();
        assert_eq!(guard.staged(), 0);
    }
    assert_eq!(dma.snapshot().since(&before).doorbells, 0);
}

#[test]
fn two_thread_stress_doorbells_equal_ceil_ops_over_batch() {
    const N: usize = 960;
    const BATCH: usize = 8;
    let (pool, mut tgt, dma) = pool(32, 4096);

    let dpu = std::thread::spawn(move || {
        let mut inb = FileIncomingBatch::new();
        let mut done = 0usize;
        while done < N {
            let n = tgt.poll_many(&mut inb);
            if n == 0 {
                std::hint::spin_loop();
                continue;
            }
            echo_tags(&mut tgt, &inb);
            done += n;
        }
    });

    // Up to three batches in flight: the third is staged while the DPU
    // serves the first two, and each is waited in order.
    let before = dma.snapshot();
    let mut in_flight: VecDeque<(usize, [Ticket; BATCH])> = VecDeque::new();
    let (mut submitted, mut completed) = (0usize, 0usize);
    while completed < N {
        if submitted < N && in_flight.len() < 3 {
            let reqs: [FileRequest; BATCH] = std::array::from_fn(|i| tagged(submitted + i));
            let mut tickets = [Ticket::default(); BATCH];
            assert_eq!(pool.stage(0, &TAGGED, &reqs, &mut tickets), BATCH);
            in_flight.push_back((submitted, tickets));
            submitted += BATCH;
            continue;
        }
        let (first, tickets) = in_flight.pop_front().unwrap();
        for (i, &ticket) in tickets.iter().enumerate() {
            expect_tag(&pool, ticket, first + i);
        }
        completed += BATCH;
    }
    dpu.join().unwrap();

    // Every batch was full, so the doorbell count is exactly ceil(N/B).
    let delta = dma.snapshot().since(&before);
    assert_eq!(delta.doorbells as usize, N.div_ceil(BATCH));
    assert_eq!(pool.outstanding(0), 0);
}
