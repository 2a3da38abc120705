//! Batched submission/completion semantics: doorbell coalescing, wire
//! compatibility with single-op submission, and correctness through ring
//! wrap under load.

use dpc_nvmefs::{
    CompletionBatch, CqeStatus, DispatchType, IncomingBatch, Initiator, QueueFull, QueuePair,
    QueuePairConfig, Target,
};
use dpc_pcie::DmaEngine;

fn pair(depth: u16, max_io: usize) -> (Initiator, Target, DmaEngine) {
    let dma = DmaEngine::new();
    let (ini, tgt) = QueuePair::new(
        0,
        QueuePairConfig {
            depth,
            max_io_bytes: max_io,
        },
    )
    .split(dma.clone());
    (ini, tgt, dma)
}

#[test]
fn a_batch_rings_exactly_one_doorbell() {
    let (mut ini, mut tgt, dma) = pair(16, 8192);
    let payload = vec![0x11u8; 4096];

    let before = dma.snapshot();
    let mut batch = ini.batch();
    for _ in 0..8 {
        batch
            .submit(DispatchType::Standalone, b"", &payload, 0)
            .unwrap();
    }
    assert_eq!(
        dma.snapshot().since(&before).doorbells,
        0,
        "nothing rung yet"
    );
    batch.commit();
    let delta = dma.snapshot().since(&before);
    assert_eq!(delta.doorbells, 1, "8 staged SQEs, one tail doorbell");

    // The target sees all 8 under a single tail read, and completes them.
    let mut inb = IncomingBatch::new();
    assert_eq!(tgt.poll_many(&mut inb), 8);
    for inc in &inb {
        assert_eq!(inc.payload, payload);
        tgt.complete(inc.slot, CqeStatus::Success, b"", b"");
    }
    let mut comp = CompletionBatch::new();
    assert_eq!(ini.poll_many(&mut comp), 8);
    assert!(comp.iter().all(|c| c.status == CqeStatus::Success));
    assert_eq!(ini.outstanding(), 0);
}

#[test]
fn a_batch_stages_only_what_the_ring_holds() {
    let (mut ini, _tgt, dma) = pair(4, 4096);
    // depth-1 = 3 usable slots: the fourth op is refused, the three that
    // fit go out under one doorbell.
    let before = dma.snapshot();
    let mut batch = ini.batch();
    for _ in 0..3 {
        batch
            .submit(DispatchType::Standalone, b"", b"x", 0)
            .unwrap();
    }
    assert_eq!(
        batch.submit(DispatchType::Standalone, b"", b"x", 0),
        Err(QueueFull)
    );
    assert_eq!(batch.staged(), 3);
    batch.commit();
    assert_eq!(ini.outstanding(), 3);
    assert_eq!(dma.snapshot().since(&before).doorbells, 1);
    // A batch on a full ring stages nothing and rings nothing.
    let mut batch = ini.batch();
    assert!(batch
        .submit(DispatchType::Standalone, b"", b"x", 0)
        .is_err());
    batch.commit();
    assert_eq!(ini.outstanding(), 3);
    assert_eq!(dma.snapshot().since(&before).doorbells, 1);
}

#[test]
fn batched_ring_wrap_and_phase_flip_at_depth_4() {
    // Depth 4 leaves 3 usable slots; driving 3-deep batches many times
    // around the ring exercises SQ wrap, CQ wrap, and the phase-bit flip
    // on every lap — all under coalesced doorbells.
    let (mut ini, mut tgt, dma) = pair(4, 4096);
    let mut inb = IncomingBatch::new();
    let mut comp = CompletionBatch::new();
    let before = dma.snapshot();
    for round in 0..23u32 {
        {
            let mut guard = ini.batch();
            for i in 0..3u32 {
                let tag = (round * 3 + i).to_le_bytes();
                guard
                    .submit(DispatchType::Standalone, b"", &tag, 4)
                    .unwrap();
            }
        }
        assert_eq!(tgt.poll_many(&mut inb), 3);
        for inc in &inb {
            let echo = inc.payload.clone();
            tgt.complete(inc.slot, CqeStatus::Success, b"", &echo);
        }
        assert_eq!(ini.poll_many(&mut comp), 3);
        for (i, c) in comp.iter().enumerate() {
            let want = (round * 3 + i as u32).to_le_bytes();
            assert_eq!(c.payload, want, "round {round} op {i}");
            assert_eq!(c.status, CqeStatus::Success);
        }
    }
    // 23 rounds, one doorbell each.
    assert_eq!(dma.snapshot().since(&before).doorbells, 23);
    assert_eq!(ini.outstanding(), 0);
}

#[test]
fn empty_doorbell_guard_rings_nothing() {
    let (mut ini, _tgt, dma) = pair(8, 4096);
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
    let (mut ini, mut tgt, dma) = pair(32, 4096);

    let dpu = std::thread::spawn(move || {
        let mut inb = IncomingBatch::new();
        let mut done = 0usize;
        while done < N {
            let n = tgt.poll_many(&mut inb);
            if n == 0 {
                std::hint::spin_loop();
                continue;
            }
            for inc in &inb {
                let mut rev = inc.payload.clone();
                rev.reverse();
                tgt.complete(inc.slot, CqeStatus::Success, b"", &rev);
            }
            done += n;
        }
    });

    let before = dma.snapshot();
    let mut comp = CompletionBatch::new();
    let mut submitted = 0usize;
    let mut completed = 0usize;
    while completed < N {
        if submitted < N && ini.free_slots() >= BATCH {
            let mut guard = ini.batch();
            for i in 0..BATCH {
                let tag = ((submitted + i) as u32).to_le_bytes();
                guard
                    .submit(DispatchType::Standalone, b"", &tag, 4)
                    .unwrap();
            }
            guard.commit();
            submitted += BATCH;
        }
        completed += ini.poll_many(&mut comp);
    }
    dpu.join().unwrap();

    // Every batch was full, so the doorbell count is exactly ceil(N/B).
    let delta = dma.snapshot().since(&before);
    assert_eq!(delta.doorbells as usize, N.div_ceil(BATCH));
    assert_eq!(ini.outstanding(), 0);
}

mod wire_equivalence {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Batched submission is wire-identical to single-op submission:
        /// the target observes the same SQE bytes, header, and payload for
        /// every op whichever way the host staged them.
        #[test]
        fn batched_and_single_submission_produce_identical_wire_bytes(
            n_ops in 1usize..=7,
            headers in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..16), 7),
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..256), 7),
            read_lens in proptest::collection::vec(0u32..512, 7),
        ) {
            let (mut ini_a, mut tgt_a, _) = pair(8, 4096);
            let (mut ini_b, mut tgt_b, _) = pair(8, 4096);

            // Pair A: one doorbell per op.
            for i in 0..n_ops {
                ini_a
                    .submit(DispatchType::Standalone, &headers[i], &payloads[i], read_lens[i])
                    .unwrap();
            }
            // Pair B: one doorbell for the whole batch.
            let mut batch = ini_b.batch();
            for i in 0..n_ops {
                batch
                    .submit(DispatchType::Standalone, &headers[i], &payloads[i], read_lens[i])
                    .unwrap();
            }
            batch.commit();

            let mut inb = IncomingBatch::new();
            prop_assert_eq!(tgt_b.poll_many(&mut inb), n_ops);
            for (i, inc_b) in inb.iter().enumerate() {
                let inc_a = tgt_a.poll().expect("op pending on single-submit pair");
                prop_assert_eq!(inc_a.sqe.to_bytes(), inc_b.sqe.to_bytes(), "SQE {}", i);
                prop_assert_eq!(&inc_a.header, &inc_b.header, "header {}", i);
                prop_assert_eq!(&inc_a.payload, &inc_b.payload, "payload {}", i);
            }
        }
    }
}
