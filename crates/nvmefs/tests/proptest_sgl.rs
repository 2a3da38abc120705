//! Property tests for nvme-fs SGL transfers: arbitrary segment lists
//! reassemble exactly, and DMA accounting always equals
//! `SQE + list + populated segments (+ header descriptor, iff the header
//! does not fit the SQE) + CQE`.

use dpc_nvmefs::{CqeStatus, DispatchType, QueuePair, QueuePairConfig, ReadSide};
use dpc_pcie::DmaEngine;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sgl_reassembles_and_counts_dmas(
        segments in proptest::collection::vec(
            (1usize..3000, any::<u8>()),
            1..10
        ),
        header in proptest::collection::vec(any::<u8>(), 0..48),
        // Both sides of the SQE's room under SGL: 12 bytes beside a read
        // side, 28 without one.
        edge in 0usize..8,
        read_side in any::<bool>(),
    ) {
        let header = match [0, 11, 12, 13, 27, 28, 29].get(edge) {
            Some(&len) => vec![0x48 ^ len as u8; len],
            None => header,
        };
        let (read, room) = if read_side {
            (ReadSide::Buffer(0), 12)
        } else {
            (ReadSide::None, 28)
        };
        let dma = DmaEngine::new();
        let (mut ini, mut tgt) = QueuePair::new(
            0,
            QueuePairConfig { depth: 8, max_io_bytes: 64 * 1024 },
        )
        .split(dma.clone());

        let bufs: Vec<Vec<u8>> = segments
            .iter()
            .map(|&(len, fill)| vec![fill; len])
            .collect();
        let refs: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();

        let before = dma.snapshot();
        ini.submit_sgl(DispatchType::Standalone, &header, &refs, read).unwrap();
        let inc = tgt.poll().unwrap();
        prop_assert_eq!(inc.sqe.is_inline(), header.len() <= room);
        prop_assert_eq!(&inc.header, &header);
        prop_assert_eq!(&inc.payload, &bufs.concat());
        prop_assert_eq!(inc.sqe.sgl_count() as usize, segments.len() + 1);
        tgt.complete(inc.slot, CqeStatus::Success, b"", b"");
        let done = ini.wait();
        prop_assert_eq!(done.status, CqeStatus::Success);

        // DMA ops: SQE (1) + SGL list (1) + header descriptor (1 iff the
        // header did not fit the SQE; zero-length descriptors cost
        // nothing) + one per data segment + CQE (1).
        let expect = 1 + 1 + usize::from(header.len() > room) + segments.len() + 1;
        let delta = dma.snapshot().since(&before);
        prop_assert_eq!(delta.dma_ops as usize, expect);
    }

    #[test]
    fn mixed_prp_and_sgl_on_one_ring(
        ops in proptest::collection::vec((any::<bool>(), 1usize..4000, any::<u8>()), 1..16),
    ) {
        let dma = DmaEngine::new();
        let (mut ini, mut tgt) = QueuePair::new(
            0,
            QueuePairConfig { depth: 4, max_io_bytes: 32 * 1024 },
        )
        .split(dma);
        for (use_sgl, len, fill) in ops {
            let data = vec![fill; len];
            if use_sgl {
                // Split into two segments where possible.
                let mid = (len / 2).max(1).min(len);
                let (a, b) = data.split_at(mid.min(len - 1).max(1).min(len));
                if b.is_empty() {
                    ini.submit_sgl(DispatchType::Standalone, b"", &[a], 0).unwrap();
                } else {
                    ini.submit_sgl(DispatchType::Standalone, b"", &[a, b], 0).unwrap();
                }
            } else {
                ini.submit(DispatchType::Standalone, b"", &data, 0).unwrap();
            }
            let inc = tgt.poll().unwrap();
            prop_assert_eq!(&inc.payload, &data);
            tgt.complete(inc.slot, CqeStatus::Success, b"", b"");
            ini.wait();
        }
    }
}
