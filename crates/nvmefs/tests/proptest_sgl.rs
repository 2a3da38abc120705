//! Property tests for nvme-fs SGL transfers: PRP and SGL commands of any
//! length, interleaved on one ring, reassemble exactly at the file target.
//! (Arbitrary segment lists and headers, with the per-segment DMA count
//! `SQE + list + populated segments (+ header descriptor, iff the header
//! does not fit the SQE) + CQE`, are `queue.rs`'s
//! `sgl_reassembles_and_counts_dmas`, where raw headers reach the target.)

use dpc_nvmefs::{
    create_fabric, ChannelPool, DispatchType, FileIncomingBatch, FileRequest, FileResponse,
    Payload, QueuePairConfig, Sides, Ticket,
};
use dpc_pcie::DmaEngine;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mixed_prp_and_sgl_on_one_ring(
        ops in proptest::collection::vec((any::<bool>(), 1usize..4000, any::<u8>()), 1..16),
    ) {
        let (chans, mut tgts) = create_fabric(
            1,
            QueuePairConfig { depth: 4, max_io_bytes: 32 * 1024 },
            &DmaEngine::new(),
        );
        let pool = ChannelPool::new(chans);
        let tgt = &mut tgts[0];
        let mut inb = FileIncomingBatch::new();
        for (use_sgl, len, fill) in ops {
            let data = vec![fill; len];
            // Split into two segments where possible.
            let (a, b) = data.split_at((len / 2).max(1).min(len - 1).max(1).min(len));
            let segments: Vec<&[u8]> = if b.is_empty() { vec![a] } else { vec![a, b] };
            let write = if use_sgl {
                Payload::Gather(&segments)
            } else {
                Payload::Flat(&data)
            };
            let sides = Sides { dispatch: DispatchType::Standalone, write, read_len: 0 };
            let req = FileRequest::Write { ino: 1, offset: 0, len: len as u32 };
            let mut ticket = [Ticket::default()];
            prop_assert_eq!(pool.stage(0, &sides, std::slice::from_ref(&req), &mut ticket), 1);
            prop_assert_eq!(tgt.poll_many(&mut inb), 1);
            let inc = inb.iter().next().unwrap();
            prop_assert_eq!(&inc.payload, &data);
            tgt.reply(inc.slot, &FileResponse::Bytes(len as u32), b"");
            let resp = pool.wait(ticket[0], &sides, &req, |resp, _| resp).unwrap();
            prop_assert_eq!(resp, FileResponse::Bytes(len as u32));
        }
    }
}
