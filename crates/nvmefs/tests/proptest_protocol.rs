//! Property tests for the nvme-fs protocol:
//! - arbitrary file messages survive the wire encoding,
//! - arbitrary payload sizes cross the queue pair intact — pool to file
//!   target and back — and the DMA-op count always matches the
//!   page-granularity formula,
//! - the SQE bit layout round-trips any field combination.
//!
//! That a header of any length costs a DMA of its own iff it does not fit
//! its descriptor is `queue.rs`'s `a_header_costs_a_dma_iff_it_does_not_fit`,
//! where raw headers reach the target.

use dpc_nvmefs::{
    create_fabric, ChannelPool, DispatchType, FileIncomingBatch, FileRequest, FileResponse,
    Payload, QueuePairConfig, Sides, Sqe, Ticket, WireAttr,
};
use dpc_pcie::DmaEngine;
use proptest::prelude::*;

fn arb_name() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9._-]{1,64}").unwrap()
}

/// A relative path as the openat-style requests carry it: components,
/// doubled and trailing slashes included.
fn arb_path() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9._/-]{0,160}").unwrap()
}

fn arb_request() -> impl Strategy<Value = FileRequest> {
    prop_oneof![
        (any::<u64>(), arb_name()).prop_map(|(parent, name)| FileRequest::Lookup { parent, name }),
        (any::<u64>(), arb_path()).prop_map(|(start, path)| FileRequest::StatAt { start, path }),
        (any::<u64>(), arb_path()).prop_map(|(start, path)| FileRequest::ReaddirAt { start, path }),
        (any::<u64>(), arb_path())
            .prop_map(|(parent, name)| FileRequest::Readlink { parent, name }),
        (any::<u64>(), arb_path(), any::<u64>(), arb_path()).prop_map(
            |(parent, name, new_parent, new_name)| FileRequest::Link {
                parent,
                name,
                new_parent,
                new_name
            }
        ),
        (any::<u64>(), arb_name(), any::<u32>())
            .prop_map(|(parent, name, mode)| FileRequest::Create { parent, name, mode }),
        (any::<u64>(), arb_name(), any::<u32>())
            .prop_map(|(parent, name, mode)| FileRequest::Mkdir { parent, name, mode }),
        (any::<u64>(), any::<u64>(), any::<u32>())
            .prop_map(|(ino, offset, len)| FileRequest::Read { ino, offset, len }),
        (any::<u64>(), any::<u64>(), any::<u32>())
            .prop_map(|(ino, offset, len)| FileRequest::Write { ino, offset, len }),
        (any::<u64>(), any::<u64>()).prop_map(|(ino, size)| FileRequest::Truncate { ino, size }),
        (any::<u64>(), arb_path()).prop_map(|(parent, name)| FileRequest::Unlink { parent, name }),
        any::<u64>().prop_map(|ino| FileRequest::Readdir { ino }),
        any::<u64>().prop_map(|ino| FileRequest::GetAttr { ino }),
        (any::<u64>(), arb_name(), any::<u64>(), arb_name()).prop_map(
            |(parent, name, new_parent, new_name)| FileRequest::Rename {
                parent,
                name,
                new_parent,
                new_name
            }
        ),
        any::<u64>().prop_map(|ino| FileRequest::Fsync { ino }),
        (any::<u64>(), any::<u64>()).prop_map(|(ino, lpn)| FileRequest::ReadaheadHint { ino, lpn }),
    ]
}

fn arb_response() -> impl Strategy<Value = FileResponse> {
    prop_oneof![
        Just(FileResponse::Ok),
        any::<u64>().prop_map(FileResponse::Ino),
        any::<u32>().prop_map(FileResponse::Bytes),
        any::<u32>().prop_map(FileResponse::Entries),
        any::<i32>().prop_map(FileResponse::Err),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            any::<u8>()
        )
            .prop_map(|(ino, size, mode, nlink, mtime_ns, kind)| {
                FileResponse::Attr(WireAttr {
                    ino,
                    size,
                    mode,
                    nlink,
                    mtime_ns,
                    kind,
                    ..Default::default()
                })
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn request_wire_round_trip(req in arb_request()) {
        let mut buf = Vec::new();
        req.encode(&mut buf);
        prop_assert_eq!(FileRequest::decode(&buf).unwrap(), req);
    }

    #[test]
    fn response_wire_round_trip(resp in arb_response()) {
        let mut buf = Vec::new();
        resp.encode(&mut buf);
        prop_assert_eq!(FileResponse::decode(&buf).unwrap(), resp);
    }

    #[test]
    fn sqe_round_trip(
        cid in any::<u16>(),
        wprp in any::<u64>(),
        rprp in any::<u64>(),
        wlen in any::<u32>(),
        rlen in any::<u32>(),
        whl in any::<u16>(),
        rhl in any::<u16>(),
        distributed in any::<bool>(),
    ) {
        let mut s = Sqe::new();
        s.set_cid(cid)
            .set_prp_write(wprp, 0)
            .set_prp_read(rprp, 0)
            .set_write_len(wlen)
            .set_read_len(rlen)
            .set_wh_len(whl)
            .set_rh_len(rhl)
            .set_dispatch(if distributed {
                DispatchType::Distributed
            } else {
                DispatchType::Standalone
            });
        let back = Sqe::from_bytes(&s.to_bytes());
        prop_assert_eq!(back, s);
        prop_assert_eq!(back.opcode(), 0xA3);
    }

    #[test]
    fn queue_moves_arbitrary_payloads_with_exact_dma_count(
        wlen in 0usize..20_000,
        rlen in 0usize..20_000,
        seed in any::<u8>(),
    ) {
        let dma = DmaEngine::new();
        let (chans, mut tgts) = create_fabric(
            1,
            QueuePairConfig { depth: 4, max_io_bytes: 64 * 1024 },
            &dma,
        );
        let pool = ChannelPool::new(chans);
        let tgt = &mut tgts[0];

        let wdata: Vec<u8> = (0..wlen).map(|i| (i as u8).wrapping_add(seed)).collect();
        let rdata: Vec<u8> = (0..rlen).map(|i| (i as u8).wrapping_mul(seed | 1)).collect();

        let before = dma.snapshot();
        let req = FileRequest::Write { ino: 1, offset: 0, len: wlen as u32 };
        let sides = Sides {
            dispatch: DispatchType::Standalone,
            write: Payload::Flat(&wdata),
            read_len: rlen as u32,
        };
        let mut ticket = [Ticket::default()];
        prop_assert_eq!(pool.stage(0, &sides, std::slice::from_ref(&req), &mut ticket), 1);
        let mut inb = FileIncomingBatch::new();
        prop_assert_eq!(tgt.poll_many(&mut inb), 1);
        let inc = inb.iter().next().unwrap();
        prop_assert_eq!(&inc.payload, &wdata);
        tgt.reply(inc.slot, &FileResponse::Bytes(rlen as u32), &rdata);
        let done = pool.wait(ticket[0], &sides, &req, |_, reply| reply.to_vec()).unwrap();
        prop_assert_eq!(&done, &rdata);

        // DMA accounting: SQE (1) + the write buffer's pages + ceil(rlen/4K)
        // + CQE (1). The 5-byte `Bytes` reply always rides the CQE; the
        // 21-byte request rides the SQE unless a payload and a read side
        // both keep their PRP Dwords (a `Write` expecting nothing back
        // declares no read side).
        let mut hdr = Vec::new();
        let hdr_len = req.encode(&mut hdr);
        let room = 16 + 16 * usize::from(wlen == 0) + 16 * usize::from(rlen == 0);
        let buffered = if hdr_len > room { hdr_len } else { 0 };
        let expect = 1 + (buffered + wlen).div_ceil(4096) + rlen.div_ceil(4096) + 1;
        let delta = dma.snapshot().since(&before);
        prop_assert_eq!(delta.dma_ops as usize, expect);
    }
}
