//! Property tests for the nvme-fs protocol:
//! - arbitrary file messages survive the wire encoding,
//! - arbitrary payload sizes cross the queue pair intact, and the DMA-op
//!   count always matches the page-granularity formula — a header costs a
//!   DMA of its own iff it does not fit its descriptor,
//! - the SQE bit layout round-trips any field combination.

use dpc_nvmefs::{
    create_fabric, CqeStatus, DispatchType, FileRequest, FileResponse, QueuePair, QueuePairConfig,
    ReadSide, Sqe, WireAttr, CQE_INLINE_CAP,
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

/// One raw command: request-header length, write-payload length, read
/// side, reply-header length.
#[derive(Clone, Copy, Debug)]
struct RawOp {
    hdr_len: usize,
    wlen: usize,
    read: ReadSide,
    reply_len: usize,
}

impl RawOp {
    /// Request-header bytes the SQE has room for (`sqe.rs` module docs).
    fn room(&self) -> usize {
        16 + 16 * usize::from(self.wlen == 0) + 16 * usize::from(self.read == ReadSide::None)
    }

    fn rlen(&self) -> usize {
        match self.read {
            ReadSide::Buffer(n) => n as usize,
            ReadSide::None => 0,
        }
    }

    /// SQE + the write buffer's pages (a header that did not fit the SQE,
    /// then the payload) + a reply header that did not fit the CQE + the
    /// read payload's pages + CQE.
    fn dmas(&self) -> usize {
        let buffered = if self.hdr_len > self.room() {
            self.hdr_len
        } else {
            0
        };
        1 + (buffered + self.wlen).div_ceil(4096)
            + usize::from(self.reply_len > CQE_INLINE_CAP)
            + self.rlen().div_ceil(4096)
            + 1
    }
}

/// Header lengths on both sides of every capacity boundary, and anywhere.
fn arb_hdr_len() -> impl Strategy<Value = usize> {
    const EDGES: [usize; 11] = [0, 1, 15, 16, 17, 31, 32, 33, 47, 48, 49];
    prop_oneof![
        3 => (0..EDGES.len()).prop_map(|i| EDGES[i]),
        1 => 0usize..=64,
    ]
}

fn arb_raw_op() -> impl Strategy<Value = RawOp> {
    const REPLIES: [usize; 7] = [0, 1, 4, 5, 6, 9, 62];
    (
        arb_hdr_len(),
        prop_oneof![Just(0usize), 1usize..12_000],
        prop_oneof![
            Just(ReadSide::None),
            Just(ReadSide::Buffer(0)),
            (1u32..12_000).prop_map(ReadSide::Buffer),
        ],
        (0..REPLIES.len()).prop_map(|i| REPLIES[i]),
    )
        .prop_map(|(hdr_len, wlen, read, reply_len)| RawOp {
            hdr_len,
            wlen,
            read,
            // With no read side the CQE is all a reply can ride.
            reply_len: if read == ReadSide::None {
                reply_len.min(CQE_INLINE_CAP)
            } else {
                reply_len
            },
        })
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
        prop_assert!(back.is_bidirectional());
        prop_assert!(back.is_vendor());
    }

    #[test]
    fn queue_moves_arbitrary_payloads_with_exact_dma_count(
        wlen in 0usize..20_000,
        rlen in 0usize..20_000,
        seed in any::<u8>(),
    ) {
        let dma = DmaEngine::new();
        let (mut chans, mut tgts) = create_fabric(
            1,
            QueuePairConfig { depth: 4, max_io_bytes: 64 * 1024 },
            &dma,
        );
        let chan = &mut chans[0];
        let tgt = &mut tgts[0];

        let wdata: Vec<u8> = (0..wlen).map(|i| (i as u8).wrapping_add(seed)).collect();
        let rdata: Vec<u8> = (0..rlen).map(|i| (i as u8).wrapping_mul(seed | 1)).collect();

        let before = dma.snapshot();
        let req = FileRequest::Write { ino: 1, offset: 0, len: wlen as u32 };
        chan.submit(DispatchType::Standalone, &req, &wdata, rlen as u32).unwrap();
        let inc = tgt.poll().unwrap();
        prop_assert_eq!(&inc.payload, &wdata);
        tgt.reply(inc.slot, &FileResponse::Bytes(rlen as u32), &rdata);
        let done = loop {
            if let Some(d) = chan.poll() { break d.unwrap(); }
        };
        prop_assert_eq!(&done.payload, &rdata);

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

    #[test]
    fn a_header_costs_a_dma_iff_it_does_not_fit(
        ops in proptest::collection::vec(arb_raw_op(), 1..24),
        seed in any::<u8>(),
    ) {
        // Pairs of commands in flight on a 4-deep ring (so the sequence
        // wraps it and flips the phase several times), completed in
        // reverse: SQE-borne and buffer-resident headers side by side.
        let dma = DmaEngine::new();
        let (mut ini, mut tgt) = QueuePair::new(
            0,
            QueuePairConfig { depth: 4, max_io_bytes: 16 * 1024 },
        )
        .split(dma.clone());
        let bytes = |n: usize, salt: u8| -> Vec<u8> {
            (0..n).map(|i| (i as u8).wrapping_mul(7) ^ salt ^ seed).collect()
        };
        for pair in ops.chunks(2) {
            let before = dma.snapshot();
            let mut cids = Vec::new();
            for (i, op) in pair.iter().enumerate() {
                let cid = ini
                    .submit(
                        DispatchType::Standalone,
                        &bytes(op.hdr_len, i as u8),
                        &bytes(op.wlen, 0x10 | i as u8),
                        op.read,
                    )
                    .unwrap();
                cids.push(cid);
            }
            let incs: Vec<_> = pair.iter().map(|_| tgt.poll().unwrap()).collect();
            for (i, (op, inc)) in pair.iter().zip(&incs).enumerate().rev() {
                prop_assert_eq!(inc.slot, cids[i]);
                prop_assert_eq!(inc.sqe.is_inline(), op.hdr_len <= op.room());
                prop_assert_eq!(&inc.header, &bytes(op.hdr_len, i as u8));
                prop_assert_eq!(&inc.payload, &bytes(op.wlen, 0x10 | i as u8));
                tgt.complete(
                    inc.slot,
                    CqeStatus::Success,
                    &bytes(op.reply_len, 0x20 | i as u8),
                    &bytes(op.rlen(), 0x30 | i as u8),
                );
            }
            for (i, op) in pair.iter().enumerate().rev() {
                let done = ini.wait();
                prop_assert_eq!(done.cid, cids[i]);
                prop_assert_eq!(done.status, CqeStatus::Success);
                prop_assert_eq!(&done.header, &bytes(op.reply_len, 0x20 | i as u8));
                prop_assert_eq!(&done.payload, &bytes(op.rlen(), 0x30 | i as u8));
            }
            let want: usize = pair.iter().map(RawOp::dmas).sum();
            prop_assert_eq!(dma.snapshot().since(&before).dma_ops as usize, want);
        }
        prop_assert_eq!(ini.rejected_sqes(), 0);
    }
}
