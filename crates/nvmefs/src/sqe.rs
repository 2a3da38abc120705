//! The nvme-fs submission and completion entries.
//!
//! §3.2 of the paper augments the NVMe protocol with a vendor-specific
//! *bidirectional* command so a single SQE carries both a write buffer
//! (request header + data to the DPU) and a read buffer (response header +
//! data back from the DPU). The bit layout implemented here follows the
//! paper exactly:
//!
//! - **Opcode** (Dword0 bits 0–7) = `0xA3`: bits 0–1 = `11b`
//!   (bidirectional transfer), bits 2–6 = `01000b` (the nvme-fs function),
//!   bit 7 = `1b` (vendor-specific).
//! - **Dispatch type** (Dword0 bit 10): `0` = standalone file request
//!   (routed to KVFS), `1` = distributed file request (routed to the DFS
//!   client).
//! - **PSDT** (Dword0 bits 14–15): `00b` selects PRP for both directions
//!   (the paper's default); `SGL` is representable but unused.
//! - **CID** (Dword0 bits 16–31): command identifier.
//! - **PRP Write** in Dwords 2–5 and **PRP Read** in Dwords 6–9.
//! - **Write_len** in Dword 10, **Read_len** in Dword 11.
//! - **WH_len / RH_len** (write/read header lengths) in Dword 13.
//!
//! # The inline form
//!
//! A DMA's cost is its transaction, not its bytes, so control words travel
//! in the descriptors and only data takes a data transfer. There is one
//! inline form, opaque to what the header means, chosen by a length test
//! on bytes the sender already holds — a header that fits never touches
//! the transport buffer, one that does not takes the buffer as before.
//!
//! **SQE.** Dword0 bit 11 (reserved in NVMe, unused by the paper) says the
//! `WH_len` request-header bytes are in this entry, little-endian, filling
//! in order the Dwords the entry's own fields leave idle:
//!
//! | Dwords     | bytes | free when                                        |
//! |------------|-------|--------------------------------------------------|
//! | 1, 14, 15  | 12    | always                                           |
//! | 12         | 4     | PSDT = PRP (it is `sgl_count` under SGL)         |
//! | 2–5        | 16    | PSDT = PRP and `Write_len == 0` (no PRP-Write)   |
//! | 6–9        | 16    | `Read_len == 0 && RH_len == 0` (no PRP-Read)     |
//!
//! That is 16 B for any PRP command, 32 B for one with no write payload
//! (`Read`: 21 B) or no read side (`Write`: 21 B ahead of a page-aligned
//! payload), 48 B with neither. The paper-named fields stay where the
//! paper puts them whenever the direction they describe moves bytes. The
//! target computes the same capacity from the same fields; an entry whose
//! `WH_len` exceeds it is refused, never followed.
//!
//! **CQE.** A reply header rides the completion whenever its form holds
//! it, in one of two forms the header-length byte names:
//!
//! | bytes | narrow form (beside a payload) | wide form (no payload)   |
//! |-------|--------------------------------|--------------------------|
//! | 0–3   | `result`: payload length       | header bytes 5–8         |
//! | 4     | bit 7 = 0; bits 0–6 `hdr_len`  | bit 7 = 1; bits 0–6 `hdr_len` |
//! | 5–7   | header bytes 0–2               | header bytes 0–2         |
//! | 8–9   | `sq_head`                      | `sq_head`                |
//! | 10–11 | header bytes 3–4               | header bytes 3–4         |
//! | 12–13 | `cid`                          | `cid`                    |
//! | 14–15 | status, phase                  | status, phase            |
//!
//! The narrow form holds [`CQE_INLINE_CAP`] header bytes in bytes NVMe
//! reserves. A reply with no payload has a `result` of 0, and NVMe makes
//! Dword 0 command-specific: the wide form spends it on four more header
//! bytes, [`CQE_WIDE_CAP`] in all, and `result` reads as 0. `sq_head`,
//! `cid`, status and phase never move. A header longer than its form
//! holds is written to the read buffer as before; `hdr_len` past the
//! form's room says so.

/// The vendor-specific bidirectional nvme-fs opcode.
const OPCODE_NVMEFS: u8 = 0xA3;

/// Size of one submission queue entry, per the NVMe spec.
pub const SQE_SIZE: usize = 64;
/// Size of one completion queue entry, per the NVMe spec.
pub const CQE_SIZE: usize = 16;

/// Where a request is routed by the DPU's IO-dispatch (Dword0 bit 10).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DispatchType {
    /// Standalone file request — handled by KVFS.
    Standalone,
    /// Distributed file request — handled by the DFS client stack.
    Distributed,
}

/// Data-buffer descriptor selector (Dword0 bits 14–15, the PSDT field).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum Psdt {
    /// Physical Region Page entries — the nvme-fs default.
    Prp,
    /// Scatter-gather list (write direction).
    SglWrite,
    /// Scatter-gather list (read direction).
    SglRead,
    /// Scatter-gather list (both directions).
    SglBoth,
}

/// Dword0 bit 11: the request header rides in the SQE (module docs).
const INLINE_BIT: u32 = 1 << 11;

/// Every Dword that can carry inline header bytes, in fill order; which
/// of them a given entry may use depends on its own fields.
const INLINE_DWORDS: [usize; 12] = [1, 12, 14, 15, 2, 3, 4, 5, 6, 7, 8, 9];

/// Reply-header bytes a CQE carries beside a payload (the narrow form).
pub(crate) const CQE_INLINE_CAP: usize = 5;

/// Reply-header bytes a CQE carries when the reply has no payload (the
/// wide form: Dword 0 holds four of them).
pub const CQE_WIDE_CAP: usize = 9;

/// Bit 7 of the header-length byte: this CQE uses the wide form.
const WIDE_BIT: u8 = 0x80;

/// A 64-byte nvme-fs submission queue entry.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Sqe {
    dwords: [u32; 16],
}

impl Default for Sqe {
    fn default() -> Self {
        Self::new()
    }
}

impl Sqe {
    /// A zeroed entry carrying the nvme-fs opcode with PRP transfer and
    /// standalone dispatch.
    pub fn new() -> Sqe {
        let mut s = Sqe { dwords: [0; 16] };
        s.dwords[0] = OPCODE_NVMEFS as u32;
        s
    }

    pub fn opcode(&self) -> u8 {
        (self.dwords[0] & 0xFF) as u8
    }

    pub fn set_dispatch(&mut self, d: DispatchType) -> &mut Self {
        match d {
            DispatchType::Standalone => self.dwords[0] &= !(1 << 10),
            DispatchType::Distributed => self.dwords[0] |= 1 << 10,
        }
        self
    }

    pub(crate) fn dispatch(&self) -> DispatchType {
        if self.dwords[0] & (1 << 10) == 0 {
            DispatchType::Standalone
        } else {
            DispatchType::Distributed
        }
    }

    pub(crate) fn set_psdt(&mut self, p: Psdt) -> &mut Self {
        let bits = match p {
            Psdt::Prp => 0b00,
            Psdt::SglWrite => 0b01,
            Psdt::SglRead => 0b10,
            Psdt::SglBoth => 0b11,
        };
        self.dwords[0] = (self.dwords[0] & !(0b11 << 14)) | (bits << 14);
        self
    }

    pub(crate) fn psdt(&self) -> Psdt {
        match (self.dwords[0] >> 14) & 0b11 {
            0b00 => Psdt::Prp,
            0b01 => Psdt::SglWrite,
            0b10 => Psdt::SglRead,
            _ => Psdt::SglBoth,
        }
    }

    pub fn set_cid(&mut self, cid: u16) -> &mut Self {
        self.dwords[0] = (self.dwords[0] & 0x0000_FFFF) | ((cid as u32) << 16);
        self
    }

    pub(crate) fn cid(&self) -> u16 {
        (self.dwords[0] >> 16) as u16
    }

    /// PRP of the host write buffer (request header + data), Dwords 2–5.
    pub fn set_prp_write(&mut self, addr: u64, addr2: u64) -> &mut Self {
        self.dwords[2] = addr as u32;
        self.dwords[3] = (addr >> 32) as u32;
        self.dwords[4] = addr2 as u32;
        self.dwords[5] = (addr2 >> 32) as u32;
        self
    }

    pub(crate) fn prp_write(&self) -> (u64, u64) {
        (
            self.dwords[2] as u64 | ((self.dwords[3] as u64) << 32),
            self.dwords[4] as u64 | ((self.dwords[5] as u64) << 32),
        )
    }

    /// PRP of the host read buffer (response header + data), Dwords 6–9.
    pub fn set_prp_read(&mut self, addr: u64, addr2: u64) -> &mut Self {
        self.dwords[6] = addr as u32;
        self.dwords[7] = (addr >> 32) as u32;
        self.dwords[8] = addr2 as u32;
        self.dwords[9] = (addr2 >> 32) as u32;
        self
    }

    pub(crate) fn prp_read(&self) -> (u64, u64) {
        (
            self.dwords[6] as u64 | ((self.dwords[7] as u64) << 32),
            self.dwords[8] as u64 | ((self.dwords[9] as u64) << 32),
        )
    }

    /// Bytes the host is writing to the DPU (payload, excluding header).
    pub fn set_write_len(&mut self, len: u32) -> &mut Self {
        self.dwords[10] = len;
        self
    }

    pub(crate) fn write_len(&self) -> u32 {
        self.dwords[10]
    }

    /// Bytes the host expects back from the DPU (payload, excluding header).
    pub fn set_read_len(&mut self, len: u32) -> &mut Self {
        self.dwords[11] = len;
        self
    }

    pub(crate) fn read_len(&self) -> u32 {
        self.dwords[11]
    }

    /// Number of scatter-gather segments in the write-side SGL
    /// (Dword 12; meaningful only when PSDT selects SGL).
    pub(crate) fn set_sgl_count(&mut self, n: u32) -> &mut Self {
        self.dwords[12] = n;
        self
    }

    pub(crate) fn sgl_count(&self) -> u32 {
        self.dwords[12]
    }

    /// Write-header length (low half of Dword 13).
    pub fn set_wh_len(&mut self, len: u16) -> &mut Self {
        self.dwords[13] = (self.dwords[13] & 0xFFFF_0000) | len as u32;
        self
    }

    pub(crate) fn wh_len(&self) -> u16 {
        (self.dwords[13] & 0xFFFF) as u16
    }

    /// Read-header length (high half of Dword 13).
    pub fn set_rh_len(&mut self, len: u16) -> &mut Self {
        self.dwords[13] = (self.dwords[13] & 0x0000_FFFF) | ((len as u32) << 16);
        self
    }

    pub(crate) fn rh_len(&self) -> u16 {
        (self.dwords[13] >> 16) as u16
    }

    /// The Dwords this entry's own fields leave free for inline header
    /// bytes, in fill order (module docs have the table).
    fn inline_dwords(&self) -> impl Iterator<Item = usize> + 'static {
        let prp = self.psdt() == Psdt::Prp;
        let no_write = prp && self.write_len() == 0;
        let no_read = self.read_len() == 0 && self.rh_len() == 0;
        INLINE_DWORDS.into_iter().filter(move |dw| match dw {
            12 => prp,
            2..=5 => no_write,
            6..=9 => no_read,
            _ => true,
        })
    }

    /// Request-header bytes this entry has room for, given its PSDT,
    /// `Write_len`, `Read_len` and `RH_len`.
    fn inline_capacity(&self) -> usize {
        self.inline_dwords().count() * 4
    }

    /// Carry `header` in the entry itself. Call once every other field is
    /// set: the room depends on them. `false` (entry untouched) when the
    /// header does not fit.
    pub(crate) fn set_inline_header(&mut self, header: &[u8]) -> bool {
        if header.len() > self.inline_capacity() {
            return false;
        }
        for (dw, chunk) in self.inline_dwords().zip(header.chunks(4)) {
            let mut word = [0u8; 4];
            word[..chunk.len()].copy_from_slice(chunk);
            self.dwords[dw] = u32::from_le_bytes(word);
        }
        self.dwords[0] |= INLINE_BIT;
        self.set_wh_len(header.len() as u16);
        true
    }

    /// Whether the request header rides in this entry.
    pub(crate) fn is_inline(&self) -> bool {
        self.dwords[0] & INLINE_BIT != 0
    }

    /// Append the inline request header to `out`. `false` (nothing
    /// appended) when the entry is not inline, or claims more header
    /// bytes than its own fields leave room for.
    pub(crate) fn inline_header(&self, out: &mut Vec<u8>) -> bool {
        let len = self.wh_len() as usize;
        if !self.is_inline() || len > self.inline_capacity() {
            return false;
        }
        let start = out.len();
        for dw in self.inline_dwords().take(len.div_ceil(4)) {
            out.extend_from_slice(&self.dwords[dw].to_le_bytes());
        }
        out.truncate(start + len);
        true
    }

    pub fn to_bytes(&self) -> [u8; SQE_SIZE] {
        let mut out = [0u8; SQE_SIZE];
        for (i, dw) in self.dwords.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&dw.to_le_bytes());
        }
        out
    }

    pub fn from_bytes(bytes: &[u8; SQE_SIZE]) -> Sqe {
        let mut dwords = [0u32; 16];
        for (i, dw) in dwords.iter_mut().enumerate() {
            *dw = u32::from_le_bytes(bytes[i * 4..(i + 1) * 4].try_into().unwrap());
        }
        Sqe { dwords }
    }
}

/// Completion status codes posted by the DPU.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum CqeStatus {
    Success = 0,
    /// File-layer error; the response header carries the errno.
    FsError = 1,
    /// Malformed command.
    InvalidCommand = 2,
    /// Link-level transport failure: the command was received but not
    /// executed (the DPU sheds it under fault injection or link stress).
    /// Safe to reissue — the host pool retries idempotent requests.
    TransportError = 3,
}

impl CqeStatus {
    fn from_bits(b: u8) -> CqeStatus {
        match b {
            0 => CqeStatus::Success,
            1 => CqeStatus::FsError,
            3 => CqeStatus::TransportError,
            _ => CqeStatus::InvalidCommand,
        }
    }
}

/// A 16-byte completion queue entry.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Cqe {
    /// Command-specific result: bytes of response payload actually
    /// produced. Always 0 in the wide form.
    pub result: u32,
    /// Bytes of response header (7 bits on the wire). Up to
    /// [`inline_cap`](Self::inline_cap) they are `inline[..hdr_len]` and
    /// no header DMA was spent; more, and the header sits at the start of
    /// the read buffer.
    pub hdr_len: u8,
    /// The wide form: Dword 0 carries header bytes, not `result`.
    pub wide: bool,
    /// The response header itself, when its form holds it (zero-padded;
    /// the narrow form uses the first [`CQE_INLINE_CAP`] bytes).
    pub inline: [u8; CQE_WIDE_CAP],
    /// SQ head pointer at completion time (flow control back to the host).
    pub sq_head: u16,
    pub status: CqeStatus,
    pub cid: u16,
    /// Phase tag: flips each time the CQ ring wraps, so the host can detect
    /// fresh entries without a head register read.
    pub phase: bool,
}

impl Cqe {
    /// Reply-header bytes a completion holds beside a `result`-byte
    /// payload: the wide form's room when there is none.
    pub fn room(result: u32) -> usize {
        if result == 0 {
            CQE_WIDE_CAP
        } else {
            CQE_INLINE_CAP
        }
    }

    /// The completion of command `cid` with a `result`-byte payload and
    /// `header`: the header inside, in the narrow form when that holds it
    /// and in the wide one when only that does, else only its length.
    /// `sq_head` and `phase` are the poster's to fill.
    pub fn reply(cid: u16, status: CqeStatus, result: u32, header: &[u8]) -> Cqe {
        let mut inline = [0u8; CQE_WIDE_CAP];
        let fits = header.len() <= Cqe::room(result);
        if fits {
            inline[..header.len()].copy_from_slice(header);
        }
        Cqe {
            result,
            hdr_len: header.len() as u8,
            wide: fits && header.len() > CQE_INLINE_CAP,
            inline,
            sq_head: 0,
            status,
            cid,
            phase: false,
        }
    }

    /// Reply-header bytes this completion's form holds.
    pub fn inline_cap(&self) -> usize {
        if self.wide {
            CQE_WIDE_CAP
        } else {
            CQE_INLINE_CAP
        }
    }

    /// The inline response header, if this completion carries it.
    pub fn inline_header(&self) -> Option<&[u8]> {
        let len = self.hdr_len as usize;
        (len <= self.inline_cap()).then(|| &self.inline[..len])
    }

    pub fn to_bytes(self) -> [u8; CQE_SIZE] {
        let mut out = [0u8; CQE_SIZE];
        if self.wide {
            out[0..4].copy_from_slice(&self.inline[5..]);
            out[4] = self.hdr_len | WIDE_BIT;
        } else {
            out[0..4].copy_from_slice(&self.result.to_le_bytes());
            out[4] = self.hdr_len & !WIDE_BIT;
        }
        out[5..8].copy_from_slice(&self.inline[..3]);
        out[8..10].copy_from_slice(&self.sq_head.to_le_bytes());
        out[10..12].copy_from_slice(&self.inline[3..5]);
        out[12..14].copy_from_slice(&self.cid.to_le_bytes());
        let status_phase = ((self.status as u16) << 1) | self.phase as u16;
        out[14..16].copy_from_slice(&status_phase.to_le_bytes());
        out
    }

    pub fn from_bytes(bytes: &[u8; CQE_SIZE]) -> Cqe {
        let status_phase = u16::from_le_bytes(bytes[14..16].try_into().unwrap());
        let wide = bytes[4] & WIDE_BIT != 0;
        let mut inline = [0u8; CQE_WIDE_CAP];
        inline[..3].copy_from_slice(&bytes[5..8]);
        inline[3..5].copy_from_slice(&bytes[10..12]);
        let mut result = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        if wide {
            inline[5..].copy_from_slice(&bytes[0..4]);
            result = 0;
        }
        Cqe {
            result,
            hdr_len: bytes[4] & !WIDE_BIT,
            wide,
            inline,
            sq_head: u16::from_le_bytes(bytes[8..10].try_into().unwrap()),
            cid: u16::from_le_bytes(bytes[12..14].try_into().unwrap()),
            status: CqeStatus::from_bits((status_phase >> 1) as u8 & 0x7F),
            phase: status_phase & 1 == 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_bit_layout_matches_paper() {
        let op = Sqe::new().opcode();
        assert_eq!(op, 0xA3);
        assert_eq!(op & 0b11, 0b11, "low bits must be 11b (bidirectional)");
        assert_eq!((op >> 2) & 0x1F, 0b01000, "function field must be 01000b");
        assert_ne!(op & 0x80, 0, "high bit must mark vendor command");
    }

    #[test]
    fn dispatch_bit_is_dword0_bit10() {
        let mut s = Sqe::new();
        assert_eq!(s.dispatch(), DispatchType::Standalone);
        s.set_dispatch(DispatchType::Distributed);
        assert_eq!(s.dispatch(), DispatchType::Distributed);
        // Bit 10 set, opcode untouched.
        let raw = s.to_bytes();
        assert_eq!(raw[0], 0xA3);
        assert_eq!(raw[1] & 0b100, 0b100); // bit 10 = byte1 bit2
        s.set_dispatch(DispatchType::Standalone);
        assert_eq!(s.to_bytes()[1] & 0b100, 0);
    }

    #[test]
    fn psdt_default_prp() {
        let mut s = Sqe::new();
        assert_eq!(s.psdt(), Psdt::Prp);
        s.set_psdt(Psdt::SglBoth);
        assert_eq!(s.psdt(), Psdt::SglBoth);
        // Bits 14-15 of dword0 = byte1 bits 6-7.
        assert_eq!(s.to_bytes()[1] >> 6, 0b11);
        s.set_psdt(Psdt::Prp);
        assert_eq!(s.psdt(), Psdt::Prp);
    }

    #[test]
    fn field_round_trips() {
        let mut s = Sqe::new();
        s.set_cid(0xBEEF)
            .set_prp_write(0x1122_3344_5566_7788, 0x99AA)
            .set_prp_read(0xDEAD_BEEF_0000_1111, 0x2222)
            .set_write_len(8192)
            .set_read_len(4096)
            .set_wh_len(48)
            .set_rh_len(32)
            .set_dispatch(DispatchType::Distributed);
        let back = Sqe::from_bytes(&s.to_bytes());
        assert_eq!(back, s);
        assert_eq!(back.cid(), 0xBEEF);
        assert_eq!(back.prp_write(), (0x1122_3344_5566_7788, 0x99AA));
        assert_eq!(back.prp_read(), (0xDEAD_BEEF_0000_1111, 0x2222));
        assert_eq!(back.write_len(), 8192);
        assert_eq!(back.read_len(), 4096);
        assert_eq!(back.wh_len(), 48);
        assert_eq!(back.rh_len(), 32);
        assert_eq!(back.dispatch(), DispatchType::Distributed);
        assert_eq!(back.opcode(), 0xA3);
    }

    #[test]
    fn wh_rh_share_dword13() {
        let mut s = Sqe::new();
        s.set_wh_len(0x1234).set_rh_len(0x5678);
        assert_eq!(s.wh_len(), 0x1234);
        assert_eq!(s.rh_len(), 0x5678);
        // Setting one must not clobber the other.
        s.set_wh_len(0x0001);
        assert_eq!(s.rh_len(), 0x5678);
    }

    #[test]
    fn inline_header_round_trips_and_stays_dormant() {
        // An entry nobody inlined into never reads as inline.
        let mut s = Sqe::new();
        assert!(!s.is_inline());
        s.set_cid(7).set_write_len(8192).set_wh_len(21);
        let back = Sqe::from_bytes(&s.to_bytes());
        assert!(!back.is_inline() && !back.inline_header(&mut Vec::new()));

        // (PSDT, Write_len, Read_len, RH_len) → room.
        let shapes = [
            (Psdt::Prp, 8192, 4096, 64, 16),
            (Psdt::Prp, 0, 8192, 64, 32),
            (Psdt::Prp, 8192, 0, 0, 32),
            (Psdt::Prp, 0, 0, 0, 48),
            (Psdt::Prp, 0, 0, 64, 32), // a reply header alone is a read side
            (Psdt::SglWrite, 8192, 0, 64, 12),
            (Psdt::SglWrite, 8192, 0, 0, 28),
            (Psdt::SglWrite, 0, 0, 0, 28), // Dwords 2–5 name the list
        ];
        let header: Vec<u8> = (1..=49).collect();
        for (psdt, wlen, rlen, rh, room) in shapes {
            let mut base = Sqe::new();
            base.set_cid(0xBEEF)
                .set_dispatch(DispatchType::Distributed)
                .set_psdt(psdt)
                .set_prp_write(0x1122_3344_5566_7788, 0)
                .set_prp_read(0x99AA_BBCC_DDEE_FF00, 0)
                .set_write_len(wlen)
                .set_read_len(rlen)
                .set_sgl_count(3)
                .set_rh_len(rh);
            assert_eq!(base.inline_capacity(), room, "{psdt:?} {wlen} {rlen} {rh}");
            for len in 0..=room {
                let mut s = base;
                assert!(s.set_inline_header(&header[..len]));
                let back = Sqe::from_bytes(&s.to_bytes());
                let mut got = vec![0xEE];
                assert!(back.is_inline() && back.inline_header(&mut got));
                assert_eq!(got[1..], header[..len], "appended, {len} of {room}");
                // The fields of a direction that moves bytes are intact.
                assert_eq!(back.opcode(), 0xA3);
                assert_eq!(back.cid(), 0xBEEF);
                assert_eq!(back.dispatch(), DispatchType::Distributed);
                assert_eq!(back.psdt(), psdt);
                assert_eq!((back.write_len(), back.read_len()), (wlen, rlen));
                assert_eq!((back.wh_len(), back.rh_len()), (len as u16, rh));
                if wlen > 0 || psdt != Psdt::Prp {
                    assert_eq!(back.prp_write(), (0x1122_3344_5566_7788, 0));
                }
                if rlen > 0 || rh > 0 {
                    assert_eq!(back.prp_read(), (0x99AA_BBCC_DDEE_FF00, 0));
                }
                if psdt != Psdt::Prp {
                    assert_eq!(back.sgl_count(), 3);
                }
            }
            // One byte more does not fit, and leaves the entry alone.
            let mut s = base;
            assert!(!s.set_inline_header(&header[..room + 1]));
            assert_eq!(s, base);
            // A claimed length past the room is refused on the way out.
            let mut s = base;
            assert!(s.set_inline_header(&header[..room]));
            s.set_wh_len(room as u16 + 1);
            assert!(!s.inline_header(&mut Vec::new()));
        }
    }

    #[test]
    fn cqe_round_trip() {
        let c = Cqe {
            result: 8192,
            hdr_len: 21,
            wide: false,
            inline: [0; CQE_WIDE_CAP],
            sq_head: 17,
            status: CqeStatus::FsError,
            cid: 0xABCD,
            phase: true,
        };
        let back = Cqe::from_bytes(&c.to_bytes());
        assert_eq!(back, c);
        assert_eq!(back.inline_header(), None, "21 bytes sit in the buffer");
        let c2 = Cqe {
            phase: false,
            status: CqeStatus::Success,
            ..c
        };
        assert_eq!(Cqe::from_bytes(&c2.to_bytes()), c2);
    }

    #[test]
    fn cqe_inline_header_sits_in_reserved_bytes_only() {
        for len in 0..=CQE_INLINE_CAP {
            let mut inline = [0u8; CQE_WIDE_CAP];
            inline[..len].fill(0xFF);
            let c = Cqe {
                result: u32::MAX,
                hdr_len: len as u8,
                wide: false,
                inline,
                sq_head: 0x1234,
                status: CqeStatus::TransportError,
                cid: 0x5678,
                phase: len % 2 == 0,
            };
            let raw = c.to_bytes();
            let back = Cqe::from_bytes(&raw);
            assert_eq!(back, c);
            assert_eq!(back.inline_header(), Some(&inline[..len]));
            // result, sq_head, cid, status and phase are where they were.
            assert_eq!(raw[0..4], [0xFF; 4]);
            assert_eq!(raw[8..10], 0x1234u16.to_le_bytes());
            assert_eq!(raw[12..14], 0x5678u16.to_le_bytes());
            assert_eq!(raw[14], (3 << 1) | (len % 2 == 0) as u8);
        }
    }

    #[test]
    fn every_header_length_round_trips_in_both_forms() {
        let header: Vec<u8> = (0xA0..0xAA).collect();
        for result in [0, 1, 4096, u32::MAX] {
            for len in 0..=CQE_WIDE_CAP + 1 {
                let mut c = Cqe::reply(0x5678, CqeStatus::Success, result, &header[..len]);
                (c.sq_head, c.phase) = (0x1234, true);
                let raw = c.to_bytes();
                let back = Cqe::from_bytes(&raw);
                assert_eq!(back, c, "result {result}, header {len}");
                // The form is the narrow one while it holds the header,
                // the wide one only with no payload beside it.
                let narrow = len <= CQE_INLINE_CAP;
                let wide = !narrow && result == 0 && len <= CQE_WIDE_CAP;
                assert_eq!(back.wide, wide, "result {result}, header {len}");
                assert_eq!(raw[4] & WIDE_BIT != 0, wide);
                assert_eq!(back.hdr_len as usize, len);
                let inside = (narrow || wide).then_some(&header[..len]);
                assert_eq!(
                    back.inline_header(),
                    inside,
                    "result {result}, header {len}"
                );
                assert_eq!(back.result, result);
                // Dword 0 is `result` unless the wide form took it.
                if !wide {
                    assert_eq!(raw[0..4], result.to_le_bytes());
                }
                assert_eq!(raw[8..10], 0x1234u16.to_le_bytes());
                assert_eq!(raw[12..14], 0x5678u16.to_le_bytes());
                assert_eq!(raw[14..16], [1, 0], "status Success, phase 1");
            }
        }
        // A wide CQE reads its `result` as 0, whatever Dword 0 holds.
        let mut raw = Cqe::reply(1, CqeStatus::Success, 0, &header[..9]).to_bytes();
        assert_eq!(raw[0..4], header[5..9]);
        assert_eq!(Cqe::from_bytes(&raw).result, 0);
        // A claim past its form's room is a header in the buffer.
        raw[4] = WIDE_BIT | 10;
        let forged = Cqe::from_bytes(&raw);
        assert!(forged.wide && forged.hdr_len == 10);
        assert_eq!(forged.inline_header(), None);
    }

    #[test]
    fn sqe_is_64_bytes() {
        assert_eq!(std::mem::size_of::<Sqe>(), SQE_SIZE);
        assert_eq!(Sqe::new().to_bytes().len(), SQE_SIZE);
    }
}
