//! Uncached I/O against the hybrid cache: `IoMode::Direct` reads and
//! writes and `writev` follow one O_DIRECT rule — the dirty cached pages
//! they overlap reach the backend first, the pages a write touched leave
//! the cache afterwards — and move any size in transport-buffer-sized
//! commands: an oversize call returns bytes or an errno, never a panic.
//! So does every other call under the smallest transport buffer the
//! config accepts: an uncached listing asks for what the buffer holds, and
//! a command larger than its buffer is EINVAL.

use dpc::core::{Dpc, DpcConfig, DpcError, DpcFs, IoMode};
use dpc_testkit::fill;

/// A buffered and a direct adapter over one instance.
fn adapters(dpc: &Dpc) -> (DpcFs, DpcFs) {
    let mut direct = dpc.fs();
    direct.mode = IoMode::Direct;
    (dpc.fs(), direct)
}

/// Bytes that differ page to page, so a misplaced piece shows.
/// What the store itself holds for `path`.
fn stored(dpc: &Dpc, path: &str, len: usize) -> Vec<u8> {
    let kvfs = dpc.kvfs_inner();
    let ino = kvfs.resolve(path).unwrap();
    let mut out = vec![0u8; len];
    let n = kvfs.read(ino, 0, &mut out).unwrap();
    out.truncate(n);
    out
}

#[test]
fn a_buffered_read_after_a_direct_write_sees_the_new_bytes() {
    let dpc = Dpc::new(DpcConfig::default());
    let (fs, direct) = adapters(&dpc);
    let fd = fs.create("/f").unwrap();
    fs.write(fd, 0, &[0xAA; 4096]).unwrap();
    fs.fsync(fd).unwrap(); // cached and clean
    let dfd = direct.open("/f").unwrap();
    assert_eq!(direct.write(dfd, 0, &[0xBB; 4096]).unwrap(), 4096);
    let mut back = [0u8; 4096];
    assert_eq!(fs.read(fd, 0, &mut back).unwrap(), 4096);
    assert_eq!(back, [0xBB; 4096], "the cache served the replaced bytes");
}

#[test]
fn a_direct_write_survives_the_next_buffered_fsync() {
    let dpc = Dpc::new(DpcConfig::default());
    let (fs, direct) = adapters(&dpc);
    let fd = fs.create("/f").unwrap();
    fs.write(fd, 0, &[0xAA; 4096]).unwrap(); // cached and dirty
    let dfd = direct.open("/f").unwrap();
    assert_eq!(direct.write(dfd, 0, &[0xBB; 4096]).unwrap(), 4096);
    fs.fsync(fd).unwrap();
    assert_eq!(
        stored(&dpc, "/f", 4096),
        [0xBB; 4096],
        "the older page was flushed over the direct write"
    );
    let mut back = [0u8; 4096];
    assert_eq!(fs.read(fd, 0, &mut back).unwrap(), 4096);
    assert_eq!(back, [0xBB; 4096]);
}

#[test]
fn a_direct_read_sees_a_dirty_page() {
    let dpc = Dpc::new(DpcConfig::default());
    let (fs, direct) = adapters(&dpc);
    let fd = fs.create("/f").unwrap();
    fs.write(fd, 0, &[0xAA; 4096]).unwrap(); // only in the cache
    let dfd = direct.open("/f").unwrap();
    let mut back = [0u8; 4096];
    assert_eq!(direct.read(dfd, 0, &mut back).unwrap(), 4096);
    assert_eq!(back, [0xAA; 4096]);
}

/// Twice the default transport buffer.
const OVERSIZE: usize = 2 << 20;

#[test]
fn an_oversize_direct_write_crosses_in_pieces() {
    let dpc = Dpc::new(DpcConfig::default());
    let (fs, direct) = adapters(&dpc);
    fs.close(fs.create("/big").unwrap()).unwrap();
    let fd = direct.open("/big").unwrap();
    let data = fill(1, OVERSIZE);
    assert_eq!(direct.write(fd, 0, &data).unwrap(), OVERSIZE);
    assert_eq!(direct.size(fd).unwrap(), OVERSIZE as u64);
    assert_eq!(stored(&dpc, "/big", OVERSIZE), data);
}

#[test]
fn an_oversize_writev_crosses_in_pieces() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    let fd = fs.create("/big").unwrap();
    let data = fill(2, OVERSIZE);
    let (a, b) = data.split_at(OVERSIZE / 2);
    assert_eq!(fs.writev(fd, 0, &[a, b]).unwrap(), OVERSIZE);
    assert_eq!(stored(&dpc, "/big", OVERSIZE), data);
}

#[test]
fn an_oversize_direct_read_reads_in_pieces() {
    let dpc = Dpc::new(DpcConfig::default());
    let data = fill(3, OVERSIZE);
    let ino = dpc.kvfs_inner().create("/big", 0o644).unwrap();
    dpc.kvfs_inner().write(ino, 0, &data).unwrap();
    let (_, direct) = adapters(&dpc);
    let fd = direct.open("/big").unwrap();
    let mut back = vec![0u8; OVERSIZE];
    assert_eq!(direct.read(fd, 0, &mut back).unwrap(), OVERSIZE);
    assert!(back == data, "an oversize direct read came back wrong");
}

#[test]
fn a_writev_of_more_segments_than_an_sgl_holds_crosses_in_pieces() {
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    let fd = fs.create("/gather").unwrap();
    let data = fill(4, 16 * 4096);
    let segments: Vec<&[u8]> = data.chunks(4096).collect();
    assert_eq!(fs.writev(fd, 0, &segments).unwrap(), data.len());
    assert_eq!(stored(&dpc, "/gather", data.len()), data);
}

#[test]
fn an_uncached_readdir_asks_for_what_the_transport_buffer_holds() {
    // 64 KiB transport buffers, which the config accepts. An uncached
    // listing asks for what the read half holds beside the reply header
    // and the walk trail — a fixed 512 KiB ask would not fit the buffer
    // and must not panic the caller — and a longer listing is the DPU's
    // ERANGE.
    let dpc = Dpc::new(DpcConfig {
        max_io_bytes: 64 << 10,
        ..DpcConfig::default()
    });
    let fs = dpc.fs();
    fs.mkdir("/d").unwrap();
    assert_eq!(fs.readdir("/d").unwrap(), []);
    // 70 entries of a 1 000-byte name, ~71 KiB of listing, asked for
    // with nothing in the name tables to answer it.
    dpc.meta_cache().set_budget(0);
    let name = |i: usize| format!("{i:04}{}", "n".repeat(996));
    for i in 0..70 {
        let fd = fs.create(&format!("/d/{}", name(i))).unwrap();
        fs.close(fd).unwrap();
    }
    // An entry is 1 013 bytes, and 65 463 are left beside the header and
    // the one-step trail: 65 entries do not fit, 64 do.
    for i in 0..5 {
        fs.unlink(&format!("/d/{}", name(i))).unwrap();
    }
    assert_eq!(fs.readdir("/d"), Err(DpcError(34 /* ERANGE */)));
    fs.unlink(&format!("/d/{}", name(5))).unwrap();
    assert_eq!(fs.readdir("/d").unwrap().len(), 64);
    assert_eq!(dpc.pool_stats().rejected_sqes, 0);
}

#[test]
fn a_command_larger_than_its_transport_buffer_is_einval_not_a_panic() {
    // The smallest buffer the config accepts, 4 160 bytes, and a rename
    // of two 4 KiB paths, which the adapter allows: its request header
    // (~8 KiB) fits neither the SQE nor the buffer. The initiator refuses
    // it before anything is sent, the way the target refuses a command it
    // cannot follow: EINVAL, counted — not a panic on the calling thread.
    let dpc = Dpc::new(DpcConfig {
        max_io_bytes: dpc::nvmefs::READ_HEADER_CAP + 4096,
        ..DpcConfig::default()
    });
    let fs = dpc.fs();
    let path = |c: &str| format!("/{}", vec![c.repeat(1000); 4].join("/"));
    let (from, to) = (path("a"), path("b"));
    assert!(from.len() > 4000 && to.len() > 4000);
    let (before, link) = (dpc.pool_stats(), dpc.pcie_snapshot());
    assert_eq!(fs.rename(&from, &to), Err(DpcError::INVALID));
    let after = dpc.pool_stats();
    assert_eq!(after.rejected_sqes - before.rejected_sqes, 1);
    assert_eq!(after.submitted - before.submitted, 1, "not reissued");
    // Refused on the host: the target would refuse it too, but only after
    // the header had been written past its buffer into the next one.
    let moved = dpc.pcie_snapshot().since(&link);
    assert_eq!((moved.doorbells, moved.dma_ops), (0, 0), "nothing was sent");
    // The queue it was refused on keeps working.
    fs.mkdir("/ok").unwrap();
    fs.stat("/ok").unwrap();
    assert_eq!(fs.readdir("/").unwrap().len(), 1);
}
