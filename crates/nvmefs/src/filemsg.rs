//! Native file-semantic messages carried by nvme-fs.
//!
//! The whole point of nvme-fs is to let the VFS talk to the DPU-offloaded
//! file stack *through file semantics* instead of block semantics: the
//! write buffer of the bidirectional command starts with a request header
//! ([`FileRequest`], `WH_len` bytes), followed by write payload; the read
//! buffer receives a response header ([`FileResponse`], `RH_len` bytes)
//! followed by read payload. This module defines those headers and their
//! compact wire encoding.

/// Maximum file or directory name length, per §3.4 of the paper
/// ("we have limited the length of the file or directory name to 1024
/// bytes").
pub const MAX_NAME_LEN: usize = 1024;

/// Maximum length of a path carried by one request (`PATH_MAX`).
pub const MAX_PATH_LEN: usize = 4096;

/// File attributes on the wire (the paper's 256-byte attribute structure,
/// here encoded compactly).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct WireAttr {
    pub ino: u64,
    pub size: u64,
    pub mode: u32,
    pub nlink: u32,
    pub uid: u32,
    pub gid: u32,
    pub atime_ns: u64,
    pub mtime_ns: u64,
    pub ctime_ns: u64,
    /// 0 = regular file, 1 = directory.
    pub kind: u8,
}

/// A file-semantic request from the host's fs-adapter to the DPU.
///
/// Namespace requests are openat-style: wherever a request names an entry
/// as `(parent, name)` or `(start, path)`, the second half may be a
/// `/`-separated path (≤ [`MAX_PATH_LEN`] bytes, components ≤
/// [`MAX_NAME_LEN`]) that the DPU walks from the first, following
/// symbolic links on the way — so the call costs one crossing whatever
/// its depth. `(parent, name)` requests act on the path's final
/// component under the directory the rest resolves to and never follow
/// that component; `(start, path)` requests resolve the whole path. The
/// reply's read payload ends with the walk's trail (see [`WireStep`]).
/// [`FileRequest::Lookup`] alone stays a one-component probe.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FileRequest {
    Lookup {
        parent: u64,
        name: String,
    },
    /// Resolve `path` from `start` and return the target's attributes
    /// (`stat`, `open`). An empty path is `start` itself.
    StatAt {
        start: u64,
        path: String,
    },
    /// Resolve `path` from `start` and list that directory; entries
    /// return in the read payload, ahead of the trail.
    ReaddirAt {
        start: u64,
        path: String,
    },
    /// Replies [`FileResponse::Ino`].
    Create {
        parent: u64,
        name: String,
        mode: u32,
    },
    Mkdir {
        parent: u64,
        name: String,
        mode: u32,
    },
    /// Read `len` bytes at `offset`; data returns in the read payload.
    Read {
        ino: u64,
        offset: u64,
        len: u32,
    },
    /// Write the write payload (`len` bytes) at `offset`.
    Write {
        ino: u64,
        offset: u64,
        len: u32,
    },
    Truncate {
        ino: u64,
        size: u64,
    },
    /// Replies [`FileResponse::Removed`]: the victim's inode, and whether
    /// this was its last name — the inode then died with it. The host
    /// reads nothing else, so the reply is 9 bytes and rides the CQE.
    Unlink {
        parent: u64,
        name: String,
    },
    Rmdir {
        parent: u64,
        name: String,
    },
    /// List a directory; entries return in the read payload.
    Readdir {
        ino: u64,
    },
    GetAttr {
        ino: u64,
    },
    /// Replies [`FileResponse::Removed`] of the inode the rename replaced
    /// (as for [`FileRequest::Unlink`]), [`FileResponse::Ok`] when the
    /// destination name was free: either rides the CQE.
    Rename {
        parent: u64,
        name: String,
        new_parent: u64,
        new_name: String,
    },
    /// Make the file's dirty pages durable. Replies [`FileResponse::Ok`]
    /// once they landed, each batch with the file's size, so the host has
    /// nothing to learn and nothing to send after it (DESIGN.md §4.6); it
    /// rides the CQE.
    Fsync {
        ino: u64,
    },
    /// Hybrid-cache control: the host failed to allocate in these buckets
    /// and notifies the DPU to perform cache replacement (§3.3's write
    /// protocol: "If it fails to allocate and lock, the host notifies the
    /// DPU to perform cache replacement"). One doorbell and one
    /// round-trip ask the DPU to free a slot per listed bucket (buckets
    /// may repeat — each occurrence is one needed slot): the write path
    /// collects all of a burst's `NeedEviction` misses into a single
    /// command instead of one round-trip per page.
    CacheEvictBatch {
        buckets: Vec<u64>,
    },
    /// Hard link: `new_parent`/`new_name` becomes another name for the
    /// file `name` resolves to from `parent` (symlinks followed). Replies
    /// [`FileResponse::Ok`]: the host learns the file's inode from the
    /// walk, and its new link count from its next `stat`.
    Link {
        parent: u64,
        name: String,
        new_parent: u64,
        new_name: String,
    },
    /// Symbolic link at `parent`/`name` pointing to `target`.
    Symlink {
        parent: u64,
        name: String,
        target: String,
    },
    /// Read the target of the symlink at `parent`/`name` (returned in the
    /// read payload, ahead of the trail).
    Readlink {
        parent: u64,
        name: String,
    },
    /// Readahead trigger: the host's demand read hit the marker page of a
    /// prefetched window (the analogue of Linux's `PG_readahead`), telling
    /// the DPU-side readahead state machine to queue the *next* window
    /// while the stream is still consuming this one. Fire-and-forget from
    /// the adapter's point of view; the DPU only adjusts prefetch state.
    ReadaheadHint {
        ino: u64,
        /// Logical page number of the marker page that was consumed.
        lpn: u64,
    },
}

/// A response header from the DPU.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FileResponse {
    Ok,
    /// Result of lookup/create/mkdir/symlink.
    Ino(u64),
    Attr(WireAttr),
    /// A name went away (unlink, a rename over it): the inode it named,
    /// and whether that was its last name.
    Removed {
        ino: u64,
        last: bool,
    },
    /// Bytes of payload actually read or written.
    Bytes(u32),
    /// Number of directory entries in the read payload.
    Entries(u32),
    /// POSIX errno.
    Err(i32),
}

/// Decoding failure: truncated or malformed header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodeError(pub &'static str);

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "nvme-fs message decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

// ---- encoding helpers ------------------------------------------------

struct Writer<'a>(&'a mut Vec<u8>);

impl Writer<'_> {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i32(&mut self, v: i32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn name(&mut self, s: &str) {
        assert!(s.len() <= MAX_NAME_LEN, "name exceeds 1024 bytes");
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    /// A relative path (or a symlink target). Callers bound it before
    /// they build the request — the adapter answers `ENAMETOOLONG`.
    fn path(&mut self, s: &str) {
        assert!(s.len() <= MAX_PATH_LEN, "path exceeds 4096 bytes");
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError("truncated message"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn i32(&mut self) -> Result<i32, DecodeError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Borrow a length-prefixed name straight out of the buffer —
    /// UTF-8 validation in place, no copy.
    fn name_ref(&mut self) -> Result<&'a str, DecodeError> {
        self.str_ref(MAX_NAME_LEN, "name exceeds 1024 bytes")
    }
    fn name(&mut self) -> Result<String, DecodeError> {
        self.name_ref().map(str::to_owned)
    }
    fn path(&mut self) -> Result<String, DecodeError> {
        self.str_ref(MAX_PATH_LEN, "path exceeds 4096 bytes")
            .map(str::to_owned)
    }
    /// The claimed length is checked against `max` before a byte of it is
    /// looked at, and `take` refuses what the buffer does not hold.
    fn str_ref(&mut self, max: usize, too_long: &'static str) -> Result<&'a str, DecodeError> {
        let len = self.u32()? as usize;
        if len > max {
            return Err(DecodeError(too_long));
        }
        let bytes = self.take(len)?;
        core::str::from_utf8(bytes).map_err(|_| DecodeError("name is not UTF-8"))
    }
    fn done(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError("trailing bytes after message"))
        }
    }
}

// Request tags.
const T_LOOKUP: u8 = 1;
const T_CREATE: u8 = 2;
const T_MKDIR: u8 = 3;
const T_READ: u8 = 4;
const T_WRITE: u8 = 5;
const T_TRUNCATE: u8 = 6;
const T_UNLINK: u8 = 7;
const T_RMDIR: u8 = 8;
const T_READDIR: u8 = 9;
const T_GETATTR: u8 = 10;
const T_RENAME: u8 = 11;
const T_FSYNC: u8 = 12;
const T_LINK: u8 = 14;
const T_SYMLINK: u8 = 15;
const T_READLINK: u8 = 16;
const T_CACHE_EVICT_BATCH: u8 = 17;
const T_READAHEAD_HINT: u8 = 18;
const T_STAT_AT: u8 = 19;
const T_READDIR_AT: u8 = 20;

impl FileRequest {
    /// Append the wire form to `out`; returns the encoded length.
    pub fn encode(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        let mut w = Writer(out);
        match self {
            FileRequest::Lookup { parent, name } => {
                w.u8(T_LOOKUP);
                w.u64(*parent);
                w.name(name);
            }
            FileRequest::StatAt { start, path } => {
                w.u8(T_STAT_AT);
                w.u64(*start);
                w.path(path);
            }
            FileRequest::ReaddirAt { start, path } => {
                w.u8(T_READDIR_AT);
                w.u64(*start);
                w.path(path);
            }
            FileRequest::Create { parent, name, mode } => {
                w.u8(T_CREATE);
                w.u64(*parent);
                w.u32(*mode);
                w.path(name);
            }
            FileRequest::Mkdir { parent, name, mode } => {
                w.u8(T_MKDIR);
                w.u64(*parent);
                w.u32(*mode);
                w.path(name);
            }
            FileRequest::Read { ino, offset, len } => {
                w.u8(T_READ);
                w.u64(*ino);
                w.u64(*offset);
                w.u32(*len);
            }
            FileRequest::Write { ino, offset, len } => {
                w.u8(T_WRITE);
                w.u64(*ino);
                w.u64(*offset);
                w.u32(*len);
            }
            FileRequest::Truncate { ino, size } => {
                w.u8(T_TRUNCATE);
                w.u64(*ino);
                w.u64(*size);
            }
            FileRequest::Unlink { parent, name } => {
                w.u8(T_UNLINK);
                w.u64(*parent);
                w.path(name);
            }
            FileRequest::Rmdir { parent, name } => {
                w.u8(T_RMDIR);
                w.u64(*parent);
                w.path(name);
            }
            FileRequest::Readdir { ino } => {
                w.u8(T_READDIR);
                w.u64(*ino);
            }
            FileRequest::GetAttr { ino } => {
                w.u8(T_GETATTR);
                w.u64(*ino);
            }
            FileRequest::Rename {
                parent,
                name,
                new_parent,
                new_name,
            } => {
                w.u8(T_RENAME);
                w.u64(*parent);
                w.u64(*new_parent);
                w.path(name);
                w.path(new_name);
            }
            FileRequest::Fsync { ino } => {
                w.u8(T_FSYNC);
                w.u64(*ino);
            }
            FileRequest::CacheEvictBatch { buckets } => {
                w.u8(T_CACHE_EVICT_BATCH);
                w.u32(buckets.len() as u32);
                for b in buckets {
                    w.u64(*b);
                }
            }
            FileRequest::Link {
                parent,
                name,
                new_parent,
                new_name,
            } => {
                w.u8(T_LINK);
                w.u64(*parent);
                w.u64(*new_parent);
                w.path(name);
                w.path(new_name);
            }
            FileRequest::Symlink {
                parent,
                name,
                target,
            } => {
                w.u8(T_SYMLINK);
                w.u64(*parent);
                w.path(name);
                w.path(target);
            }
            FileRequest::Readlink { parent, name } => {
                w.u8(T_READLINK);
                w.u64(*parent);
                w.path(name);
            }
            FileRequest::ReadaheadHint { ino, lpn } => {
                w.u8(T_READAHEAD_HINT);
                w.u64(*ino);
                w.u64(*lpn);
            }
        }
        out.len() - start
    }

    /// Whether every reply to this request — success and each errno, on
    /// either backend — is a header a CQE carries with no payload beside
    /// it ([`CQE_WIDE_CAP`](crate::CQE_WIDE_CAP) bytes): `Ok`, `Ino`,
    /// `Removed`, `Bytes` or `Err`. Sent with no read payload
    /// expected, such a request needs no read side at all
    /// ([`ReadSide::None`](crate::ReadSide::None)), and its own header
    /// gets the SQE's PRP-Read Dwords. Only a reply with an `Attr`, or
    /// with a payload, needs the read buffer.
    pub fn reply_rides_cqe(&self) -> bool {
        matches!(
            self,
            FileRequest::Lookup { .. }
                | FileRequest::Create { .. }
                | FileRequest::Mkdir { .. }
                | FileRequest::Write { .. }
                | FileRequest::Truncate { .. }
                | FileRequest::Unlink { .. }
                | FileRequest::Rmdir { .. }
                | FileRequest::Rename { .. }
                | FileRequest::Fsync { .. }
                | FileRequest::CacheEvictBatch { .. }
                | FileRequest::Link { .. }
                | FileRequest::Symlink { .. }
                | FileRequest::ReadaheadHint { .. }
        )
    }

    pub fn decode(buf: &[u8]) -> Result<FileRequest, DecodeError> {
        let mut r = Reader { buf, pos: 0 };
        let req = match r.u8()? {
            T_LOOKUP => FileRequest::Lookup {
                parent: r.u64()?,
                name: r.name()?,
            },
            T_STAT_AT => FileRequest::StatAt {
                start: r.u64()?,
                path: r.path()?,
            },
            T_READDIR_AT => FileRequest::ReaddirAt {
                start: r.u64()?,
                path: r.path()?,
            },
            T_CREATE => FileRequest::Create {
                parent: r.u64()?,
                mode: r.u32()?,
                name: r.path()?,
            },
            T_MKDIR => FileRequest::Mkdir {
                parent: r.u64()?,
                mode: r.u32()?,
                name: r.path()?,
            },
            T_READ => FileRequest::Read {
                ino: r.u64()?,
                offset: r.u64()?,
                len: r.u32()?,
            },
            T_WRITE => FileRequest::Write {
                ino: r.u64()?,
                offset: r.u64()?,
                len: r.u32()?,
            },
            T_TRUNCATE => FileRequest::Truncate {
                ino: r.u64()?,
                size: r.u64()?,
            },
            T_UNLINK => FileRequest::Unlink {
                parent: r.u64()?,
                name: r.path()?,
            },
            T_RMDIR => FileRequest::Rmdir {
                parent: r.u64()?,
                name: r.path()?,
            },
            T_READDIR => FileRequest::Readdir { ino: r.u64()? },
            T_GETATTR => FileRequest::GetAttr { ino: r.u64()? },
            T_RENAME => {
                let parent = r.u64()?;
                let new_parent = r.u64()?;
                let name = r.path()?;
                let new_name = r.path()?;
                FileRequest::Rename {
                    parent,
                    name,
                    new_parent,
                    new_name,
                }
            }
            T_FSYNC => FileRequest::Fsync { ino: r.u64()? },
            T_CACHE_EVICT_BATCH => {
                let count = r.u32()? as usize;
                // `count` is attacker-controlled: decode element by element
                // (truncation errors out) instead of pre-reserving.
                let mut buckets = Vec::new();
                for _ in 0..count {
                    buckets.push(r.u64()?);
                }
                FileRequest::CacheEvictBatch { buckets }
            }
            T_LINK => {
                let parent = r.u64()?;
                let new_parent = r.u64()?;
                let name = r.path()?;
                let new_name = r.path()?;
                FileRequest::Link {
                    parent,
                    name,
                    new_parent,
                    new_name,
                }
            }
            T_SYMLINK => {
                let parent = r.u64()?;
                let name = r.path()?;
                let target = r.path()?;
                FileRequest::Symlink {
                    parent,
                    name,
                    target,
                }
            }
            T_READLINK => FileRequest::Readlink {
                parent: r.u64()?,
                name: r.path()?,
            },
            T_READAHEAD_HINT => FileRequest::ReadaheadHint {
                ino: r.u64()?,
                lpn: r.u64()?,
            },
            _ => return Err(DecodeError("unknown request tag")),
        };
        r.done()?;
        Ok(req)
    }
}

// Response tags.
const R_OK: u8 = 0;
const R_INO: u8 = 1;
const R_ATTR: u8 = 2;
const R_BYTES: u8 = 3;
const R_ENTRIES: u8 = 4;
const R_ERR: u8 = 5;
/// `Removed` carries `last` in its tag: it stays 9 bytes.
const R_REMOVED: u8 = 6;
const R_REMOVED_LAST: u8 = 7;

impl FileResponse {
    pub fn encode(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        let mut w = Writer(out);
        match self {
            FileResponse::Ok => w.u8(R_OK),
            FileResponse::Ino(ino) => {
                w.u8(R_INO);
                w.u64(*ino);
            }
            FileResponse::Attr(a) => {
                w.u8(R_ATTR);
                w.u64(a.ino);
                w.u64(a.size);
                w.u32(a.mode);
                w.u32(a.nlink);
                w.u32(a.uid);
                w.u32(a.gid);
                w.u64(a.atime_ns);
                w.u64(a.mtime_ns);
                w.u64(a.ctime_ns);
                w.u8(a.kind);
            }
            FileResponse::Removed { ino, last } => {
                w.u8(if *last { R_REMOVED_LAST } else { R_REMOVED });
                w.u64(*ino);
            }
            FileResponse::Bytes(n) => {
                w.u8(R_BYTES);
                w.u32(*n);
            }
            FileResponse::Entries(n) => {
                w.u8(R_ENTRIES);
                w.u32(*n);
            }
            FileResponse::Err(e) => {
                w.u8(R_ERR);
                w.i32(*e);
            }
        }
        out.len() - start
    }

    pub fn decode(buf: &[u8]) -> Result<FileResponse, DecodeError> {
        let mut r = Reader { buf, pos: 0 };
        let resp = match r.u8()? {
            R_OK => FileResponse::Ok,
            R_INO => FileResponse::Ino(r.u64()?),
            R_ATTR => FileResponse::Attr(WireAttr {
                ino: r.u64()?,
                size: r.u64()?,
                mode: r.u32()?,
                nlink: r.u32()?,
                uid: r.u32()?,
                gid: r.u32()?,
                atime_ns: r.u64()?,
                mtime_ns: r.u64()?,
                ctime_ns: r.u64()?,
                kind: r.u8()?,
            }),
            tag @ (R_REMOVED | R_REMOVED_LAST) => FileResponse::Removed {
                ino: r.u64()?,
                last: tag == R_REMOVED_LAST,
            },
            R_BYTES => FileResponse::Bytes(r.u32()?),
            R_ENTRIES => FileResponse::Entries(r.u32()?),
            R_ERR => FileResponse::Err(r.i32()?),
            _ => return Err(DecodeError("unknown response tag")),
        };
        r.done()?;
        Ok(resp)
    }
}

/// One directory entry in a readdir payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WireDirent {
    pub ino: u64,
    pub kind: u8,
    pub name: String,
}

/// Append one directory entry to a payload buffer.
pub fn encode_dirent(ino: u64, kind: u8, name: &str, out: &mut Vec<u8>) {
    let mut w = Writer(out);
    w.u64(ino);
    w.u8(kind);
    w.name(name);
}

/// Encode a list of directory entries into a payload buffer.
pub fn encode_dirents(entries: &[WireDirent], out: &mut Vec<u8>) {
    for e in entries {
        encode_dirent(e.ino, e.kind, &e.name, out);
    }
}

/// One component of the DPU-side path walk, as the reply's trail reports
/// it. The trail is the tail of the read payload — after the entries of a
/// listing or the bytes of a link target — one step per component walked,
/// in path order (a two-path request's first path first), as many whole
/// steps as the host's `read_len` left room for; it is also sent with an
/// error reply, up to the component that failed. It is what lets a host
/// dentry cache learn from a walk it did not make.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WireStep {
    /// The component's dentry names this inode: cacheable as
    /// `(previous inode, component) → ino`.
    Entry(u64),
    /// The component is a symlink the walk followed to this inode. The
    /// walk goes on from there, but the pair is not a dentry and must
    /// never be cached as one.
    Followed(u64),
    /// The component does not exist (the reply is `ENOENT`).
    Absent,
}

impl WireStep {
    /// Encoded size of one step: a tag byte and an inode number.
    pub const SIZE: usize = 9;

    pub fn encode(&self, out: &mut Vec<u8>) {
        let (tag, ino) = match *self {
            WireStep::Entry(ino) => (0u8, ino),
            WireStep::Followed(ino) => (1, ino),
            WireStep::Absent => (2, 0),
        };
        out.push(tag);
        out.extend_from_slice(&ino.to_le_bytes());
    }

    /// Decode the whole steps of `buf`, stopping at the first unknown tag
    /// (the trail is advisory: a short one teaches the host less).
    pub fn decode_all(buf: &[u8]) -> impl Iterator<Item = WireStep> + '_ {
        buf.chunks_exact(Self::SIZE).map_while(|step| {
            let ino = u64::from_le_bytes(step[1..].try_into().expect("9-byte chunk"));
            match step[0] {
                0 => Some(WireStep::Entry(ino)),
                1 => Some(WireStep::Followed(ino)),
                2 => Some(WireStep::Absent),
                _ => None,
            }
        })
    }
}

/// Borrowed view of one directory entry: the name points straight into
/// the payload buffer — no per-entry allocation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct WireDirentRef<'a> {
    pub ino: u64,
    pub kind: u8,
    pub name: &'a str,
}

impl WireDirentRef<'_> {
    pub fn to_owned(&self) -> WireDirent {
        WireDirent {
            ino: self.ino,
            kind: self.kind,
            name: self.name.to_owned(),
        }
    }
}

/// Zero-allocation streaming decoder over an encoded dirent payload.
/// Probe-sized consumers (existence checks, first-page peeks) walk only
/// as far as they need instead of materializing the full
/// `Vec<WireDirent>`.
pub struct DirentIter<'a> {
    r: Reader<'a>,
    remaining: usize,
}

/// Iterate `count` directory entries in place.
pub fn dirent_iter(buf: &[u8], count: usize) -> DirentIter<'_> {
    DirentIter {
        r: Reader { buf, pos: 0 },
        remaining: count,
    }
}

impl<'a> Iterator for DirentIter<'a> {
    type Item = Result<WireDirentRef<'a>, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let one = (|| {
            Ok(WireDirentRef {
                ino: self.r.u64()?,
                kind: self.r.u8()?,
                name: self.r.name_ref()?,
            })
        })();
        if one.is_err() {
            self.remaining = 0; // poisoned: stop at the first bad entry
        }
        Some(one)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.remaining))
    }
}

/// Decode `count` directory entries into `out`, reusing its entries and
/// their name buffers — steady-state zero allocations once warmed.
/// Returns how many bytes of `buf` the entries took (whatever follows is
/// not theirs). On a decode error `out`'s contents are unspecified.
pub fn decode_dirents_into(
    buf: &[u8],
    count: usize,
    out: &mut Vec<WireDirent>,
) -> Result<usize, DecodeError> {
    let mut n = 0usize;
    let mut entries = dirent_iter(buf, count);
    for ent in entries.by_ref() {
        let ent = ent?;
        if n == out.len() {
            out.push(WireDirent {
                ino: 0,
                kind: 0,
                name: String::new(),
            });
        }
        let slot = &mut out[n];
        slot.ino = ent.ino;
        slot.kind = ent.kind;
        slot.name.clear();
        slot.name.push_str(ent.name);
        n += 1;
    }
    out.truncate(n);
    Ok(entries.r.pos)
}

/// Decode `count` directory entries from a payload buffer.
pub fn decode_dirents(buf: &[u8], count: usize) -> Result<Vec<WireDirent>, DecodeError> {
    dirent_iter(buf, count)
        .map(|e| e.map(|r| r.to_owned()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_req(req: FileRequest) {
        let mut buf = Vec::new();
        let n = req.encode(&mut buf);
        assert_eq!(n, buf.len());
        assert_eq!(FileRequest::decode(&buf).unwrap(), req);
    }

    #[test]
    fn request_round_trips() {
        round_trip_req(FileRequest::Lookup {
            parent: 0,
            name: "etc".into(),
        });
        round_trip_req(FileRequest::Create {
            parent: 7,
            name: "a.conf".into(),
            mode: 0o644,
        });
        round_trip_req(FileRequest::Mkdir {
            parent: 0,
            name: "dir".into(),
            mode: 0o755,
        });
        round_trip_req(FileRequest::Read {
            ino: 42,
            offset: 8192,
            len: 8192,
        });
        round_trip_req(FileRequest::Write {
            ino: 42,
            offset: 0,
            len: 4096,
        });
        round_trip_req(FileRequest::Truncate { ino: 42, size: 100 });
        round_trip_req(FileRequest::Unlink {
            parent: 3,
            name: "x".into(),
        });
        round_trip_req(FileRequest::Rmdir {
            parent: 3,
            name: "d".into(),
        });
        round_trip_req(FileRequest::Readdir { ino: 0 });
        round_trip_req(FileRequest::GetAttr { ino: 9 });
        round_trip_req(FileRequest::Rename {
            parent: 1,
            name: "old".into(),
            new_parent: 2,
            new_name: "new".into(),
        });
        round_trip_req(FileRequest::Fsync { ino: 5 });
        round_trip_req(FileRequest::CacheEvictBatch {
            buckets: vec![3, 3, 7, 0, u64::MAX],
        });
        round_trip_req(FileRequest::CacheEvictBatch { buckets: vec![] });
        round_trip_req(FileRequest::ReadaheadHint {
            ino: 42,
            lpn: u64::MAX,
        });
    }

    /// One of each request that carries a path, at the given lengths.
    fn path_requests(path: &str, other: &str) -> Vec<FileRequest> {
        let (name, new_name) = (path.to_string(), other.to_string());
        vec![
            FileRequest::StatAt {
                start: 3,
                path: name.clone(),
            },
            FileRequest::ReaddirAt {
                start: u64::MAX,
                path: name.clone(),
            },
            FileRequest::Create {
                parent: 7,
                name: name.clone(),
                mode: 0o600,
            },
            FileRequest::Mkdir {
                parent: 7,
                name: name.clone(),
                mode: 0o700,
            },
            FileRequest::Unlink {
                parent: 1,
                name: name.clone(),
            },
            FileRequest::Rmdir {
                parent: 1,
                name: name.clone(),
            },
            FileRequest::Readlink {
                parent: 9,
                name: name.clone(),
            },
            FileRequest::Symlink {
                parent: 9,
                name: name.clone(),
                target: new_name.clone(),
            },
            FileRequest::Rename {
                parent: 1,
                name: name.clone(),
                new_parent: 2,
                new_name: new_name.clone(),
            },
            FileRequest::Link {
                parent: 1,
                name,
                new_parent: 2,
                new_name,
            },
        ]
    }

    #[test]
    fn path_requests_round_trip_up_to_path_max() {
        let deep = "d/".repeat(2047) + "ff"; // 4096 bytes
        assert_eq!(deep.len(), MAX_PATH_LEN);
        for (path, other) in [
            ("", ""),
            ("a", "b/c"),
            ("a/b//c/", "/abs/t"),
            (&deep, &deep),
        ] {
            for req in path_requests(path, other) {
                round_trip_req(req);
            }
        }
    }

    #[test]
    fn hostile_path_lengths_are_rejected_on_decode() {
        for req in path_requests("dir/leaf", "other/leaf") {
            let mut buf = Vec::new();
            req.encode(&mut buf);
            // Every truncation of a well-formed message is an error…
            for cut in 0..buf.len() {
                assert!(
                    FileRequest::decode(&buf[..cut]).is_err(),
                    "{req:?} cut={cut}"
                );
            }
            // …and so is a length that claims more than the bound, or
            // more than the buffer holds, wherever a path sits.
            let at = buf.windows(12).position(|w| w[4..] == *b"dir/leaf");
            let at = at.expect("the path is length-prefixed in the message");
            for claim in [MAX_PATH_LEN as u32 + 1, u32::MAX, 9] {
                let mut evil = buf.clone();
                evil[at..at + 4].copy_from_slice(&claim.to_le_bytes());
                assert!(FileRequest::decode(&evil).is_err(), "{req:?} claim={claim}");
            }
        }
        // A single-component probe keeps the 1024-byte name bound.
        let mut evil = vec![T_LOOKUP];
        evil.extend_from_slice(&0u64.to_le_bytes());
        evil.extend_from_slice(&2000u32.to_le_bytes());
        evil.extend_from_slice(&[b'a'; 2000]);
        assert!(FileRequest::decode(&evil).is_err());
    }

    #[test]
    #[should_panic(expected = "path exceeds 4096 bytes")]
    fn oversized_path_rejected_on_encode() {
        // The adapter bounds every path first (ENAMETOOLONG); reaching the
        // encoder with one is a bug in the caller.
        FileRequest::StatAt {
            start: 0,
            path: "x".repeat(MAX_PATH_LEN + 1),
        }
        .encode(&mut Vec::new());
    }

    #[test]
    fn trail_round_trips_and_stops_at_garbage() {
        let steps = [
            WireStep::Entry(5),
            WireStep::Followed(u64::MAX),
            WireStep::Entry(0),
            WireStep::Absent,
        ];
        let mut buf = Vec::new();
        for s in &steps {
            s.encode(&mut buf);
        }
        assert_eq!(buf.len(), steps.len() * WireStep::SIZE);
        assert_eq!(WireStep::decode_all(&buf).collect::<Vec<_>>(), steps);
        // A partial step at the end is not a step.
        assert_eq!(WireStep::decode_all(&buf[..buf.len() - 1]).count(), 3);
        assert_eq!(WireStep::decode_all(&[]).count(), 0);
        // An unknown tag ends the trail: nothing after it is trusted.
        buf[WireStep::SIZE] = 0xEE;
        assert_eq!(WireStep::decode_all(&buf).collect::<Vec<_>>(), steps[..1]);
    }

    #[test]
    fn readahead_hint_truncations_rejected() {
        let mut buf = Vec::new();
        FileRequest::ReadaheadHint { ino: 9, lpn: 1024 }.encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(FileRequest::decode(&buf[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn evict_batch_truncations_rejected() {
        let mut buf = Vec::new();
        FileRequest::CacheEvictBatch {
            buckets: vec![1, 2, 3],
        }
        .encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(FileRequest::decode(&buf[..cut]).is_err(), "cut={cut}");
        }
        // A lying count larger than the actual element data must error,
        // not over-read or over-allocate.
        let mut evil = vec![T_CACHE_EVICT_BATCH];
        evil.extend_from_slice(&(u32::MAX).to_le_bytes());
        evil.extend_from_slice(&7u64.to_le_bytes());
        assert!(FileRequest::decode(&evil).is_err());
    }

    #[test]
    fn response_round_trips() {
        // Every response, with the bytes it takes: all but `Attr` fit a
        // CQE with no payload beside it, the short ones beside one too.
        let attr = WireAttr {
            ino: 5,
            size: 1 << 30,
            mode: 0o755,
            nlink: 2,
            uid: 1000,
            gid: 1000,
            atime_ns: 1,
            mtime_ns: 2,
            ctime_ns: 3,
            kind: 1,
        };
        let cases = [
            (FileResponse::Ok, 1),
            (FileResponse::Ino(123), 9),
            (FileResponse::Attr(attr), 58),
            (
                FileResponse::Removed {
                    ino: u64::MAX,
                    last: false,
                },
                9,
            ),
            (FileResponse::Removed { ino: 7, last: true }, 9),
            (FileResponse::Ino(u64::MAX), 9),
            (FileResponse::Bytes(8192), 5),
            (FileResponse::Entries(17), 5),
            (FileResponse::Err(-2), 5),
        ];
        for (resp, len) in cases {
            let mut buf = Vec::new();
            assert_eq!(resp.encode(&mut buf), len, "{resp:?}");
            assert_eq!(FileResponse::decode(&buf).unwrap(), resp);
            // Every truncation, and a trailing byte, is refused.
            for cut in 0..buf.len() {
                assert!(FileResponse::decode(&buf[..cut]).is_err(), "{resp:?} {cut}");
            }
            buf.push(0);
            assert!(FileResponse::decode(&buf).is_err(), "{resp:?}");
            let rides = !matches!(resp, FileResponse::Attr(_));
            assert_eq!(len <= crate::CQE_WIDE_CAP, rides, "{resp:?}");
        }
    }

    #[test]
    fn truncated_input_rejected() {
        let mut buf = Vec::new();
        FileRequest::Read {
            ino: 1,
            offset: 2,
            len: 3,
        }
        .encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(FileRequest::decode(&buf[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Vec::new();
        FileRequest::Fsync { ino: 1 }.encode(&mut buf);
        buf.push(0);
        assert_eq!(
            FileRequest::decode(&buf),
            Err(DecodeError("trailing bytes after message"))
        );
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(FileRequest::decode(&[0xEE]).is_err());
        assert!(FileResponse::decode(&[0xEE]).is_err());
    }

    #[test]
    fn oversized_name_rejected_on_decode() {
        let mut buf = vec![T_READDIR];
        buf.extend_from_slice(&0u64.to_le_bytes());
        // Craft a lookup with a giant claimed name length.
        let mut evil = vec![T_LOOKUP];
        evil.extend_from_slice(&0u64.to_le_bytes());
        evil.extend_from_slice(&(MAX_NAME_LEN as u32 + 1).to_le_bytes());
        evil.extend_from_slice(&[b'a'; 64]);
        assert_eq!(
            FileRequest::decode(&evil),
            Err(DecodeError("name exceeds 1024 bytes"))
        );
    }

    #[test]
    #[should_panic(expected = "name exceeds 1024 bytes")]
    fn oversized_name_rejected_on_encode() {
        let mut buf = Vec::new();
        FileRequest::Lookup {
            parent: 0,
            name: "x".repeat(MAX_NAME_LEN + 1),
        }
        .encode(&mut buf);
    }

    #[test]
    fn dirent_list_round_trips() {
        let entries = vec![
            WireDirent {
                ino: 1,
                kind: 1,
                name: "subdir".into(),
            },
            WireDirent {
                ino: 2,
                kind: 0,
                name: "file.txt".into(),
            },
        ];
        let mut buf = Vec::new();
        encode_dirents(&entries, &mut buf);
        assert_eq!(decode_dirents(&buf, 2).unwrap(), entries);
        assert!(decode_dirents(&buf, 3).is_err());
    }

    #[test]
    fn dirent_iter_streams_in_place() {
        let entries: Vec<WireDirent> = (0..20)
            .map(|i| WireDirent {
                ino: i,
                kind: (i % 2) as u8,
                name: format!("entry-{i}"),
            })
            .collect();
        let mut buf = Vec::new();
        encode_dirents(&entries, &mut buf);
        // A probe-sized consumer stops after the first hit without
        // touching the rest of the page.
        let hit = dirent_iter(&buf, 20)
            .map(|e| e.unwrap())
            .find(|e| e.name == "entry-3")
            .unwrap();
        assert_eq!(hit.ino, 3);
        // Full walk matches the owned decode.
        let all: Vec<WireDirent> = dirent_iter(&buf, 20)
            .map(|e| e.unwrap().to_owned())
            .collect();
        assert_eq!(all, entries);
        // Truncated payload: errors once, then stops (no infinite loop).
        let errs: Vec<_> = dirent_iter(&buf[..buf.len() - 1], 20).collect();
        assert!(errs.last().unwrap().is_err());
        assert!(errs.len() <= 20);
    }

    #[test]
    fn decode_dirents_into_reuses_buffers() {
        let entries: Vec<WireDirent> = (0..8)
            .map(|i| WireDirent {
                ino: i,
                kind: 0,
                name: format!("n{i}"),
            })
            .collect();
        let mut buf = Vec::new();
        encode_dirents(&entries, &mut buf);
        let mut out = Vec::new();
        // Reports where the entries end: a trail may follow them.
        buf.extend_from_slice(b"trail");
        assert_eq!(
            decode_dirents_into(&buf, 8, &mut out).unwrap(),
            buf.len() - 5
        );
        assert_eq!(out, entries);
        // Decode a shorter page into the same vec: shrinks, keeps buffers.
        let mut small = Vec::new();
        encode_dirents(&entries[..3], &mut small);
        decode_dirents_into(&small, 3, &mut out).unwrap();
        assert_eq!(out, entries[..3]);
    }

    #[test]
    fn non_utf8_name_rejected() {
        let mut evil = vec![T_LOOKUP];
        evil.extend_from_slice(&0u64.to_le_bytes());
        evil.extend_from_slice(&2u32.to_le_bytes());
        evil.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(
            FileRequest::decode(&evil),
            Err(DecodeError("name is not UTF-8"))
        );
    }
}
