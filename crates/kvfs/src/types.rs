//! KVFS public types: attributes, directory entries, errors.

/// The root directory's inode number ("the root directory has a unique
/// inode number 0", §3.4).
pub const ROOT_INO: u64 = 0;

/// Maximum file/directory name length in bytes (paper: 1024).
pub const MAX_NAME_LEN: usize = 1024;

/// Small files (< 8 KiB) live in a single small-file KV; at and beyond
/// this size the file is promoted to the big-file KV layout.
pub const SMALL_FILE_MAX: u64 = 8192;

/// Big-file KVs update in place at this granularity (paper: 8 KiB).
pub const BIG_BLOCK: usize = 8192;

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FileKind {
    File,
    Dir,
    Symlink,
}

impl FileKind {
    /// The one-byte encoding shared by the attribute KV, the inode KV and
    /// the nvme-fs wire (0 file, 1 directory, 2 symlink).
    pub fn to_byte(self) -> u8 {
        match self {
            FileKind::File => 0,
            FileKind::Dir => 1,
            FileKind::Symlink => 2,
        }
    }

    pub(crate) fn from_byte(b: u8) -> FileKind {
        match b {
            1 => FileKind::Dir,
            2 => FileKind::Symlink,
            _ => FileKind::File,
        }
    }
}

/// On-disk layout of a file's data.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DataFormat {
    /// Whole value rewritten on update (files that never reached 8 KiB).
    Small,
    /// 8 KiB blocks updated in place through the file object.
    Big,
}

/// File attributes — the paper's 256-byte attribute structure
/// ("privilege, size, ownership, creation time, and so on").
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct FileAttr {
    pub ino: u64,
    pub size: u64,
    pub mode: u32,
    pub nlink: u32,
    pub uid: u32,
    pub gid: u32,
    /// Times are a logical clock (the simulator has no wall clock).
    pub atime: u64,
    pub mtime: u64,
    pub ctime: u64,
    pub kind: FileKind,
    pub format: DataFormat,
}

impl FileAttr {
    pub(crate) fn new_file(ino: u64, mode: u32, now: u64) -> FileAttr {
        FileAttr {
            ino,
            size: 0,
            mode,
            nlink: 1,
            uid: 0,
            gid: 0,
            atime: now,
            mtime: now,
            ctime: now,
            kind: FileKind::File,
            format: DataFormat::Small,
        }
    }

    pub(crate) fn new_dir(ino: u64, mode: u32, now: u64) -> FileAttr {
        FileAttr {
            ino,
            size: 0,
            mode,
            nlink: 2,
            uid: 0,
            gid: 0,
            atime: now,
            mtime: now,
            ctime: now,
            kind: FileKind::Dir,
            format: DataFormat::Small,
        }
    }

    pub fn is_dir(&self) -> bool {
        self.kind == FileKind::Dir
    }

    /// Serialise into the paper's fixed 256-byte attribute value.
    pub(crate) fn encode(&self) -> [u8; 256] {
        let mut out = [0u8; 256];
        out[0..8].copy_from_slice(&self.ino.to_le_bytes());
        out[8..16].copy_from_slice(&self.size.to_le_bytes());
        out[16..20].copy_from_slice(&self.mode.to_le_bytes());
        out[20..24].copy_from_slice(&self.nlink.to_le_bytes());
        out[24..28].copy_from_slice(&self.uid.to_le_bytes());
        out[28..32].copy_from_slice(&self.gid.to_le_bytes());
        out[32..40].copy_from_slice(&self.atime.to_le_bytes());
        out[40..48].copy_from_slice(&self.mtime.to_le_bytes());
        out[48..56].copy_from_slice(&self.ctime.to_le_bytes());
        out[56] = self.kind.to_byte();
        out[57] = match self.format {
            DataFormat::Small => 0,
            DataFormat::Big => 1,
        };
        out
    }

    pub(crate) fn decode(bytes: &[u8]) -> Option<FileAttr> {
        if bytes.len() != 256 {
            return None;
        }
        Some(FileAttr {
            ino: u64::from_le_bytes(bytes[0..8].try_into().unwrap()),
            size: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            mode: u32::from_le_bytes(bytes[16..20].try_into().unwrap()),
            nlink: u32::from_le_bytes(bytes[20..24].try_into().unwrap()),
            uid: u32::from_le_bytes(bytes[24..28].try_into().unwrap()),
            gid: u32::from_le_bytes(bytes[28..32].try_into().unwrap()),
            atime: u64::from_le_bytes(bytes[32..40].try_into().unwrap()),
            mtime: u64::from_le_bytes(bytes[40..48].try_into().unwrap()),
            ctime: u64::from_le_bytes(bytes[48..56].try_into().unwrap()),
            kind: FileKind::from_byte(bytes[56]),
            format: if bytes[57] == 1 {
                DataFormat::Big
            } else {
                DataFormat::Small
            },
        })
    }
}

/// One component of a [`Kvfs::walk`](crate::Kvfs::walk), as reported to
/// the walk's trail.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WalkStep {
    /// The component's own dentry names this inode (never a symlink's:
    /// those are followed).
    Entry(u64),
    /// The component is a symbolic link; the walk followed it to this
    /// inode. The name → inode pair is *not* a dentry.
    Followed(u64),
    /// The component has no dentry; the walk ends with `NotFound`.
    Absent,
}

/// One directory entry returned by `readdir`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Dirent {
    pub ino: u64,
    pub name: String,
    pub kind: FileKind,
}

/// KVFS errors, with POSIX errno mapping for the nvme-fs wire.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FsError {
    NotFound,
    AlreadyExists,
    NotADirectory,
    IsADirectory,
    DirectoryNotEmpty,
    NameTooLong,
    InvalidName,
    /// Symlink resolution exceeded the depth limit (a cycle).
    TooManyLinks,
    /// readlink on something that is not a symlink, or link on a directory.
    InvalidOperation,
    /// The backing KV service refused a durability barrier (fsync).
    Io,
}

impl FsError {
    pub fn errno(&self) -> i32 {
        match self {
            FsError::NotFound => 2,           // ENOENT
            FsError::AlreadyExists => 17,     // EEXIST
            FsError::NotADirectory => 20,     // ENOTDIR
            FsError::IsADirectory => 21,      // EISDIR
            FsError::DirectoryNotEmpty => 39, // ENOTEMPTY
            FsError::NameTooLong => 36,       // ENAMETOOLONG
            FsError::InvalidName => 22,       // EINVAL
            FsError::TooManyLinks => 40,      // ELOOP
            FsError::InvalidOperation => 1,   // EPERM
            FsError::Io => 5,                 // EIO
        }
    }
}

impl core::fmt::Display for FsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            FsError::NotFound => "no such file or directory",
            FsError::AlreadyExists => "file exists",
            FsError::NotADirectory => "not a directory",
            FsError::IsADirectory => "is a directory",
            FsError::DirectoryNotEmpty => "directory not empty",
            FsError::NameTooLong => "file name too long",
            FsError::InvalidName => "invalid file name",
            FsError::TooManyLinks => "too many levels of symbolic links",
            FsError::InvalidOperation => "operation not permitted",
            FsError::Io => "input/output error",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_encodes_to_256_bytes() {
        let a = FileAttr::new_file(42, 0o644, 7);
        let e = a.encode();
        assert_eq!(e.len(), 256);
        assert_eq!(FileAttr::decode(&e), Some(a));
    }

    #[test]
    fn dir_attr_round_trip() {
        let mut a = FileAttr::new_dir(0, 0o755, 1);
        a.nlink = 5;
        a.size = 0;
        let back = FileAttr::decode(&a.encode()).unwrap();
        assert_eq!(back, a);
        assert!(back.is_dir());
    }

    #[test]
    fn big_format_round_trip() {
        let mut a = FileAttr::new_file(1, 0o600, 0);
        a.format = DataFormat::Big;
        a.size = 1 << 30;
        assert_eq!(
            FileAttr::decode(&a.encode()).unwrap().format,
            DataFormat::Big
        );
    }

    #[test]
    fn decode_rejects_wrong_length() {
        assert_eq!(FileAttr::decode(&[0u8; 255]), None);
        assert_eq!(FileAttr::decode(&[0u8; 257]), None);
    }

    #[test]
    fn errno_values_are_posix() {
        assert_eq!(FsError::NotFound.errno(), 2);
        assert_eq!(FsError::AlreadyExists.errno(), 17);
        assert_eq!(FsError::DirectoryNotEmpty.errno(), 39);
    }
}
