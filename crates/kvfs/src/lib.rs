//! # dpc-kvfs — the KV-backed standalone file service
//!
//! KVFS (§3.4) is what lets DPC replace an application server's
//! under-utilised local disks: a lightweight POSIX-style file system that
//! runs *in the DPU* and converts every file operation into operations on
//! a disaggregated KV store. Four KV types carry the whole file system:
//!
//! - **inode KV** `p_ino + name → ino` — the namespace; directory listing
//!   is a `p_ino` prefix scan, and each create, link, mkdir, symlink,
//!   unlink, rmdir or rename writes its names and attributes in one
//!   atomic, conditional `KvStore::commit`,
//! - **attribute KV** `ino → 256-byte attr`,
//! - **small-file KV** `ino → data` for files under 8 KiB (whole-value
//!   rewrite on update; a 0-byte file has none),
//! - **big-file KV** for larger files — 8 KiB blocks updated in place
//!   through the file object (see [`FileObject`]'s module docs), read
//!   with one multi-key request per read.
//!
//! Path resolution recursively fetches inode KVs from the root (ino 0);
//! built-in dentry and inode caches play the role the VFS caches play for
//! a kernel file system.
//!
//! ```
//! use dpc_kvfs::Kvfs;
//! use dpc_kvstore::KvStore;
//! use std::sync::Arc;
//!
//! let fs = Kvfs::new(Arc::new(KvStore::new()));
//! fs.mkdir("/etc", 0o755).unwrap();
//! let ino = fs.create("/etc/app.conf", 0o644).unwrap();
//! fs.write(ino, 0, b"threads=8").unwrap();
//! assert_eq!(fs.stat("/etc/app.conf").unwrap().size, 9);
//! ```

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

mod cache;
mod fileobj;
mod fs;
mod keys;
mod types;

pub use cache::LookupStats;
pub use fileobj::FileObject;
pub use fs::Kvfs;
pub use keys::{attr_key, big_key, inode_key, inode_prefix, small_key, validate_name};
pub use types::{
    DataFormat, Dirent, FileAttr, FileKind, FsError, WalkStep, BIG_BLOCK, MAX_NAME_LEN, ROOT_INO,
    SMALL_FILE_MAX,
};
