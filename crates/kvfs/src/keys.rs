//! Key encodings for the four KV types of §3.4.
//!
//! | KV            | key                        | value                  |
//! |---------------|----------------------------|------------------------|
//! | inode KV      | `0x01 ‖ p_ino ‖ name`      | ino (8 B LE) ‖ kind    |
//! | attribute KV  | `0x02 ‖ ino`               | 256-byte attribute     |
//! | small-file KV | `0x03 ‖ ino`               | file data (< 8 KiB)    |
//! | big-file KV   | `0x04 ‖ ino ‖ lbn`         | one 8 KiB block        |
//!
//! `p_ino` and `lbn` are big-endian so that the byte order of keys matches
//! numeric order — the `p_ino` prefix property the paper uses for
//! directory listing ("a prefix-based scan can return all the inode
//! numbers belonging to a directory"). The inode KV's value also carries
//! the entry's kind (the `d_type` of a dirent; an inode's kind never
//! changes), so a listing and a path walk read nothing but inode KVs.

use crate::types::{FileKind, FsError, MAX_NAME_LEN};

const TAG_INODE: u8 = 0x01;
const TAG_ATTR: u8 = 0x02;
const TAG_SMALL: u8 = 0x03;
const TAG_BIG: u8 = 0x04;

/// Validate a single path component.
pub fn validate_name(name: &str) -> Result<(), FsError> {
    if name.is_empty() || name == "." || name == ".." {
        return Err(FsError::InvalidName);
    }
    if name.contains('/') || name.contains('\0') {
        return Err(FsError::InvalidName);
    }
    if name.len() > MAX_NAME_LEN {
        return Err(FsError::NameTooLong);
    }
    Ok(())
}

/// Inode KV key: `p_ino + name` (max 1088 bytes with the paper's 1024-byte
/// name bound; ours adds one tag byte).
pub fn inode_key(p_ino: u64, name: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(9 + name.len());
    k.push(TAG_INODE);
    k.extend_from_slice(&p_ino.to_be_bytes());
    k.extend_from_slice(name.as_bytes());
    k
}

/// Run `f` on [`inode_key`]`(p_ino, name)` built on the stack: a cache miss
/// probes the store without allocating. `name` has passed [`validate_name`].
pub(crate) fn with_inode_key<R>(p_ino: u64, name: &str, f: impl FnOnce(&[u8]) -> R) -> R {
    let mut key = [TAG_INODE; 9 + MAX_NAME_LEN];
    key[1..9].copy_from_slice(&p_ino.to_be_bytes());
    key[9..][..name.len()].copy_from_slice(name.as_bytes());
    f(&key[..9 + name.len()])
}

/// The prefix of every inode KV key under `p_ino` (directory scan).
pub fn inode_prefix(p_ino: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(9);
    k.push(TAG_INODE);
    k.extend_from_slice(&p_ino.to_be_bytes());
    k
}

/// Recover the name component from an inode KV key.
pub fn name_from_inode_key(key: &[u8]) -> Option<&str> {
    if key.len() < 10 || key[0] != TAG_INODE {
        return None;
    }
    std::str::from_utf8(&key[9..]).ok()
}

/// Inode KV value: `ino (8 B LE) ‖ kind`.
pub fn dentry_value(ino: u64, kind: FileKind) -> [u8; 9] {
    let mut v = [0u8; 9];
    v[..8].copy_from_slice(&ino.to_le_bytes());
    v[8] = kind.to_byte();
    v
}

/// Decode an inode KV value; `None` for a malformed (wrong-width) one.
pub fn parse_dentry(value: &[u8]) -> Option<(u64, FileKind)> {
    let (ino, kind) = value.split_first_chunk::<8>()?;
    match kind {
        [k] => Some((u64::from_le_bytes(*ino), FileKind::from_byte(*k))),
        _ => None,
    }
}

pub fn attr_key(ino: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(9);
    k.push(TAG_ATTR);
    k.extend_from_slice(&ino.to_be_bytes());
    k
}

pub fn small_key(ino: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(9);
    k.push(TAG_SMALL);
    k.extend_from_slice(&ino.to_be_bytes());
    k
}

/// Big-file block key for logical block `lbn`, built on the stack: a block
/// read or write allocates no key.
pub fn big_key(ino: u64, lbn: u64) -> [u8; 17] {
    let mut k = [TAG_BIG; 17];
    k[1..9].copy_from_slice(&ino.to_be_bytes());
    k[9..].copy_from_slice(&lbn.to_be_bytes());
    k
}

/// Prefix of all big-file block keys of one inode.
pub fn big_prefix(ino: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(9);
    k.push(TAG_BIG);
    k.extend_from_slice(&ino.to_be_bytes());
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inode_key_has_pino_prefix() {
        let k = inode_key(7, "file.txt");
        assert!(k.starts_with(&inode_prefix(7)));
        assert!(!k.starts_with(&inode_prefix(8)));
        assert_eq!(name_from_inode_key(&k), Some("file.txt"));
    }

    #[test]
    fn dentry_value_round_trips_and_rejects_other_widths() {
        for kind in [FileKind::File, FileKind::Dir, FileKind::Symlink] {
            let v = dentry_value(u64::MAX - 3, kind);
            assert_eq!(parse_dentry(&v), Some((u64::MAX - 3, kind)));
        }
        assert_eq!(parse_dentry(&7u64.to_le_bytes()), None);
        assert_eq!(parse_dentry(&[0u8; 10]), None);
        assert_eq!(parse_dentry(&[1, 2, 3]), None);
    }

    #[test]
    fn max_key_length_matches_paper() {
        // Paper: name <= 1024 bytes, key <= 1088 bytes (p_ino + name).
        // Ours: tag(1) + p_ino(8) + name(1024) = 1033 <= 1088.
        let name = "x".repeat(MAX_NAME_LEN);
        assert!(validate_name(&name).is_ok());
        assert!(inode_key(u64::MAX, &name).len() <= 1088);
    }

    #[test]
    fn sibling_keys_sort_by_name() {
        let a = inode_key(3, "alpha");
        let b = inode_key(3, "beta");
        assert!(a < b);
        // Different parents never share a prefix.
        let c = inode_key(4, "alpha");
        assert!(b < c, "parent ordering dominates");
    }

    #[test]
    fn big_keys_sort_by_lbn() {
        let blocks: Vec<[u8; 17]> = (0..300u64).map(|l| big_key(5, l)).collect();
        assert!(blocks.windows(2).all(|w| w[0] < w[1]));
        assert!(blocks.iter().all(|k| k.starts_with(&big_prefix(5))));
        assert!(!blocks[0].starts_with(&big_prefix(6)));
    }

    #[test]
    fn validate_name_rules() {
        assert!(validate_name("ok-name_1.txt").is_ok());
        assert_eq!(validate_name(""), Err(FsError::InvalidName));
        assert_eq!(validate_name("."), Err(FsError::InvalidName));
        assert_eq!(validate_name(".."), Err(FsError::InvalidName));
        assert_eq!(validate_name("a/b"), Err(FsError::InvalidName));
        assert_eq!(validate_name("a\0b"), Err(FsError::InvalidName));
        assert_eq!(
            validate_name(&"y".repeat(MAX_NAME_LEN + 1)),
            Err(FsError::NameTooLong)
        );
    }

    #[test]
    fn tag_spaces_do_not_collide() {
        // An attr key can never equal an inode key, etc.
        assert_ne!(attr_key(1)[0], inode_key(1, "x")[0]);
        assert_ne!(small_key(1)[0], big_key(1, 0)[0]);
        assert_ne!(attr_key(1), small_key(1));
    }

    #[test]
    fn name_from_foreign_key_is_none() {
        assert_eq!(name_from_inode_key(&attr_key(3)), None);
        assert_eq!(name_from_inode_key(&[TAG_INODE]), None);
    }
}
