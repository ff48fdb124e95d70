//! Sharded, versioned checkpoint state — the persistence layer behind the
//! resumable [`Trainer`](crate::runtime::dist::Trainer).
//!
//! There is one durable format and one reader of its schema:
//! [`Trainer::checkpoint`](crate::runtime::dist::Trainer::checkpoint)
//! writes the shard set and
//! [`Trainer::resume`](crate::runtime::dist::Trainer::resume) validates
//! and restores it. This module holds what both stand on.
//!
//! Everything that must survive a restart flows through one container, the
//! [`StateDict`]: a set of named tensors (`f32` vectors), counters (`u64`
//! vectors), and strings with a **sorted, versioned, deterministic** binary
//! layout. Determinism is the point — the resume suite asserts that a run
//! interrupted at any step boundary continues bitwise identically, and that
//! is only checkable if saving the same state twice produces the same
//! bytes.
//!
//! The pieces:
//!
//! * [`write_shard`] / [`read_shard`] / [`shard_paths`] — per-rank shard
//!   files (`shard-{rank:04}-of-{world:04}.fpdt`) under a checkpoint
//!   directory. Replicated metadata appears in every shard; per-rank
//!   payloads (parameter and moment slices) appear only in their own.
//! * [`CkptError`] — typed failures. A truncated shard, a bad magic, a
//!   missing rank file each get a distinct variant; nothing in this module
//!   panics on malformed input.
//!
//! ## Binary layout (version `FPDTCK02`)
//!
//! ```text
//! magic: 8 bytes "FPDTCK02"
//! count: u64 LE                     -- number of entries
//! entry (count times, sorted by key bytes):
//!   key_len: u64 LE | key: UTF-8 bytes
//!   tag: u8                         -- 0 = f32, 1 = u64, 2 = string
//!   len: u64 LE                     -- element count (bytes for strings)
//!   payload: len * {f32 LE | u64 LE | UTF-8 byte}
//! ```
//!
//! Entries are sorted by key at serialization time regardless of insertion
//! order, so two logically equal dicts are byte-equal on disk.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Magic prefix of the sharded checkpoint format, version 2 — the only
/// version this runtime reads or writes.
pub const SHARD_MAGIC: &[u8; 8] = b"FPDTCK02";

/// Typed checkpoint failure. Every IO and decode path returns one of
/// these — corrupted or truncated shards must surface as errors the
/// caller can branch on, never as panics or silently wrong state.
#[derive(Debug)]
pub enum CkptError {
    /// Underlying filesystem failure (open, read, write, create).
    Io(std::io::Error),
    /// The file decoded but its contents are inconsistent: truncated
    /// payload, unknown tag, non-UTF-8 key, length mismatch against the
    /// model it is being loaded into.
    Corrupt(String),
    /// A required entry or shard file is absent.
    Missing(String),
    /// The magic header identifies a different (or no) format version.
    Version(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CkptError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CkptError::Missing(what) => write!(f, "missing checkpoint state: {what}"),
            CkptError::Version(what) => write!(f, "checkpoint version mismatch: {what}"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// One value in a [`StateDict`].
#[derive(Debug, Clone, PartialEq)]
pub enum StateValue {
    /// Tensor-backed payload (parameters, moments, losses, gradients).
    F32(Vec<f32>),
    /// Counter payload (steps, RNG words, shapes, statistics).
    U64(Vec<u64>),
    /// Small identity payload (config names, op tags).
    Str(String),
}

impl StateValue {
    fn tag(&self) -> u8 {
        match self {
            StateValue::F32(_) => 0,
            StateValue::U64(_) => 1,
            StateValue::Str(_) => 2,
        }
    }
}

/// A named, sorted collection of checkpoint state.
///
/// Backed by a `BTreeMap` so iteration — and therefore the serialized
/// byte stream — is key-ordered no matter what order producers inserted
/// in. Accessors return typed errors instead of panicking so a corrupt or
/// stale shard is reported, not fatal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateDict {
    entries: BTreeMap<String, StateValue>,
}

impl StateDict {
    /// An empty dict.
    pub fn new() -> Self {
        StateDict::default()
    }

    /// Inserts (or replaces) one entry.
    pub fn insert(&mut self, key: impl Into<String>, value: StateValue) {
        self.entries.insert(key.into(), value);
    }

    /// Keys in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(|k| k.as_str())
    }

    /// A required f32 entry.
    ///
    /// # Errors
    ///
    /// [`CkptError::Missing`] when absent, [`CkptError::Corrupt`] when the
    /// entry holds a different type.
    pub fn f32s(&self, key: &str) -> Result<&[f32], CkptError> {
        match self.entries.get(key) {
            Some(StateValue::F32(v)) => Ok(v),
            Some(_) => Err(CkptError::Corrupt(format!("entry {key:?} is not f32"))),
            None => Err(CkptError::Missing(format!("entry {key:?}"))),
        }
    }

    /// A required u64 entry (same error contract as [`StateDict::f32s`]).
    ///
    /// # Errors
    ///
    /// [`CkptError::Missing`] when absent, [`CkptError::Corrupt`] on a
    /// type mismatch.
    pub fn u64s(&self, key: &str) -> Result<&[u64], CkptError> {
        match self.entries.get(key) {
            Some(StateValue::U64(v)) => Ok(v),
            Some(_) => Err(CkptError::Corrupt(format!("entry {key:?} is not u64"))),
            None => Err(CkptError::Missing(format!("entry {key:?}"))),
        }
    }

    /// A required u64 entry of exactly `N` elements.
    ///
    /// # Errors
    ///
    /// As [`StateDict::u64s`], plus [`CkptError::Corrupt`] naming the key
    /// and both counts when the entry holds another number of elements.
    pub fn u64s_n<const N: usize>(&self, key: &str) -> Result<[u64; N], CkptError> {
        let v = self.u64s(key)?;
        v.try_into()
            .map_err(|_| CkptError::Corrupt(format!("entry {key:?} has {} elements, expected {N}", v.len())))
    }

    /// A required scalar u64 entry: [`StateDict::u64s_n`] of one element.
    ///
    /// # Errors
    ///
    /// As [`StateDict::u64s_n`].
    pub fn u64_scalar(&self, key: &str) -> Result<u64, CkptError> {
        let [x] = self.u64s_n(key)?;
        Ok(x)
    }

    /// A required string entry (same error contract as
    /// [`StateDict::f32s`]).
    ///
    /// # Errors
    ///
    /// [`CkptError::Missing`] when absent, [`CkptError::Corrupt`] on a
    /// type mismatch.
    pub fn str(&self, key: &str) -> Result<&str, CkptError> {
        match self.entries.get(key) {
            Some(StateValue::Str(v)) => Ok(v),
            Some(_) => Err(CkptError::Corrupt(format!("entry {key:?} is not a string"))),
            None => Err(CkptError::Missing(format!("entry {key:?}"))),
        }
    }

    /// Serializes to the versioned byte layout (see the module docs).
    /// Deterministic: equal dicts produce equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(SHARD_MAGIC);
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for (key, value) in &self.entries {
            out.extend_from_slice(&(key.len() as u64).to_le_bytes());
            out.extend_from_slice(key.as_bytes());
            out.push(value.tag());
            match value {
                StateValue::F32(v) => {
                    out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                    for x in v {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
                StateValue::U64(v) => {
                    out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                    for x in v {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
                StateValue::Str(v) => {
                    out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                    out.extend_from_slice(v.as_bytes());
                }
            }
        }
        out
    }

    /// Decodes the byte layout produced by [`StateDict::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CkptError::Version`] on a foreign magic, [`CkptError::Corrupt`]
    /// on truncation, unknown tags, or invalid UTF-8.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut r = ByteReader { bytes, pos: 0 };
        let magic = r.take(8)?;
        if magic != SHARD_MAGIC {
            return Err(CkptError::Version(format!(
                "expected {:?}, found {:?}",
                String::from_utf8_lossy(SHARD_MAGIC),
                String::from_utf8_lossy(magic)
            )));
        }
        let count = r.u64()? as usize;
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let key_len = r.u64()? as usize;
            let key = std::str::from_utf8(r.take(key_len)?)
                .map_err(|_| CkptError::Corrupt("non-UTF-8 entry key".into()))?
                .to_string();
            let tag = r.take(1)?[0];
            let len = r.u64()? as usize;
            let value = match tag {
                0 => {
                    let raw = r.take(len.checked_mul(4).ok_or_else(overflow)?)?;
                    StateValue::F32(
                        raw.chunks_exact(4)
                            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                            .collect(),
                    )
                }
                1 => {
                    let raw = r.take(len.checked_mul(8).ok_or_else(overflow)?)?;
                    StateValue::U64(
                        raw.chunks_exact(8)
                            .map(|c| {
                                u64::from_le_bytes([
                                    c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
                                ])
                            })
                            .collect(),
                    )
                }
                2 => StateValue::Str(
                    std::str::from_utf8(r.take(len)?)
                        .map_err(|_| CkptError::Corrupt(format!("entry {key:?}: bad UTF-8")))?
                        .to_string(),
                ),
                t => {
                    return Err(CkptError::Corrupt(format!(
                        "entry {key:?}: unknown tag {t}"
                    )))
                }
            };
            entries.insert(key, value);
        }
        if r.pos != bytes.len() {
            return Err(CkptError::Corrupt(format!(
                "{} trailing bytes after {} entries",
                bytes.len() - r.pos,
                count
            )));
        }
        Ok(StateDict { entries })
    }
}

fn overflow() -> CkptError {
    CkptError::Corrupt("entry length overflows".into())
}

struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        // `pos <= len` always holds; `pos + n` could overflow on a
        // corrupted length field.
        if n > self.bytes.len() - self.pos {
            return Err(CkptError::Corrupt(format!(
                "truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        let c = self.take(8)?;
        Ok(u64::from_le_bytes([
            c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
        ]))
    }
}

// ---------------------------------------------------------------------------
// Shard files
// ---------------------------------------------------------------------------

/// File name of one rank's shard.
pub fn shard_name(rank: usize, world: usize) -> String {
    format!("shard-{rank:04}-of-{world:04}.fpdt")
}

/// Writes one rank's shard into `dir` (created if needed), atomically: the
/// bytes land in a temporary file first and are renamed into place, so a
/// crash mid-write leaves no half-shard under the final name.
///
/// # Errors
///
/// Propagates filesystem failures as [`CkptError::Io`].
pub fn write_shard(
    dir: &Path,
    rank: usize,
    world: usize,
    dict: &StateDict,
) -> Result<PathBuf, CkptError> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(shard_name(rank, world));
    let tmp = dir.join(format!("{}.tmp", shard_name(rank, world)));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(&dict.to_bytes())?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Reads and decodes one shard file.
///
/// # Errors
///
/// [`CkptError::Io`] when unreadable, [`CkptError::Version`] /
/// [`CkptError::Corrupt`] from [`StateDict::from_bytes`].
pub fn read_shard(path: &Path) -> Result<StateDict, CkptError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    StateDict::from_bytes(&bytes)
}

/// The complete, validated shard set of a checkpoint directory, in rank
/// order. The world size is read off the `of-{world}` suffix and every
/// rank `0..world` must be present exactly once.
///
/// # Errors
///
/// [`CkptError::Missing`] when the directory holds no shards or a rank
/// file is absent, [`CkptError::Corrupt`] when file names disagree about
/// the world size.
pub fn shard_paths(dir: &Path) -> Result<Vec<PathBuf>, CkptError> {
    let mut world: Option<usize> = None;
    let mut found: BTreeMap<usize, PathBuf> = BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some((rank, w)) = parse_shard_name(name) else {
            continue;
        };
        match world {
            None => world = Some(w),
            Some(prev) if prev != w => {
                return Err(CkptError::Corrupt(format!(
                    "shards disagree about world size: {prev} vs {w}"
                )));
            }
            Some(_) => {}
        }
        if found.insert(rank, path).is_some() {
            return Err(CkptError::Corrupt(format!("duplicate shard for rank {rank}")));
        }
    }
    let world = world.ok_or_else(|| {
        CkptError::Missing(format!("no checkpoint shards under {}", dir.display()))
    })?;
    let mut out = Vec::with_capacity(world);
    for rank in 0..world {
        let path = found.remove(&rank).ok_or_else(|| {
            CkptError::Missing(format!("shard for rank {rank} of {world}"))
        })?;
        out.push(path);
    }
    if let Some((&rank, _)) = found.iter().next() {
        return Err(CkptError::Corrupt(format!(
            "shard rank {rank} out of range for world {world}"
        )));
    }
    Ok(out)
}

fn parse_shard_name(name: &str) -> Option<(usize, usize)> {
    let rest = name.strip_prefix("shard-")?.strip_suffix(".fpdt")?;
    let (rank, world) = rest.split_once("-of-")?;
    Some((rank.parse().ok()?, world.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dict() -> StateDict {
        let mut d = StateDict::new();
        d.insert("zz.last", StateValue::Str("tail".into()));
        d.insert("aa.first", StateValue::F32(vec![1.0, -2.5, 3e-7]));
        d.insert("mm.mid", StateValue::U64(vec![7, 0, u64::MAX]));
        d
    }

    #[test]
    fn byte_layout_round_trips_and_is_sorted() {
        let d = sample_dict();
        let bytes = d.to_bytes();
        assert_eq!(&bytes[..8], SHARD_MAGIC);
        let back = StateDict::from_bytes(&bytes).unwrap();
        assert_eq!(back, d);
        // serialization order is key order, not insertion order
        let keys: Vec<&str> = back.keys().collect();
        assert_eq!(keys, ["aa.first", "mm.mid", "zz.last"]);
        // deterministic: same state, same bytes
        let mut again = StateDict::new();
        for k in ["mm.mid", "zz.last", "aa.first"] {
            // rebuild in a different insertion order
            again.insert(k, d.entries.get(k).unwrap().clone());
        }
        assert_eq!(again.to_bytes(), bytes);
    }

    #[test]
    fn decode_rejects_truncation_version_and_garbage() {
        let bytes = sample_dict().to_bytes();
        // any strict prefix must fail Corrupt (or Version for <8 bytes)
        for cut in [4usize, 9, bytes.len() / 2, bytes.len() - 1] {
            let err = StateDict::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CkptError::Corrupt(_) | CkptError::Version(_)),
                "cut at {cut}: {err}"
            );
        }
        // foreign magic is a version error
        let mut wrong = bytes.clone();
        wrong[..8].copy_from_slice(b"FPDTCK01");
        assert!(matches!(
            StateDict::from_bytes(&wrong).unwrap_err(),
            CkptError::Version(_)
        ));
        // trailing junk is corrupt, not silently ignored
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            StateDict::from_bytes(&long).unwrap_err(),
            CkptError::Corrupt(_)
        ));
    }

    #[test]
    fn typed_accessors_report_missing_and_mismatched() {
        let d = sample_dict();
        assert!(matches!(d.f32s("nope"), Err(CkptError::Missing(_))));
        assert!(matches!(d.f32s("mm.mid"), Err(CkptError::Corrupt(_))));
        assert!(matches!(d.u64_scalar("mm.mid"), Err(CkptError::Corrupt(_))));
        assert_eq!(d.str("zz.last").unwrap(), "tail");
    }

    #[test]
    fn a_fixed_length_entry_of_another_length_is_corrupt_and_says_so() {
        let d = sample_dict();
        assert_eq!(d.u64s_n::<3>("mm.mid").unwrap(), [7, 0, u64::MAX]);
        for (err, n) in [(d.u64s_n::<2>("mm.mid").unwrap_err(), 2), (d.u64s_n::<4>("mm.mid").unwrap_err(), 4)] {
            let want = format!("entry \"mm.mid\" has 3 elements, expected {n}");
            assert!(matches!(&err, CkptError::Corrupt(msg) if *msg == want), "{err:?}");
        }
        assert!(matches!(d.u64s_n::<3>("nope"), Err(CkptError::Missing(_))));
        assert!(matches!(d.u64s_n::<1>("zz.last"), Err(CkptError::Corrupt(_))));
    }

    #[test]
    fn shard_files_round_trip_and_validate_the_set() {
        let dir = std::env::temp_dir().join(format!("fpdt-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let world = 3;
        for rank in 0..world {
            let mut d = StateDict::new();
            d.insert("meta.rank", StateValue::U64(vec![rank as u64]));
            write_shard(&dir, rank, world, &d).unwrap();
        }
        let paths = shard_paths(&dir).unwrap();
        assert_eq!(paths.len(), world);
        for (rank, path) in paths.iter().enumerate() {
            let d = read_shard(path).unwrap();
            assert_eq!(d.u64_scalar("meta.rank").unwrap(), rank as u64);
        }
        // a missing rank is typed
        std::fs::remove_file(&paths[1]).unwrap();
        assert!(matches!(shard_paths(&dir).unwrap_err(), CkptError::Missing(_)));
        // a truncated shard is corrupt, not a panic
        let bytes = std::fs::read(&paths[0]).unwrap();
        std::fs::write(&paths[0], &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            read_shard(&paths[0]).unwrap_err(),
            CkptError::Corrupt(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
