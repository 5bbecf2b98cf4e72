//! Crash-consistent checkpoint storage with deterministic disk faults.
//!
//! PR 6 gave the collector a durability story (checkpoint/resume), but the
//! storage path assumed a perfect disk. This module makes the disk a
//! first-class, *faultable* dependency:
//!
//! * [`DiskEnv`] — the narrow syscall surface the store needs (read,
//!   write, fsync file, fsync directory, rename, remove, list), with a
//!   real implementation ([`RealDisk`]) and an in-memory simulated one
//!   ([`SimDisk`]);
//! * [`FaultyDisk`] — a wrapper over any `DiskEnv` that injects torn
//!   writes (prefix-only persistence), silent bit rot, `ENOSPC`, and
//!   crash-before/after-rename at seeded operation indices, compiled from
//!   a [`StorageFaultPlan`] the same way `starlink-faults` compiles link
//!   fault plans from a scenario;
//! * [`CheckpointStore`] — a journaled last-good chain of
//!   generation-numbered checkpoint files (`ckpt-<gen>.slcp`), fsynced on
//!   file *and* directory, indexed by a tiny CRC-sealed `MANIFEST`.
//!   Recovery walks back from the newest generation to the newest blob
//!   that passes the caller's validator, moving damaged blobs into a
//!   `quarantine/` directory instead of deleting them.
//!
//! The store keeps conservation counters — every generation ever sealed
//! is `live`, `pruned`, or `quarantined`, and
//! `written == live + pruned + quarantined` at all times — which the
//! simtest storage oracle checks after every injected fault + restart.
//! [`CheckpointStore::debug_manifest_miscount_every`] plants a deliberate
//! undercount so the swarm can prove the oracle catches it.

use crate::checkpoint::CheckpointError;
use crate::wire::{WireError, WireReader, WireWriter};
use starlink_obsv::{counter_add, emit, StorageShedReason, TraceEvent};
use starlink_simcore::{SimRng, SimTime};
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// The four magic bytes the MANIFEST starts with.
pub(crate) const MANIFEST_MAGIC: [u8; 4] = *b"SLMF";
/// The current MANIFEST format version.
pub(crate) const MANIFEST_VERSION: u16 = 1;
/// File name of the manifest inside a checkpoint directory.
pub const MANIFEST_NAME: &str = "MANIFEST";
/// Subdirectory damaged blobs are moved into (never deleted).
pub(crate) const QUARANTINE_DIR: &str = "quarantine";
/// Default number of verified generations kept on disk.
pub const DEFAULT_RETAIN: u64 = 3;
/// Attempts [`CheckpointStore::open_retrying`] makes on one disk.
const OPEN_ATTEMPTS: u32 = 5;

/// Exact encoded size of a sealed manifest.
const MANIFEST_LEN: usize = 4 + 2 + 8 * 4 + 4;

/// A typed storage failure. Mirrors [`WireError`]'s role for the wire
/// format: every disk misbehaviour the store can observe maps to one
/// variant, so callers shed checkpoint attempts with a machine-readable
/// reason instead of a stringly `io::Error`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The disk is out of space; nothing was persisted for this op.
    NoSpace,
    /// A (simulated) power loss: the process must restart and recover.
    Crashed,
    /// Any other I/O failure, with the failing operation named.
    Io {
        /// Which disk operation failed.
        op: &'static str,
        /// The underlying I/O error kind.
        kind: std::io::ErrorKind,
    },
}

impl StorageError {
    /// Stable machine-readable short code.
    pub fn code(&self) -> &'static str {
        match self {
            StorageError::NoSpace => "no-space",
            StorageError::Crashed => "crashed",
            StorageError::Io { .. } => "io",
        }
    }

    /// The shed-reason tag this failure traces as.
    fn shed_reason(&self) -> StorageShedReason {
        match self {
            StorageError::NoSpace => StorageShedReason::NoSpace,
            StorageError::Crashed => StorageShedReason::Crashed,
            StorageError::Io { .. } => StorageShedReason::Io,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NoSpace => write!(f, "no space left on device"),
            StorageError::Crashed => write!(f, "simulated power loss (restart to recover)"),
            StorageError::Io { op, kind } => write!(f, "i/o failure during {op}: {kind:?}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// The syscall surface the checkpoint store needs, small enough to
/// simulate exactly. Paths are relative to the store's root directory
/// (`""` names the root itself); implementations own the mapping onto a
/// real or in-memory namespace.
pub trait DiskEnv: Send {
    /// Reads a whole file; `Ok(None)` when it does not exist.
    fn read(&mut self, path: &str) -> Result<Option<Vec<u8>>, StorageError>;
    /// Creates or replaces a file with `bytes` (not yet durable).
    fn write(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError>;
    /// Forces a file's contents to stable storage (`fsync`).
    fn sync_file(&mut self, path: &str) -> Result<(), StorageError>;
    /// Forces a directory's entries to stable storage (`fsync` on the
    /// directory — required for a rename or create to survive power loss).
    fn sync_dir(&mut self, dir: &str) -> Result<(), StorageError>;
    /// Atomically renames `from` to `to`, replacing any existing `to`.
    fn rename(&mut self, from: &str, to: &str) -> Result<(), StorageError>;
    /// Removes a file (missing files are not an error).
    fn remove(&mut self, path: &str) -> Result<(), StorageError>;
    /// The sorted file names directly inside `dir` (no recursion).
    fn list(&mut self, dir: &str) -> Result<Vec<String>, StorageError>;
    /// Creates `dir` (and parents) if absent.
    fn create_dir_all(&mut self, dir: &str) -> Result<(), StorageError>;
}

fn io_err(op: &'static str, e: std::io::Error) -> StorageError {
    if e.kind() == std::io::ErrorKind::StorageFull {
        StorageError::NoSpace
    } else {
        StorageError::Io { op, kind: e.kind() }
    }
}

/// [`DiskEnv`] over a real directory tree via `std::fs`, with genuine
/// `sync_all` on files and (on unix) on directories.
#[derive(Debug)]
pub struct RealDisk {
    root: PathBuf,
}

impl RealDisk {
    /// A disk rooted at `root` (created lazily by `create_dir_all`).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        RealDisk { root: root.into() }
    }

    fn full(&self, path: &str) -> PathBuf {
        if path.is_empty() {
            self.root.clone()
        } else {
            self.root.join(path)
        }
    }
}

impl DiskEnv for RealDisk {
    fn read(&mut self, path: &str) -> Result<Option<Vec<u8>>, StorageError> {
        match std::fs::read(self.full(path)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", e)),
        }
    }

    fn write(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        std::fs::write(self.full(path), bytes).map_err(|e| io_err("write", e))
    }

    fn sync_file(&mut self, path: &str) -> Result<(), StorageError> {
        std::fs::File::open(self.full(path))
            .and_then(|f| f.sync_all())
            .map_err(|e| io_err("sync_file", e))
    }

    fn sync_dir(&mut self, dir: &str) -> Result<(), StorageError> {
        sync_real_dir(&self.full(dir))
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StorageError> {
        std::fs::rename(self.full(from), self.full(to)).map_err(|e| io_err("rename", e))
    }

    fn remove(&mut self, path: &str) -> Result<(), StorageError> {
        match std::fs::remove_file(self.full(path)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", e)),
        }
    }

    fn list(&mut self, dir: &str) -> Result<Vec<String>, StorageError> {
        let mut names = Vec::new();
        let entries = match std::fs::read_dir(self.full(dir)) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(names),
            Err(e) => return Err(io_err("list", e)),
        };
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list", e))?;
            let is_file = entry
                .file_type()
                .map(|t| t.is_file())
                .map_err(|e| io_err("list", e))?;
            if is_file {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn create_dir_all(&mut self, dir: &str) -> Result<(), StorageError> {
        std::fs::create_dir_all(self.full(dir)).map_err(|e| io_err("create_dir_all", e))
    }
}

/// `fsync` on a directory handle, so renames/creates inside it survive
/// power loss. On non-unix targets opening a directory read-only is not
/// portable; the call degrades to a no-op there.
fn sync_real_dir(dir: &Path) -> Result<(), StorageError> {
    #[cfg(unix)]
    {
        std::fs::File::open(dir)
            .and_then(|f| f.sync_all())
            .map_err(|e| io_err("sync_dir", e))
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// In-memory [`DiskEnv`]: a deterministic namespace for simulation tests.
/// Tracks which files have unsynced writes so tests can assert the store
/// really fsyncs before declaring a generation durable.
#[derive(Debug, Default)]
pub struct SimDisk {
    files: std::collections::BTreeMap<String, Vec<u8>>,
    dirs: BTreeSet<String>,
    dirty: BTreeSet<String>,
    file_syncs: u64,
    dir_syncs: u64,
}

impl SimDisk {
    /// An empty disk.
    pub fn new() -> Self {
        SimDisk::default()
    }

    /// Direct handle on a file's bytes (for corruption in tests).
    pub fn file_mut(&mut self, path: &str) -> Option<&mut Vec<u8>> {
        self.files.get_mut(path)
    }

    /// Direct read without going through the `DiskEnv` error surface.
    pub fn file(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(|v| v.as_slice())
    }

    /// Every file path on the disk, sorted.
    pub fn paths(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }
}

impl DiskEnv for SimDisk {
    fn read(&mut self, path: &str) -> Result<Option<Vec<u8>>, StorageError> {
        Ok(self.files.get(path).cloned())
    }

    fn write(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.files.insert(path.to_string(), bytes.to_vec());
        self.dirty.insert(path.to_string());
        Ok(())
    }

    fn sync_file(&mut self, path: &str) -> Result<(), StorageError> {
        if !self.files.contains_key(path) {
            return Err(StorageError::Io {
                op: "sync_file",
                kind: std::io::ErrorKind::NotFound,
            });
        }
        self.dirty.remove(path);
        self.file_syncs += 1;
        Ok(())
    }

    fn sync_dir(&mut self, _dir: &str) -> Result<(), StorageError> {
        self.dir_syncs += 1;
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StorageError> {
        match self.files.remove(from) {
            Some(bytes) => {
                self.files.insert(to.to_string(), bytes);
                if self.dirty.remove(from) {
                    self.dirty.insert(to.to_string());
                }
                Ok(())
            }
            None => Err(StorageError::Io {
                op: "rename",
                kind: std::io::ErrorKind::NotFound,
            }),
        }
    }

    fn remove(&mut self, path: &str) -> Result<(), StorageError> {
        self.files.remove(path);
        self.dirty.remove(path);
        Ok(())
    }

    fn list(&mut self, dir: &str) -> Result<Vec<String>, StorageError> {
        let prefix = if dir.is_empty() {
            String::new()
        } else {
            format!("{dir}/")
        };
        let names = self
            .files
            .keys()
            .filter_map(|path| {
                let rest = path.strip_prefix(&prefix)?;
                if rest.is_empty() || rest.contains('/') {
                    None
                } else {
                    Some(rest.to_string())
                }
            })
            .collect();
        Ok(names)
    }

    fn create_dir_all(&mut self, dir: &str) -> Result<(), StorageError> {
        if !dir.is_empty() {
            self.dirs.insert(dir.to_string());
        }
        Ok(())
    }
}

/// One injected disk fault, addressed by operation index: write faults
/// fire on the N-th `write` call (1-based), rename faults on the N-th
/// `rename` call. Indices count across the whole life of the
/// [`FaultyDisk`], surviving [`FaultyDisk::restart`], and every fault is
/// one-shot — fired faults never re-fire, so a crash/restart loop always
/// terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The N-th write persists only a seeded prefix of the bytes, then
    /// the disk crashes (torn write at power loss).
    TornWrite {
        /// 1-based write index the fault fires on.
        write: u64,
        /// Fraction of the payload that lands, parts per million.
        keep_ppm: u32,
    },
    /// The N-th write lands fully, then one seeded bit flips silently.
    BitRot {
        /// 1-based write index the fault fires on.
        write: u64,
        /// Seed selecting which bit flips.
        bit_seed: u64,
    },
    /// The N-th write fails with out-of-space; nothing is persisted.
    Enospc {
        /// 1-based write index the fault fires on.
        write: u64,
    },
    /// The disk crashes just before the N-th rename applies.
    CrashBeforeRename {
        /// 1-based rename index the fault fires on.
        rename: u64,
    },
    /// The N-th rename applies, then the disk crashes.
    CrashAfterRename {
        /// 1-based rename index the fault fires on.
        rename: u64,
    },
}

/// A compiled set of one-shot disk faults, mirroring how
/// `starlink_faults::FaultPlan` compiles link faults: built explicitly or
/// drawn from a seed, then handed to a [`FaultyDisk`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageFaultPlan {
    faults: Vec<StorageFault>,
}

impl StorageFaultPlan {
    /// An empty plan (the wrapped disk behaves perfectly).
    pub fn new() -> Self {
        StorageFaultPlan::default()
    }

    /// Adds one fault.
    pub fn push(&mut self, fault: StorageFault) -> &mut Self {
        self.faults.push(fault);
        self
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults in the plan.
    pub fn faults(&self) -> &[StorageFault] {
        &self.faults
    }

    /// Draws a plan from a seed: `torn_writes` torn writes, `bit_rots`
    /// bit flips and `enospc` out-of-space failures at write indices in
    /// `1..=24`, and `crashes` crash-around-rename faults at rename
    /// indices in `1..=16` (alternating before/after). The windows are
    /// small on purpose — short checkpointed runs must actually hit the
    /// injected indices.
    pub fn from_seed(
        seed: u64,
        torn_writes: u64,
        bit_rots: u64,
        enospc: u64,
        crashes: u64,
    ) -> Self {
        let mut rng = SimRng::seed_from(seed).stream("storage-fault-plan");
        let mut plan = StorageFaultPlan::new();
        for _ in 0..torn_writes {
            plan.push(StorageFault::TornWrite {
                write: rng.range_u64(1, 24),
                keep_ppm: rng.below(1_000_000) as u32,
            });
        }
        for _ in 0..bit_rots {
            plan.push(StorageFault::BitRot {
                write: rng.range_u64(1, 24),
                bit_seed: rng.next_u64(),
            });
        }
        for _ in 0..enospc {
            plan.push(StorageFault::Enospc {
                write: rng.range_u64(1, 24),
            });
        }
        for i in 0..crashes {
            let rename = rng.range_u64(1, 16);
            plan.push(if i % 2 == 0 {
                StorageFault::CrashBeforeRename { rename }
            } else {
                StorageFault::CrashAfterRename { rename }
            });
        }
        plan
    }
}

/// A [`DiskEnv`] wrapper that injects the faults of a
/// [`StorageFaultPlan`] at their seeded operation indices. After a crash
/// fault fires every operation fails with [`StorageError::Crashed`] until
/// [`FaultyDisk::restart`] — modelling the window between power loss and
/// the process coming back up.
pub struct FaultyDisk {
    inner: Box<dyn DiskEnv>,
    faults: Vec<(StorageFault, bool)>,
    writes: u64,
    renames: u64,
    crashed: bool,
}

impl FaultyDisk {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: Box<dyn DiskEnv>, plan: StorageFaultPlan) -> Self {
        FaultyDisk {
            inner,
            faults: plan.faults.into_iter().map(|f| (f, false)).collect(),
            writes: 0,
            renames: 0,
            crashed: false,
        }
    }

    /// A faultless wrapper (useful when one code path wants a single
    /// concrete disk type with faults merely optional).
    pub fn perfect(inner: Box<dyn DiskEnv>) -> Self {
        FaultyDisk::new(inner, StorageFaultPlan::new())
    }

    /// Whether a crash fault has fired and not been cleared.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Simulates the process coming back up after a power loss.
    /// Operation counters and already-fired faults are preserved.
    pub fn restart(&mut self) {
        self.crashed = false;
    }

    /// Finds an unfired fault matching `pick` and marks it fired.
    fn take(&mut self, pick: impl Fn(&StorageFault) -> bool) -> Option<StorageFault> {
        for (fault, fired) in &mut self.faults {
            if !*fired && pick(fault) {
                *fired = true;
                return Some(*fault);
            }
        }
        None
    }

    fn guard(&self) -> Result<(), StorageError> {
        if self.crashed {
            Err(StorageError::Crashed)
        } else {
            Ok(())
        }
    }
}

impl fmt::Debug for FaultyDisk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyDisk")
            .field("faults", &self.faults)
            .field("writes", &self.writes)
            .field("renames", &self.renames)
            .field("crashed", &self.crashed)
            .finish_non_exhaustive()
    }
}

impl DiskEnv for FaultyDisk {
    fn read(&mut self, path: &str) -> Result<Option<Vec<u8>>, StorageError> {
        self.guard()?;
        self.inner.read(path)
    }

    fn write(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.guard()?;
        self.writes += 1;
        let idx = self.writes;
        if self
            .take(|f| matches!(f, StorageFault::Enospc { write } if *write == idx))
            .is_some()
        {
            return Err(StorageError::NoSpace);
        }
        if let Some(StorageFault::TornWrite { keep_ppm, .. }) =
            self.take(|f| matches!(f, StorageFault::TornWrite { write, .. } if *write == idx))
        {
            let keep = (bytes.len() as u64 * u64::from(keep_ppm) / 1_000_000) as usize;
            self.inner.write(path, &bytes[..keep])?;
            self.crashed = true;
            return Err(StorageError::Crashed);
        }
        self.inner.write(path, bytes)?;
        if let Some(StorageFault::BitRot { bit_seed, .. }) =
            self.take(|f| matches!(f, StorageFault::BitRot { write, .. } if *write == idx))
        {
            if let Some(mut rotted) = self.inner.read(path)? {
                if !rotted.is_empty() {
                    let bit = bit_seed % (rotted.len() as u64 * 8);
                    rotted[(bit / 8) as usize] ^= 1 << (bit % 8);
                    self.inner.write(path, &rotted)?;
                }
            }
        }
        Ok(())
    }

    fn sync_file(&mut self, path: &str) -> Result<(), StorageError> {
        self.guard()?;
        self.inner.sync_file(path)
    }

    fn sync_dir(&mut self, dir: &str) -> Result<(), StorageError> {
        self.guard()?;
        self.inner.sync_dir(dir)
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StorageError> {
        self.guard()?;
        self.renames += 1;
        let idx = self.renames;
        if self
            .take(|f| matches!(f, StorageFault::CrashBeforeRename { rename } if *rename == idx))
            .is_some()
        {
            self.crashed = true;
            return Err(StorageError::Crashed);
        }
        self.inner.rename(from, to)?;
        if self
            .take(|f| matches!(f, StorageFault::CrashAfterRename { rename } if *rename == idx))
            .is_some()
        {
            self.crashed = true;
            return Err(StorageError::Crashed);
        }
        Ok(())
    }

    fn remove(&mut self, path: &str) -> Result<(), StorageError> {
        self.guard()?;
        self.inner.remove(path)
    }

    fn list(&mut self, dir: &str) -> Result<Vec<String>, StorageError> {
        self.guard()?;
        self.inner.list(dir)
    }

    fn create_dir_all(&mut self, dir: &str) -> Result<(), StorageError> {
        self.guard()?;
        self.inner.create_dir_all(dir)
    }
}

/// The CRC-sealed index at the head of a checkpoint directory: which
/// generation is the newest *verified* one (0 = none yet), plus the
/// conservation counters. 42 bytes on disk:
///
/// ```text
/// +----------+---------+--------+---------+--------+-------------+-------+
/// | magic    | version | newest | written | pruned | quarantined | crc32 |
/// | "SLMF" 4 | u16     | u64    | u64     | u64    | u64         | u32   |
/// +----------+---------+--------+---------+--------+-------------+-------+
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Newest generation that was fully sealed (0 when none).
    pub newest: u64,
    /// Generations ever durably written (including later pruned or
    /// quarantined ones).
    pub written: u64,
    /// Generations removed by retention pruning.
    pub pruned: u64,
    /// Generations moved into `quarantine/`.
    pub quarantined: u64,
}

/// Encodes a manifest with its trailing CRC-32.
pub fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut w = WireWriter::sealed(MANIFEST_MAGIC, MANIFEST_VERSION, MANIFEST_LEN);
    w.u64(m.newest);
    w.u64(m.written);
    w.u64(m.pruned);
    w.u64(m.quarantined);
    w.seal()
}

/// Decodes a manifest, refusing damage with a typed [`WireError`]: it
/// opens through the sealed envelope every format of this crate shares
/// (magic, version, exact length, CRC), so damage maps to the same codes
/// the batch format uses.
pub fn decode_manifest(bytes: &[u8]) -> Result<Manifest, WireError> {
    let mut r = WireReader::open(bytes, MANIFEST_MAGIC, MANIFEST_VERSION)?;
    r.check_seal(MANIFEST_LEN)?;
    Ok(Manifest {
        newest: r.u64()?,
        written: r.u64()?,
        pruned: r.u64()?,
        quarantined: r.u64()?,
    })
}

/// The canonical file name of generation `generation`, zero-padded so
/// lexicographic and numeric order agree.
pub fn generation_name(generation: u64) -> String {
    format!("ckpt-{generation:020}.slcp")
}

/// Inverse of [`generation_name`]; `None` for anything else (including
/// hostile names whose number overflows `u64`).
pub fn parse_generation_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("ckpt-")?.strip_suffix(".slcp")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// [`CheckpointStore::open`] failed partway through recovery. The disk
/// comes back with the error so a crashed [`FaultyDisk`] can be
/// [`restart`](FaultyDisk::restart)ed and recovery retried — the simtest
/// harness leans on this to survive faults injected *during* recovery.
pub struct OpenFailure<D> {
    /// The disk `open` had consumed.
    pub disk: D,
    /// Why recovery failed.
    pub error: StorageError,
}

impl<D> fmt::Debug for OpenFailure<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OpenFailure")
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

/// What recovery found: the newest generation whose blob passed the
/// caller's validator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredCheckpoint {
    /// The adopted generation.
    pub generation: u64,
    /// Its verified blob bytes.
    pub blob: Vec<u8>,
    /// How many newer damaged generations the walk quarantined past.
    pub walked_back: u64,
}

/// A live snapshot of the store's conservation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Generations ever durably written (adopted orphans included).
    pub written: u64,
    /// Generations currently on disk.
    pub live: u64,
    /// Generations removed by retention pruning.
    pub pruned: u64,
    /// Generations moved into quarantine.
    pub quarantined: u64,
    /// Checkpoint attempts shed by a storage failure (process-local).
    pub shed: u64,
    /// Damaged manifests moved into quarantine (not generations, so not
    /// part of the conservation sum).
    pub manifests_quarantined: u64,
}

impl StoreStats {
    /// The storage conservation invariant: every generation ever sealed
    /// is live, pruned, or quarantined.
    pub fn conservation_holds(&self) -> bool {
        self.written == self.live + self.pruned + self.quarantined
    }
}

/// A journaled last-good chain of checkpoint generations over a
/// [`DiskEnv`].
///
/// Write path ([`CheckpointStore::store`]): the blob lands as
/// `ckpt-<gen>.slcp`, is fsynced, the directory is fsynced, retention
/// prunes the oldest generations beyond `retain`, and the MANIFEST is
/// sealed (temp file + fsync + rename + directory fsync) pointing at the
/// new generation. Any failure sheds the attempt with a typed
/// [`StorageError`] and a `checkpoint_shed` trace event; the session loop
/// keeps serving.
///
/// Recovery path ([`CheckpointStore::open`]): read the MANIFEST (a
/// damaged one is quarantined, never trusted), scan the directory, adopt
/// orphan generations newer than the manifest (a crash between blob and
/// manifest seal), then walk back from the newest generation to the
/// newest blob the caller's validator accepts, quarantining damaged blobs
/// aside. Generations older than the adopted one are left untouched.
pub struct CheckpointStore<D: DiskEnv> {
    disk: D,
    retain: u64,
    next_gen: u64,
    newest_sealed: u64,
    live_gens: BTreeSet<u64>,
    written: u64,
    pruned: u64,
    quarantined: u64,
    shed: u64,
    manifests_quarantined: u64,
    quarantine_seq: u64,
    manifest_seals: u64,
    debug_miscount_every: u64,
}

impl<D: DiskEnv> CheckpointStore<D> {
    /// Opens (or creates) the store on `disk` and runs recovery: returns
    /// the store plus the newest checkpoint that passes `validate`, if
    /// any. On failure the disk comes back inside the [`OpenFailure`];
    /// an `error` of [`StorageError::Crashed`] means an injected power
    /// loss interrupted recovery itself — restart the disk and call
    /// `open` again.
    pub fn open(
        disk: D,
        retain: u64,
        validate: &mut dyn FnMut(&[u8]) -> bool,
        now: SimTime,
    ) -> Result<(Self, Option<RecoveredCheckpoint>), OpenFailure<D>> {
        let mut store = CheckpointStore {
            disk,
            retain: retain.max(1),
            next_gen: 1,
            newest_sealed: 0,
            live_gens: BTreeSet::new(),
            written: 0,
            pruned: 0,
            quarantined: 0,
            shed: 0,
            manifests_quarantined: 0,
            quarantine_seq: 0,
            manifest_seals: 0,
            debug_miscount_every: 0,
        };
        match store.recover(validate, now) {
            Ok(recovered) => Ok((store, recovered)),
            Err(error) => Err(OpenFailure {
                disk: store.disk,
                error,
            }),
        }
    }

    /// The recovery walk `open` runs; on error the caller still owns the
    /// store (and thus the disk).
    fn recover(
        &mut self,
        validate: &mut dyn FnMut(&[u8]) -> bool,
        now: SimTime,
    ) -> Result<Option<RecoveredCheckpoint>, StorageError> {
        let store = self;
        store.disk.create_dir_all("")?;
        store.disk.create_dir_all(QUARANTINE_DIR)?;
        store.quarantine_seq = store.disk.list(QUARANTINE_DIR)?.len() as u64;

        // The manifest: trust it only if its CRC seal verifies.
        let mut manifest = Manifest::default();
        let mut manifest_valid = false;
        if let Some(bytes) = store.disk.read(MANIFEST_NAME)? {
            match decode_manifest(&bytes) {
                Ok(m) => {
                    manifest = m;
                    manifest_valid = true;
                }
                Err(_) => {
                    store.quarantine_aside(MANIFEST_NAME, now)?;
                    store.manifests_quarantined += 1;
                }
            }
        }

        // Scan: leftover temp files are un-renamed garbage from a crash
        // mid-seal; generation files enter the walk; anything else in the
        // directory is foreign and moved aside without touching the
        // conservation counters (it was never a generation we sealed).
        let mut gens: Vec<u64> = Vec::new();
        for name in store.disk.list("")? {
            if name == MANIFEST_NAME {
                continue;
            }
            if name.ends_with(".tmp") {
                store.disk.remove(&name)?;
                continue;
            }
            match parse_generation_name(&name) {
                Some(g) => gens.push(g),
                None => {
                    store.quarantine_aside(&name, now)?;
                }
            }
        }
        gens.sort_unstable();

        let max_seen = gens.last().copied().unwrap_or(0).max(manifest.newest);
        store.next_gen = max_seen.saturating_add(1).max(1);

        if manifest_valid {
            store.written = manifest.written;
            store.pruned = manifest.pruned;
            store.quarantined = manifest.quarantined;
            // Orphans: durably written, but the crash hit before their
            // manifest seal — adopt them into the written count.
            let orphans = gens.iter().filter(|&&g| g > manifest.newest).count() as u64;
            store.written += orphans;
        }

        // Walk back from the newest generation to the newest valid blob.
        let mut recovered = None;
        let mut walked_back = 0u64;
        for &g in gens.iter().rev() {
            let name = generation_name(g);
            let blob = match store.disk.read(&name)? {
                Some(blob) => blob,
                None => continue,
            };
            if validate(&blob) {
                recovered = Some(RecoveredCheckpoint {
                    generation: g,
                    blob,
                    walked_back,
                });
                break;
            }
            store.quarantine_aside(&name, now)?;
            store.quarantined += 1;
            walked_back += 1;
        }

        // Everything still on disk at or below the adopted generation is
        // live; the walk stopped there, trusting the CRC chain below it.
        let adopted = recovered.as_ref().map(|r| r.generation).unwrap_or(0);
        store.live_gens = gens.iter().copied().filter(|&g| g <= adopted).collect();
        store.newest_sealed = adopted;

        if !manifest_valid {
            // Counters were lost with the manifest: rebuild them from the
            // disk itself. Quarantined generations are counted from the
            // quarantine directory, pruned history is gone.
            let q_gens = store
                .disk
                .list(QUARANTINE_DIR)?
                .iter()
                .filter(|n| n.starts_with("ckpt-"))
                .count() as u64;
            store.quarantined = q_gens;
            store.pruned = 0;
            store.written = store.live_gens.len() as u64 + q_gens;
        } else {
            // A crash after pruning but before the manifest seal leaves
            // the pruned counter stale; the gap between written and what
            // is accounted for on disk is exactly those lost prunes.
            store.pruned = store
                .written
                .saturating_sub(store.live_gens.len() as u64 + store.quarantined)
                .max(manifest.pruned)
                .min(store.written);
        }

        // Persist the recovered view so the next startup starts clean.
        store.write_manifest()?;

        if let Some(r) = &recovered {
            emit(|| TraceEvent::CheckpointRecovered {
                t_ns: now.as_nanos(),
                generation: r.generation,
                walked_back: r.walked_back,
            });
            counter_add("telemetry.storage.recovered", 1);
        }
        Ok(recovered)
    }

    /// Opens a store with the default retention.
    pub fn open_default(
        disk: D,
        validate: &mut dyn FnMut(&[u8]) -> bool,
        now: SimTime,
    ) -> Result<(Self, Option<RecoveredCheckpoint>), OpenFailure<D>> {
        CheckpointStore::open(disk, DEFAULT_RETAIN, validate, now)
    }

    /// [`open`](Self::open), retried on the same disk while it fails with
    /// anything but [`StorageError::Crashed`], `OPEN_ATTEMPTS` times in
    /// all. Injected faults are one-shot, so a shed open (ENOSPC on the
    /// initial manifest seal, say) gets through once the plan is spent; a
    /// crash needs the process restarted and comes straight back.
    /// `on_shed` sees each error that is about to be retried.
    pub fn open_retrying(
        mut disk: D,
        retain: u64,
        validate: &mut dyn FnMut(&[u8]) -> bool,
        now: SimTime,
        on_shed: &mut dyn FnMut(&StorageError),
    ) -> Result<(Self, Option<RecoveredCheckpoint>), OpenFailure<D>> {
        let mut attempt = 1;
        loop {
            match Self::open(disk, retain, validate, now) {
                Err(f) if f.error != StorageError::Crashed && attempt < OPEN_ATTEMPTS => {
                    on_shed(&f.error);
                    disk = f.disk;
                    attempt += 1;
                }
                done => return done,
            }
        }
    }

    /// Durably seals `blob` as the next generation and returns its
    /// number. On failure the attempt is shed: a typed error comes back,
    /// a `checkpoint_shed` event is traced, and the store stays usable
    /// (after [`StorageError::Crashed`], the *disk* needs a restart and
    /// the store must be re-opened).
    pub fn store(&mut self, blob: &[u8], now: SimTime) -> Result<u64, StorageError> {
        match self.try_store(blob, now) {
            Ok(generation) => {
                emit(|| TraceEvent::CheckpointWritten {
                    t_ns: now.as_nanos(),
                    generation,
                    bytes: blob.len() as u64,
                });
                counter_add("telemetry.storage.written", 1);
                Ok(generation)
            }
            Err(e) => {
                self.shed += 1;
                let generation = self.next_gen;
                let reason = e.shed_reason();
                emit(|| TraceEvent::CheckpointShed {
                    t_ns: now.as_nanos(),
                    generation,
                    reason,
                });
                counter_add("telemetry.storage.shed", 1);
                counter_add(reason.metric(), 1);
                Err(e)
            }
        }
    }

    fn try_store(&mut self, blob: &[u8], _now: SimTime) -> Result<u64, StorageError> {
        let generation = self.next_gen;
        if generation == u64::MAX {
            // A hostile generation file can push next_gen to the ceiling;
            // refuse to wrap rather than re-sealing an old number.
            return Err(StorageError::Io {
                op: "generation-overflow",
                kind: std::io::ErrorKind::Other,
            });
        }
        let name = generation_name(generation);
        self.disk.write(&name, blob)?;
        self.disk.sync_file(&name)?;
        self.disk.sync_dir("")?;
        // The blob is durable from here: account it even if the manifest
        // seal below fails (recovery adopts it as an orphan).
        self.live_gens.insert(generation);
        self.next_gen = generation + 1;
        self.newest_sealed = generation;
        self.manifest_seals += 1;
        let miscount = self.debug_miscount_every > 0
            && self
                .manifest_seals
                .is_multiple_of(self.debug_miscount_every);
        if !miscount {
            self.written += 1;
        }
        self.prune()?;
        self.write_manifest()?;
        Ok(generation)
    }

    /// Retention: removes the oldest live generations beyond `retain`,
    /// never touching the newest.
    fn prune(&mut self) -> Result<(), StorageError> {
        while self.live_gens.len() as u64 > self.retain {
            let oldest = *self.live_gens.iter().next().expect("non-empty");
            if oldest == self.newest_sealed {
                break;
            }
            self.disk.remove(&generation_name(oldest))?;
            self.live_gens.remove(&oldest);
            self.pruned += 1;
        }
        Ok(())
    }

    /// Seals the manifest via temp file + fsync + rename + directory
    /// fsync, so a crash at any point leaves either the old or the new
    /// manifest — never a torn one (and a torn *write* is caught by the
    /// CRC and quarantined at the next open).
    fn write_manifest(&mut self) -> Result<(), StorageError> {
        let m = Manifest {
            newest: self.newest_sealed,
            written: self.written,
            pruned: self.pruned,
            quarantined: self.quarantined,
        };
        let bytes = encode_manifest(&m);
        let tmp = "MANIFEST.tmp";
        self.disk.write(tmp, &bytes)?;
        self.disk.sync_file(tmp)?;
        self.disk.rename(tmp, MANIFEST_NAME)?;
        self.disk.sync_dir("")?;
        Ok(())
    }

    /// Moves `name` into the quarantine directory under a unique name,
    /// emitting the `checkpoint_quarantined` trace event.
    fn quarantine_aside(&mut self, name: &str, now: SimTime) -> Result<(), StorageError> {
        self.quarantine_seq += 1;
        let dest = format!("{QUARANTINE_DIR}/{name}.q{}", self.quarantine_seq);
        self.disk.rename(name, &dest)?;
        self.disk.sync_dir("")?;
        self.disk.sync_dir(QUARANTINE_DIR)?;
        let generation = parse_generation_name(name).unwrap_or(0);
        let manifest = name == MANIFEST_NAME;
        emit(|| TraceEvent::CheckpointQuarantined {
            t_ns: now.as_nanos(),
            generation,
            manifest,
        });
        counter_add("telemetry.storage.quarantined", 1);
        Ok(())
    }

    /// The conservation counters as of now.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            written: self.written,
            live: self.live_gens.len() as u64,
            pruned: self.pruned,
            quarantined: self.quarantined,
            shed: self.shed,
            manifests_quarantined: self.manifests_quarantined,
        }
    }

    /// Consumes the store, returning the disk (used by the simtest
    /// harness to restart a crashed [`FaultyDisk`] and re-open).
    pub fn into_disk(self) -> D {
        self.disk
    }

    /// Test-only planted bug: every `every`-th manifest seal skips the
    /// `written` increment, silently undercounting the chain. The storage
    /// conservation oracle must catch this; it exists to prove it can
    /// (`swarm --inject-manifest-bug`).
    pub fn debug_manifest_miscount_every(&mut self, every: u64) {
        self.debug_miscount_every = every;
    }
}

impl<D: DiskEnv> fmt::Debug for CheckpointStore<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("next_gen", &self.next_gen)
            .field("newest_sealed", &self.newest_sealed)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Opens a checkpoint chain on `disk` keeping `retain` generations, and
/// runs `resume` (a campaign's own `resume`, configuration bound, or the
/// collector server's decoder) on the newest *intact* generation, if the
/// chain holds one. The adopted generation comes back beside the result.
///
/// Intact means the blob resumed or was refused as a
/// [`CheckpointError::Mismatch`] — its CRC verified, it just belongs to
/// another scenario. Only damaged blobs are quarantined, so a sound chain
/// opened under the wrong seed comes back as that typed mismatch instead
/// of being walked past as "corrupt" and silently restarted from day 0.
///
/// Each recovery walk calls `resume` once per blob it reads, and the
/// result of the call that accepted the adopted generation is returned
/// as is rather than resumed a second time.
#[allow(clippy::type_complexity)]
pub fn open_campaign_chain<D: DiskEnv, C>(
    disk: D,
    retain: u64,
    resume: &dyn Fn(&[u8]) -> Result<C, CheckpointError>,
    on_shed: &mut dyn FnMut(&StorageError),
) -> Result<
    (
        CheckpointStore<D>,
        Option<(RecoveredCheckpoint, Result<C, CheckpointError>)>,
    ),
    OpenFailure<D>,
> {
    // The walk stops at the first blob it accepts, so the last accepted
    // result belongs to the adopted generation — of the final attempt,
    // since a shed open re-walks and overwrites it.
    let mut adopted = None;
    let mut intact = |blob: &[u8]| match resume(blob) {
        outcome @ (Ok(_) | Err(CheckpointError::Mismatch { .. })) => {
            adopted = Some(outcome);
            true
        }
        Err(_) => false,
    };
    let (store, recovered) =
        CheckpointStore::open_retrying(disk, retain, &mut intact, SimTime::ZERO, on_shed)?;
    Ok((store, recovered.zip(adopted)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_sim(disk: SimDisk) -> (CheckpointStore<SimDisk>, Option<RecoveredCheckpoint>) {
        CheckpointStore::open(disk, DEFAULT_RETAIN, &mut |_| true, SimTime::ZERO)
            .expect("sim disk cannot fail")
    }

    #[test]
    fn manifest_round_trips_and_rejects_damage() {
        let m = Manifest {
            newest: 7,
            written: 9,
            pruned: 1,
            quarantined: 1,
        };
        let bytes = encode_manifest(&m);
        assert_eq!(bytes.len(), MANIFEST_LEN);
        assert_eq!(decode_manifest(&bytes), Ok(m));

        let mut bad = bytes.clone();
        bad[10] ^= 0x40;
        assert!(matches!(
            decode_manifest(&bad),
            Err(WireError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            decode_manifest(&bytes[..MANIFEST_LEN - 1]),
            Err(WireError::Truncated { .. })
        ));
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            decode_manifest(&long),
            Err(WireError::TrailingBytes { .. })
        ));
        assert!(matches!(
            decode_manifest(b"NOPE"),
            Err(WireError::BadMagic { .. })
        ));
    }

    #[test]
    fn generation_names_round_trip_and_refuse_hostile_input() {
        assert_eq!(generation_name(7), "ckpt-00000000000000000007.slcp");
        assert_eq!(parse_generation_name(&generation_name(7)), Some(7));
        assert_eq!(
            parse_generation_name(&generation_name(u64::MAX)),
            Some(u64::MAX)
        );
        assert_eq!(parse_generation_name("ckpt-.slcp"), None);
        assert_eq!(parse_generation_name("ckpt--1.slcp"), None);
        // One past u64::MAX must not parse (or panic).
        assert_eq!(
            parse_generation_name("ckpt-18446744073709551616.slcp"),
            None
        );
        assert_eq!(parse_generation_name("MANIFEST"), None);
        assert_eq!(parse_generation_name("ckpt-5.blob"), None);
    }

    #[test]
    fn store_seals_generations_durably_and_prunes_with_conservation() {
        let (mut store, recovered) = open_sim(SimDisk::new());
        assert!(recovered.is_none());
        for i in 0..6u64 {
            let gen = store
                .store(format!("blob-{i}").as_bytes(), SimTime::from_secs(i))
                .expect("perfect disk");
            assert_eq!(gen, i + 1);
        }
        let stats = store.stats();
        assert_eq!(stats.written, 6);
        assert_eq!(stats.live, DEFAULT_RETAIN);
        assert_eq!(stats.pruned, 6 - DEFAULT_RETAIN);
        assert_eq!(stats.quarantined, 0);
        assert!(stats.conservation_holds());
        assert!(store.live_gens.iter().eq(&[4, 5, 6]));

        // Nothing the store calls durable may still be dirty.
        let disk = store.into_disk();
        assert!(disk.dirty.is_empty(), "{:?}", disk.dirty);
        let (fsyncs, dsyncs) = (disk.file_syncs, disk.dir_syncs);
        assert!(fsyncs >= 12, "blob + manifest fsyncs, got {fsyncs}");
        assert!(dsyncs >= 12, "directory fsyncs, got {dsyncs}");
    }

    #[test]
    fn recovery_walks_back_past_damage_and_quarantines() {
        let (mut store, _) = open_sim(SimDisk::new());
        for i in 0..3u64 {
            store
                .store(format!("blob-{i}").as_bytes(), SimTime::from_secs(i))
                .unwrap();
        }
        let mut disk = store.into_disk();
        // Corrupt the newest generation behind the store's back.
        disk.file_mut(&generation_name(3)).unwrap()[0] ^= 0xFF;

        let mut validate = |blob: &[u8]| blob.starts_with(b"blob-");
        let (store, recovered) =
            CheckpointStore::open(disk, DEFAULT_RETAIN, &mut validate, SimTime::ZERO).unwrap();
        let r = recovered.expect("generation 2 is intact");
        assert_eq!(r.generation, 2);
        assert_eq!(r.blob, b"blob-1");
        assert_eq!(r.walked_back, 1);
        let stats = store.stats();
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.live, 2);
        assert_eq!(stats.written, 3);
        assert!(stats.conservation_holds());
        let mut disk = store.into_disk();
        let q = disk.list(QUARANTINE_DIR).unwrap();
        assert_eq!(q.len(), 1, "damaged blob preserved: {q:?}");
        assert!(q[0].starts_with("ckpt-"), "{q:?}");
    }

    #[test]
    fn damaged_manifest_is_quarantined_and_counters_rebuilt() {
        let (mut store, _) = open_sim(SimDisk::new());
        for i in 0..2u64 {
            store
                .store(format!("blob-{i}").as_bytes(), SimTime::from_secs(i))
                .unwrap();
        }
        let mut disk = store.into_disk();
        disk.file_mut(MANIFEST_NAME).unwrap().truncate(5);

        let (store, recovered) = open_sim(disk);
        assert_eq!(recovered.expect("blobs intact").generation, 2);
        let stats = store.stats();
        assert_eq!(stats.manifests_quarantined, 1);
        assert_eq!(stats.written, 2);
        assert_eq!(stats.live, 2);
        assert!(stats.conservation_holds());
    }

    #[test]
    fn orphan_generations_are_adopted_into_the_written_count() {
        let (mut store, _) = open_sim(SimDisk::new());
        store.store(b"blob-0", SimTime::ZERO).unwrap();
        let mut disk = store.into_disk();
        // A crash between blob write and manifest seal: the blob exists,
        // the manifest still points at generation 1.
        disk.write(&generation_name(2), b"blob-1").unwrap();

        let (store, recovered) = open_sim(disk);
        assert_eq!(recovered.expect("orphan is valid").generation, 2);
        let stats = store.stats();
        assert_eq!(stats.written, 2, "orphan adopted");
        assert!(stats.conservation_holds());
        assert_eq!(store.next_gen, 3);
    }

    #[test]
    fn enospc_sheds_the_attempt_and_the_store_stays_usable() {
        let mut plan = StorageFaultPlan::new();
        // Write #1 is the manifest `open` seals; #2 is the first blob.
        plan.push(StorageFault::Enospc { write: 2 });
        let disk = FaultyDisk::new(Box::new(SimDisk::new()), plan);
        let (mut store, _) =
            CheckpointStore::open(disk, DEFAULT_RETAIN, &mut |_| true, SimTime::ZERO).unwrap();
        let err = store.store(b"blob", SimTime::ZERO).unwrap_err();
        assert_eq!(err, StorageError::NoSpace);
        assert_eq!(store.stats().shed, 1);
        // The next attempt succeeds with the same generation number.
        let gen = store.store(b"blob", SimTime::ZERO).unwrap();
        assert_eq!(gen, 1);
        assert!(store.stats().conservation_holds());
    }

    #[test]
    fn torn_manifest_write_recovers_to_the_previous_generation() {
        // Fire a torn write on some write op of the second store() call
        // and assert recovery lands on a valid earlier generation no
        // matter which op it hits.
        for write_idx in 3..=6u64 {
            let mut plan = StorageFaultPlan::new();
            plan.push(StorageFault::TornWrite {
                write: write_idx,
                keep_ppm: 500_000,
            });
            let disk = FaultyDisk::new(Box::new(SimDisk::new()), plan);
            let (mut store, _) = CheckpointStore::open(
                disk,
                DEFAULT_RETAIN,
                &mut |b: &[u8]| b.len() == 6,
                SimTime::ZERO,
            )
            .unwrap();
            let mut sealed = Vec::new();
            for i in 0..4u64 {
                match store.store(format!("blob-{i}").as_bytes(), SimTime::from_secs(i)) {
                    Ok(g) => sealed.push(g),
                    Err(StorageError::Crashed) => break,
                    Err(e) => panic!("unexpected {e}"),
                }
            }
            let mut disk = store.into_disk();
            assert!(disk.crashed());
            disk.restart();
            let (store, recovered) = CheckpointStore::open(
                disk,
                DEFAULT_RETAIN,
                &mut |b: &[u8]| b.len() == 6,
                SimTime::ZERO,
            )
            .unwrap();
            if let Some(r) = recovered {
                assert!(r.blob.len() == 6, "write {write_idx}: torn blob adopted");
            }
            assert!(
                store.stats().conservation_holds(),
                "write {write_idx}: {:?}",
                store.stats()
            );
        }
    }

    #[test]
    fn crash_around_rename_never_loses_the_chain() {
        for (idx, before) in [(2u64, true), (2, false), (3, true), (3, false)] {
            let mut plan = StorageFaultPlan::new();
            plan.push(if before {
                StorageFault::CrashBeforeRename { rename: idx }
            } else {
                StorageFault::CrashAfterRename { rename: idx }
            });
            let disk = FaultyDisk::new(Box::new(SimDisk::new()), plan);
            let (mut store, _) =
                CheckpointStore::open(disk, DEFAULT_RETAIN, &mut |_| true, SimTime::ZERO).unwrap();
            let mut last_ok = 0;
            for i in 0..4u64 {
                match store.store(format!("blob-{i}").as_bytes(), SimTime::from_secs(i)) {
                    Ok(g) => last_ok = g,
                    Err(StorageError::Crashed) => break,
                    Err(e) => panic!("unexpected {e}"),
                }
            }
            let mut disk = store.into_disk();
            disk.restart();
            let (store, recovered) =
                CheckpointStore::open(disk, DEFAULT_RETAIN, &mut |_| true, SimTime::ZERO).unwrap();
            let r = recovered.expect("at least the first generation persisted");
            assert!(
                r.generation >= last_ok,
                "rename {idx} before={before}: recovered {} < sealed {last_ok}",
                r.generation
            );
            assert!(store.stats().conservation_holds());
        }
    }

    #[test]
    fn bit_rot_is_caught_by_the_validator_walk() {
        let mut plan = StorageFaultPlan::new();
        // Write #6 is the *newest* generation's blob (open seals a
        // manifest: write 1; each store() is blob + manifest tmp: store
        // #1 = 2,3; #2 = 4,5; #3 = 6,7) — rot there forces the recovery
        // walk to actually step back past it.
        plan.push(StorageFault::BitRot {
            write: 6,
            bit_seed: 0x5EED,
        });
        let disk = FaultyDisk::new(Box::new(SimDisk::new()), plan);
        let blob = |i: u64| format!("blob-{i}-padded-for-rot").into_bytes();
        let reference: Vec<Vec<u8>> = (0..3).map(blob).collect();
        let mut validate = {
            let reference = reference.clone();
            move |b: &[u8]| reference.iter().any(|r| r == b)
        };
        let (mut store, _) =
            CheckpointStore::open(disk, DEFAULT_RETAIN, &mut validate, SimTime::ZERO).unwrap();
        for i in 0..3u64 {
            store.store(&blob(i), SimTime::from_secs(i)).unwrap();
        }
        let disk = store.into_disk();
        let mut validate2 = {
            let reference = reference.clone();
            move |b: &[u8]| reference.iter().any(|r| r == b)
        };
        let (store, recovered) =
            CheckpointStore::open(disk, DEFAULT_RETAIN, &mut validate2, SimTime::ZERO).unwrap();
        let r = recovered.expect("undamaged generations exist");
        assert!(
            reference.iter().any(|x| x == &r.blob),
            "recovered blob must be byte-identical to a sealed generation"
        );
        let stats = store.stats();
        assert_eq!(stats.quarantined, 1, "rotted blob quarantined: {stats:?}");
        assert!(stats.conservation_holds());
    }

    #[test]
    fn campaign_chain_refuses_another_scenario_without_quarantining_it() {
        use crate::ingest::{IngestOptions, ResilientCampaign};
        use crate::pipeline::CampaignConfig;

        let config = |seed| CampaignConfig {
            seed,
            days: 4,
            pages_per_day: 8.0,
            tranco_size: 50_000,
        };
        let resume_as = |seed| {
            move |blob: &[u8]| {
                ResilientCampaign::resume(config(seed), IngestOptions::perfect(), blob)
            }
        };
        let mut never_shed = |e: &StorageError| panic!("a sim disk never sheds: {e}");

        let (mut store, recovered) = open_campaign_chain(
            SimDisk::new(),
            DEFAULT_RETAIN,
            &resume_as(1),
            &mut never_shed,
        )
        .unwrap();
        assert!(recovered.is_none(), "a fresh chain holds nothing");
        let mut rc = ResilientCampaign::new(config(1), IngestOptions::perfect());
        for day in 1..=2u64 {
            rc.run_day();
            store
                .store(&rc.checkpoint(), SimTime::from_secs(day * 86_400))
                .unwrap();
        }

        // Same scenario: the newest generation resumes.
        let (store, recovered) = open_campaign_chain(
            store.into_disk(),
            DEFAULT_RETAIN,
            &resume_as(1),
            &mut never_shed,
        )
        .unwrap();
        assert_eq!(recovered.unwrap().1.unwrap().next_day(), 2);

        // Another seed: every generation is intact, so none is quarantined
        // and the caller gets the typed refusal, not an "empty" chain.
        let (store, recovered) = open_campaign_chain(
            store.into_disk(),
            DEFAULT_RETAIN,
            &resume_as(2),
            &mut never_shed,
        )
        .unwrap();
        assert_eq!(
            recovered.unwrap().1.unwrap_err(),
            CheckpointError::Mismatch { field: "seed" }
        );
        assert_eq!(store.stats().quarantined, 0, "{:?}", store.stats());
        assert!(store.live_gens.iter().eq(&[1, 2]));
    }

    #[test]
    fn campaign_chain_resumes_each_blob_it_reads_once() {
        use crate::ingest::{IngestOptions, ResilientCampaign};
        use crate::pipeline::CampaignConfig;
        use std::cell::Cell;

        let config = CampaignConfig {
            seed: 1,
            days: 4,
            pages_per_day: 8.0,
            tranco_size: 50_000,
        };
        let (mut store, _) =
            CheckpointStore::open(SimDisk::new(), DEFAULT_RETAIN, &mut |_| true, SimTime::ZERO)
                .unwrap();
        let mut rc = ResilientCampaign::new(config.clone(), IngestOptions::perfect());
        for day in 1..=3u64 {
            rc.run_day();
            store
                .store(&rc.checkpoint(), SimTime::from_secs(day * 86_400))
                .unwrap();
        }
        let mut disk = store.into_disk();
        disk.file_mut(&generation_name(3)).expect("sealed")[40] ^= 0x10;

        let calls = Cell::new(0);
        let resume = |blob: &[u8]| {
            calls.set(calls.get() + 1);
            ResilientCampaign::resume(config.clone(), IngestOptions::perfect(), blob)
        };
        let (store, recovered) = open_campaign_chain(disk, DEFAULT_RETAIN, &resume, &mut |e| {
            panic!("a sim disk never sheds: {e}")
        })
        .unwrap();
        assert_eq!(recovered.unwrap().1.unwrap().next_day(), 2);
        assert_eq!(store.stats().quarantined, 1, "{:?}", store.stats());
        // The rotted newest blob, then generation 2 — and no third call
        // to rebuild the campaign the walk already resumed.
        assert_eq!(calls.get(), 2);
    }

    #[test]
    fn open_retrying_spends_one_shot_faults_but_returns_a_crash_at_once() {
        let mut plan = StorageFaultPlan::new();
        plan.push(StorageFault::Enospc { write: 1 });
        let disk = FaultyDisk::new(Box::new(SimDisk::new()), plan);
        let mut shed = Vec::new();
        CheckpointStore::open_retrying(
            disk,
            DEFAULT_RETAIN,
            &mut |_| true,
            SimTime::ZERO,
            &mut |e| shed.push(e.clone()),
        )
        .expect("the retry outlives the one-shot ENOSPC");
        assert_eq!(shed, vec![StorageError::NoSpace]);

        let mut plan = StorageFaultPlan::new();
        plan.push(StorageFault::CrashBeforeRename { rename: 1 });
        let disk = FaultyDisk::new(Box::new(SimDisk::new()), plan);
        let failure = CheckpointStore::open_retrying(
            disk,
            DEFAULT_RETAIN,
            &mut |_| true,
            SimTime::ZERO,
            &mut |e| panic!("a crash is not retried: {e}"),
        )
        .expect_err("the crash comes straight back");
        assert_eq!(failure.error, StorageError::Crashed);
    }

    #[test]
    fn planted_manifest_miscount_breaks_conservation() {
        let (mut store, _) = open_sim(SimDisk::new());
        store.debug_manifest_miscount_every(2);
        for i in 0..4u64 {
            store
                .store(format!("blob-{i}").as_bytes(), SimTime::from_secs(i))
                .unwrap();
        }
        let stats = store.stats();
        assert!(
            !stats.conservation_holds(),
            "the planted undercount must be visible: {stats:?}"
        );
    }

    #[test]
    fn fault_plans_compile_deterministically_from_seeds() {
        let a = StorageFaultPlan::from_seed(42, 2, 1, 1, 2);
        let b = StorageFaultPlan::from_seed(42, 2, 1, 1, 2);
        assert_eq!(a, b);
        assert_eq!(a.faults().len(), 6);
        assert_ne!(a, StorageFaultPlan::from_seed(43, 2, 1, 1, 2));
    }

    #[test]
    fn faulty_disk_faults_are_one_shot_across_restarts() {
        let mut plan = StorageFaultPlan::new();
        plan.push(StorageFault::Enospc { write: 1 });
        let mut disk = FaultyDisk::new(Box::new(SimDisk::new()), plan);
        assert_eq!(disk.write("a", b"x"), Err(StorageError::NoSpace));
        assert_eq!(disk.write("a", b"x"), Ok(()));
        assert_eq!(disk.faults.iter().filter(|(_, fired)| *fired).count(), 1);

        let mut plan = StorageFaultPlan::new();
        plan.push(StorageFault::CrashBeforeRename { rename: 1 });
        let mut disk = FaultyDisk::new(Box::new(SimDisk::new()), plan);
        disk.write("a", b"x").unwrap();
        assert_eq!(disk.rename("a", "b"), Err(StorageError::Crashed));
        assert_eq!(disk.write("c", b"y"), Err(StorageError::Crashed));
        disk.restart();
        assert_eq!(disk.rename("a", "b"), Ok(()), "fault must not re-fire");
    }

    #[test]
    fn hostile_directory_contents_never_panic_recovery() {
        let mut disk = SimDisk::new();
        disk.write("ckpt-not-a-number.slcp", b"junk").unwrap();
        disk.write(&generation_name(u64::MAX), b"valid").unwrap();
        disk.write("stray.tmp", b"garbage").unwrap();
        disk.write(MANIFEST_NAME, b"torn").unwrap();
        let (mut store, recovered) = open_sim(disk);
        assert_eq!(
            recovered.expect("hostile gen validates").generation,
            u64::MAX
        );
        // next_gen saturated at the ceiling: storing must fail typed, not wrap.
        assert!(matches!(
            store.store(b"more", SimTime::ZERO),
            Err(StorageError::Io { .. })
        ));
        assert!(store.stats().conservation_holds());
    }
}
