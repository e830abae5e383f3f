//! Durable snapshot storage and the job-lifecycle journal.
//!
//! [`DiskSnapshotStore`] persists every checkpoint [`Snapshot`] to its own
//! file with an atomic temp-file + rename protocol, a versioned header and a
//! CRC-32 checksum, and keeps a bounded in-memory cache in front of the
//! files: snapshots over the configured memory budget are evicted coldest
//! first (they stay on disk and reload on demand), which is the spill
//! policy ROADMAP item 2 called out as missing.
//!
//! On load, truncation, checksum mismatches and undecodable payloads are
//! *detected*, never panicked on: the store falls back to the previous good
//! snapshot file (every save rotates the current file to `*.prev`), and
//! only reports [`StoreError::Corrupt`] when no generation survives.
//!
//! [`Journal`] is the append-only JSON-lines log of job lifecycle
//! transitions that [`Server::recover`](crate::Server::recover) replays
//! after a crash. A torn final line (the signature of a process killed
//! mid-append) is tolerated; corruption anywhere else is a typed error.

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ncgws_core::{CheckpointSink, Snapshot};
use serde_json::Value;

use crate::fault::{FaultPlan, WriteFault};
use crate::sync::lock_recover;

/// Magic + version tag every snapshot file starts with.
const HEADER_MAGIC: &str = "ncgws-snap v1";

/// Typed failures of the durability layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An OS-level I/O failure (or an injected one).
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error text.
        detail: String,
    },
    /// A snapshot file exists but no generation of it decodes cleanly.
    Corrupt {
        /// The file involved.
        path: PathBuf,
        /// What failed (truncation, checksum, payload decode).
        detail: String,
    },
    /// The journal has a malformed entry before its final line.
    Journal {
        /// 1-based line number.
        line: usize,
        /// What failed.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, detail } => {
                write!(f, "I/O error on {}: {detail}", path.display())
            }
            StoreError::Corrupt { path, detail } => {
                write!(f, "corrupt snapshot {}: {detail}", path.display())
            }
            StoreError::Journal { line, detail } => {
                write!(f, "journal line {line}: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(path: &Path, err: impl fmt::Display) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        detail: err.to_string(),
    }
}

/// CRC-32 (IEEE 802.3 polynomial), table-driven; hand-rolled because the
/// workspace takes no external checksum dependency.
#[expect(
    clippy::indexing_slicing,
    reason = "in range: the loop's index is masked to 0..=255 and TABLE has 256 entries"
)]
pub fn crc32(bytes: &[u8]) -> u32 {
    #[expect(
        clippy::indexing_slicing,
        reason = "in range: the `while i < 256` guard bounds the index"
    )]
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Configuration of a [`DiskSnapshotStore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreConfig {
    /// Cap on resident (in-memory) snapshot bytes. When an insert pushes
    /// the cache over the cap, the coldest snapshots are dropped from
    /// memory (their files remain) until it fits. `None` keeps everything
    /// resident.
    pub memory_budget_bytes: Option<usize>,
}

/// Point-in-time gauges and counters of a store (mirrored into
/// [`ServerStats`](crate::ServerStats) by durable servers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Bytes of snapshots held in memory.
    pub resident_bytes: u64,
    /// Bytes of snapshots that live only on disk right now.
    pub spilled_bytes: u64,
    /// Evictions from the resident cache since open.
    pub spills: u64,
    /// On-demand reloads from disk since open.
    pub reloads: u64,
    /// Loads that fell back to the previous good generation after
    /// detecting corruption.
    pub corrupt_recovered: u64,
    /// Snapshot writes that failed (real or injected I/O errors).
    pub write_errors: u64,
}

#[derive(Debug)]
struct Resident {
    snapshot: Snapshot,
    bytes: usize,
    last_touch: u64,
}

#[derive(Debug, Default)]
struct StoreInner {
    resident: HashMap<u64, Resident>,
    resident_bytes: usize,
    /// Payload bytes per job that have a current file on disk.
    file_bytes: HashMap<u64, usize>,
    /// Monotonic touch clock for LRU eviction.
    tick: u64,
    /// Per-job write counter — the fault-injection coordinate.
    writes: HashMap<u64, u64>,
}

/// A disk-backed snapshot store with atomic writes, checksummed files,
/// previous-generation fallback and a memory-budget spill policy.
#[derive(Debug)]
pub struct DiskSnapshotStore {
    dir: PathBuf,
    config: StoreConfig,
    inner: Mutex<StoreInner>,
    faults: Option<Arc<FaultPlan>>,
    spills: AtomicU64,
    reloads: AtomicU64,
    corrupt_recovered: AtomicU64,
    write_errors: AtomicU64,
}

impl DiskSnapshotStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, config: StoreConfig) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        Ok(DiskSnapshotStore {
            dir,
            config,
            inner: Mutex::new(StoreInner::default()),
            faults: None,
            spills: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            corrupt_recovered: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        })
    }

    /// Arms deterministic fault injection for this store's writes.
    pub fn with_faults(mut self, plan: Option<Arc<FaultPlan>>) -> Self {
        self.faults = plan.filter(|p| p.is_active());
        self
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn current_path(&self, job: u64) -> PathBuf {
        self.dir.join(format!("snap-{job}.json"))
    }

    fn prev_path(&self, job: u64) -> PathBuf {
        self.dir.join(format!("snap-{job}.json.prev"))
    }

    /// Persists `snapshot` as job `job`'s newest generation and refreshes
    /// the resident cache.
    ///
    /// The write is atomic: the bytes land in a temp file first and are
    /// renamed over the current file only when complete, after rotating the
    /// old current file to `*.prev` (the fallback generation).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the write fails (a real OS error or
    /// an injected fault); the previous generations are untouched.
    pub fn save(&self, job: u64, snapshot: &Snapshot) -> Result<(), StoreError> {
        let payload = snapshot.to_json();
        let header = format!(
            "{HEADER_MAGIC} len={} crc={:08x}\n",
            payload.len(),
            crc32(payload.as_bytes())
        );
        let write_index = {
            let mut inner = lock_recover(&self.inner);
            let counter = inner.writes.entry(job).or_insert(0);
            let idx = *counter;
            *counter += 1;
            idx
        };
        let fault = self
            .faults
            .as_ref()
            .and_then(|plan| plan.write_fault(job, write_index));
        let current = self.current_path(job);
        if fault == Some(WriteFault::IoError) {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            return Err(io_err(&current, "injected I/O error"));
        }
        let tmp = self.dir.join(format!("snap-{job}.json.tmp"));
        let bytes: Vec<u8> = match fault {
            // A torn write: the header promises the full payload but only a
            // prefix hits the disk — exactly what a crash mid-write leaves.
            Some(WriteFault::Torn) => {
                let keep = payload.len() / 2;
                let mut out = header.clone().into_bytes();
                #[expect(
                    clippy::indexing_slicing,
                    reason = "in range: `keep` is half of `payload.len()`"
                )]
                out.extend_from_slice(&payload.as_bytes()[..keep]);
                out
            }
            _ => {
                let mut out = header.clone().into_bytes();
                out.extend_from_slice(payload.as_bytes());
                out
            }
        };
        fs::write(&tmp, &bytes).map_err(|e| {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            io_err(&tmp, e)
        })?;
        // Rotate: current -> prev (best-effort; absent on the first save),
        // then tmp -> current atomically.
        if current.exists() {
            let _ = fs::rename(&current, self.prev_path(job));
        }
        fs::rename(&tmp, &current).map_err(|e| {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            io_err(&current, e)
        })?;
        let mem = snapshot.memory_bytes();
        let mut inner = lock_recover(&self.inner);
        inner.file_bytes.insert(job, payload.len());
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.resident.insert(
            job,
            Resident {
                snapshot: snapshot.clone(),
                bytes: mem,
                last_touch: tick,
            },
        ) {
            inner.resident_bytes -= old.bytes;
        }
        inner.resident_bytes += mem;
        self.evict_over_budget(&mut inner);
        Ok(())
    }

    /// Drops cold resident snapshots until the cache fits the budget. The
    /// files stay on disk, so nothing durable is lost — this is the spill.
    fn evict_over_budget(&self, inner: &mut StoreInner) {
        let Some(budget) = self.config.memory_budget_bytes else {
            return;
        };
        while inner.resident_bytes > budget && inner.resident.len() > 1 {
            let Some(coldest) = inner
                .resident
                .iter()
                .min_by_key(|(_, r)| r.last_touch)
                .map(|(&job, _)| job)
            else {
                break;
            };
            if let Some(evicted) = inner.resident.remove(&coldest) {
                inner.resident_bytes -= evicted.bytes;
                self.spills.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Loads job `job`'s latest good snapshot: from the resident cache when
    /// hot, otherwise from disk (counted as a reload). A corrupt current
    /// file falls back to the `*.prev` generation (counted as
    /// `corrupt_recovered`).
    ///
    /// Returns `Ok(None)` when the job has no persisted snapshot at all.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] when files exist but no generation
    /// decodes, and [`StoreError::Io`] for filesystem failures other than
    /// the files being absent.
    pub fn load(&self, job: u64) -> Result<Option<Snapshot>, StoreError> {
        {
            let mut inner = lock_recover(&self.inner);
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(resident) = inner.resident.get_mut(&job) {
                resident.last_touch = tick;
                return Ok(Some(resident.snapshot.clone()));
            }
        }
        let current = self.current_path(job);
        let prev = self.prev_path(job);
        if !current.exists() && !prev.exists() {
            return Ok(None);
        }
        let primary = read_snapshot_file(&current);
        let snapshot = match primary {
            Ok(snapshot) => snapshot,
            Err(first_error) => {
                // Fall back to the previous good generation.
                match read_snapshot_file(&prev) {
                    Ok(snapshot) => {
                        self.corrupt_recovered.fetch_add(1, Ordering::Relaxed);
                        snapshot
                    }
                    Err(_) => {
                        return Err(StoreError::Corrupt {
                            path: current,
                            detail: match first_error {
                                StoreError::Corrupt { detail, .. } => {
                                    format!("{detail}; previous generation also unusable")
                                }
                                other => other.to_string(),
                            },
                        })
                    }
                }
            }
        };
        self.reloads.fetch_add(1, Ordering::Relaxed);
        let mem = snapshot.memory_bytes();
        let mut inner = lock_recover(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.resident.insert(
            job,
            Resident {
                snapshot: snapshot.clone(),
                bytes: mem,
                last_touch: tick,
            },
        ) {
            inner.resident_bytes -= old.bytes;
        }
        inner.resident_bytes += mem;
        self.evict_over_budget(&mut inner);
        Ok(Some(snapshot))
    }

    /// Forgets job `job` entirely: resident copy and both file generations
    /// (called when the job reaches a terminal state).
    pub fn remove(&self, job: u64) {
        let mut inner = lock_recover(&self.inner);
        if let Some(old) = inner.resident.remove(&job) {
            inner.resident_bytes -= old.bytes;
        }
        inner.file_bytes.remove(&job);
        drop(inner);
        let _ = fs::remove_file(self.current_path(job));
        let _ = fs::remove_file(self.prev_path(job));
    }

    /// Whether job `job` currently has a resident in-memory copy.
    pub fn is_resident(&self, job: u64) -> bool {
        lock_recover(&self.inner).resident.contains_key(&job)
    }

    /// Current gauges and counters.
    pub fn stats(&self) -> StoreStats {
        let inner = lock_recover(&self.inner);
        let spilled_bytes: usize = inner
            .file_bytes
            .iter()
            .filter(|(job, _)| !inner.resident.contains_key(job))
            .map(|(_, &bytes)| bytes)
            .sum();
        StoreStats {
            resident_bytes: inner.resident_bytes as u64,
            spilled_bytes: spilled_bytes as u64,
            spills: self.spills.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            corrupt_recovered: self.corrupt_recovered.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }
}

/// Reads and fully verifies one snapshot file generation.
fn read_snapshot_file(path: &Path) -> Result<Snapshot, StoreError> {
    let corrupt = |detail: String| StoreError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| corrupt("missing header line".into()))?;
    #[expect(
        clippy::indexing_slicing,
        reason = "in range: `newline` is a `position()` hit within `bytes`"
    )]
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| corrupt("header is not UTF-8".into()))?;
    let rest = header
        .strip_prefix(HEADER_MAGIC)
        .ok_or_else(|| corrupt(format!("bad magic (expected `{HEADER_MAGIC}`)")))?;
    let mut len = None;
    let mut crc = None;
    for token in rest.split_whitespace() {
        if let Some(v) = token.strip_prefix("len=") {
            len = v.parse::<usize>().ok();
        } else if let Some(v) = token.strip_prefix("crc=") {
            crc = u32::from_str_radix(v, 16).ok();
        }
    }
    let len = len.ok_or_else(|| corrupt("header is missing len=".into()))?;
    let crc = crc.ok_or_else(|| corrupt("header is missing crc=".into()))?;
    #[expect(
        clippy::indexing_slicing,
        reason = "in range: `newline < bytes.len()`, so the suffix start is at most len"
    )]
    let payload = &bytes[newline + 1..];
    if payload.len() != len {
        return Err(corrupt(format!(
            "truncated payload: header promises {len} bytes, file has {}",
            payload.len()
        )));
    }
    let actual = crc32(payload);
    if actual != crc {
        return Err(corrupt(format!(
            "checksum mismatch: header {crc:08x}, payload {actual:08x}"
        )));
    }
    let text = std::str::from_utf8(payload).map_err(|_| corrupt("payload is not UTF-8".into()))?;
    Snapshot::from_json(text).map_err(|e| corrupt(format!("payload does not decode: {e}")))
}

/// A [`CheckpointSink`] adapter that persists every checkpoint of one job
/// durably through the store, journaling each success. Store failures are
/// swallowed (counted by the store) — losing one periodic checkpoint must
/// not kill the attempt, the previous generation still resumes the job.
pub struct DiskSink<'a> {
    store: &'a DiskSnapshotStore,
    journal: Option<&'a Journal>,
    job: u64,
    saved: AtomicUsize,
}

impl<'a> DiskSink<'a> {
    /// A sink persisting checkpoints of job `job`, journaling when a
    /// journal is supplied.
    pub fn new(store: &'a DiskSnapshotStore, journal: Option<&'a Journal>, job: u64) -> Self {
        DiskSink {
            store,
            journal,
            job,
            saved: AtomicUsize::new(0),
        }
    }

    /// Checkpoints successfully persisted through this sink so far.
    pub fn saved(&self) -> usize {
        self.saved.load(Ordering::Relaxed)
    }
}

impl CheckpointSink for DiskSink<'_> {
    fn on_checkpoint(&self, snapshot: Snapshot) {
        if self.store.save(self.job, &snapshot).is_ok() {
            self.saved.fetch_add(1, Ordering::Relaxed);
            if let Some(journal) = self.journal {
                let _ = journal.append(&format!(
                    "{{\"entry\":\"checkpointed\",\"job\":{},\"iteration\":{}}}",
                    self.job, snapshot.iterations_done
                ));
            }
        }
    }
}

/// The append-only JSON-lines journal of job lifecycle transitions.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<BufWriter<File>>,
}

/// File name of the journal inside a server directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

impl Journal {
    /// Opens `dir`'s journal for appending, creating it (and the
    /// directory) if absent.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the file cannot be opened.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let path = dir.join(JOURNAL_FILE);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        Ok(Journal {
            path,
            file: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Appends one JSON line and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on write failure.
    pub fn append(&self, line: &str) -> Result<(), StoreError> {
        let mut file = lock_recover(&self.file);
        file.write_all(line.as_bytes())
            .and_then(|()| file.write_all(b"\n"))
            .and_then(|()| file.flush())
            .map_err(|e| io_err(&self.path, e))
    }

    /// Reads and parses every journal entry under `dir`.
    ///
    /// A malformed *final* line is tolerated and dropped — that is exactly
    /// what a crash mid-append leaves behind. Malformed earlier lines are
    /// real corruption and surface as [`StoreError::Journal`].
    ///
    /// Returns an empty vector when the journal does not exist.
    pub fn read_entries(dir: impl AsRef<Path>) -> Result<Vec<Value>, StoreError> {
        let path = dir.as_ref().join(JOURNAL_FILE);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err(&path, e)),
        };
        let lines: Vec<&str> = text.lines().collect();
        let mut entries = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::parse(line) {
                Ok(value) => entries.push(value),
                // Torn final line from a crash mid-append: ignore.
                Err(_) if i + 1 == lines.len() => {}
                Err(e) => {
                    return Err(StoreError::Journal {
                        line: i + 1,
                        detail: e.to_string(),
                    })
                }
            }
        }
        Ok(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
