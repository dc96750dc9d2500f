//! Outside-in tracing adapters.
//!
//! Each wrapper implements one of the program's own seams and forwards every
//! call unchanged, timing it and counting its work on the way through:
//!
//! * [`TimedSource`] — a `PostingSource` (the `index` layer: `MergedSource`
//!   and its `SourceCache`), passed to `MateDiscovery::from_parts`;
//! * [`TimedHasher`] — a `RowHasher` (the `hash` layer, XASH), passed to
//!   `MateDiscovery::from_parts`;
//! * [`TimedVfs`] / `TimedFile` — a `Vfs` (the `vfs` layer), installed as
//!   `EngineConfig::vfs`, so every WAL append, fsync, segment write and
//!   page fill of the engine and its pager passes through it.
//!
//! Counters are relaxed atomics: they publish no other data, and discovery
//! workers on several threads add to them at once.

use mate_hash::{HashBits, HashSize, RowHasher};
use mate_index::{ListHandle, PostingEntry, PostingSource, ProbeCounters, ProbeScratch};
use mate_storage::vfs::{Vfs, VfsFile};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Calls, busy time and payload bytes of one operation at a layer boundary.
#[derive(Debug, Default)]
pub struct OpStat {
    calls: AtomicU64,
    nanos: AtomicU64,
    bytes: AtomicU64,
}

/// A point-in-time copy of an [`OpStat`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct OpTotals {
    pub calls: u64,
    pub busy_ms: f64,
    pub bytes: u64,
}

impl OpStat {
    /// Runs `f`, charging its wall time and one call to this operation.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        r
    }

    pub fn add_bytes(&self, n: u64) {
        self.bytes.fetch_add(n, Relaxed);
    }

    pub fn totals(&self) -> OpTotals {
        OpTotals {
            calls: self.calls.load(Relaxed),
            busy_ms: self.nanos.load(Relaxed) as f64 / 1e6,
            bytes: self.bytes.load(Relaxed),
        }
    }
}

impl OpTotals {
    /// Work done between two snapshots (`self` taken after `before`).
    pub fn since(self, before: OpTotals) -> OpTotals {
        OpTotals {
            calls: self.calls - before.calls,
            busy_ms: self.busy_ms - before.busy_ms,
            bytes: self.bytes - before.bytes,
        }
    }

    pub fn plus(self, other: OpTotals) -> OpTotals {
        OpTotals {
            calls: self.calls + other.calls,
            busy_ms: self.busy_ms + other.busy_ms,
            bytes: self.bytes + other.bytes,
        }
    }
}

// ------------------------------------------------------------- index ----

/// Counters of the `index` layer, as seen through [`TimedSource`].
#[derive(Debug, Default)]
pub struct IndexTrace {
    pub find_list: OpStat,
    pub table_runs: OpStat,
    /// `bytes` counts posting entries returned, not bytes.
    pub collect_run: OpStat,
    pub blocks_decoded: AtomicU64,
    pub blocks_skipped: AtomicU64,
}

/// A `PostingSource` that times and counts every call into `inner`.
pub struct TimedSource<'a> {
    inner: &'a dyn PostingSource,
    trace: &'a IndexTrace,
}

impl<'a> TimedSource<'a> {
    pub fn new(inner: &'a dyn PostingSource, trace: &'a IndexTrace) -> Self {
        TimedSource { inner, trace }
    }
}

impl PostingSource for TimedSource<'_> {
    fn find_list(&self, value: &str, scratch: &mut ProbeScratch) -> Option<ListHandle> {
        self.trace
            .find_list
            .time(|| self.inner.find_list(value, scratch))
    }

    fn table_runs(
        &self,
        list: ListHandle,
        scratch: &mut ProbeScratch,
        f: &mut dyn FnMut(u32, u32),
    ) {
        self.trace
            .table_runs
            .time(|| self.inner.table_runs(list, scratch, f))
    }

    fn collect_run(
        &self,
        list: ListHandle,
        start: u32,
        len: u32,
        scratch: &mut ProbeScratch,
        out: &mut Vec<PostingEntry>,
        counters: &mut ProbeCounters,
    ) {
        let (out0, decoded0, skipped0) = (out.len(), counters.decoded, counters.skipped);
        self.trace.collect_run.time(|| {
            self.inner
                .collect_run(list, start, len, scratch, out, counters)
        });
        self.trace.collect_run.add_bytes((out.len() - out0) as u64);
        self.trace
            .blocks_decoded
            .fetch_add(counters.decoded - decoded0, Relaxed);
        self.trace
            .blocks_skipped
            .fetch_add(counters.skipped - skipped0, Relaxed);
    }

    fn num_values(&self) -> usize {
        self.inner.num_values()
    }

    fn num_postings(&self) -> usize {
        self.inner.num_postings()
    }
}

// -------------------------------------------------------------- hash ----

/// A `RowHasher` that times and counts every `hash_value` call.
pub struct TimedHasher<'a> {
    inner: &'a dyn RowHasher,
    trace: &'a OpStat,
}

impl<'a> TimedHasher<'a> {
    pub fn new(inner: &'a dyn RowHasher, trace: &'a OpStat) -> Self {
        TimedHasher { inner, trace }
    }
}

impl RowHasher for TimedHasher<'_> {
    fn hash_size(&self) -> HashSize {
        self.inner.hash_size()
    }

    fn hash_value(&self, value: &str) -> HashBits {
        self.trace.time(|| self.inner.hash_value(value))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

// --------------------------------------------------------------- vfs ----

/// Counters of the `vfs` layer, as seen through [`TimedVfs`].
#[derive(Debug, Default)]
pub struct VfsTrace {
    /// Whole-file reads (open and recovery).
    pub read: OpStat,
    /// Positional reads (page-cache fills).
    pub pread: OpStat,
    /// `write_all` on any file handle.
    pub write: OpStat,
    /// `sync_data`, `sync_all` and `sync_dir`.
    pub sync: OpStat,
    pub rename: OpStat,
}

/// A `Vfs` that forwards to `inner` and records into a shared [`VfsTrace`].
pub struct TimedVfs {
    inner: Arc<dyn Vfs>,
    trace: Arc<VfsTrace>,
}

impl TimedVfs {
    pub fn new(inner: Arc<dyn Vfs>, trace: Arc<VfsTrace>) -> Self {
        TimedVfs { inner, trace }
    }

    fn wrap(&self, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(TimedFile {
            inner: file,
            trace: Arc::clone(&self.trace),
        })
    }
}

impl fmt::Debug for TimedVfs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimedVfs")
            .field("inner", &self.inner)
            .finish()
    }
}

impl Vfs for TimedVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let r = self.trace.read.time(|| self.inner.read(path));
        if let Ok(buf) = &r {
            self.trace.read.add_bytes(buf.len() as u64);
        }
        r
    }

    fn pread(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let r = self
            .trace
            .pread
            .time(|| self.inner.pread(path, offset, len));
        if let Ok(buf) = &r {
            self.trace.pread.add_bytes(buf.len() as u64);
        }
        r
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.create(path).map(|f| self.wrap(f))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.open_append(path).map(|f| self.wrap(f))
    }

    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.open_write(path).map(|f| self.wrap(f))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.trace.rename.time(|| self.inner.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.trace.sync.time(|| self.inner.sync_dir(path))
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(path)
    }

    fn injected_faults(&self) -> u64 {
        self.inner.injected_faults()
    }

    fn attach_obs(&self, obs: &Arc<mate_obs::Obs>) {
        self.inner.attach_obs(obs)
    }
}

/// A `VfsFile` handed out by [`TimedVfs`].
struct TimedFile {
    inner: Box<dyn VfsFile>,
    trace: Arc<VfsTrace>,
}

impl VfsFile for TimedFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let inner = &mut self.inner;
        let r = self.trace.write.time(|| inner.write_all(buf));
        if r.is_ok() {
            self.trace.write.add_bytes(buf.len() as u64);
        }
        r
    }

    fn sync_data(&self) -> io::Result<()> {
        self.trace.sync.time(|| self.inner.sync_data())
    }

    fn sync_all(&self) -> io::Result<()> {
        self.trace.sync.time(|| self.inner.sync_all())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn try_clone(&self) -> io::Result<Box<dyn VfsFile>> {
        self.inner.try_clone().map(|f| {
            Box::new(TimedFile {
                inner: f,
                trace: Arc::clone(&self.trace),
            }) as Box<dyn VfsFile>
        })
    }
}
