//! The workloads' inputs, the oracle that checks them, and the
//! operations the benchmark times against an `EngineLake`.
//!
//! Every workload generates `StandardLakes` from the seed, keeps one corpus
//! and its Table 1 query sets, and computes oracle answers from a
//! single-shot `IndexBuilder` index with `MateDiscovery::new`. The engine
//! only ever receives the generated tables and queries.

use crate::stats::Samples;
use crate::sys;
use crate::trace::{IndexTrace, OpStat, OpTotals, TimedHasher, TimedSource, TimedVfs, VfsTrace};
use mate_core::{DiscoveryResult, MateConfig, MateDiscovery, TableResult};
use mate_index::engine::{EngineConfig, EngineLake};
use mate_index::{IndexBuilder, WalRecord};
use mate_lake::{GeneratedQuery, StandardLakes, WorkloadScale};
use mate_storage::vfs::{StdVfs, Vfs};
use mate_table::{Corpus, TableId};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Results per query (the `k` of top-k).
pub const K: usize = 10;
/// Page-cache budget of `od-cold` as a fraction of the lake's cold bytes.
pub const OD_COLD_CACHE_DIVISOR: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open data, OD(100)/OD(1000)/OD(10000); page cache a quarter of the
    /// lake's cold bytes; two query threads.
    OdCold,
    /// The web-tables corpus committed 16 tables at a time, one query after
    /// every commit, then a drop without flush and a reopen.
    WtIngest,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::OdCold, Workload::WtIngest];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OdCold => "od-cold",
            Workload::WtIngest => "wt-ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn corpus(self) -> &'static str {
        match self {
            Workload::OdCold => "opendata",
            Workload::WtIngest => "webtables",
        }
    }

    pub fn mate_config(self) -> MateConfig {
        MateConfig {
            query_threads: match self {
                Workload::OdCold => 2,
                Workload::WtIngest => 1,
            },
            ..MateConfig::default()
        }
    }

    /// The flush policy: memtable budget = single-shot `posting_store_bytes`
    /// divided by this, `max_cold_segments` 3, `tier_fanout` 2, default
    /// `apply_shards`. `wt-ingest` flushes ~19 and compacts ~16 times per
    /// pass over the corpus; `od-cold` builds its lake with a few flushes,
    /// so it still serves several cold segments.
    fn memtable_divisor(self) -> usize {
        match self {
            Workload::WtIngest => 6,
            Workload::OdCold => 2,
        }
    }

    /// Tables per `apply_many` commit. `od-cold` commits half as many as
    /// `wt-ingest` so that its ~5 flush and compaction commits per lake
    /// stay well beyond the p95 of its ~200 commits per lake: at 16 tables
    /// they were the top 5 % of commits, and the p95 swung between them
    /// and the plain commits.
    pub fn commit_tables(self) -> usize {
        match self {
            Workload::OdCold => 8,
            Workload::WtIngest => 16,
        }
    }

    /// Set-ups per untraced run, each on its own lake seed; `setup_s` is
    /// their median. `od-cold` builds a large lake (~15 s) in each;
    /// `wt-ingest` only generates in set-up and runs at least one ingest
    /// cycle (~9 s) per lake. Each workload's timed work is spread over
    /// several lakes, so that no single lake or stretch of the run sets it.
    pub fn setups(self) -> usize {
        match self {
            Workload::OdCold => 3,
            Workload::WtIngest => 4,
        }
    }

    /// Reopens of each dropped lake, each on its own copy of the directory;
    /// `reopen_s` is the mean over the run's lakes of each lake's median
    /// open. `od-cold`'s opens take ~0.8 s, `wt-ingest`'s ~0.2 s.
    pub fn reopens(self) -> usize {
        match self {
            Workload::OdCold => 3,
            Workload::WtIngest => 5,
        }
    }

    /// The engine configuration of this workload's lakes.
    pub fn engine_config(self, inputs: &Inputs, tracer: Option<&Tracer>) -> EngineConfig {
        let vfs: Arc<dyn Vfs> = match tracer {
            Some(t) => Arc::new(TimedVfs::new(Arc::new(StdVfs), Arc::clone(&t.vfs))),
            None => Arc::new(StdVfs),
        };
        EngineConfig {
            memtable_budget_bytes: inputs.posting_store_bytes / self.memtable_divisor(),
            max_cold_segments: 3,
            tier_fanout: 2,
            vfs,
            ..EngineConfig::default()
        }
    }
}

/// A workload's inputs and their oracle answers.
pub struct Inputs {
    pub corpus: Corpus,
    pub queries: Vec<GeneratedQuery>,
    /// Per query, every joinable table ranked by (joinability desc, table
    /// id asc), and each table's joinability.
    oracle: Vec<(Vec<TableResult>, HashMap<TableId, u64>)>,
    pub oracle_postings: usize,
    pub posting_store_bytes: usize,
    /// Bytes of cell text in the corpus: the user data of the
    /// amplification ratios.
    pub cell_bytes: u64,
}

impl Inputs {
    /// Generates the inputs of `workload` and computes the oracle.
    pub fn generate(workload: Workload, scale: WorkloadScale, seed: u64) -> Inputs {
        let StandardLakes {
            webtables,
            opendata,
            sets,
            ..
        } = StandardLakes::build(scale, seed);
        let corpus = match workload.corpus() {
            "opendata" => opendata,
            _ => webtables,
        };
        let queries: Vec<GeneratedQuery> = sets
            .into_iter()
            .filter(|s| s.corpus == workload.corpus())
            .flat_map(|s| s.queries)
            .collect();
        let hasher = mate_hash::Xash::new(EngineConfig::default().hash_size);
        let index = IndexBuilder::new(hasher)
            .parallel(sys::nproc())
            .build(&corpus);
        // k = every table: nothing is pruned, so each joinable table is
        // ranked with its exact joinability.
        let oracle = queries
            .iter()
            .map(|q| {
                let ranking = MateDiscovery::new(&corpus, &index, &hasher)
                    .discover(&q.table, &q.key, corpus.len())
                    .top_k;
                let scores = ranking.iter().map(|r| (r.table, r.joinability)).collect();
                (ranking, scores)
            })
            .collect();
        let stats = index.stats();
        let cell_bytes = corpus
            .iter()
            .flat_map(|(_, t)| t.columns())
            .flat_map(|c| &c.values)
            .map(|v| v.len() as u64)
            .sum();
        Inputs {
            corpus,
            queries,
            oracle,
            oracle_postings: stats.num_postings,
            posting_store_bytes: stats.posting_store_bytes,
            cell_bytes,
        }
    }

    /// The oracle top-`K` of query `q` over a lake holding the first
    /// `tables` tables of the corpus, ties at the `K`-th score broken by
    /// table id.
    pub fn expected(&self, q: usize, tables: usize) -> Vec<TableResult> {
        self.oracle[q]
            .0
            .iter()
            .filter(|r| (r.table.0 as usize) < tables)
            .take(K)
            .copied()
            .collect()
    }

    /// Whether `got` is a correct top-`K` of query `q` over a lake holding
    /// the first `tables` tables of the corpus: the oracle's scores in
    /// order, each on a distinct table of the prefix whose joinability is
    /// exactly that score. Tables tied at the `K`-th score are
    /// interchangeable (table filtering may stop the scan before the
    /// others are evaluated).
    pub fn matches(&self, q: usize, tables: usize, got: &[TableResult]) -> bool {
        let expected = self.expected(q, tables);
        let scores = &self.oracle[q].1;
        got.len() == expected.len()
            && got
                .iter()
                .zip(&expected)
                .all(|(g, e)| g.joinability == e.joinability)
            && got.iter().enumerate().all(|(i, g)| {
                (g.table.0 as usize) < tables
                    && scores.get(&g.table) == Some(&g.joinability)
                    && !got[..i].iter().any(|h| h.table == g.table)
            })
    }
}

/// Operations attempted and failed (an `Err`, a panic, or an answer that
/// differs from the oracle).
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// A failure that ends the run: the engine returned an error or panicked,
/// or the benchmark's own I/O failed.
pub type Fatal = String;

/// Runs an engine call, turning an `Err` or a panic into a [`Fatal`].
fn guard<T, E: std::fmt::Display>(
    what: &str,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, Fatal> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(format!("{what}: {e}")),
        Err(_) => Err(format!("{what}: panicked")),
    }
}

pub fn io_err(what: &str) -> impl Fn(std::io::Error) -> Fatal + '_ {
    move |e| format!("{what}: {e}")
}

// ------------------------------------------------------------ tracer ----

/// The per-layer counters of one traced phase.
#[derive(Default)]
pub struct Tracer {
    pub index: IndexTrace,
    pub hash: OpStat,
    pub vfs: Arc<VfsTrace>,
}

/// `core` aggregates, summed over the queries of a window.
#[derive(Debug, Default, Clone)]
pub struct CoreTally {
    /// Thread time inside discovery: the init phase plus every worker's
    /// busy time (the rest of the run when sequential).
    pub thread_ms: f64,
    pub init_ms: f64,
    pub pl_items_fetched: u64,
    pub tables_evaluated: u64,
    pub rows_filter_checked: u64,
    pub rows_passed_filter: u64,
    pub false_positive_rows: u64,
    /// Sums over queries of the slowest and of the mean worker busy time.
    pub worker_max_ms: f64,
    pub worker_mean_ms: f64,
}

impl CoreTally {
    fn add(&mut self, r: &DiscoveryResult) {
        let s = &r.stats;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let busy: Vec<f64> = if s.per_worker.is_empty() {
            vec![ms(s.elapsed.saturating_sub(s.init_elapsed))]
        } else {
            s.per_worker.iter().map(|w| ms(w.busy)).collect()
        };
        let total: f64 = busy.iter().sum();
        self.thread_ms += ms(s.init_elapsed) + total;
        self.init_ms += ms(s.init_elapsed);
        self.worker_max_ms += busy.iter().copied().fold(0.0, f64::max);
        self.worker_mean_ms += total / busy.len() as f64;
        self.pl_items_fetched += s.pl_items_fetched as u64;
        self.tables_evaluated += s.tables_evaluated as u64;
        self.rows_filter_checked += s.rows_filter_checked as u64;
        self.rows_passed_filter += s.rows_passed_filter as u64;
        self.false_positive_rows += s.false_positive_rows as u64;
    }
}

// ----------------------------------------------------------- queries ----

/// One discovery through the public read path: `lake.reader()` →
/// `reader.source()` → `MateDiscovery::from_parts`, with the source and the
/// hasher wrapped when traced.
pub fn discover(
    lake: &EngineLake,
    config: &MateConfig,
    q: &GeneratedQuery,
    tracer: Option<&Tracer>,
) -> DiscoveryResult {
    let reader = lake.reader();
    let snapshot = reader.snapshot();
    let source = reader.source();
    let hasher = snapshot.hasher();
    let run = |source: &dyn mate_index::PostingSource, hasher: &dyn mate_hash::RowHasher| {
        MateDiscovery::from_parts(
            snapshot.corpus(),
            source,
            snapshot.superkeys(),
            hasher,
            config.clone(),
        )
        .discover(&q.table, &q.key, K)
    };
    match tracer {
        None => run(&source, &hasher),
        Some(t) => run(
            &TimedSource::new(&source, &t.index),
            &TimedHasher::new(&hasher, &t.hash),
        ),
    }
}

/// What the queries of one window measured.
#[derive(Debug, Default)]
pub struct QueryRun {
    pub latency: Samples,
    /// Throughput of each whole pass over the query list (queries ÷ pass
    /// wall time), for windows made of passes.
    pub pass_qps: Vec<f64>,
    pub core: CoreTally,
    pub pager_hits: u64,
    pub pager_misses: u64,
    pub pager_evictions: u64,
    pub pager_resident_max: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl QueryRun {
    /// Times query `q` against a lake holding the first `tables` tables and
    /// checks the answer against the oracle after the timer stops.
    pub fn query(
        &mut self,
        lake: &EngineLake,
        config: &MateConfig,
        inputs: &Inputs,
        (q, tables): (usize, usize),
        tracer: Option<&Tracer>,
        outcome: &mut Outcome,
    ) {
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            discover(lake, config, &inputs.queries[q], tracer)
        }));
        self.latency.push(start.elapsed().as_secs_f64());
        match result {
            Ok(r) => {
                let ok = inputs.matches(q, tables, &r.top_k);
                if !ok {
                    eprintln!(
                        "mismatch: query {q} over the first {tables} tables: expected {:?}, got {:?}",
                        inputs.expected(q, tables),
                        r.top_k
                    );
                }
                outcome.record(ok);
                self.core.add(&r);
            }
            Err(_) => outcome.record(false),
        }
        self.pager_resident_max = self
            .pager_resident_max
            .max(lake.pager_stats().resident_bytes);
    }
}

/// Whole passes over the query list against a complete lake, until
/// `done(passes)` (asked after each pass) says stop.
pub fn query_passes(
    lake: &EngineLake,
    workload: Workload,
    inputs: &Inputs,
    tracer: Option<&Tracer>,
    outcome: &mut Outcome,
    mut done: impl FnMut(usize) -> bool,
) -> QueryRun {
    let config = workload.mate_config();
    let mut run = QueryRun::default();
    let pager0 = lake.pager_stats();
    let (hits0, misses0) = (lake.source_cache().hits(), lake.source_cache().misses());
    while run.pass_qps.is_empty() || !done(run.pass_qps.len()) {
        let start = Instant::now();
        for q in 0..inputs.queries.len() {
            run.query(lake, &config, inputs, (q, usize::MAX), tracer, outcome);
        }
        let secs = start.elapsed().as_secs_f64();
        run.pass_qps.push(inputs.queries.len() as f64 / secs);
    }
    let pager1 = lake.pager_stats();
    run.pager_hits = pager1.hits - pager0.hits;
    run.pager_misses = pager1.misses - pager0.misses;
    run.pager_evictions = pager1.evictions - pager0.evictions;
    run.cache_hits = lake.source_cache().hits() - hits0;
    run.cache_misses = lake.source_cache().misses() - misses0;
    run
}

// ------------------------------------------------------------ ingest ----

/// One ingest of the whole corpus, `workload.commit_tables()` tables per
/// commit.
#[derive(Debug, Default)]
pub struct IngestRun {
    pub commits: Samples,
    pub rows: usize,
    /// Bytes the process passed to `write(2)` from create to drop.
    pub bytes_written: u64,
    /// Commit time split by what the commit triggered, from the `stats()`
    /// delta: nothing, a flush, or a compaction (traced runs only).
    pub apply_plain_ms: f64,
    pub apply_flush_ms: f64,
    pub apply_compact_ms: f64,
    pub flushes: u64,
    pub compactions: u64,
    pub wal_syncs: u64,
    pub cold_segments: u64,
    pub cold_bytes: usize,
    pub checkpoint_bytes: u64,
    pub vfs_write: OpTotals,
    pub vfs_sync: OpTotals,
    pub vfs_rename: OpTotals,
}

/// Creates a lake of `workload`'s configuration in `dir` and commits the
/// corpus into it, calling `after_commit(lake, tables_so_far, commit_no)`
/// after every commit. With
/// `final_flush` the memtable is flushed before the lake is dropped;
/// without, the last commits live only in the WAL.
pub fn ingest(
    dir: &Path,
    workload: Workload,
    inputs: &Inputs,
    tracer: Option<&Tracer>,
    final_flush: bool,
    outcome: &mut Outcome,
    mut after_commit: impl FnMut(&EngineLake, usize, usize, &mut Outcome),
) -> Result<IngestRun, Fatal> {
    let mut run = IngestRun::default();
    let vfs0 = tracer.map(|t| {
        (
            t.vfs.write.totals(),
            t.vfs.sync.totals(),
            t.vfs.rename.totals(),
        )
    });
    let written0 = sys::bytes_written().map_err(io_err("/proc/self/io"))?;
    let config = workload.engine_config(inputs, tracer);
    let lake = guard("create", || EngineLake::create(dir, config))?;
    let tables: Vec<_> = inputs.corpus.iter().map(|(_, t)| t).collect();
    let mut ingested = 0;
    for (n, chunk) in tables.chunks(workload.commit_tables()).enumerate() {
        let batch: Vec<WalRecord> = chunk
            .iter()
            .map(|&t| WalRecord::InsertTable { table: t.clone() })
            .collect();
        let before = tracer.map(|_| lake.stats());
        let start = Instant::now();
        let result = guard("apply_many", || lake.apply_many(batch));
        let secs = start.elapsed().as_secs_f64();
        outcome.record(result.is_ok());
        result?;
        run.commits.push(secs);
        ingested += chunk.len();
        run.rows += chunk.iter().map(|t| t.num_rows()).sum::<usize>();
        if let Some(before) = before {
            let after = lake.stats();
            let class = if after.compactions > before.compactions {
                &mut run.apply_compact_ms
            } else if after.flushes > before.flushes {
                &mut run.apply_flush_ms
            } else {
                &mut run.apply_plain_ms
            };
            *class += secs * 1e3;
        }
        after_commit(&lake, ingested, n, outcome);
    }
    if final_flush {
        guard("flush", || lake.flush())?;
    }
    let stats = lake.stats();
    run.flushes = stats.flushes;
    run.compactions = stats.compactions;
    run.wal_syncs = lake.group_syncs();
    run.cold_segments = stats.cold_segments as u64;
    run.cold_bytes = stats.cold_bytes;
    run.checkpoint_bytes = stats.checkpoint_delta_bytes + stats.checkpoint_full_bytes;
    drop(lake);
    run.bytes_written = sys::bytes_written().map_err(io_err("/proc/self/io"))? - written0;
    if let (Some(t), Some((w, s, r))) = (tracer, vfs0) {
        run.vfs_write = t.vfs.write.totals().since(w);
        run.vfs_sync = t.vfs.sync.totals().since(s);
        run.vfs_rename = t.vfs.rename.totals().since(r);
    }
    Ok(run)
}

/// A timed `EngineLake::open` of `dir`.
pub struct Reopened {
    pub lake: EngineLake,
    pub secs: f64,
    /// `vfs` whole-file reads the open made (traced runs only).
    pub reads: OpTotals,
}

pub fn reopen(
    dir: &Path,
    config: EngineConfig,
    tracer: Option<&Tracer>,
    outcome: &mut Outcome,
) -> Result<Reopened, Fatal> {
    let read0 = tracer.map(|t| t.vfs.read.totals());
    let start = Instant::now();
    let result = guard("open", || EngineLake::open(dir, config));
    let secs = start.elapsed().as_secs_f64();
    outcome.record(result.is_ok());
    let reads = match (tracer, read0) {
        (Some(t), Some(r0)) => t.vfs.read.totals().since(r0),
        _ => OpTotals::default(),
    };
    Ok(Reopened {
        lake: result?,
        secs,
        reads,
    })
}

// --------------------------------------------------------- work dirs ----

/// The directory a run keeps its lakes in, inside the working directory;
/// removed when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn new(root: &Path) -> Result<WorkDir, Fatal> {
        let path = root.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(io_err("create work dir"))?;
        Ok(WorkDir { path })
    }

    /// A fresh (absent) directory for a lake called `name`.
    pub fn lake(&self, name: &str) -> PathBuf {
        let dir = self.path.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(root) = self.path.parent() {
            // Succeeds only once no other run keeps its lakes there.
            let _ = std::fs::remove_dir(root);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(table: u32, joinability: u64) -> TableResult {
        TableResult {
            table: TableId(table),
            joinability,
        }
    }

    /// Inputs whose only query has the oracle ranking `ranking`.
    fn with_ranking(ranking: Vec<TableResult>) -> Inputs {
        let scores = ranking.iter().map(|r| (r.table, r.joinability)).collect();
        Inputs {
            corpus: Corpus::new(),
            queries: Vec::new(),
            oracle: vec![(ranking, scores)],
            oracle_postings: 0,
            posting_store_bytes: 0,
            cell_bytes: 0,
        }
    }

    #[test]
    fn ties_at_the_kth_score_are_interchangeable() {
        // Eight distinct scores, then four tables tied at 1.
        let mut ranking: Vec<_> = (0..8).map(|t| r(t, 20 - u64::from(t))).collect();
        ranking.extend([r(20, 1), r(21, 1), r(22, 1), r(23, 1)]);
        let inputs = with_ranking(ranking.clone());
        let top: Vec<_> = ranking[..K].to_vec();
        assert_eq!(inputs.expected(0, usize::MAX), top);
        assert!(inputs.matches(0, usize::MAX, &top));

        let mut other_tie = top.clone();
        other_tie[K - 1] = r(22, 1);
        assert!(inputs.matches(0, usize::MAX, &other_tie));

        let mut unknown = top.clone();
        unknown[K - 1] = r(99, 1);
        assert!(
            !inputs.matches(0, usize::MAX, &unknown),
            "not joinable at all"
        );
        let mut wrong_score = top.clone();
        wrong_score[K - 1] = r(21, 2);
        assert!(!inputs.matches(0, usize::MAX, &wrong_score));
        let mut duplicate = top.clone();
        duplicate[K - 1] = r(20, 1);
        assert!(!inputs.matches(0, usize::MAX, &duplicate));
        assert!(!inputs.matches(0, usize::MAX, &top[..K - 1]), "too short");
    }

    #[test]
    fn a_prefix_lake_is_checked_against_its_own_tables() {
        let inputs = with_ranking(vec![r(5, 9), r(1, 4), r(3, 4), r(0, 2)]);
        assert_eq!(inputs.expected(0, 4), vec![r(1, 4), r(3, 4), r(0, 2)]);
        assert!(inputs.matches(0, 4, &[r(1, 4), r(3, 4), r(0, 2)]));
        assert!(
            !inputs.matches(0, 4, &[r(5, 9), r(1, 4), r(3, 4)]),
            "table 5 is not committed"
        );
        assert!(inputs.matches(0, 1, &[r(0, 2)]));
        assert!(inputs.matches(0, 0, &[]));
    }
}
