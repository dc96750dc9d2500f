//! One invocation: set-up, the timed window, and the metrics it yields.
//!
//! An untraced run (`--trace 0`) sets up `workload.setups()` times, each
//! time from its own lake seed, and spreads the `--seconds` window over the
//! lakes it builds; it reports the end-to-end metrics. A traced run
//! (`--trace 1`) does a fixed amount of work untraced and then the same work
//! with every layer seam wrapped; it reports the per-layer metrics and the
//! tracing overhead (traced ÷ untraced throughput).

use crate::report::Metrics;
use crate::stats::{median, ratio, Samples};
use crate::sys;
use crate::trace::OpTotals;
use crate::workload::{
    ingest, io_err, query_passes, reopen, Fatal, IngestRun, Inputs, Outcome, QueryRun, Tracer,
    WorkDir, Workload, OD_COLD_CACHE_DIVISOR,
};
use mate_index::engine::EngineLake;
use mate_lake::WorkloadScale;
use std::time::{Duration, Instant};

/// Scale of every workload's `StandardLakes`.
pub const SCALE: WorkloadScale = WorkloadScale::Small;
/// Lake seeds reserved per `--seed`: the most set-ups a run makes.
const LAKE_SEEDS_PER_SEED: u64 = 4;
/// Query passes of each window of a traced `od-cold` run. Fixed, so
/// per-layer counts compare between runs.
pub const TRACE_PASSES: usize = 10;

/// What one invocation asks for.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub window: Duration,
}

impl Plan {
    /// The seed `StandardLakes` is built from in set-up `k`: every set-up
    /// of a run has its own lake, so a run averages over several generated
    /// lakes, and runs with different seeds share none.
    pub fn lake_seed(&self, k: usize) -> u64 {
        self.seed
            .wrapping_mul(LAKE_SEEDS_PER_SEED)
            .wrapping_add(k as u64)
    }
}

/// Everything one phase measured. Fields a workload does not exercise stay
/// at their defaults.
#[derive(Debug, Default)]
struct Measured {
    setup_secs: Vec<f64>,
    /// Ingest counters of the last lake built; commits and rows pooled over
    /// every ingest of the phase.
    ingest: IngestRun,
    commits: Samples,
    rows: usize,
    queries: QueryRun,
    /// Open times of each reopened lake, one list per lake.
    reopen_secs: Vec<Vec<f64>>,
    /// `vfs` whole-file reads of the reopens of the last lake built.
    open_reads: OpTotals,
    /// Bytes written by every ingest, and the cell bytes they ingested.
    written: (u64, u64),
    /// Directory bytes of every reopened lake, and the cell bytes it holds.
    stored: (u64, u64),
    /// `vfs` preads from the lake's creation or reopen to the end of the
    /// window.
    pread: OpTotals,
}

impl Measured {
    fn add_ingest(&mut self, run: IngestRun, inputs: &Inputs) {
        self.commits.extend(&run.commits);
        self.rows += run.rows;
        self.written.0 += run.bytes_written;
        self.written.1 += inputs.cell_bytes;
        self.ingest = run;
    }

    fn add_stored(&mut self, dir: &std::path::Path, inputs: &Inputs) -> Result<(), Fatal> {
        self.stored.0 += sys::dir_bytes(dir).map_err(io_err("size lake"))?;
        self.stored.1 += inputs.cell_bytes;
        Ok(())
    }

    /// Mean over lakes of each lake's median open time.
    fn reopen_secs(&self) -> f64 {
        let medians: Vec<f64> = self.reopen_secs.iter().map(|l| median(l)).collect();
        ratio(medians.iter().sum(), medians.len() as f64)
    }

    fn ingest_rows_per_s(&self) -> f64 {
        ratio(self.rows as f64, self.commits.sum())
    }

    /// Median pass throughput for windows made of passes; otherwise
    /// (`wt-ingest`, whose queries interleave with commits) queries ÷
    /// summed query latency.
    fn query_qps(&self) -> f64 {
        let lat = &self.queries.latency;
        if self.queries.pass_qps.is_empty() {
            ratio(lat.len() as f64, lat.sum())
        } else {
            median(&self.queries.pass_qps)
        }
    }
}

/// Result of one invocation.
pub struct RunResult {
    pub metrics: Metrics,
    pub outcome: Outcome,
    /// Human-readable context lines (sample counts, lake seeds).
    pub notes: Vec<String>,
}

/// Runs `plan` untraced and reports the end-to-end metrics.
///
/// `od-cold` follows each set-up with an equal share of the window on the
/// lake just built, so the timed work is spread over the whole run.
/// `wt-ingest` sets up the inputs of each lake seed, then runs rounds of one
/// ingest cycle per lake until the window has passed.
pub fn run_end_to_end(plan: &Plan, work: &WorkDir) -> Result<RunResult, Fatal> {
    let mut outcome = Outcome::default();
    let mut m = Measured::default();
    let mut peak_rss: f64 = 0.0;
    let mut ingest_inputs = Vec::new();
    let setups = plan.workload.setups();
    let share = plan.window / setups as u32;
    for k in 0..setups {
        let start = Instant::now();
        let mut inputs = Inputs::generate(plan.workload, SCALE, plan.lake_seed(k));
        if plan.workload == Workload::WtIngest {
            m.setup_secs.push(start.elapsed().as_secs_f64());
            ingest_inputs.push(inputs);
            continue;
        }
        let lake = build_read_lake(plan.workload, &inputs, work, None, &mut m, &mut outcome)?;
        inputs.corpus = Default::default();
        m.setup_secs.push(start.elapsed().as_secs_f64());
        sys::reset_peak_rss().map_err(io_err("/proc/self/clear_refs"))?;
        let window = Instant::now();
        let run = query_passes(&lake, plan.workload, &inputs, None, &mut outcome, |_| {
            window.elapsed() >= share
        });
        peak_rss = peak_rss.max(sys::peak_rss_mib().map_err(io_err("/proc/self/status"))?);
        m.queries.latency.extend(&run.latency);
        m.queries.pass_qps.extend(run.pass_qps);
    }
    if plan.workload == Workload::WtIngest {
        sys::reset_peak_rss().map_err(io_err("/proc/self/clear_refs"))?;
        let window = Instant::now();
        // Whole rounds, one cycle per lake each, so every lake weighs the
        // same in the pooled samples.
        loop {
            for inputs in &ingest_inputs {
                ingest_cycle(plan.workload, inputs, work, None, &mut m, &mut outcome)?;
            }
            if window.elapsed() >= plan.window {
                break;
            }
        }
        peak_rss = sys::peak_rss_mib().map_err(io_err("/proc/self/status"))?;
    }

    let mut metrics = Metrics::default();
    let lat = &m.queries.latency;
    metrics.set("query_qps", m.query_qps());
    metrics.set("query_p50_ms", lat.percentile(0.5) * 1e3);
    metrics.set("query_p95_ms", lat.percentile(0.95) * 1e3);
    metrics.set("ingest_rows_per_s", m.ingest_rows_per_s());
    metrics.set("commit_p50_ms", m.commits.percentile(0.5) * 1e3);
    metrics.set(
        "commit_tail_ms",
        m.commits.percentile(m.commits.tail()) * 1e3,
    );
    metrics.set("reopen_s", m.reopen_secs());
    metrics.set("write_amp", ratio(m.written.0 as f64, m.written.1 as f64));
    metrics.set("space_amp", ratio(m.stored.0 as f64, m.stored.1 as f64));
    metrics.set("peak_rss_mb", peak_rss);
    metrics.set("setup_s", median(&m.setup_secs));
    let seeds: Vec<u64> = (0..setups).map(|k| plan.lake_seed(k)).collect();
    let notes = vec![
        format!(
            "lake seeds {seeds:?}; set-up seconds {:?}; rows committed {}; open seconds per lake {:?}",
            m.setup_secs,
            m.rows,
            m.reopen_secs
        ),
        format!(
            "query latency: {} samples, {} beyond p95; commit latency: {} samples, tail p{}, {} beyond it",
            lat.len(),
            lat.beyond(0.95),
            m.commits.len(),
            m.commits.tail() * 100.0,
            m.commits.beyond(m.commits.tail())
        ),
    ];
    Ok(RunResult {
        metrics,
        outcome,
        notes,
    })
}

/// Runs `plan` untraced and then traced on the lake of the first lake seed,
/// with fixed work in each phase, and reports the per-layer metrics.
pub fn run_traced(plan: &Plan, work: &WorkDir) -> Result<RunResult, Fatal> {
    let mut outcome = Outcome::default();
    let inputs = Inputs::generate(plan.workload, SCALE, plan.lake_seed(0));
    let tracer = Tracer::default();
    let mut plain = Measured::default();
    let mut traced = Measured::default();
    for (tracer, m) in [(None, &mut plain), (Some(&tracer), &mut traced)] {
        if plan.workload == Workload::WtIngest {
            ingest_cycle(plan.workload, &inputs, work, tracer, m, &mut outcome)?;
            continue;
        }
        let lake = build_read_lake(plan.workload, &inputs, work, tracer, m, &mut outcome)?;
        let pread0 = tracer.map(|t| t.vfs.pread.totals());
        m.queries = query_passes(&lake, plan.workload, &inputs, tracer, &mut outcome, |p| {
            p >= TRACE_PASSES
        });
        if let (Some(t), Some(p0)) = (tracer, pread0) {
            m.pread = m.pread.plus(t.vfs.pread.totals().since(p0));
        }
    }
    let metrics = layer_metrics(&tracer, &plain, &traced);
    let notes = vec![format!(
        "lake seed {}; traced queries {}; traced commits {}; reopens {}",
        plan.lake_seed(0),
        traced.queries.latency.len(),
        traced.commits.len(),
        traced.reopen_secs.iter().map(Vec::len).sum::<usize>()
    )];
    Ok(RunResult {
        metrics,
        outcome,
        notes,
    })
}

/// Builds a read workload's lake: ingest with a final flush, drop, and
/// reopen `workload.reopens()` copies of the directory (for `od-cold` with the page
/// cache cut to a quarter of the cold bytes), keeping the last. Its
/// verification pass is the warm-up.
fn build_read_lake(
    workload: Workload,
    inputs: &Inputs,
    work: &WorkDir,
    tracer: Option<&Tracer>,
    m: &mut Measured,
    outcome: &mut Outcome,
) -> Result<EngineLake, Fatal> {
    let dir = work.lake("read");
    let mut config = workload.engine_config(inputs, tracer);
    let run = ingest(
        &dir,
        workload,
        inputs,
        tracer,
        true,
        outcome,
        |_, _, _, _| {},
    )?;
    if workload == Workload::OdCold {
        config.cold_cache_budget_bytes = run.cold_bytes / OD_COLD_CACHE_DIVISOR;
    }
    m.add_ingest(run, inputs);
    let pread0 = tracer.map(|t| t.vfs.pread.totals());
    let lake = reopen_copies(workload, &dir, &config, work, tracer, m, inputs, outcome)?;
    if let (Some(t), Some(p0)) = (tracer, pread0) {
        m.pread = t.vfs.pread.totals().since(p0);
    }
    Ok(lake)
}

/// Reopens `workload.reopens()` fresh copies of the dropped lake in `dir`, timing each
/// open and checking each posting count, and returns the last after
/// checking every query on it.
#[allow(clippy::too_many_arguments)]
fn reopen_copies(
    workload: Workload,
    dir: &std::path::Path,
    config: &mate_index::engine::EngineConfig,
    work: &WorkDir,
    tracer: Option<&Tracer>,
    m: &mut Measured,
    inputs: &Inputs,
    outcome: &mut Outcome,
) -> Result<EngineLake, Fatal> {
    m.open_reads = OpTotals::default();
    let mut secs = Vec::new();
    let mut kept = None;
    for copy in 0..workload.reopens() {
        drop(kept.take());
        let copy_dir = work.lake(&format!("reopen-{copy}"));
        sys::copy_dir(dir, &copy_dir).map_err(io_err("copy lake"))?;
        let reopened = reopen(&copy_dir, config.clone(), tracer, outcome)?;
        secs.push(reopened.secs);
        m.open_reads = m.open_reads.plus(reopened.reads);
        if copy == 0 {
            m.add_stored(&copy_dir, inputs)?;
        }
        let lake = reopened.lake;
        outcome.record(lake.stats().live_postings == inputs.oracle_postings);
        kept = Some(lake);
    }
    m.reopen_secs.push(secs);
    let lake = kept.expect("a lake is reopened at least once");
    let mut check = QueryRun::default();
    for q in 0..inputs.queries.len() {
        check.query(
            &lake,
            &workload.mate_config(),
            inputs,
            (q, usize::MAX),
            None,
            outcome,
        );
    }
    Ok(lake)
}

/// One `wt-ingest` cycle: commit the corpus into a fresh lake, one query
/// after every commit (round-robin over the queries, checked against the
/// oracle restricted to the tables committed so far), drop the lake
/// without a final flush, then reopen `workload.reopens()` copies of it,
/// checking the posting count on each and every query on the last.
fn ingest_cycle(
    workload: Workload,
    inputs: &Inputs,
    work: &WorkDir,
    tracer: Option<&Tracer>,
    m: &mut Measured,
    outcome: &mut Outcome,
) -> Result<(), Fatal> {
    let dir = work.lake("ingest");
    let config = workload.engine_config(inputs, tracer);
    let mate = workload.mate_config();
    let pread0 = tracer.map(|t| t.vfs.pread.totals());
    let queries = &mut m.queries;
    // The lake's page cache and source cache are its own, so their
    // counters after the last query are this cycle's totals.
    let mut caches = (Default::default(), 0, 0);
    let run = ingest(
        &dir,
        workload,
        inputs,
        tracer,
        false,
        outcome,
        |lake, tables, n, outcome| {
            let q = n % inputs.queries.len();
            queries.query(lake, &mate, inputs, (q, tables), tracer, outcome);
            caches = (
                lake.pager_stats(),
                lake.source_cache().hits(),
                lake.source_cache().misses(),
            );
        },
    )?;
    let (pager, hits, misses): (mate_storage::pager::PagerStats, u64, u64) = caches;
    let q = &mut m.queries;
    q.pager_hits += pager.hits;
    q.pager_misses += pager.misses;
    q.pager_evictions += pager.evictions;
    q.cache_hits += hits;
    q.cache_misses += misses;
    m.add_ingest(run, inputs);
    drop(reopen_copies(
        workload, &dir, &config, work, tracer, m, inputs, outcome,
    )?);
    if let (Some(t), Some(p0)) = (tracer, pread0) {
        m.pread = m.pread.plus(t.vfs.pread.totals().since(p0));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// The per-layer metrics of a traced run.
fn layer_metrics(t: &Tracer, plain: &Measured, traced: &Measured) -> Metrics {
    use std::sync::atomic::Ordering::Relaxed;
    let mut out = Metrics::default();
    let mut set = |name: &'static str, value: f64| out.set(name, value);
    let q = &traced.queries;
    let find_list = t.index.find_list.totals();
    let table_runs = t.index.table_runs.totals();
    let collect_run = t.index.collect_run.totals();
    let hash = t.hash.totals();
    set("index.find_list.calls", find_list.calls as f64);
    set("index.find_list.busy_ms", find_list.busy_ms);
    set("index.table_runs.calls", table_runs.calls as f64);
    set("index.table_runs.busy_ms", table_runs.busy_ms);
    set("index.collect_run.calls", collect_run.calls as f64);
    set("index.collect_run.busy_ms", collect_run.busy_ms);
    set("index.collect_run.entries", collect_run.bytes as f64);
    set(
        "index.blocks_decoded",
        t.index.blocks_decoded.load(Relaxed) as f64,
    );
    set(
        "index.blocks_skipped",
        t.index.blocks_skipped.load(Relaxed) as f64,
    );
    set("index.source_cache.hits", q.cache_hits as f64);
    set("index.source_cache.misses", q.cache_misses as f64);
    set(
        "index.source_cache.hit_rate",
        ratio(q.cache_hits as f64, (q.cache_hits + q.cache_misses) as f64),
    );
    set("hash.calls", hash.calls as f64);
    set("hash.busy_ms", hash.busy_ms);
    let c = &q.core;
    set(
        "core.self_ms",
        c.thread_ms - find_list.busy_ms - table_runs.busy_ms - collect_run.busy_ms - hash.busy_ms,
    );
    set("core.init_ms", c.init_ms);
    set("core.pl_items_fetched", c.pl_items_fetched as f64);
    set("core.tables_evaluated", c.tables_evaluated as f64);
    set("core.rows_filter_checked", c.rows_filter_checked as f64);
    set("core.rows_passed_filter", c.rows_passed_filter as f64);
    set("core.false_positive_rows", c.false_positive_rows as f64);
    set(
        "core.filter_precision",
        if c.rows_passed_filter == 0 {
            1.0
        } else {
            1.0 - c.false_positive_rows as f64 / c.rows_passed_filter as f64
        },
    );
    set(
        "core.worker_imbalance",
        ratio(c.worker_max_ms, c.worker_mean_ms),
    );
    set("pager.hits", q.pager_hits as f64);
    set("pager.misses", q.pager_misses as f64);
    set("pager.evictions", q.pager_evictions as f64);
    set(
        "pager.hit_rate",
        ratio(q.pager_hits as f64, (q.pager_hits + q.pager_misses) as f64),
    );
    set("pager.resident_bytes_max", q.pager_resident_max as f64);
    set("vfs.pread.calls", traced.pread.calls as f64);
    set("vfs.pread.busy_ms", traced.pread.busy_ms);
    set("vfs.pread.bytes", traced.pread.bytes as f64);
    let ing = &traced.ingest;
    set("vfs.write.calls", ing.vfs_write.calls as f64);
    set("vfs.write.busy_ms", ing.vfs_write.busy_ms);
    set("vfs.write.bytes", ing.vfs_write.bytes as f64);
    set("vfs.sync.calls", ing.vfs_sync.calls as f64);
    set("vfs.sync.busy_ms", ing.vfs_sync.busy_ms);
    set("vfs.rename.calls", ing.vfs_rename.calls as f64);
    set("vfs.read.calls", traced.open_reads.calls as f64);
    set("vfs.read.busy_ms", traced.open_reads.busy_ms);
    set("vfs.read.bytes", traced.open_reads.bytes as f64);
    set("engine.apply_plain_ms", ing.apply_plain_ms);
    set("engine.apply_flush_ms", ing.apply_flush_ms);
    set("engine.apply_compact_ms", ing.apply_compact_ms);
    set("engine.flushes", ing.flushes as f64);
    set("engine.compactions", ing.compactions as f64);
    set("engine.wal_syncs", ing.wal_syncs as f64);
    set("engine.cold_segments", ing.cold_segments as f64);
    set("engine.checkpoint_bytes", ing.checkpoint_bytes as f64);
    set("engine.open_ms", traced.reopen_secs() * 1e3);
    set(
        "trace.overhead.query_qps",
        ratio(traced.query_qps(), plain.query_qps()),
    );
    set(
        "trace.overhead.ingest_rows_per_s",
        ratio(traced.ingest_rows_per_s(), plain.ingest_rows_per_s()),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_with_different_seeds_share_no_lake() {
        for w in Workload::ALL {
            assert!(w.setups() as u64 <= LAKE_SEEDS_PER_SEED, "{}", w.name());
        }
        let plan = |seed| Plan {
            workload: Workload::WtIngest,
            seed,
            window: Duration::ZERO,
        };
        let last = Workload::WtIngest.setups() - 1;
        assert!(plan(7).lake_seed(last) < plan(8).lake_seed(0));
    }
}
