//! The metric catalogue and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the metrics `BENCHMARK.json` declares,
//! with their units; a run emits exactly one set of them (a test checks the
//! two lists against the file).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("query_qps", "queries/s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("ingest_rows_per_s", "rows/s"),
    ("commit_p50_ms", "ms"),
    ("commit_tail_ms", "ms"),
    ("reopen_s", "s"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Metrics of a traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("index.find_list.calls", "count"),
    ("index.find_list.busy_ms", "ms"),
    ("index.table_runs.calls", "count"),
    ("index.table_runs.busy_ms", "ms"),
    ("index.collect_run.calls", "count"),
    ("index.collect_run.busy_ms", "ms"),
    ("index.collect_run.entries", "count"),
    ("index.blocks_decoded", "count"),
    ("index.blocks_skipped", "count"),
    ("index.source_cache.hits", "count"),
    ("index.source_cache.misses", "count"),
    ("index.source_cache.hit_rate", "ratio"),
    ("hash.calls", "count"),
    ("hash.busy_ms", "ms"),
    ("core.self_ms", "ms"),
    ("core.init_ms", "ms"),
    ("core.pl_items_fetched", "count"),
    ("core.tables_evaluated", "count"),
    ("core.rows_filter_checked", "count"),
    ("core.rows_passed_filter", "count"),
    ("core.false_positive_rows", "count"),
    ("core.filter_precision", "ratio"),
    ("core.worker_imbalance", "ratio"),
    ("pager.hits", "count"),
    ("pager.misses", "count"),
    ("pager.evictions", "count"),
    ("pager.hit_rate", "ratio"),
    ("pager.resident_bytes_max", "bytes"),
    ("vfs.pread.calls", "count"),
    ("vfs.pread.busy_ms", "ms"),
    ("vfs.pread.bytes", "bytes"),
    ("vfs.write.calls", "count"),
    ("vfs.write.busy_ms", "ms"),
    ("vfs.write.bytes", "bytes"),
    ("vfs.sync.calls", "count"),
    ("vfs.sync.busy_ms", "ms"),
    ("vfs.rename.calls", "count"),
    ("vfs.read.calls", "count"),
    ("vfs.read.busy_ms", "ms"),
    ("vfs.read.bytes", "bytes"),
    ("engine.apply_plain_ms", "ms"),
    ("engine.apply_flush_ms", "ms"),
    ("engine.apply_compact_ms", "ms"),
    ("engine.flushes", "count"),
    ("engine.compactions", "count"),
    ("engine.wal_syncs", "count"),
    ("engine.cold_segments", "count"),
    ("engine.checkpoint_bytes", "bytes"),
    ("engine.open_ms", "ms"),
    ("trace.overhead.query_qps", "ratio"),
    ("trace.overhead.ingest_rows_per_s", "ratio"),
];

/// Metric values of one run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let previous = self.values.insert(name, value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of `catalogue`, in its order. Errors name a metric that is missing,
    /// not in the catalogue, or not a finite number.
    pub fn result_line(
        &self,
        catalogue: &[(&'static str, &'static str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !catalogue.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAT: &[(&str, &str)] = &[("a_ms", "ms"), ("b", "count")];

    #[test]
    fn result_line_lists_the_catalogue_in_order() {
        let mut m = Metrics::default();
        m.set("b", 3.0);
        m.set("a_ms", 1.25);
        assert_eq!(
            m.result_line(CAT, true, 7, 0).unwrap(),
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn result_line_rejects_gaps_extras_and_non_numbers() {
        let mut m = Metrics::default();
        m.set("a_ms", 1.0);
        assert!(m
            .result_line(CAT, true, 1, 0)
            .unwrap_err()
            .contains("b was not"));
        m.set("b", f64::NAN);
        assert!(m.result_line(CAT, true, 1, 0).unwrap_err().contains("NaN"));
        let mut m = Metrics::default();
        m.set("c", 1.0);
        assert!(m
            .result_line(CAT, true, 1, 0)
            .unwrap_err()
            .contains("catalogue"));
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        for list in [END_TO_END, PER_LAYER] {
            for (i, (name, unit)) in list.iter().enumerate() {
                assert!(!list[..i].iter().any(|(n, _)| n == name), "{name} twice");
                assert!(name.len() <= 64 && unit.len() <= 16);
            }
        }
    }
}
