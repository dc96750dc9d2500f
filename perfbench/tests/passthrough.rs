//! The tracing wrappers forward every call unchanged: on smoke-scale lakes
//! a traced discovery returns the same top-k as an untraced one, and both
//! equal the single-shot oracle — before and after a reopen, over a
//! complete lake and over every prefix of an ingest.

use mate_lake::WorkloadScale;
use mate_perfbench::workload::{discover, ingest, reopen, Inputs, Outcome, Tracer, Workload};
use std::path::PathBuf;

fn lake_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("passthrough-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds `workload`'s smoke lake traced, reopens it traced, and checks
/// every query three ways.
fn traced_equals_untraced_equals_oracle(workload: Workload) {
    let inputs = Inputs::generate(workload, WorkloadScale::Smoke, 7);
    assert!(!inputs.queries.is_empty());
    let tracer = Tracer::default();
    let mut outcome = Outcome::default();
    let dir = lake_dir(workload.name());
    let config = workload.engine_config(&inputs, Some(&tracer));
    let built = ingest(
        &dir,
        workload,
        &inputs,
        Some(&tracer),
        true,
        &mut outcome,
        |_, _, _, _| {},
    )
    .expect("ingest");
    assert!(built.commits.len() > 1);
    let lake = reopen(&dir, config, Some(&tracer), &mut outcome)
        .expect("reopen")
        .lake;
    assert_eq!(lake.stats().live_postings, inputs.oracle_postings);
    let mate = workload.mate_config();
    for (i, q) in inputs.queries.iter().enumerate() {
        let plain = discover(&lake, &mate, q, None).top_k;
        let traced = discover(&lake, &mate, q, Some(&tracer)).top_k;
        assert_eq!(plain, traced, "query {i}");
        assert!(
            inputs.matches(i, usize::MAX, &plain),
            "query {i} differs from the oracle"
        );
    }
    assert_eq!(
        (outcome.attempted, outcome.failed),
        (built.commits.len() as u64 + 1, 0)
    );
    // Every seam saw traffic.
    assert!(tracer.index.find_list.totals().calls > 0);
    assert!(tracer.index.collect_run.totals().calls > 0);
    assert!(tracer.hash.totals().calls > 0);
    assert!(tracer.vfs.write.totals().bytes > 0);
    assert!(tracer.vfs.sync.totals().calls > 0);
    assert!(tracer.vfs.read.totals().calls > 0);
    drop(lake);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn od_cold_smoke_passthrough_with_two_query_threads() {
    traced_equals_untraced_equals_oracle(Workload::OdCold);
}

#[test]
fn ingest_prefixes_match_the_oracle_traced_and_untraced() {
    let inputs = Inputs::generate(Workload::WtIngest, WorkloadScale::Smoke, 11);
    let tracer = Tracer::default();
    let mut outcome = Outcome::default();
    let dir = lake_dir("ingest");
    let config = Workload::WtIngest.engine_config(&inputs, Some(&tracer));
    let mate = Workload::WtIngest.mate_config();
    let mut checked = 0;
    let run = ingest(
        &dir,
        Workload::WtIngest,
        &inputs,
        Some(&tracer),
        false,
        &mut outcome,
        |lake, tables, _, _| {
            for (i, q) in inputs.queries.iter().enumerate() {
                let plain = discover(lake, &mate, q, None).top_k;
                let traced = discover(lake, &mate, q, Some(&tracer)).top_k;
                assert_eq!(plain, traced, "query {i} after {tables} tables");
                assert!(
                    inputs.matches(i, tables, &plain),
                    "query {i} after {tables} tables"
                );
                checked += 1;
            }
        },
    )
    .expect("ingest");
    assert!(run.flushes > 0, "the smoke ingest flushes");
    assert_eq!(checked, run.commits.len() * inputs.queries.len());
    // The last commits live only in the WAL; a reopen replays them.
    let lake = reopen(&dir, config, None, &mut outcome)
        .expect("reopen")
        .lake;
    assert_eq!(lake.stats().live_postings, inputs.oracle_postings);
    for (i, q) in inputs.queries.iter().enumerate() {
        assert!(inputs.matches(i, usize::MAX, &discover(&lake, &mate, q, None).top_k));
    }
    assert_eq!(outcome.failed, 0);
    drop(lake);
    std::fs::remove_dir_all(&dir).unwrap();
}
