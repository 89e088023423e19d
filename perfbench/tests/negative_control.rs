//! The benchmark's negative controls: a run with a deliberately corrupted
//! chunk or a flipped read-back must report failures, and a clean run of
//! the same shape must report none.

use std::path::PathBuf;

use perfbench::{run, Inject, RunConfig, RunResult, Workload};

fn short_run(inject: Option<Inject>, tag: &str) -> RunResult {
    let cfg = RunConfig {
        workload: Workload::ZipfHot,
        seed: 7,
        seconds: 0.3,
        trace: false,
        inject,
        scratch: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".run")
            .join(format!("test-{tag}")),
    };
    run(&cfg).expect("benchmark environment")
}

#[test]
fn clean_run_reports_no_failures() {
    let r = short_run(None, "clean");
    assert!(
        r.correct(),
        "clean run failed {} of {}",
        r.failed,
        r.attempted
    );
    assert!(r.attempted > 0);
}

#[test]
fn corrupted_chunk_is_reported() {
    let r = short_run(Some(Inject::CorruptChunk), "corrupt");
    assert!(!r.correct());
    // The corrupted chunk fails the read-back check, and its inner row and
    // outer stripe both fail the parity check.
    assert!(r.failed >= 2, "only {} failures reported", r.failed);
}

#[test]
fn flipped_readback_is_reported() {
    let r = short_run(Some(Inject::FlipReadback), "flip");
    assert!(!r.correct());
    assert_eq!(r.failed, 1, "exactly the flipped read fails");
}
