//! Failure isolation in the robustness preset: an injected panic must be
//! contained to its own point (structured error entry, sweep still
//! completes), and everything that did not fault must stay byte-identical —
//! across thread counts and against a clean run of the same spec.

use sgmap_sweep::{compare_nonfaulted, run_sweep, SweepSpec};

#[test]
fn injected_faults_are_isolated_and_the_rest_is_byte_identical() {
    let clean = run_sweep(&SweepSpec::robustness(), 2).unwrap();
    assert!(clean.records.iter().all(|r| r.is_ok()));
    assert!(
        clean.stability.is_some(),
        "robustness preset must emit a stability report"
    );

    let spec = SweepSpec::robustness().with_injected_panic(1);
    let single = run_sweep(&spec, 1).unwrap();
    let multi = run_sweep(&spec, 4).unwrap();

    // Byte-identical at any thread count, *including* the faulted point's
    // error entry.
    assert_eq!(
        single.canonical_json(),
        multi.canonical_json(),
        "faulted robustness report depends on thread count"
    );

    // Exactly one failed point, and it is the injected one, with a
    // structured message naming the panic.
    let failed: Vec<_> = multi.records.iter().filter(|r| !r.is_ok()).collect();
    assert_eq!(failed.len(), 1, "only the injected point may fail");
    assert_eq!(failed[0].index, 1);
    assert_eq!(
        failed[0].error.as_deref(),
        Some("panic: injected panic at point 1")
    );

    // The stability report survives a faulted sweep (the failed point is
    // simply excluded from the comparison set).
    assert!(multi.stability.is_some());

    // The CI gate's comparison: every non-faulted point byte-identical to
    // the clean run, the one failed point skipped.
    let summary = compare_nonfaulted(&clean.canonical_json(), &multi.canonical_json()).unwrap();
    assert_eq!(summary.skipped, 1);
    assert_eq!(summary.compared, clean.records.len() - 1);
}
