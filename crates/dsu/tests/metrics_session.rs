//! Metrics-session counters for `AtomicDsu`.
//!
//! The `ecl.dsu.*` counters are process-wide, so this test lives in its own
//! integration binary: DSU operations from sibling tests running in parallel
//! in the same process would otherwise land inside its session and skew the
//! exact counts it asserts.

use ecl_dsu::{AtomicDsu, FindPolicy};

#[test]
fn metrics_session_counts_finds_unions_and_writes() {
    let d = AtomicDsu::new(8);
    let ((), snap) = ecl_metrics::with_metrics(|| {
        // Build a chain 0→1→…→5 then compress with a halving find.
        for x in 0..5 {
            d.union(x, x + 1, FindPolicy::NoCompression);
        }
        d.find(0, FindPolicy::Halving);
    });
    // Each union runs at least two finds (roots) plus the union call.
    assert_eq!(snap.counter("ecl.dsu.union"), 5);
    assert!(snap.counter("ecl.dsu.find") >= 11);
    assert!(snap.counter("ecl.dsu.find_hop") > 0);
    assert!(
        snap.counter("ecl.dsu.compression_write") > 0,
        "the halving find over a chain must issue compression writes"
    );
    // Serial driver: no lost CAS races.
    assert_eq!(snap.counter("ecl.dsu.cas_retry"), 0);

    // Outside the session the gate is closed again and finds are free
    // of side effects on the registry.
    d.find(0, FindPolicy::Halving);
    assert_eq!(ecl_metrics::Snapshot::collect().counter("ecl.dsu.find"), 0);
}
