//! Static/dynamic D7 agreement: the acquisition orders a real sim run
//! takes at runtime must be compatible with the order the static
//! analyzer derived.
//!
//! Rule D7 (`crates/audit/src/locks.rs`) proves an over-approximation of
//! acquisition-order edges from the call graph; the runtime sanitizer
//! (`telemetry::lockorder`, always on in debug builds) records the exact
//! orders taken. Each catches what the other cannot — the static pass
//! sees schedules that never ran, the dynamic pass sees acquisitions
//! routed through dispatch the static pass cannot resolve — so this test
//! closes the loop: every edge the run *observed* must not be the
//! reverse of an edge the analyzer *derived*. (The planted-inversion
//! fixture `crates/audit/tests/fixtures/d7_locks.rs` exercises the
//! static half; `dynamic_sanitizer_catches_the_planted_inversion` below
//! replays the same shape at runtime.)

use std::collections::BTreeMap;

use audit::{find_workspace_root, lock_order_edges};
use telemetry::lockorder::{observed_edges, TrackedMutex};

/// Runtime lock name → static lock id, for every tracked lock in the
/// tree. Keeping this map total is deliberate: adding a `TrackedMutex`
/// without extending it fails the assertion below, which is the nudge
/// to put the new lock under both layers.
fn name_map() -> BTreeMap<&'static str, &'static str> {
    BTreeMap::from([
        ("core.cache.inner", "SharedCrowdCache.inner"),
        ("telemetry.sink.state", "TelemetrySink.state"),
    ])
}

#[test]
fn sim_run_lock_orders_agree_with_the_static_analysis() {
    // Drive the telemetry-sink lock through two cluster sim sessions
    // under faults. The sanitizer is live throughout — an inversion would
    // panic right here.
    let report = simtest::run_cluster_seed(11, 2);
    assert!(report.shards >= 1);
    let report = simtest::run_cluster_seed(23, 4);
    assert!(report.shards >= 1);

    let root = find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root with Cargo.toml");
    let statically_derived = lock_order_edges(&root).expect("static lock analysis runs");
    let map = name_map();

    for (held, acquired) in observed_edges() {
        // The order graph is process-global; planted-fixture tests in
        // this binary use the `planted.` prefix so their deliberate
        // inversions don't masquerade as production locks here.
        if held.starts_with("planted.") || acquired.starts_with("planted.") {
            continue;
        }
        let (Some(h), Some(a)) = (map.get(held), map.get(acquired)) else {
            panic!(
                "runtime lock `{held}` → `{acquired}` involves a name missing from \
                 name_map(); register new TrackedMutex names here so both layers see them"
            );
        };
        assert!(
            !statically_derived.contains(&(a.to_string(), h.to_string())),
            "runtime acquired `{acquired}` while holding `{held}`, but the static \
             analyzer derived the opposite order — one of the two schedules deadlocks"
        );
    }
}

#[test]
fn dynamic_sanitizer_catches_the_planted_inversion() {
    // The runtime half of the planted fixture: same AB/BA shape as
    // `fixtures/d7_locks.rs`, unique names so the shared order graph
    // stays clean for the agreement test above. The sanitizer panics on
    // the inversion exactly when it tracks: always in debug builds, and
    // in release builds only with the `lockorder` feature.
    let a = TrackedMutex::new("planted.inversion.a", 0u32);
    let b = TrackedMutex::new("planted.inversion.b", 0u32);
    {
        let _ga = a.lock().unwrap();
        let _gb = b.lock().unwrap();
    }
    let inverted = std::panic::catch_unwind(|| {
        let _gb = b.lock().unwrap();
        let _ga = a.lock().unwrap();
    });
    assert_eq!(inverted.is_err(), telemetry::lockorder::TRACKING);
    if let Err(payload) = inverted {
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains("lock-order inversion"), "{message}");
    }
}
