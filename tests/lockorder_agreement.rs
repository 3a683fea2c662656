//! Static/dynamic D7 agreement: the acquisition orders a real server
//! run takes at runtime must be compatible with the order the static
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
use std::sync::Arc;

use audit::{find_workspace_root, lock_order_edges};
use oassis_server::{
    Client, Figure1Provider, QuerySpec, Request, Response, Server, ServerConfig, SessionManager,
    SessionSpec,
};
use ontology::domains::figure1;
use telemetry::lockorder::{observed_edges, TrackedMutex};
use telemetry::{Telemetry, TelemetrySink};

/// Runtime lock name → the static lock ids it stands for, for every
/// tracked lock in the tree. A runtime name maps to several ids when
/// one lock is shared through several fields (`server.wal` is the same
/// `Arc` in `Session`, `WalStore` and `WalTap`). Keeping this map total
/// is deliberate: adding a `TrackedMutex` without extending it fails
/// the assertion below, which is the nudge to put the new lock under
/// both layers.
fn name_map() -> BTreeMap<&'static str, &'static [&'static str]> {
    BTreeMap::from([
        ("core.cache.inner", &["SharedCrowdCache.inner"][..]),
        (
            "core.prepared.successors",
            &["PreparedQuery.successors"][..],
        ),
        ("telemetry.sink.state", &["TelemetrySink.state"][..]),
        ("server.sessions", &["Server.manager"][..]),
        (
            "server.wal",
            &["Session.wal", "WalStore.wal", "WalTap.wal"][..],
        ),
    ])
}

/// One client's session over the wire: open, a cold query, a repeat
/// (served from the session's memo) and a `recover`.
fn drive_session(server: &Server, name: &str) {
    let mut client = Client::connect(server.addr()).expect("connect over loopback");
    let open = Request::Open(SessionSpec {
        name: name.into(),
        seed: 7,
        members: 2,
    });
    let opened = client.call(&open).unwrap();
    assert!(matches!(opened, Response::Opened { .. }), "{opened:?}");
    let query = Request::Query {
        session: name.into(),
        spec: QuerySpec {
            src: figure1::SIMPLE_QUERY.to_string(),
            threshold: None,
            batch_width: 1,
            max_questions: None,
            seed: 3,
        },
    };
    for _ in 0..2 {
        let reply = client.call(&query).unwrap();
        assert!(matches!(reply, Response::Result { .. }), "{reply:?}");
    }
    let recover = Request::Recover {
        session: name.into(),
    };
    let recovered = client.call(&recover).unwrap();
    assert!(
        matches!(recovered, Response::Recovered { .. }),
        "{recovered:?}"
    );
    client.bye().unwrap();
}

#[test]
fn sim_run_lock_orders_agree_with_the_static_analysis() {
    // Drive every production lock through a telemetry-recording server:
    // two sessions on two connections, each taking `server.sessions` per
    // request, `server.wal` per append, the session's answer cache and
    // the sink. The sanitizer is live throughout — an inversion would
    // panic right here.
    let root = std::env::temp_dir().join(format!("oassis-lockorder-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let ont = Arc::new(figure1::ontology());
    let sink = TelemetrySink::shared();
    let manager = SessionManager::new(
        ont.clone(),
        Box::new(Figure1Provider::new(ont.clone())),
        &root,
    )
    .with_telemetry(Telemetry::recording(&sink));
    let server = Server::spawn(manager, &ServerConfig::default()).expect("bind loopback");
    std::thread::scope(|s| {
        for name in ["a", "b"] {
            let server = &server;
            s.spawn(move || drive_session(server, name));
        }
    });
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);

    let workspace = find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root with Cargo.toml");
    let statically_derived = lock_order_edges(&workspace).expect("static lock analysis runs");
    let map = name_map();

    let mut server_edges = 0;
    for (held, acquired) in observed_edges() {
        // The order graph is process-global; planted-fixture tests in
        // this binary use the `planted.` prefix so their deliberate
        // inversions don't masquerade as production locks here.
        if held.starts_with("planted.") || acquired.starts_with("planted.") {
            continue;
        }
        let (Some(hs), Some(acs)) = (map.get(held), map.get(acquired)) else {
            panic!(
                "runtime lock `{held}` → `{acquired}` involves a name missing from \
                 name_map(); register new TrackedMutex names here so both layers see them"
            );
        };
        if held.starts_with("server.") || acquired.starts_with("server.") {
            server_edges += 1;
        }
        for h in hs.iter() {
            for a in acs.iter() {
                assert!(
                    !statically_derived.contains(&(a.to_string(), h.to_string())),
                    "runtime acquired `{acquired}` ({a}) while holding `{held}` ({h}), but \
                     the static analyzer derived the opposite order — one of the two \
                     schedules deadlocks"
                );
            }
        }
    }
    // without a server edge the loop above checked nothing the server
    // does; the sanitizer records orders only when it tracks
    if telemetry::lockorder::TRACKING {
        assert!(
            server_edges > 0,
            "no observed edge involves a server.* lock: {:?}",
            observed_edges()
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
