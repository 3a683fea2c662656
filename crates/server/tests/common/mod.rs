//! Shared harness for the server integration tests: the crate's
//! deterministic Figure-1 crowd provider and temp-dir WAL roots.

use oassis_server::{Figure1Provider, SessionManager};
use ontology::Ontology;
use std::path::PathBuf;
use std::sync::Arc;

/// A manager over a fresh provider and `root`.
pub fn manager(ont: &Arc<Ontology>, root: &PathBuf) -> SessionManager {
    SessionManager::new(
        ont.clone(),
        Box::new(Figure1Provider::new(ont.clone())),
        root,
    )
}

/// A unique temp WAL root, cleared of any previous run's leftovers.
pub fn temp_root(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("oassis-server-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
