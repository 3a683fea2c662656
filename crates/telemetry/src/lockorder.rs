//! Runtime lock-order sanitizer: the dynamic half of audit rule D7.
//!
//! The static analyzer (`crates/audit`, rule D7) derives which locks each
//! function may hold and flags acquisition-order cycles it can prove from
//! the call graph. It is conservative: dynamic dispatch, closures passed
//! across crate boundaries and lock handles smuggled through collections
//! are all blind spots. This module closes the loop at runtime — every
//! [`TrackedMutex`] records, per thread, which named locks are held when
//! it is acquired, and feeds each `held → acquired` pair into a global
//! acquisition-order graph. Adding an edge that makes the graph cyclic
//! (the classic AB/BA inversion, or any longer cycle) panics immediately
//! with both lock names, *before* the schedule that would actually
//! deadlock has to occur.
//!
//! Tracking is active in debug builds and whenever the `lockorder`
//! feature is enabled (the nightly CI matrix turns it on for release
//! sim runs). In untracked builds [`TrackedMutex`] compiles down to a
//! plain [`Mutex`] plus an unused `&'static str`.
//!
//! The order graph is process-global on purpose: the whole point is to
//! observe orders *across* subsystems (cache vs. telemetry sink vs.
//! worker pools), and tests run threads. Consequently, fixture tests
//! that plant deliberate inversions must use lock names unique to that
//! test, or they would poison the order graph for everyone else.
//!
//! What each acquisition does, in order:
//!
//! 1. **Recursive-lock check** — acquiring a name this thread already
//!    holds is an immediate panic (std `Mutex` is not reentrant; that
//!    schedule deadlocks with itself every time).
//! 2. **Order check** — for the innermost lock currently held, insert
//!    the edge `held → acquired`; if `acquired` already reaches `held`
//!    in the order graph, panic with the inverted pair.
//! 3. Only then block on the underlying mutex. Checks happen before
//!    blocking, so an inversion is reported even on the lucky schedules
//!    where it does not deadlock.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{LockResult, Mutex, MutexGuard, PoisonError};

/// Whether acquisitions are recorded and checked in this build.
pub const TRACKING: bool = cfg!(any(debug_assertions, feature = "lockorder"));

/// The global acquisition-order graph: `a → b` means some thread
/// acquired `b` while holding `a`. Kept sorted so snapshots are
/// deterministic regardless of thread interleaving.
static ORDER: Mutex<BTreeMap<&'static str, BTreeSet<&'static str>>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Names of tracked locks this thread currently holds, outermost
    /// first.
    static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Is `to` reachable from `from` in the order graph?
fn reaches(
    graph: &BTreeMap<&'static str, BTreeSet<&'static str>>,
    from: &'static str,
    to: &'static str,
) -> bool {
    let mut seen: BTreeSet<&'static str> = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if !seen.insert(n) {
            continue;
        }
        if let Some(next) = graph.get(n) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

/// Records (and checks) the acquisition of `name` on this thread.
fn enter(name: &'static str) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        assert!(
            !held.contains(&name),
            "lockorder: recursive acquisition of `{name}` — std Mutex is not reentrant, \
             this schedule self-deadlocks"
        );
        if let Some(&inner) = held.last() {
            // The order mutex itself is a plain Mutex, so recording an
            // edge cannot recurse into the tracker.
            let mut graph = ORDER.lock().unwrap_or_else(PoisonError::into_inner);
            if reaches(&graph, name, inner) {
                panic!(
                    "lockorder: lock-order inversion — acquiring `{name}` while holding \
                     `{inner}`, but the opposite order `{name}` → … → `{inner}` was already \
                     observed; pick one global order"
                );
            }
            graph.entry(inner).or_default().insert(name);
        }
        held.push(name);
    });
}

/// Records the release of `name` on this thread.
fn exit(name: &'static str) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&h| h == name) {
            held.remove(pos);
        }
    });
}

/// A deterministic snapshot of every acquisition-order edge observed so
/// far, as `(outer, inner)` pairs sorted by name. Test hook: the
/// static/dynamic agreement test replays a sim run and asserts each
/// observed edge is compatible with the order the audit derived.
pub fn observed_edges() -> Vec<(&'static str, &'static str)> {
    let graph = ORDER.lock().unwrap_or_else(PoisonError::into_inner);
    graph
        .iter()
        .flat_map(|(&a, bs)| bs.iter().map(move |&b| (a, b)))
        .collect()
}

/// A [`Mutex`] that reports its acquisitions to the global lock-order
/// graph under a stable, human-readable name (convention:
/// `"crate.module.field"`). Drop-in for the std API subset the engines
/// use: [`lock`](TrackedMutex::lock) and
/// [`into_inner`](TrackedMutex::into_inner), with poisoning semantics
/// preserved.
#[derive(Debug)]
pub struct TrackedMutex<T> {
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Wraps `value` in a mutex tracked as `name`. Names must be unique
    /// per lock *instance class*: two instances sharing a name share an
    /// order-graph node, which is exactly right for "the cache lock"
    /// but wrong for unrelated locks.
    pub fn new(name: &'static str, value: T) -> TrackedMutex<T> {
        TrackedMutex {
            name,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, recording the acquisition first (tracked
    /// builds only). Panics on a recursive acquisition or an order
    /// inversion; returns the poison error of the underlying mutex
    /// otherwise, exactly like [`Mutex::lock`].
    pub fn lock(&self) -> LockResult<TrackedGuard<'_, T>> {
        if TRACKING {
            enter(self.name);
        }
        match self.inner.lock() {
            Ok(guard) => Ok(TrackedGuard {
                name: self.name,
                guard,
            }),
            Err(poisoned) => Err(PoisonError::new(TrackedGuard {
                name: self.name,
                guard: poisoned.into_inner(),
            })),
        }
    }

    /// Consumes the mutex, returning the inner value (no lock is taken,
    /// so nothing is recorded).
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

/// The guard of a [`TrackedMutex`]; releasing it pops the lock from the
/// thread's held stack.
#[derive(Debug)]
pub struct TrackedGuard<'a, T> {
    name: &'static str,
    guard: MutexGuard<'a, T>,
}

impl<T> std::ops::Deref for TrackedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for TrackedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for TrackedGuard<'_, T> {
    fn drop(&mut self) {
        if TRACKING {
            exit(self.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, UnwindSafe};

    /// Runs `f`, which takes an order the sanitizer must refuse: it
    /// panics with `expected` exactly when acquisitions are tracked.
    fn refused_iff_tracking(expected: &str, f: impl FnOnce() + UnwindSafe) {
        let outcome = catch_unwind(f);
        assert_eq!(outcome.is_err(), TRACKING);
        if let Err(payload) = outcome {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(message.contains(expected), "{message}");
        }
    }

    #[test]
    fn consistent_order_is_silent_and_recorded() {
        let a = TrackedMutex::new("test.consistent.a", 1);
        let b = TrackedMutex::new("test.consistent.b", 2);
        for _ in 0..2 {
            let ga = a.lock().unwrap();
            let gb = b.lock().unwrap();
            assert_eq!(*ga + *gb, 3);
        }
        assert_eq!(
            observed_edges().contains(&("test.consistent.a", "test.consistent.b")),
            TRACKING,
            "the a→b edge is in the order graph when tracked"
        );
    }

    #[test]
    fn inversion_panics_on_the_second_order() {
        let a = TrackedMutex::new("test.invert.a", ());
        let b = TrackedMutex::new("test.invert.b", ());
        {
            let _ga = a.lock().unwrap();
            let _gb = b.lock().unwrap();
        }
        refused_iff_tracking("lock-order inversion", || {
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap(); // inversion: b held, a→b already observed
        });
    }

    #[test]
    #[should_panic(expected = "recursive acquisition")]
    #[cfg_attr(
        not(any(debug_assertions, feature = "lockorder")),
        ignore = "untracked, a recursive lock of a std mutex deadlocks instead of panicking"
    )]
    fn recursive_lock_panics() {
        let a = TrackedMutex::new("test.recursive.a", ());
        let _g1 = a.lock().unwrap();
        let _g2 = a.lock().unwrap();
    }

    #[test]
    fn longer_cycles_are_caught_transitively() {
        let a = TrackedMutex::new("test.cycle3.a", ());
        let b = TrackedMutex::new("test.cycle3.b", ());
        let c = TrackedMutex::new("test.cycle3.c", ());
        {
            let _ga = a.lock().unwrap();
            let _gb = b.lock().unwrap();
        }
        {
            let _gb = b.lock().unwrap();
            let _gc = c.lock().unwrap();
        }
        refused_iff_tracking("lock-order inversion", || {
            let _gc = c.lock().unwrap();
            let _ga = a.lock().unwrap(); // c→a closes the a→b→c cycle
        });
    }

    #[test]
    fn dropping_the_guard_releases_the_hold() {
        let a = TrackedMutex::new("test.release.a", ());
        let b = TrackedMutex::new("test.release.b", ());
        {
            let _ga = a.lock().unwrap();
        } // released: the next acquisition of b holds nothing
        let _gb = b.lock().unwrap();
        assert!(
            !observed_edges().contains(&("test.release.a", "test.release.b")),
            "no edge is recorded once the guard is dropped"
        );
    }
}
