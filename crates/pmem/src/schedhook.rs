//! Pluggable scheduler hook: the seam between the platform's sync points
//! and the deterministic schedule explorer (`spash-sched`).
//!
//! Every concurrency-relevant instant in the workspace — HTM line
//! acquire/commit/abort, [`crate::VLock`]/[`crate::VRwLock`] critical
//! sections, [`crate::sync`] lock acquisitions, atomic RMWs on PM, and
//! every busy-wait spin — reports a [`SyncEvent`] here. Two behaviours:
//!
//! * **Real threads (no hook installed)** — [`sync_point`] is a no-op,
//!   except for [`SyncEvent::SpinWait`], which degrades to
//!   `std::thread::yield_now()`. This is the production path: spinning
//!   threads still cede the CPU on hosts with fewer cores than simulated
//!   threads (an owner preempted mid-transaction must get CPU time or the
//!   spinner livelocks), but nothing else changes.
//!
//! * **Under the deterministic scheduler** — a [`SchedHook`] installed in
//!   the calling thread receives every event and may *deschedule* the
//!   task (block it on a baton until the scheduler hands control back).
//!   One task runs at a time; every interleaving of the modelled sync
//!   points is then a pure function of the scheduler's seeded decisions,
//!   which is what makes schedules recordable and replayable.
//!
//! The hook is thread-local so concurrently running real threads (e.g.
//! benchmark harness threads) and scheduled tasks can coexist in one
//! process; installation costs nothing to threads that never install one.
//!
//! **Cooperative locking contract:** while a hook is installed, code MUST
//! NOT block on a host primitive another descheduled task may hold — the
//! scheduler runs one task at a time, so a host-level block deadlocks the
//! whole schedule. [`crate::sync::Mutex`]/[`crate::sync::RwLock`] honour
//! this by spinning on `try_lock` with a [`SyncEvent::SpinWait`] yield
//! between attempts whenever a hook is active (see `sync.rs`);
//! [`crate::sync::SpinMutex`] always spins that way, and its critical
//! sections contain no sync point at all.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// One modelled synchronization instant. The payload identifies the
/// contended resource where cheap to do so; the scheduler treats it as an
/// opaque label (it keys decisions off its RNG, not the event), but
/// traces and diagnostics print it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncEvent {
    /// The task is spinning on a condition only another task can change
    /// (lock owner release, doubling stage completion, seqlock writer
    /// exit). The scheduler MUST prefer running a different task, or the
    /// spin can never terminate under cooperative scheduling.
    SpinWait,
    /// About to acquire a mutual-exclusion lock (sync::Mutex, VLock,
    /// non-transactional HTM line lock).
    LockAcquire,
    /// Released a lock whose release other tasks may be waiting on.
    LockRelease,
    /// About to perform an atomic RMW (CAS / fetch-or / fetch-and) on the
    /// PM cacheline with this index — the publication points of every
    /// lock-free structure in the repo.
    AtomicRmw(u64),
    /// A software-HTM transaction attempt is starting.
    HtmBegin,
    /// About to acquire an HTM slot (read or write guard) — the window in
    /// which a conflicting commit invalidates this transaction.
    HtmAcquire(u64),
    /// About to validate + commit an HTM transaction.
    HtmCommit,
    /// An HTM transaction attempt aborted (conflict/capacity/explicit).
    HtmAbort,
    /// A test-only interleaving point inserted by a mutation hook (see
    /// `spash-baselines::testhooks`). Never emitted by production code.
    TestRace,
}

impl SyncEvent {
    /// Events at which the current task cannot make progress until some
    /// other task runs.
    #[inline]
    pub fn is_blocking(self) -> bool {
        matches!(self, SyncEvent::SpinWait)
    }
}

/// Receiver for sync points, installed per thread by the deterministic
/// scheduler. Implementations typically block the calling thread until
/// the scheduler hands control back.
pub trait SchedHook: Send + Sync {
    fn sync_point(&self, ev: SyncEvent);
}

thread_local! {
    static HOOK: RefCell<Option<Arc<dyn SchedHook>>> = const { RefCell::new(None) };
    /// Mirrors `HOOK.is_some()`, so the hook-free hot path is one plain
    /// thread-local read instead of a `RefCell` borrow.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Install `hook` for the calling thread. Panics if one is already
/// installed (nested schedulers are a bug).
pub fn install(hook: Arc<dyn SchedHook>) {
    HOOK.with(|h| {
        let mut h = h.borrow_mut();
        assert!(h.is_none(), "a scheduler hook is already installed on this thread");
        *h = Some(hook);
    });
    ACTIVE.with(|a| a.set(true));
}

/// Remove the calling thread's hook (no-op if none).
pub fn clear() {
    ACTIVE.with(|a| a.set(false));
    HOOK.with(|h| h.borrow_mut().take());
}

/// Is a hook installed on the calling thread?
#[inline]
pub fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// Report a sync point. Dispatches to the installed hook; without one,
/// blocking events degrade to `std::thread::yield_now()` and the rest
/// cost nothing.
#[inline]
pub fn sync_point(ev: SyncEvent) {
    // Visibility edges feed the persistence-ordering sanitizer first
    // (publication checks happen whether or not a scheduler is driving).
    crate::san::observe_event(ev);
    if !active() {
        if ev.is_blocking() {
            std::thread::yield_now();
        }
        return;
    }
    // Call under the shared borrow rather than cloning the `Arc` (two
    // atomic RMWs per sync point). The hook may block for a long time, but
    // only `install`/`clear` borrow the slot mutably and no hook calls
    // them; a hook that panics (a scheduler crash) releases the borrow as
    // it unwinds.
    HOOK.with(|h| {
        if let Some(h) = h.borrow().as_deref() {
            h.sync_point(ev);
        }
    });
}

/// Shorthand for the ubiquitous busy-wait yield: under real threads this
/// is exactly `std::thread::yield_now()`, under the scheduler it
/// deschedules the spinner in favour of a task that can unblock it.
#[inline]
pub fn spin_wait() {
    sync_point(SyncEvent::SpinWait);
}

/// Cede the host CPU without reporting a sync point: the wait of
/// [`crate::sync::SpinMutex::lock_unscheduled`], which must never become a
/// scheduler decision.
#[inline]
pub(crate) fn host_yield() {
    std::thread::yield_now();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Counter(AtomicU64);
    impl SchedHook for Counter {
        fn sync_point(&self, _ev: SyncEvent) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn no_hook_degrades_to_yield() {
        assert!(!active());
        // Must not panic or block.
        sync_point(SyncEvent::SpinWait);
        sync_point(SyncEvent::LockAcquire);
        spin_wait();
    }

    #[test]
    fn hook_receives_events_and_clears() {
        let c = Arc::new(Counter(AtomicU64::new(0)));
        install(c.clone());
        assert!(active());
        sync_point(SyncEvent::HtmBegin);
        spin_wait();
        assert_eq!(c.0.load(Ordering::Relaxed), 2);
        clear();
        assert!(!active());
        sync_point(SyncEvent::HtmBegin);
        assert_eq!(c.0.load(Ordering::Relaxed), 2);
    }

    struct Crash;
    impl SchedHook for Crash {
        fn sync_point(&self, _ev: SyncEvent) {
            panic!("scheduler crash");
        }
    }

    #[test]
    fn panicking_hook_leaves_the_slot_usable() {
        install(Arc::new(Crash));
        let r = std::panic::catch_unwind(|| sync_point(SyncEvent::HtmBegin));
        assert!(r.is_err());
        clear();
        let c = Arc::new(Counter(AtomicU64::new(0)));
        install(c.clone());
        sync_point(SyncEvent::HtmBegin);
        clear();
        assert_eq!(c.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn hook_is_thread_local() {
        let c = Arc::new(Counter(AtomicU64::new(0)));
        install(c.clone());
        std::thread::spawn(|| {
            assert!(!active());
        })
        .join()
        .unwrap();
        clear();
    }

    #[test]
    fn blocking_classification() {
        assert!(SyncEvent::SpinWait.is_blocking());
        assert!(!SyncEvent::LockAcquire.is_blocking());
        assert!(!SyncEvent::AtomicRmw(3).is_blocking());
        assert!(!SyncEvent::HtmCommit.is_blocking());
    }
}
