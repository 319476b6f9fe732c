//! Poison-ignoring `std::sync` lock wrappers with a `parking_lot`-style
//! API (`lock()` / `read()` / `write()` return guards directly).
//!
//! Two reasons these exist instead of using `std::sync` types raw:
//!
//! 1. The workspace must build with no network access, so `parking_lot`
//!    is out; every crate takes these via `spash_pmem::sync`.
//! 2. The crash-point fault injector (see `crate::fault`) aborts a run by
//!    unwinding with a panic from deep inside the memory model. A `std`
//!    lock held across that unwind would poison and turn every later
//!    access — including the post-crash recovery the harness is trying to
//!    exercise — into a `PoisonError`. Crash simulation *requires* that
//!    locks survive the unwind: on real hardware a power failure does not
//!    corrupt a lock word in a coherent way either, and recovery never
//!    trusts volatile lock state.
//!
//! A third duty arrived with the deterministic scheduler: under a
//! [`crate::schedhook`] hook exactly one task runs at a time, so blocking
//! on the host primitive while a *descheduled* task holds it would
//! deadlock the whole schedule. When a hook is active every acquisition
//! therefore spins on `try_lock`, yielding to the scheduler between
//! attempts ([`crate::schedhook::spin_wait`]); the scheduler then runs
//! the holder until it releases. Without a hook the fast blocking path is
//! unchanged.
//!
//! [`SpinMutex`] is the host-fast sibling of [`Mutex`] for the memory
//! model's own short critical sections (cache shards, the XPBuffer, the
//! directory's routing state, the counter registry). None of them
//! contains a sync point, so a holder can never be descheduled inside
//! one: an uncontended acquire is one swap and a release one store,
//! with no futex and no poison bookkeeping. Under a hook
//! [`SpinMutex::lock`] still reports exactly the one
//! [`SyncEvent::LockAcquire`] a [`Mutex`] would, so replacing one with
//! the other leaves every recorded schedule unchanged.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{PoisonError, TryLockError};

use crate::schedhook::{self, SyncEvent};

/// Mutual exclusion that never poisons.
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    #[inline]
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    #[inline]
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, ignoring poison from a crash-injection unwind.
    /// Cooperative under a scheduler hook (see module docs).
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if schedhook::active() {
            schedhook::sync_point(SyncEvent::LockAcquire);
            loop {
                match self.0.try_lock() {
                    Ok(g) => return g,
                    Err(TryLockError::Poisoned(p)) => return p.into_inner(),
                    Err(TryLockError::WouldBlock) => schedhook::spin_wait(),
                }
            }
        }
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// A test-and-test-and-set spin lock for critical sections that contain
/// no sync point (see module docs). Never poisons: an unwind releases it
/// through the guard's `Drop`.
pub struct SpinMutex<T: ?Sized> {
    locked: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: the lock hands out at most one guard at a time, so the value is
// only ever accessed from one thread at once; `T: Send` lets it move
// between the threads that take turns holding it.
unsafe impl<T: ?Sized + Send> Send for SpinMutex<T> {}
// SAFETY: as above; shared references only reach the value through a
// guard, and guards are mutually exclusive.
unsafe impl<T: ?Sized + Send> Sync for SpinMutex<T> {}

/// Guard returned by [`SpinMutex::lock`]; releases on drop (and unwind).
pub struct SpinMutexGuard<'a, T: ?Sized> {
    lock: &'a SpinMutex<T>,
}

impl<T> SpinMutex<T> {
    #[inline]
    pub const fn new(value: T) -> Self {
        Self {
            locked: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }
}

impl<T: ?Sized> SpinMutex<T> {
    /// Acquire the lock. Under a scheduler hook this is one
    /// [`SyncEvent::LockAcquire`] decision point, exactly like
    /// [`Mutex::lock`]; a contended acquire waits in
    /// [`schedhook::spin_wait`].
    #[inline]
    pub fn lock(&self) -> SpinMutexGuard<'_, T> {
        if schedhook::active() {
            schedhook::sync_point(SyncEvent::LockAcquire);
        }
        self.acquire(schedhook::spin_wait)
    }

    /// Acquire the lock without reporting any sync point, even while
    /// contended. For bookkeeping that must not perturb schedules and that
    /// runs in destructors during crash-injection unwinds, where the
    /// scheduler panics at every sync point and a second panic would abort
    /// the process. No `SpinMutex` critical section yields, so the holder
    /// is always running and a plain host yield is enough to wait for it.
    #[inline]
    pub fn lock_unscheduled(&self) -> SpinMutexGuard<'_, T> {
        self.acquire(schedhook::host_yield)
    }

    /// Test-and-test-and-set. The winning `Acquire` swap pairs with the
    /// `Release` store in the previous guard's drop, so the new holder
    /// sees everything the previous one wrote.
    #[inline]
    fn acquire(&self, wait: fn()) -> SpinMutexGuard<'_, T> {
        while self.locked.swap(true, Ordering::Acquire) {
            while self.locked.load(Ordering::Relaxed) {
                wait();
            }
        }
        SpinMutexGuard { lock: self }
    }
}

impl<T: Default> Default for SpinMutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized> Deref for SpinMutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: this guard is the only one alive (the lock is held).
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> DerefMut for SpinMutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: this guard is the only one alive (the lock is held).
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T: ?Sized> Drop for SpinMutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

/// Reader-writer lock that never poisons.
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    #[inline]
    pub const fn new(value: T) -> Self {
        Self(std::sync::RwLock::new(value))
    }

    #[inline]
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared lock, ignoring poison from a crash-injection unwind.
    /// Cooperative under a scheduler hook (see module docs).
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        if schedhook::active() {
            schedhook::sync_point(SyncEvent::LockAcquire);
            loop {
                match self.0.try_read() {
                    Ok(g) => return g,
                    Err(TryLockError::Poisoned(p)) => return p.into_inner(),
                    Err(TryLockError::WouldBlock) => schedhook::spin_wait(),
                }
            }
        }
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire the exclusive lock, ignoring poison from a crash-injection
    /// unwind. Cooperative under a scheduler hook (see module docs).
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        if schedhook::active() {
            schedhook::sync_point(SyncEvent::LockAcquire);
            loop {
                match self.0.try_write() {
                    Ok(g) => return g,
                    Err(TryLockError::Poisoned(p)) => return p.into_inner(),
                    Err(TryLockError::WouldBlock) => schedhook::spin_wait(),
                }
            }
        }
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(7u64));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("simulated crash point");
        })
        .join();
        // A std Mutex would be poisoned here; ours must keep working.
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn rwlock_survives_a_panicking_writer() {
        let l = Arc::new(RwLock::new(3u64));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let mut g = l2.write();
            *g = 4;
            panic!("simulated crash point");
        })
        .join();
        assert_eq!(*l.read(), 4);
        *l.write() = 5;
        assert_eq!(*l.read(), 5);
    }

    /// Counts every sync point reported on the installing thread, by kind.
    #[derive(Default)]
    struct Tally {
        acquires: std::sync::atomic::AtomicU64,
        others: std::sync::atomic::AtomicU64,
    }
    impl schedhook::SchedHook for Tally {
        fn sync_point(&self, ev: SyncEvent) {
            let c = if ev == SyncEvent::LockAcquire {
                &self.acquires
            } else {
                &self.others
            };
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Run `f` under a counting hook; returns (LockAcquire, other) counts.
    fn tally(f: impl FnOnce()) -> (u64, u64) {
        let t = Arc::new(Tally::default());
        schedhook::install(t.clone());
        f();
        schedhook::clear();
        (
            t.acquires.load(Ordering::Relaxed),
            t.others.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn spin_mutex_reports_the_same_sync_points_as_mutex() {
        let spin = SpinMutex::new(0u64);
        let host = Mutex::new(0u64);
        let spun = tally(|| {
            for _ in 0..3 {
                *spin.lock() += 1;
            }
        });
        let hosted = tally(|| {
            for _ in 0..3 {
                *host.lock() += 1;
            }
        });
        assert_eq!(spun, (3, 0), "one LockAcquire per lock(), nothing else");
        assert_eq!(spun, hosted);
        assert_eq!(tally(|| drop(spin.lock_unscheduled())), (0, 0));
        assert_eq!(*spin.lock(), 3);
    }

    #[test]
    fn spin_mutex_releases_on_unwind() {
        let m = Arc::new(SpinMutex::new(1u64));
        let m2 = Arc::clone(&m);
        let r = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g = 2;
            panic!("simulated crash point");
        })
        .join();
        assert!(r.is_err());
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn spin_mutex_excludes_concurrent_holders() {
        let m = Arc::new(SpinMutex::new(0u64));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*m.lock(), 40_000);
    }
}
