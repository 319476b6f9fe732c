//! A software stand-in for Intel RTM (Restricted Transactional Memory).
//!
//! The paper's concurrency control (§IV) relies on four properties of the
//! TSX/eADR combination, all of which this crate reproduces in software:
//!
//! 1. **Atomic multi-word visibility** — a committed transaction's writes
//!    become visible together; an aborted transaction's writes are rolled
//!    back (undo log, cacheline-granularity eager locking).
//! 2. **Conflict aborts** — two transactions touching the same cacheline,
//!    one of them writing, cannot both commit. We detect conflicts eagerly
//!    on write (per-line lock table) and by version validation on read.
//! 3. **Capacity aborts** — a transaction whose footprint exceeds the
//!    (configurable, L1-sized) capacity aborts with [`Abort::Capacity`].
//!    This is what forces Spash's *collaborative staged doubling* instead
//!    of one big doubling transaction.
//! 4. **Flush-aborts** — `clwb`/`ntstore` inside a transaction abort it on
//!    real TSX (paper §II-C2); [`Tx`] simply does not expose flushes, so
//!    the constraint holds by construction (flushes happen after commit).
//!
//! Locations are identified by [`LineId`], not raw pointers: PM cachelines
//! use their line number, and volatile structures (e.g. Spash's DRAM
//! directory) use ids from a disjoint namespace. Hashing ids into a fixed
//! slot table can alias two lines to one slot — a *false conflict*, which
//! real HTM has too (cache-set granularity tracking).
//!
//! Virtual time: acquiring a line syncs the thread clock to the last
//! committing owner's release time, so transactional hot spots serialize
//! in virtual time exactly like [`spash_pmem::VLock`] critical sections —
//! but only for the duration of the actual data conflict, which is why the
//! HTM protocol scales where lock-based protocols do not (paper Fig 12c).

use std::sync::atomic::{AtomicU64, Ordering};

use spash_pmem::schedhook::{self, SyncEvent};
use spash_pmem::{Arena, MemCtx, PmAddr};

/// Identifies one conflict-detection granule (a cacheline or a volatile
/// location).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LineId(pub u64);

impl LineId {
    /// The id of the PM cacheline containing `addr`.
    #[inline]
    pub fn of_pm(addr: PmAddr) -> Self {
        LineId(addr.0 / spash_pmem::CACHELINE)
    }

    /// An id in the volatile namespace (directory entries, etc.). The
    /// caller supplies any value unique within its structure.
    #[inline]
    pub fn volatile(v: u64) -> Self {
        LineId(v | 1 << 63)
    }
}

/// Why a transaction aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Abort {
    /// Another transaction (or a non-transactional lock holder) owns a
    /// conflicting line, or a read-set line changed before commit. Carries
    /// the conflicting slot index so the caller can *really* wait for the
    /// owner ([`Htm::wait_slot`]) instead of burning virtual-time retries
    /// — essential when the host has fewer cores than simulated threads
    /// and an owner can be preempted mid-transaction.
    Conflict(u32),
    /// The transaction footprint exceeded the modelled cache capacity.
    Capacity,
    /// The transaction called [`Tx::abort`] (e.g. Spash's validation step
    /// found the preparation-phase snapshot stale, §IV-A).
    Explicit(u32),
}

/// Configuration of the transactional memory.
#[derive(Clone, Debug)]
pub struct HtmConfig {
    /// log2 of the slot-table size. Bigger tables mean fewer false
    /// conflicts.
    pub slots_pow2: u32,
    /// Maximum lines in the write set (L1d-sized on the paper's testbed:
    /// 48 KiB / 64 B = 768).
    pub write_capacity: usize,
    /// Maximum lines in the read+write set (L2-sized).
    pub read_capacity: usize,
}

impl Default for HtmConfig {
    fn default() -> Self {
        Self {
            slots_pow2: 20,
            write_capacity: 768,
            read_capacity: 8192,
        }
    }
}

struct Slot {
    /// LSB set: locked, owner id in the upper bits.
    /// LSB clear: unlocked, version in the upper bits.
    state: AtomicU64,
    /// Virtual time of the last commit/unlock that wrote through this slot.
    release_t: AtomicU64,
}

/// Commit/abort statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HtmStats {
    pub commits: u64,
    pub conflict_aborts: u64,
    pub capacity_aborts: u64,
    pub explicit_aborts: u64,
    pub nontx_locks: u64,
}

#[derive(Default)]
struct StatCells {
    commits: AtomicU64,
    conflict_aborts: AtomicU64,
    capacity_aborts: AtomicU64,
    explicit_aborts: AtomicU64,
    nontx_locks: AtomicU64,
}

/// The transactional memory. One per index instance; shared by reference.
pub struct Htm {
    slots: Box<[Slot]>,
    mask: u64,
    cfg: HtmConfig,
    stats: StatCells,
}

const LOCKED: u64 = 1;

#[inline]
fn mix(id: u64) -> u64 {
    // Fibonacci hashing; ids are often sequential line numbers.
    id.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

impl Htm {
    pub fn new(cfg: HtmConfig) -> Self {
        let n = 1usize << cfg.slots_pow2;
        let slots = (0..n)
            .map(|_| Slot {
                state: AtomicU64::new(0),
                release_t: AtomicU64::new(0),
            })
            .collect();
        Self {
            slots,
            mask: (n - 1) as u64,
            cfg,
            stats: StatCells::default(),
        }
    }

    #[inline]
    fn slot(&self, id: LineId) -> &Slot {
        &self.slots[(mix(id.0) & self.mask) as usize]
    }

    /// Snapshot the abort statistics.
    pub fn stats(&self) -> HtmStats {
        HtmStats {
            commits: self.stats.commits.load(Ordering::Relaxed),
            conflict_aborts: self.stats.conflict_aborts.load(Ordering::Relaxed),
            capacity_aborts: self.stats.capacity_aborts.load(Ordering::Relaxed),
            explicit_aborts: self.stats.explicit_aborts.load(Ordering::Relaxed),
            nontx_locks: self.stats.nontx_locks.load(Ordering::Relaxed),
        }
    }

    /// Run one transaction attempt. On `Err`, all effects are rolled back
    /// and the clock has been charged the abort penalty; the caller decides
    /// whether to retry, re-run its preparation phase, or take a fallback
    /// lock ([`Htm::nontx_lock`]).
    // conc: region(htm) fn=try_transaction
    pub fn try_transaction<R>(
        &self,
        ctx: &mut MemCtx,
        f: impl FnOnce(&mut Tx<'_>, &mut MemCtx) -> Result<R, Abort>,
    ) -> Result<R, Abort> {
        let cost = &ctx.device().config().cost;
        let (begin_ns, commit_ns, abort_ns) =
            (cost.htm_begin_ns, cost.htm_commit_ns, cost.htm_abort_ns);
        // Scheduler decision point: a transaction is about to open its
        // conflict window (`_xbegin`).
        schedhook::sync_point(SyncEvent::HtmBegin);
        ctx.charge_compute(begin_ns);
        let owner = (ctx.tid() as u64 + 1) << 1 | LOCKED;
        let mut at = Attempt {
            tx: Tx {
                htm: self,
                owner,
                read_set: Vec::with_capacity(8),
                write_set: Vec::with_capacity(8),
                undo_pm: Vec::with_capacity(8),
                undo_vol: Vec::new(),
                finished: false,
            },
            ctx,
        };
        // Roll back *before* the abort's sync point: other tasks scheduled
        // there must find the write set released.
        let r = match f(&mut at.tx, at.ctx) {
            Ok(v) => at.tx.commit(at.ctx).map(|()| v),
            Err(a) => {
                at.tx.rollback(at.ctx.device().arena());
                Err(a)
            }
        };
        match r {
            Ok(v) => {
                self.stats.commits.fetch_add(1, Ordering::Relaxed);
                at.ctx.charge_compute(commit_ns);
                Ok(v)
            }
            Err(a) => {
                self.count_abort(a);
                at.ctx.charge_compute(abort_ns);
                schedhook::sync_point(SyncEvent::HtmAbort);
                Err(a)
            }
        }
    }

    fn count_abort(&self, a: Abort) {
        let c = match a {
            Abort::Conflict(_) => &self.stats.conflict_aborts,
            Abort::Capacity => &self.stats.capacity_aborts,
            Abort::Explicit(_) => &self.stats.explicit_aborts,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Non-transactionally lock a line (the fallback path, §IV-A: "the
    /// segment lock stored in the first bit of its corresponding directory
    /// entry"). Spins until acquired; concurrent transactions touching the
    /// line abort. The caller's clock jumps to the previous release time.
    // conc: region(acquire) fn=nontx_lock
    pub fn nontx_lock(&self, ctx: &mut MemCtx, id: LineId) {
        self.stats.nontx_locks.fetch_add(1, Ordering::Relaxed);
        let cost_lock = ctx.device().config().cost.lock_ns;
        let slot = self.slot(id);
        let owner = (ctx.tid() as u64 + 1) << 1 | LOCKED;
        schedhook::sync_point(SyncEvent::LockAcquire);
        loop {
            let s = slot.state.load(Ordering::Acquire);
            if s & LOCKED == 0
                && slot
                    .state
                    .compare_exchange(s, owner, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                let clk = ctx.clock_mut();
                clk.sync_to(slot.release_t.load(Ordering::Acquire));
                clk.advance(cost_lock);
                return;
            }
            // Scheduler-aware wait: under real threads this is a plain
            // `yield_now`, under the deterministic scheduler it
            // deschedules us until the owner can run (the 1-core
            // livelock fix — a preempted owner otherwise never commits).
            schedhook::spin_wait();
        }
    }

    /// Release a line taken with [`Htm::nontx_lock`], bumping its version
    /// so that any transaction that read it before the lock fails
    /// validation.
    // conc: region(release) fn=nontx_unlock
    pub fn nontx_unlock(&self, ctx: &mut MemCtx, id: LineId) {
        let slot = self.slot(id);
        let s = slot.state.load(Ordering::Acquire);
        debug_assert_eq!(
            s,
            (ctx.tid() as u64 + 1) << 1 | LOCKED,
            "unlocking a line we do not hold"
        );
        slot.release_t.fetch_max(ctx.now(), Ordering::AcqRel);
        // Unlock with a fresh version derived from the release time so it
        // can never equal a version some stale reader recorded.
        let ver = slot.release_t.load(Ordering::Acquire).wrapping_add(1);
        slot.state.store(ver << 1, Ordering::Release);
        schedhook::sync_point(SyncEvent::LockRelease);
    }

    /// Is the line currently locked (by anyone)? Diagnostic hook.
    pub fn is_locked(&self, id: LineId) -> bool {
        self.slot(id).state.load(Ordering::Acquire) & LOCKED != 0
    }

    /// Spin (really, not virtually) until `id` is unlocked. Used between a
    /// conflict abort and the retry so that a preempted conflicting owner
    /// gets CPU time on hosts with few cores; the virtual-time wait is
    /// charged at re-acquisition via `release_t`.
    pub fn wait_unlocked(&self, id: LineId) {
        self.wait_slot((mix(id.0) & self.mask) as u32);
    }

    /// Spin until the table slot at `idx` (from [`Abort::Conflict`]) is
    /// unlocked. No virtual time is charged: in virtual time the waiter
    /// simply ran later.
    pub fn wait_slot(&self, idx: u32) {
        if idx == u32::MAX {
            return;
        }
        let slot = &self.slots[idx as usize];
        while slot.state.load(Ordering::Acquire) & LOCKED != 0 {
            // Hooked wait (satellite of the sched harness): real threads
            // `yield_now` so a preempted owner gets CPU time; scheduled
            // tasks are descheduled until the owner commits or unlocks.
            schedhook::spin_wait();
        }
    }
}

/// An undo entry for a volatile (non-arena) cell.
struct VolUndo {
    cell: *const AtomicU64,
    old: u64,
}

/// An in-flight transaction. An attempt that ends without committing —
/// by abort or by unwinding out of its body — is rolled back.
pub struct Tx<'h> {
    htm: &'h Htm,
    owner: u64,
    /// (slot index, observed version-state) pairs to validate at commit.
    read_set: Vec<(usize, u64)>,
    /// (slot index, pre-lock version) pairs we own.
    write_set: Vec<(usize, u64)>,
    undo_pm: Vec<(PmAddr, u64)>,
    undo_vol: Vec<VolUndo>,
    finished: bool,
}

impl Tx<'_> {
    #[inline]
    fn slot_index(&self, id: LineId) -> usize {
        (mix(id.0) & self.htm.mask) as usize
    }

    fn owns(&self, idx: usize) -> bool {
        self.write_set.iter().any(|&(i, _)| i == idx)
    }

    /// Add `id` to the read set (conflict-checked but not written).
    pub fn read_guard(&mut self, id: LineId) -> Result<(), Abort> {
        let idx = self.slot_index(id);
        if self.owns(idx) {
            return Ok(());
        }
        // Decision point: between here and the version sample, a
        // conflicting commit may slip in (caught at validation).
        schedhook::sync_point(SyncEvent::HtmAcquire(id.0));
        if self.read_set.len() + self.write_set.len() >= self.htm.cfg.read_capacity {
            return Err(Abort::Capacity);
        }
        let s = self.htm.slots[idx].state.load(Ordering::Acquire);
        if s & LOCKED != 0 {
            return Err(Abort::Conflict(idx as u32));
        }
        if !self.read_set.iter().any(|&(i, _)| i == idx) {
            self.read_set.push((idx, s));
        }
        Ok(())
    }

    /// Lock `id` for writing (eager). Aborts on conflict or capacity.
    pub fn write_guard(&mut self, id: LineId) -> Result<(), Abort> {
        let idx = self.slot_index(id);
        if self.owns(idx) {
            return Ok(());
        }
        // Decision point: the eager-lock CAS below races with other
        // transactions' guards and with non-transactional lockers.
        schedhook::sync_point(SyncEvent::HtmAcquire(id.0));
        if self.write_set.len() >= self.htm.cfg.write_capacity
            || self.read_set.len() + self.write_set.len() >= self.htm.cfg.read_capacity
        {
            return Err(Abort::Capacity);
        }
        let slot = &self.htm.slots[idx];
        let s = slot.state.load(Ordering::Acquire);
        if s & LOCKED != 0 {
            return Err(Abort::Conflict(idx as u32));
        }
        // Read-to-write upgrade: if we read this slot earlier, the lock
        // CAS must expect the version we *recorded* then — a commit that
        // slipped in between invalidated our read set, and commit-time
        // validation skips write-owned slots, so it must abort HERE.
        // (Real RTM aborts the moment a read-set line is invalidated.)
        let expected = self
            .read_set
            .iter()
            .find(|&&(i, _)| i == idx)
            .map(|&(_, v)| v)
            .unwrap_or(s);
        if expected != s {
            return Err(Abort::Conflict(idx as u32));
        }
        if slot
            .state
            .compare_exchange(expected, self.owner, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(Abort::Conflict(idx as u32));
        }
        self.write_set.push((idx, expected));
        Ok(())
    }

    /// Transactionally load a u64 from PM.
    pub fn read_u64(&mut self, ctx: &mut MemCtx, addr: PmAddr) -> Result<u64, Abort> {
        self.read_guard(LineId::of_pm(addr))?;
        Ok(ctx.read_u64(addr))
    }

    /// Transactionally store a u64 to PM (undo-logged).
    pub fn write_u64(&mut self, ctx: &mut MemCtx, addr: PmAddr, v: u64) -> Result<(), Abort> {
        self.write_guard(LineId::of_pm(addr))?;
        let old = ctx.device().arena().load_u64(addr);
        self.undo_pm.push((addr, old));
        ctx.write_u64(addr, v);
        Ok(())
    }

    /// Transactionally load a volatile cell (e.g. a directory entry).
    /// The caller charges the DRAM access separately.
    pub fn read_volatile_u64(&mut self, id: LineId, cell: &AtomicU64) -> Result<u64, Abort> {
        self.read_guard(id)?;
        Ok(cell.load(Ordering::Acquire))
    }

    /// Transactionally store to a volatile cell (undo-logged).
    ///
    /// The cell must outlive the transaction; it always does in practice
    /// because cells live in structures (`&self`) that outlive the
    /// `try_transaction` call, but the undo log keeps a raw pointer, hence
    /// the `unsafe` in rollback.
    pub fn write_volatile_u64(
        &mut self,
        id: LineId,
        cell: &AtomicU64,
        v: u64,
    ) -> Result<(), Abort> {
        self.write_guard(id)?;
        let old = cell.load(Ordering::Acquire);
        self.undo_vol.push(VolUndo {
            cell: cell as *const _,
            old,
        });
        cell.store(v, Ordering::Release);
        Ok(())
    }

    /// Explicitly abort (like `_xabort(code)`).
    pub fn abort<T>(&self, code: u32) -> Result<T, Abort> {
        Err(Abort::Explicit(code))
    }

    /// Current footprint, in lines.
    pub fn footprint(&self) -> usize {
        self.read_set.len() + self.write_set.len()
    }

    fn commit(&mut self, ctx: &mut MemCtx) -> Result<(), Abort> {
        // Decision point: the last instant at which a conflicting commit
        // can invalidate this transaction's read set.
        schedhook::sync_point(SyncEvent::HtmCommit);
        // Validate the read set.
        for &(idx, ver) in &self.read_set {
            if self.owns(idx) {
                continue;
            }
            if self.htm.slots[idx].state.load(Ordering::Acquire) != ver {
                self.rollback(ctx.device().arena());
                return Err(Abort::Conflict(idx as u32));
            }
        }
        // Coherence token per written line: a hot line absorbs one commit
        // per transfer interval (that bounds per-line throughput via the
        // device horizon), but the committing THREAD pays only the
        // transfer latency — lock-free commits do not inherit the previous
        // owner's timeline the way lock critical sections do.
        let xfer = ctx.device().config().cost.line_transfer_ns;
        let now = ctx.now();
        let mut horizon = 0;
        for &(idx, old) in &self.write_set {
            let slot = &self.htm.slots[idx];
            let token = slot.release_t.load(Ordering::Acquire).max(now) + xfer;
            slot.release_t.fetch_max(token, Ordering::AcqRel);
            horizon = horizon.max(token);
            slot.state.store(old.wrapping_add(2), Ordering::Release);
        }
        if horizon > 0 {
            ctx.device().note_horizon(horizon);
            ctx.clock_mut().advance(xfer);
        }
        self.finished = true;
        Ok(())
    }

    fn rollback(&mut self, arena: &Arena) {
        if self.finished {
            return;
        }
        // Undo memory effects in reverse order.
        for &(addr, old) in self.undo_pm.iter().rev() {
            // lint:allow(arena-direct): rollback restores pre-images the
            // transaction captured before its own instrumented writes; it
            // must not dirty the cache model or advance clocks again, or
            // aborted attempts would change the durable image and costs.
            arena.store_u64(addr, old);
        }
        for u in self.undo_vol.iter().rev() {
            // SAFETY: cells passed to write_volatile_u64 outlive the
            // transaction (they belong to index structures borrowed for
            // the whole try_transaction call).
            unsafe { (*u.cell).store(u.old, Ordering::Release) };
        }
        // Release locks, restoring the pre-lock version (values are
        // restored, so stale readers may validate successfully — which is
        // correct, nothing changed).
        for &(idx, old) in self.write_set.iter().rev() {
            self.htm.slots[idx].state.store(old, Ordering::Release);
        }
        self.undo_pm.clear();
        self.undo_vol.clear();
        self.write_set.clear();
        self.read_set.clear();
        self.finished = true;
    }
}

/// One transaction attempt: the transaction plus the context it runs on.
/// Holding both lets `Drop` roll back through the context's device — so a
/// body that unwinds (crash-point injection) leaves no write behind —
/// without the transaction owning a device handle of its own.
struct Attempt<'h, 'c> {
    tx: Tx<'h>,
    ctx: &'c mut MemCtx,
}

impl Drop for Attempt<'_, '_> {
    fn drop(&mut self) {
        self.tx.rollback(self.ctx.device().arena());
    }
}

// SAFETY: the raw pointers in undo_vol are only dereferenced while the
// referenced cells are alive (see write_volatile_u64); Tx is otherwise a
// plain data structure.
unsafe impl Send for Tx<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use spash_pmem::{PmConfig, PmDevice};
    use std::sync::Arc;

    fn setup() -> (Arc<PmDevice>, Htm) {
        (
            PmDevice::new(PmConfig::small_test()),
            Htm::new(HtmConfig::default()),
        )
    }

    #[test]
    fn committed_writes_stick() {
        let (dev, htm) = setup();
        let mut ctx = dev.ctx();
        let r = htm.try_transaction(&mut ctx, |tx, ctx| {
            tx.write_u64(ctx, PmAddr(64), 1)?;
            tx.write_u64(ctx, PmAddr(128), 2)?;
            Ok(())
        });
        assert!(r.is_ok());
        assert_eq!(dev.arena().load_u64(PmAddr(64)), 1);
        assert_eq!(dev.arena().load_u64(PmAddr(128)), 2);
        assert_eq!(htm.stats().commits, 1);
    }

    #[test]
    fn explicit_abort_rolls_back_all_writes() {
        let (dev, htm) = setup();
        let mut ctx = dev.ctx();
        dev.arena().store_u64(PmAddr(64), 10);
        let r: Result<(), Abort> = htm.try_transaction(&mut ctx, |tx, ctx| {
            tx.write_u64(ctx, PmAddr(64), 99)?;
            tx.write_u64(ctx, PmAddr(4096), 99)?;
            tx.abort(7)
        });
        assert_eq!(r, Err(Abort::Explicit(7)));
        assert_eq!(dev.arena().load_u64(PmAddr(64)), 10, "undo restored");
        assert_eq!(dev.arena().load_u64(PmAddr(4096)), 0);
        assert_eq!(htm.stats().explicit_aborts, 1);
    }

    #[test]
    fn panicking_body_rolls_back_through_drop() {
        let (dev, htm) = setup();
        let mut ctx = dev.ctx();
        dev.arena().store_u64(PmAddr(64), 10);
        let cell = AtomicU64::new(5);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Result<(), Abort> = htm.try_transaction(&mut ctx, |tx, ctx| {
                tx.write_u64(ctx, PmAddr(64), 99)?;
                tx.write_volatile_u64(LineId::volatile(1), &cell, 6)?;
                panic!("crash point inside the transaction body");
            });
        }));
        assert!(r.is_err());
        assert_eq!(dev.arena().load_u64(PmAddr(64)), 10, "PM write undone");
        assert_eq!(cell.load(Ordering::Relaxed), 5, "volatile write undone");
        assert!(!htm.is_locked(LineId::of_pm(PmAddr(64))), "released");
        assert!(!htm.is_locked(LineId::volatile(1)));
        // The released lines are usable by the next transaction.
        let r: Result<(), Abort> =
            htm.try_transaction(&mut ctx, |tx, ctx| tx.write_u64(ctx, PmAddr(64), 11));
        assert!(r.is_ok());
        assert_eq!(dev.arena().load_u64(PmAddr(64)), 11);
    }

    #[test]
    fn volatile_writes_roll_back() {
        let (dev, htm) = setup();
        let mut ctx = dev.ctx();
        let cell = AtomicU64::new(5);
        let r: Result<(), Abort> = htm.try_transaction(&mut ctx, |tx, _| {
            tx.write_volatile_u64(LineId::volatile(1), &cell, 6)?;
            tx.abort(0)
        });
        assert!(r.is_err());
        assert_eq!(cell.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn capacity_abort_on_large_write_set() {
        let dev = PmDevice::new(PmConfig::small_test());
        let htm = Htm::new(HtmConfig {
            write_capacity: 4,
            ..HtmConfig::default()
        });
        let mut ctx = dev.ctx();
        let r: Result<(), Abort> = htm.try_transaction(&mut ctx, |tx, ctx| {
            for i in 0..8u64 {
                tx.write_u64(ctx, PmAddr(i * 64), i + 1)?;
            }
            Ok(())
        });
        assert_eq!(r, Err(Abort::Capacity));
        assert_eq!(htm.stats().capacity_aborts, 1);
        for i in 0..8u64 {
            assert_eq!(dev.arena().load_u64(PmAddr(i * 64)), 0, "rolled back");
        }
    }

    #[test]
    fn nontx_lock_conflicts_with_transactions() {
        let (dev, htm) = setup();
        let mut a = dev.ctx();
        let mut b = dev.ctx();
        let id = LineId::volatile(42);
        htm.nontx_lock(&mut a, id);
        assert!(htm.is_locked(id));
        let r: Result<(), Abort> =
            htm.try_transaction(&mut b, |tx, _| tx.read_guard(id));
        assert!(matches!(r, Err(Abort::Conflict(_))));
        htm.nontx_unlock(&mut a, id);
        let r: Result<(), Abort> =
            htm.try_transaction(&mut b, |tx, _| tx.read_guard(id));
        assert!(r.is_ok());
    }

    #[test]
    fn version_bump_fails_stale_reader() {
        let (dev, htm) = setup();
        let mut a = dev.ctx();
        let mut b = dev.ctx();
        // Transaction A reads line X; before A commits, B commits a write
        // to X. A's validation must fail.
        let id = LineId::of_pm(PmAddr(64));
        let r: Result<(), Abort> = htm.try_transaction(&mut a, |tx, _| {
            tx.read_guard(id)?;
            let rb = htm.try_transaction(&mut b, |txb, ctxb| txb.write_u64(ctxb, PmAddr(64), 1));
            assert!(rb.is_ok());
            Ok(())
        });
        assert!(matches!(r, Err(Abort::Conflict(_))), "read validation must fail");
    }

    #[test]
    fn write_write_conflict_detected() {
        let (dev, htm) = setup();
        let mut a = dev.ctx();
        let mut b = dev.ctx();
        let r: Result<(), Abort> = htm.try_transaction(&mut a, |tx, ctx| {
            tx.write_u64(ctx, PmAddr(64), 1)?;
            let rb: Result<(), Abort> =
                htm.try_transaction(&mut b, |txb, ctxb| txb.write_u64(ctxb, PmAddr(64), 2));
            assert!(matches!(rb, Err(Abort::Conflict(_))));
            Ok(())
        });
        assert!(r.is_ok());
        assert_eq!(dev.arena().load_u64(PmAddr(64)), 1);
    }

    #[test]
    fn read_own_write() {
        let (dev, htm) = setup();
        let mut ctx = dev.ctx();
        let r = htm.try_transaction(&mut ctx, |tx, ctx| {
            tx.write_u64(ctx, PmAddr(64), 77)?;
            tx.read_u64(ctx, PmAddr(64))
        });
        assert_eq!(r, Ok(77));
    }

    #[test]
    fn conflicting_commits_advance_the_line_token() {
        // Lock-free commits on one line serialize at the LINE (the device
        // horizon tracks its token), but the committing threads pay only
        // the transfer latency — they do not inherit each other's whole
        // timeline the way lock critical sections do.
        let (dev, htm) = setup();
        let xfer = dev.config().cost.line_transfer_ns;
        let mut a = dev.ctx();
        let mut b = dev.ctx();
        htm.try_transaction(&mut a, |tx, ctx| {
            tx.write_u64(ctx, PmAddr(64), 1)?;
            ctx.charge_compute(10_000);
            Ok(())
        })
        .unwrap();
        let a_done = a.now();
        let h1 = dev.sim_horizon();
        assert!(h1 + 100 >= a_done, "token reaches a's commit time");
        htm.try_transaction(&mut b, |tx, ctx| tx.write_u64(ctx, PmAddr(64), 2))
            .unwrap();
        // The line token serialized both commits...
        assert!(dev.sim_horizon() >= h1 + xfer);
        // ...but b's own clock did not teleport to a's timeline.
        assert!(
            b.now() < a_done,
            "b ({}) must not inherit a's clock ({})",
            b.now(),
            a_done
        );
    }

    #[test]
    fn read_to_write_upgrade_detects_intervening_commit() {
        // Regression: T1 reads line L; T2 commits a write to L; T1 then
        // write-guards L. The upgrade must abort — commit-time validation
        // skips write-owned slots, so this is the only place to catch it.
        let (dev, htm) = setup();
        let mut a = dev.ctx();
        let mut b = dev.ctx();
        let r: Result<(), Abort> = htm.try_transaction(&mut a, |tx, ctx| {
            let v = tx.read_u64(ctx, PmAddr(64))?;
            assert_eq!(v, 0);
            // B slips in a committed write between A's read and upgrade.
            htm.try_transaction(&mut b, |txb, ctxb| txb.write_u64(ctxb, PmAddr(64), 77))
                .unwrap();
            // A now upgrades to write the same line based on its stale read.
            tx.write_u64(ctx, PmAddr(64), 1)
        });
        assert!(
            matches!(r, Err(Abort::Conflict(_))),
            "stale upgrade must conflict, got {r:?}"
        );
        assert_eq!(
            dev.arena().load_u64(PmAddr(64)),
            77,
            "B's committed write must survive"
        );
    }

    #[test]
    fn footprint_counts_unique_lines() {
        let (dev, htm) = setup();
        let mut ctx = dev.ctx();
        htm.try_transaction(&mut ctx, |tx, ctx| {
            tx.write_u64(ctx, PmAddr(0), 1)?;
            tx.write_u64(ctx, PmAddr(8), 2)?; // same line
            tx.write_u64(ctx, PmAddr(64), 3)?; // new line
            tx.read_u64(ctx, PmAddr(4096))?;
            assert_eq!(tx.footprint(), 3);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn concurrent_increments_are_atomic() {
        let (dev, htm) = setup();
        let htm = Arc::new(htm);
        let n_threads = 4;
        let per = 500;
        std::thread::scope(|s| {
            for _ in 0..n_threads {
                let dev = Arc::clone(&dev);
                let htm = Arc::clone(&htm);
                s.spawn(move || {
                    let mut ctx = dev.ctx();
                    for _ in 0..per {
                        loop {
                            let r = htm.try_transaction(&mut ctx, |tx, ctx| {
                                let v = tx.read_u64(ctx, PmAddr(64))?;
                                tx.write_u64(ctx, PmAddr(64), v + 1)?;
                                Ok(())
                            });
                            if r.is_ok() {
                                break;
                            }
                            htm.wait_unlocked(LineId::of_pm(PmAddr(64)));
                        }
                    }
                });
            }
        });
        assert_eq!(
            dev.arena().load_u64(PmAddr(64)),
            (n_threads * per) as u64,
            "lost update detected"
        );
    }
}
