//! [`MemCtx`] — a simulated thread's view of the platform.
//!
//! Every data-path access goes through a `MemCtx` so that it is charged to
//! the thread's virtual clock and to the context's own access counters
//! (summed device-wide, see [`crate::stats`]). The
//! available operations mirror what the paper's code would use on real
//! hardware: plain loads/stores (write-nf), `clwb`-style flushes plus
//! `sfence` (write-f), non-temporal stores, and prefetches (the primitive
//! behind Spash's pipeline optimization, §III-D).

use std::sync::Arc;

use crate::arena::PmAddr;
use crate::cost::{CostModel, VClock};
use crate::device::PmDevice;
use crate::media::RecentReads;
use crate::stats::Counters;
use crate::vlock::HasClock;
use crate::{line_of, CACHELINE};

const MAX_PREFETCH: usize = 16;

/// Per-thread memory context. Not `Sync`: one per simulated thread.
pub struct MemCtx {
    dev: Arc<PmDevice>,
    /// This context's access counters (registered with the device, which
    /// sums them; see [`crate::stats`]). Only this context writes them.
    counters: Arc<Counters>,
    tid: u32,
    clock: VClock,
    recent: RecentReads,
    /// Completion time of the latest outstanding flush/ntstore (awaited by
    /// the next fence).
    outstanding_t: u64,
    /// In-flight prefetches: (line, completion time).
    prefetch: [(u64, u64); MAX_PREFETCH],
    prefetch_len: usize,
}

impl HasClock for MemCtx {
    fn vclock(&mut self) -> &mut VClock {
        &mut self.clock
    }
}

impl MemCtx {
    pub(crate) fn new(dev: Arc<PmDevice>, tid: u32) -> Self {
        let mut clock = VClock::new();
        clock.sync_to(dev.vtime_floor());
        if let Some(san) = &dev.san {
            crate::san::install_observer(san, tid);
        }
        Self {
            counters: dev.counters.register(),
            dev,
            tid,
            clock,
            recent: RecentReads::default(),
            outstanding_t: 0,
            prefetch: [(u64::MAX, 0); MAX_PREFETCH],
            prefetch_len: 0,
        }
    }

    /// The simulated thread id.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// The device this context belongs to.
    pub fn device(&self) -> &Arc<PmDevice> {
        &self.dev
    }

    /// This context's own counter block (tests check device totals
    /// against per-context sums).
    #[cfg(test)]
    pub(crate) fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Mutable clock access (used by the HTM layer and locks).
    pub fn clock_mut(&mut self) -> &mut VClock {
        &mut self.clock
    }

    /// Reset the clock (to the device's virtual-time floor) and the
    /// per-thread buffers between benchmark phases.
    pub fn reset_clock(&mut self) {
        self.clock.reset();
        self.clock.sync_to(self.dev.vtime_floor());
        self.recent.clear();
        self.outstanding_t = 0;
        self.prefetch_len = 0;
    }

    #[inline]
    fn cost(&self) -> &CostModel {
        &self.dev.cfg.cost
    }

    #[inline]
    fn take_prefetch(&mut self, line: u64) -> Option<u64> {
        for i in 0..self.prefetch_len {
            if self.prefetch[i].0 == line {
                let t = self.prefetch[i].1;
                self.prefetch[i] = self.prefetch[self.prefetch_len - 1];
                self.prefetch_len -= 1;
                return Some(t);
            }
        }
        None
    }

    /// Retire one media cacheline writeback: pay for its bandwidth and
    /// report it to the fault plan. Every data-path `media.write_line`
    /// goes through here so crash-point injection sees each change to the
    /// durable image. Called with no platform locks held (the fault plan
    /// may unwind).
    #[inline]
    fn media_writeback(&mut self, line: u64) {
        let co = self.dev.media.write_line(line, &self.counters);
        self.pm_write_account(co);
        self.dev.faults().on_media_write();
    }

    /// Charge a cacheline *load* of `line`. The functional load itself is
    /// done by the caller against the arena.
    fn touch_read(&mut self, line: u64) {
        let r = self.dev.cache.access(line, false, &self.dev.arena);
        if let (Some(san), Some(victim)) = (&self.dev.san, r.evicted_dirty) {
            san.on_evict(victim);
        }
        if let Some(victim) = r.evicted_dirty {
            self.counters.bump(|s| &s.dirty_evictions, 1);
            self.media_writeback(victim);
        }
        if let Some(t) = self.take_prefetch(line) {
            // Data was already on its way: wait for it, don't re-fetch.
            self.clock.sync_to(t);
            self.clock.advance(self.cost().cache_hit_ns);
            if r.hit {
                self.counters.bump(|s| &s.read_hits, 1);
            }
            return;
        }
        if r.hit {
            self.counters.bump(|s| &s.read_hits, 1);
            self.clock.advance(self.cost().cache_hit_ns);
        } else {
            let new_xp = self
                .dev
                .media
                .read_line(line, &mut self.recent, &self.counters);
            self.pm_read_wait(self.cost().pm_read_miss_ns, new_xp);
        }
    }

    /// Account a writeback's media bandwidth (asynchronous: bounds the
    /// horizon, does not stall the thread). `coalesced` writebacks merged
    /// into an already-buffered XPLine and cost no extra media service.
    fn pm_write_account(&mut self, coalesced: bool) {
        if coalesced {
            return;
        }
        let service = (crate::XPLINE as f64 / self.cost().pm_write_bw * 1e9) as u64;
        let done = self.dev.media.reserve_write(self.clock.now(), service.max(1));
        self.dev.note_horizon(done);
    }

    /// Out-of-order cores keep several misses in flight; queueing delay is
    /// amortized over this memory-level parallelism.
    const MLP: u64 = 4;

    /// A PM read miss: queue on the media read port when a fresh XPLine is
    /// fetched (latency inflates as read bandwidth saturates), then pay the
    /// base miss latency. The queue wait is divided by the modelled MLP.
    fn pm_read_wait(&mut self, base_ns: u64, new_xpline: bool) {
        if new_xpline {
            let service = (crate::XPLINE as f64 / self.cost().pm_read_bw * 1e9) as u64;
            let start = self.dev.media.reserve_read(self.clock.now(), service.max(1));
            self.dev.note_horizon(start + service);
            let wait = start.saturating_sub(self.clock.now()) / Self::MLP;
            self.clock.advance(wait);
        }
        self.clock.advance(base_ns);
    }

    /// Latency for the trailing misses of a multi-line access: the fetches
    /// overlap in the memory pipeline, so each extra line costs roughly a
    /// transfer slot, not a full round-trip.
    fn bulk_tail_ns(&self) -> u64 {
        self.cost().line_transfer_ns
    }

    /// Charge a cacheline *store* of `line` (write-allocate: a miss fetches
    /// the line first). Must be called *before* the arena store so the
    /// pre-image capture sees the old data.
    fn touch_write(&mut self, line: u64) {
        let r = self.dev.cache.access(line, true, &self.dev.arena);
        if let Some(san) = &self.dev.san {
            crate::san::install_observer(san, self.tid);
            san.on_write(self.tid, line, r.evicted_dirty);
        }
        if let Some(victim) = r.evicted_dirty {
            self.counters.bump(|s| &s.dirty_evictions, 1);
            self.media_writeback(victim);
        }
        if r.hit {
            self.counters.bump(|s| &s.write_hits, 1);
            self.clock.advance(self.cost().cache_hit_ns);
        } else {
            // Read-for-ownership.
            let new_xp = self
                .dev
                .media
                .read_line(line, &mut self.recent, &self.counters);
            self.pm_read_wait(self.cost().pm_write_miss_ns, new_xp);
        }
    }

    /// Load an aligned u64 from PM.
    pub fn read_u64(&mut self, addr: PmAddr) -> u64 {
        self.touch_read(line_of(addr.0));
        self.dev.arena.load_u64(addr)
    }

    /// Store an aligned u64 to PM (a write-nf: no flush is implied).
    pub fn write_u64(&mut self, addr: PmAddr, v: u64) {
        self.touch_write(line_of(addr.0));
        self.dev.arena.store_u64(addr, v);
    }

    /// Model coherence for an atomic RMW on `line`: the line's token
    /// advances by one transfer per RMW (a hot line is a throughput
    /// bottleneck), while the *thread* pays only the transfer latency —
    /// lock-free operations do not inherit the previous owner's timeline,
    /// unlike lock critical sections ([`crate::VLock`]).
    fn rmw_token(&mut self, line: u64) {
        let xfer = self.cost().line_transfer_ns;
        let cell = self.dev.rmw_cell(line);
        let release = cell.load(std::sync::atomic::Ordering::Acquire);
        let token = release.max(self.clock.now()) + xfer;
        cell.fetch_max(token, std::sync::atomic::Ordering::AcqRel);
        self.dev.note_horizon(token);
        self.clock.advance(xfer);
    }

    /// Compare-and-swap an aligned u64. An [`crate::schedhook`] sync
    /// point: atomic RMWs are the publication points of every lock-free
    /// structure, so the deterministic scheduler gets a decision here.
    pub fn cas_u64(&mut self, addr: PmAddr, current: u64, new: u64) -> Result<u64, u64> {
        let line = line_of(addr.0);
        crate::schedhook::sync_point(crate::SyncEvent::AtomicRmw(line));
        self.rmw_token(line);
        let res = self.dev.arena.cas_u64(addr, current, new);
        // A failed CMPXCHG takes the line for ownership but stores
        // nothing: the line stays clean, so charge it as a read. Only a
        // successful CAS dirties the line (and owes a flush under ADR).
        if res.is_ok() {
            self.touch_write(line);
        } else {
            self.touch_read(line);
        }
        res
    }

    /// Atomic fetch-or on PM (a scheduler sync point, like [`Self::cas_u64`]).
    pub fn fetch_or_u64(&mut self, addr: PmAddr, bits: u64) -> u64 {
        let line = line_of(addr.0);
        crate::schedhook::sync_point(crate::SyncEvent::AtomicRmw(line));
        self.rmw_token(line);
        self.touch_write(line);
        self.dev.arena.fetch_or_u64(addr, bits)
    }

    /// Atomic fetch-and on PM (a scheduler sync point, like [`Self::cas_u64`]).
    pub fn fetch_and_u64(&mut self, addr: PmAddr, bits: u64) -> u64 {
        let line = line_of(addr.0);
        crate::schedhook::sync_point(crate::SyncEvent::AtomicRmw(line));
        self.rmw_token(line);
        self.touch_write(line);
        self.dev.arena.fetch_and_u64(addr, bits)
    }

    /// Read a byte range. Trailing line misses overlap in the memory
    /// pipeline (their full latency is replaced by a transfer slot).
    pub fn read_bytes(&mut self, addr: PmAddr, out: &mut [u8]) {
        if out.is_empty() {
            return;
        }
        let first = line_of(addr.0);
        for line in first..=line_of(addr.0 + out.len() as u64 - 1) {
            if line == first {
                self.touch_read(line);
            } else {
                let t0 = self.clock.now();
                self.touch_read(line);
                let charged = self.clock.now() - t0;
                if charged > self.bulk_tail_ns() {
                    // Overlap: roll back to the pipelined cost.
                    self.clock = {
                        let mut c = crate::VClock::new();
                        c.sync_to(t0 + self.bulk_tail_ns());
                        c
                    };
                }
            }
        }
        self.dev.arena.read_bytes(addr, out);
    }

    /// Write a byte range through the cache (write-nf). Trailing
    /// read-for-ownership misses overlap like bulk reads.
    pub fn write_bytes(&mut self, addr: PmAddr, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let first = line_of(addr.0);
        for line in first..=line_of(addr.0 + data.len() as u64 - 1) {
            if line == first {
                self.touch_write(line);
            } else {
                let t0 = self.clock.now();
                self.touch_write(line);
                let charged = self.clock.now() - t0;
                if charged > self.bulk_tail_ns() {
                    self.clock = {
                        let mut c = crate::VClock::new();
                        c.sync_to(t0 + self.bulk_tail_ns());
                        c
                    };
                }
            }
        }
        self.dev.arena.write_bytes(addr, data);
    }

    /// Non-temporal store: bypasses the cache, goes straight to the WPQ.
    /// Incompatible with HTM transactions on real hardware (paper §III-B),
    /// which the HTM layer enforces.
    pub fn ntstore_bytes(&mut self, addr: PmAddr, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let first = line_of(addr.0);
        let last = line_of(addr.0 + data.len() as u64 - 1);
        for line in first..=last {
            // If the line is cached dirty, hardware would force it out.
            if self.dev.cache.flush(line) {
                if let Some(san) = &self.dev.san {
                    san.on_evict(line);
                }
                self.media_writeback(line);
            }
            self.counters.bump(|s| &s.ntstores, 1);
            // Store this line's slice before its writeback retires: the
            // fault plan may end the run at that writeback, and the slice
            // is then already part of the durable image (a partially
            // completed ntstore persists exactly its retired lines).
            let lo = (line * CACHELINE).max(addr.0);
            let hi = ((line + 1) * CACHELINE).min(addr.0 + data.len() as u64);
            self.dev.arena.write_bytes(
                PmAddr(lo),
                &data[(lo - addr.0) as usize..(hi - addr.0) as usize],
            );
            if let Some(san) = &self.dev.san {
                crate::san::install_observer(san, self.tid);
                san.on_ntstore(self.tid, line);
            }
            self.media_writeback(line);
            self.clock.advance(self.cost().ntstore_ns);
        }
        let done = self.clock.now() + self.cost().flush_drain_ns;
        self.outstanding_t = self.outstanding_t.max(done);
    }

    /// `clwb`: write the line back to media if dirty; it stays resident.
    /// Completion is asynchronous — awaited by the next [`MemCtx::fence`].
    pub fn flush(&mut self, addr: PmAddr) {
        let line = line_of(addr.0);
        self.clock.advance(self.cost().flush_issue_ns);
        let dirty = self.dev.cache.flush(line);
        if let Some(san) = &self.dev.san {
            crate::san::install_observer(san, self.tid);
            san.on_flush(self.tid, line, dirty, &self.counters);
        }
        if dirty {
            self.counters.bump(|s| &s.flushes, 1);
            self.media_writeback(line);
            let done = self.clock.now() + self.cost().flush_drain_ns;
            self.outstanding_t = self.outstanding_t.max(done);
        }
    }

    /// Flush every cacheline overlapping `[addr, addr+len)`.
    pub fn flush_range(&mut self, addr: PmAddr, len: u64) {
        if len == 0 {
            return;
        }
        for line in line_of(addr.0)..=line_of(addr.0 + len - 1) {
            self.flush(PmAddr(line * CACHELINE));
        }
    }

    /// `sfence`: wait for outstanding flushes/ntstores to drain.
    pub fn fence(&mut self) {
        if let Some(san) = &self.dev.san {
            crate::san::install_observer(san, self.tid);
            san.on_fence(self.tid, &self.counters);
        }
        self.clock.sync_to(self.outstanding_t);
        self.clock.advance(self.cost().fence_ns);
    }

    /// Issue an asynchronous prefetch of the line holding `addr`. A later
    /// read waits only for the remaining latency — this is how the
    /// pipeline optimization (§III-D) overlaps PM reads.
    pub fn prefetch(&mut self, addr: PmAddr) {
        let line = line_of(addr.0);
        if self.dev.cache.is_resident(line) {
            return;
        }
        if self.prefetch_len == MAX_PREFETCH {
            // Oldest entry is simply forgotten; its line is resident anyway.
            self.prefetch_len -= 1;
        }
        let service = (crate::XPLINE as f64 / self.cost().pm_read_bw * 1e9) as u64;
        let start = self.dev.media.reserve_read(self.clock.now(), service.max(1));
        self.dev.note_horizon(start + service);
        let completion = start + self.cost().pm_read_miss_ns;
        self.prefetch[self.prefetch_len] = (line, completion);
        self.prefetch_len += 1;
        self.dev
            .media
            .read_line(line, &mut self.recent, &self.counters);
        if let Some(victim) = self.dev.cache.install_clean(line, &self.dev.arena) {
            if let Some(san) = &self.dev.san {
                san.on_evict(victim);
            }
            self.counters.bump(|s| &s.dirty_evictions, 1);
            self.media_writeback(victim);
        }
        // Issuing the prefetch instruction itself is nearly free.
        self.clock.advance(1);
    }

    /// Charge `n` DRAM accesses (volatile directory, hot-key list, ...).
    pub fn charge_dram(&mut self, n: u64) {
        self.counters.bump(|s| &s.dram_accesses, n);
        self.clock.advance(n * self.cost().dram_ns);
    }

    /// Charge a DRAM structure hit that stays in cache (cheap).
    pub fn charge_dram_cached(&mut self) {
        self.clock.advance(self.cost().cache_hit_ns);
    }

    /// Charge `n` accesses to a small, hot DRAM-resident table (the
    /// overlay cache, generation cells): counted as DRAM traffic in the
    /// stats — so benchmarks can see the volatile working set — but
    /// priced at cache-hit latency, the same simplification
    /// [`Self::charge_dram_cached`] applies to the directory.
    pub fn charge_dram_hot(&mut self, n: u64) {
        self.counters.bump(|s| &s.dram_accesses, n);
        self.clock.advance(n * self.cost().cache_hit_ns);
    }

    /// Charge raw compute time.
    pub fn charge_compute(&mut self, ns: u64) {
        self.clock.advance(ns);
    }

    /// Run `f` inside the named attribution span ([`crate::span`]): every
    /// counter increment this context charges while `f` runs is also
    /// charged to the span's own counters, and the span's inclusive
    /// virtual time advances by what `f` cost. Names outside the canonical
    /// [`crate::span::SPAN_NAMES`] set are a pass-through no-op (asserted
    /// in debug builds so typos fail tier-1 tests).
    ///
    /// Nesting attributes counters to the innermost span. The active span
    /// is restored on unwind (crash-point fault injection exits operations
    /// by panicking).
    pub fn stats_span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let Some(idx) = crate::span::index_of(name) else {
            debug_assert!(false, "stats_span: {name:?} is not a canonical span name");
            return f(self);
        };
        /// Restores the enclosing span when dropped, unwinds included.
        struct Scope<'a> {
            ctx: &'a mut MemCtx,
            prev: usize,
        }
        impl Drop for Scope<'_> {
            fn drop(&mut self) {
                self.ctx.counters.leave(self.prev);
            }
        }
        let t0 = self.clock.now();
        let prev = self.counters.enter(idx);
        let scope = Scope { ctx: self, prev };
        let r = f(scope.ctx);
        let spent = scope.ctx.clock.now().saturating_sub(t0);
        scope.ctx.counters.note_vtime(idx, spent);
        r
    }

    // --- persistence-ordering sanitizer annotations (no-ops when the
    // sanitizer is off; see `crate::san`) ---

    /// Exempt `[addr, addr+len)` from sanitizer publication checks
    /// (PM-resident lock words and other recovery-insensitive state).
    pub fn san_transient(&self, addr: PmAddr, len: u64) {
        if let Some(san) = &self.dev.san {
            san.mark_transient(addr.0, len);
        }
    }

    /// Declare that the bytes just written to `[addr, addr+len)` are a
    /// recovery don't-care (concurrency metadata, scrubbed slots): their
    /// current dirtiness is exempt from publication checks. Future
    /// writes to the same lines are tracked anew.
    pub fn san_forgive(&self, addr: PmAddr, len: u64) {
        if let Some(san) = &self.dev.san {
            san.forgive(addr.0, len);
        }
    }

    /// Declare that `[addr, addr+len)` must be fully persisted before
    /// this thread's next visibility edge (checked in
    /// [`crate::san::SanMode::Relaxed`] under ADR).
    pub fn san_ordered(&self, addr: PmAddr, len: u64) {
        if let Some(san) = &self.dev.san {
            san.register_ordered(self.tid, addr.0, len);
        }
    }

    /// Tag `[addr, addr+len)` with an allocation-region name for
    /// sanitizer violation rendering.
    pub fn san_tag(&self, addr: PmAddr, len: u64, tag: &str) {
        if let Some(san) = &self.dev.san {
            san.tag_region(addr.0, len, tag);
        }
    }

    /// Label this thread's subsequent sanitizer findings with the
    /// operation being executed (harness drivers call this per op).
    pub fn san_op_label(&self, label: &str) {
        if let Some(san) = &self.dev.san {
            san.set_op_label(self.tid, label);
        }
    }
}

impl Drop for MemCtx {
    /// Fold this context's counters into the device totals.
    fn drop(&mut self) {
        self.dev.counters.retire(&self.counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PmConfig;

    fn ctx() -> MemCtx {
        PmDevice::new(PmConfig::small_test()).ctx()
    }

    #[test]
    fn read_miss_then_hit_latency() {
        let mut c = ctx();
        let cost = c.cost().clone();
        let t0 = c.now();
        c.read_u64(PmAddr(4096));
        let miss = c.now() - t0;
        assert_eq!(miss, cost.pm_read_miss_ns);
        let t1 = c.now();
        c.read_u64(PmAddr(4096));
        assert_eq!(c.now() - t1, cost.cache_hit_ns);
    }

    #[test]
    fn write_read_roundtrip_through_ctx() {
        let mut c = ctx();
        c.write_u64(PmAddr(512), 99);
        assert_eq!(c.read_u64(PmAddr(512)), 99);
    }

    #[test]
    fn prefetch_overlaps_latency() {
        let mut c = ctx();
        let cost = c.cost().clone();
        // Prefetch 4 distinct lines, then read them: total stall should be
        // roughly ONE miss latency, not four.
        let t0 = c.now();
        for i in 0..4u64 {
            c.prefetch(PmAddr(8192 + i * 64));
        }
        for i in 0..4u64 {
            c.read_u64(PmAddr(8192 + i * 64));
        }
        let elapsed = c.now() - t0;
        assert!(
            elapsed < 2 * cost.pm_read_miss_ns,
            "pipelined reads took {elapsed} ns, expected ~1 miss latency"
        );

        // Serial misses for comparison.
        let t1 = c.now();
        for i in 0..4u64 {
            c.read_u64(PmAddr(65536 + i * 4096));
        }
        assert!(c.now() - t1 >= 4 * cost.pm_read_miss_ns);
    }

    #[test]
    fn fence_waits_for_flush_drain() {
        let mut c = ctx();
        let cost = c.cost().clone();
        c.write_u64(PmAddr(256), 1);
        let before = c.now();
        c.flush(PmAddr(256));
        c.fence();
        assert!(c.now() >= before + cost.flush_issue_ns + cost.flush_drain_ns);
    }

    #[test]
    fn fence_with_nothing_outstanding_is_cheap() {
        let mut c = ctx();
        let cost = c.cost().clone();
        let t0 = c.now();
        c.fence();
        assert_eq!(c.now() - t0, cost.fence_ns);
    }

    #[test]
    fn byte_range_touches_every_line() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut c = dev.ctx();
        let before = dev.snapshot();
        let data = vec![7u8; 256];
        c.write_bytes(PmAddr(1024), &data);
        let d = dev.snapshot().since(&before);
        // 256 bytes starting line-aligned = 4 cacheline write misses (RFO
        // reads), no media writes yet (all dirty in cache).
        assert_eq!(d.cl_reads, 4);
        assert_eq!(d.cl_writes, 0);
    }

    #[test]
    fn ntstore_counts_media_writes_immediately() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut c = dev.ctx();
        let before = dev.snapshot();
        let data = vec![7u8; 256];
        c.ntstore_bytes(PmAddr(4096), &data);
        dev.quiesce();
        let d = dev.snapshot().since(&before);
        assert_eq!(d.ntstores, 4);
        // 4 sequential lines of one XPLine coalesce into one media write.
        assert_eq!(d.xp_writes, 1);
    }

    #[test]
    fn stats_hits_and_misses_counted() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut c = dev.ctx();
        c.read_u64(PmAddr(2048));
        c.read_u64(PmAddr(2048));
        c.write_u64(PmAddr(2048), 3);
        let s = dev.snapshot();
        assert_eq!(s.cl_reads, 1);
        assert_eq!(s.read_hits, 1);
        assert_eq!(s.write_hits, 1);
    }
}
