//! The simulated PM device: arena + cache + media + counters.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::arena::Arena;
use crate::cache::CacheModel;
use crate::config::PmConfig;
use crate::ctx::MemCtx;
use crate::fault::FaultPlan;
use crate::media::Media;
use crate::san::San;
use crate::span::{SpanSnapshot, SPAN_NAMES};
use crate::stats::{Counters, Registry, StatsSnapshot};

/// What a simulated power failure did to the cache, for per-crash-point
/// reporting by the fault-injection harness.
#[derive(Debug, Clone, Default)]
pub struct CrashReport {
    /// Dirty lines flushed by the eADR reserved energy (empty under ADR).
    pub flushed_lines: Vec<u64>,
    /// Dirty unflushed lines reverted to their pre-images under ADR
    /// (empty under eADR).
    pub reverted_lines: Vec<u64>,
    /// Sanitizer descriptions of what the reverted lines were (with
    /// allocation-region tags). Empty when the sanitizer is off.
    pub san_lost: Vec<String>,
}

/// The whole simulated platform. Shared (`Arc`) across simulated threads;
/// each thread talks to it through its own [`MemCtx`].
pub struct PmDevice {
    pub(crate) cfg: PmConfig,
    pub(crate) arena: Arena,
    pub(crate) cache: CacheModel,
    pub(crate) media: Media,
    /// Access counters: one block per live [`MemCtx`] plus the sums of
    /// dropped ones ([`crate::stats`]).
    pub(crate) counters: Registry,
    next_tid: AtomicU32,
    /// Monotonic virtual-time floor: new contexts start here, so virtual
    /// timestamps persisted in lock/HTM metadata by earlier phases can
    /// never make a later phase wait into the past (see
    /// [`PmDevice::raise_vtime_floor`]).
    vtime_floor: AtomicU64,
    /// The furthest point in virtual time any contended-line token has
    /// reached (see `note_horizon`). Benchmark elapsed time must cover it:
    /// a single hot line can only absorb one transfer per
    /// `line_transfer_ns`, so its token can run ahead of every thread
    /// clock.
    sim_horizon: AtomicU64,
    /// Per-line release stamps for atomic read-modify-write operations:
    /// concurrent CAS/fetch-ops on one cacheline serialize at the coherence
    /// point on real hardware, so they must serialize in virtual time too
    /// (otherwise lock-free CAS designs get contention for free). Hashed,
    /// so unrelated lines can alias — a false positive that mirrors
    /// real-world false sharing.
    rmw_release: Box<[AtomicU64]>,
    /// Crash-point fault injection: counts media writes, optionally unwinds
    /// at an armed write ordinal (see [`crate::fault`]).
    faults: FaultPlan,
    /// Persistence-ordering sanitizer ([`crate::san`]); present only when
    /// [`PmConfig::san`] is set.
    pub(crate) san: Option<Arc<San>>,
}

impl PmDevice {
    pub fn new(cfg: PmConfig) -> Arc<Self> {
        let cfg = cfg.normalized();
        Arc::new(Self {
            arena: Arena::new(cfg.arena_size),
            cache: CacheModel::new(
                cfg.cache_capacity,
                cfg.cache_ways,
                cfg.cache_shards,
                cfg.fidelity,
            ),
            media: Media::new(cfg.xpbuffer_slots),
            counters: Registry::default(),
            next_tid: AtomicU32::new(0),
            vtime_floor: AtomicU64::new(0),
            sim_horizon: AtomicU64::new(0),
            rmw_release: (0..(1 << 20)).map(|_| AtomicU64::new(0)).collect(),
            faults: FaultPlan::default(),
            san: cfg.san.map(|mode| Arc::new(San::new(mode, cfg.domain))),
            cfg,
        })
    }

    /// The device's crash-point fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The persistence-ordering sanitizer, when enabled via
    /// [`PmConfig::san`].
    pub fn san(&self) -> Option<&Arc<San>> {
        self.san.as_ref()
    }

    /// Create a per-thread context with a fresh virtual clock.
    pub fn ctx(self: &Arc<Self>) -> MemCtx {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        MemCtx::new(Arc::clone(self), tid)
    }

    /// Platform configuration.
    pub fn config(&self) -> &PmConfig {
        &self.cfg
    }

    /// Direct, *uncharged* access to the arena. Used by recovery scans and
    /// tests; normal data paths must go through [`MemCtx`] so accesses are
    /// accounted.
    pub fn arena(&self) -> &Arena {
        &self.arena
    }

    /// The current virtual-time floor.
    pub fn vtime_floor(&self) -> u64 {
        self.vtime_floor.load(Ordering::Acquire)
    }

    /// Raise the virtual-time floor to `t` (benchmark harnesses call this
    /// at phase boundaries with the maximum per-thread clock, so the next
    /// phase's fresh contexts start after everything the previous phase
    /// did).
    pub fn raise_vtime_floor(&self, t: u64) {
        self.vtime_floor.fetch_max(t, Ordering::AcqRel);
    }

    /// Record that a contended-line token reached virtual time `t`.
    pub fn note_horizon(&self, t: u64) {
        self.sim_horizon.fetch_max(t, Ordering::AcqRel);
    }

    /// The furthest contended-line token (see `note_horizon`).
    pub fn sim_horizon(&self) -> u64 {
        self.sim_horizon.load(Ordering::Acquire)
    }

    /// The RMW release stamp cell for a cacheline.
    #[inline]
    pub(crate) fn rmw_cell(&self, line: u64) -> &AtomicU64 {
        let i = (line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 44) as usize;
        &self.rmw_release[i & 0xf_ffff]
    }

    /// Snapshot the device-wide access counters: every context's, live
    /// or dropped, plus harness-level traffic.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.counters.snapshot()
    }

    /// Snapshot every attribution span, summed over contexts, in
    /// deterministic [`crate::span::SPAN_NAMES`] order.
    pub fn span_totals(&self) -> Vec<(&'static str, SpanSnapshot)> {
        SPAN_NAMES
            .into_iter()
            .zip(self.counters.span_totals())
            .collect()
    }

    /// Run harness-level media traffic (no context, no span) against a
    /// temporary counter block, then fold it into the device totals.
    fn harness(&self, f: impl FnOnce(&Counters)) {
        let c = Counters::default();
        f(&c);
        self.counters.fold(&c);
    }

    /// Retire everything buffered in the XPBuffer so media counters reflect
    /// all traffic so far. Does *not* flush the cache: under eADR, dirty
    /// cached data legitimately never reaches media.
    pub fn quiesce(&self) {
        self.harness(|c| self.media.drain(c));
    }

    /// Write back every dirty cacheline and retire the XPBuffer. Used by
    /// tests that want the arena, media counters, and cache to agree.
    pub fn flush_cache_all(&self) {
        self.harness(|c| {
            for line in self.cache.flush_all() {
                c.bump(|s| &s.flushes, 1);
                self.media.write_line(line, c);
            }
            self.media.drain(c);
        });
        if let Some(san) = &self.san {
            san.persist_all();
        }
    }

    /// Write back and evict the whole cache (`wbinvd`-style). Benchmarks
    /// and tests use it to measure cold-cache access counts.
    pub fn invalidate_cache(&self) {
        self.harness(|c| {
            for line in self.cache.invalidate_all() {
                self.media.write_line(line, c);
            }
            self.media.drain(c);
        });
        if let Some(san) = &self.san {
            san.persist_all();
        }
    }

    /// Simulate a power failure under the configured persistence domain.
    ///
    /// * The WPQ/XPBuffer is ADR-protected on both platforms, so it always
    ///   drains to media.
    /// * Under eADR the reserved energy flushes every dirty cacheline.
    /// * Under ADR dirty, unflushed cachelines are reverted to their
    ///   pre-images (requires [`crate::CrashFidelity::Full`]).
    ///
    /// After this call the arena holds exactly the durable state a real
    /// machine would recover. The returned report says which lines the
    /// reserved energy flushed (eADR) or the crash reverted (ADR).
    pub fn simulate_power_failure(&self) -> CrashReport {
        let (flushed, reverted) = self.cache.power_failure(self.cfg.domain, &self.arena);
        self.harness(|c| {
            for &line in &flushed {
                self.media.write_line(line, c);
            }
            self.media.drain(c);
        });
        let mut report = CrashReport {
            flushed_lines: flushed,
            reverted_lines: reverted,
            san_lost: Vec::new(),
        };
        if let Some(san) = &self.san {
            report.san_lost = san.on_crash(&report);
        }
        report
    }

    /// Is a line resident in the modelled cache? (test/diagnostic hook)
    pub fn is_cached(&self, addr: crate::PmAddr) -> bool {
        self.cache.is_resident(crate::line_of(addr.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PersistenceDomain, PmAddr};

    #[test]
    fn ctx_tids_are_unique() {
        let dev = PmDevice::new(PmConfig::small_test());
        let a = dev.ctx();
        let b = dev.ctx();
        assert_ne!(a.tid(), b.tid());
    }

    #[test]
    fn eadr_power_failure_preserves_written_data() {
        let dev = PmDevice::new(PmConfig::eadr_test());
        let mut ctx = dev.ctx();
        ctx.write_u64(PmAddr(128), 42);
        dev.simulate_power_failure();
        assert_eq!(dev.arena().load_u64(PmAddr(128)), 42);
    }

    #[test]
    fn adr_power_failure_loses_unflushed_data() {
        let dev = PmDevice::new(PmConfig::adr_test());
        assert_eq!(dev.config().domain, PersistenceDomain::Adr);
        let mut ctx = dev.ctx();
        ctx.write_u64(PmAddr(128), 42);
        dev.simulate_power_failure();
        assert_eq!(dev.arena().load_u64(PmAddr(128)), 0);
    }

    #[test]
    fn adr_power_failure_keeps_flushed_data() {
        let dev = PmDevice::new(PmConfig::adr_test());
        let mut ctx = dev.ctx();
        ctx.write_u64(PmAddr(128), 42);
        ctx.flush(PmAddr(128));
        ctx.fence();
        dev.simulate_power_failure();
        assert_eq!(dev.arena().load_u64(PmAddr(128)), 42);
    }
}
