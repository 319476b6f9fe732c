//! Access counters — the reproduction's replacement for `ipmctl` media
//! counters (paper §VI-B, Fig. 8).
//!
//! Counters are owned by their writer. Every [`crate::MemCtx`] carries a
//! [`Counters`] block that only it writes, so a data-path increment is a
//! relaxed load and store to a thread-private cacheline instead of an
//! atomic read-modify-write on a word every simulated thread shares. The
//! device keeps a [`Registry`] of live blocks plus the sums of blocks
//! already dropped; [`crate::PmDevice::snapshot`] and
//! [`crate::PmDevice::span_totals`] add them up.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::span::{SpanCounters, SpanSnapshot, SPAN_NAMES};
use crate::sync::SpinMutex;

/// Declares the counter set once: [`PmStats`] (live cells),
/// [`StatsSnapshot`] (a copy) and the per-field plumbing between them.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// One block of access counters.
        ///
        /// "cacheline" counters track traffic between CPU cache and the
        /// DIMM controller; "xpline" counters track what the 3D-XPoint
        /// media actually services after XPBuffer write combining — the
        /// ratio between the two is the write amplification the paper's
        /// Observations 2–4 are about.
        #[derive(Debug, Default)]
        pub struct PmStats {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// A point-in-time copy of [`PmStats`].
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $(pub $name: u64,)*
        }

        impl PmStats {
            /// Capture a snapshot of all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot { $($name: self.$name.load(Ordering::Relaxed),)* }
            }
        }

        impl StatsSnapshot {
            /// Counter deltas since `earlier`. Saturating, so a racing
            /// counter can never panic a benchmark.
            pub fn since(&self, earlier: &StatsSnapshot) -> StatsDelta {
                StatsSnapshot { $($name: self.$name.saturating_sub(earlier.$name),)* }
            }

            /// Add `other` into `self`, counter by counter.
            pub(crate) fn accumulate(&mut self, other: &StatsSnapshot) {
                $(self.$name += other.$name;)*
            }
        }
    };
}

counters! {
    /// Cacheline fetches from PM (read misses).
    cl_reads,
    /// Cacheline writebacks/flushes arriving at the DIMM.
    cl_writes,
    /// XPLines read from media (after read-buffer coalescing).
    xp_reads,
    /// XPLines written to media (after XPBuffer coalescing).
    xp_writes,
    /// Cache hits on loads.
    read_hits,
    /// Cache hits on stores.
    write_hits,
    /// Dirty lines evicted by capacity pressure (as opposed to explicit
    /// flushes).
    dirty_evictions,
    /// Explicit flush instructions that found a dirty line.
    flushes,
    /// Non-temporal stores.
    ntstores,
    /// DRAM accesses charged through `MemCtx::charge_dram`.
    dram_accesses,
    /// Bytes read from PM media.
    media_read_bytes,
    /// Bytes written to PM media.
    media_write_bytes,
    /// Sanitizer diagnostic: `clwb`s that found the line clean (wasted
    /// flush-issue cost; see [`crate::san`]). Zero when the sanitizer is
    /// off.
    san_redundant_flushes,
    /// Sanitizer diagnostic: `sfence`s with no outstanding flush or
    /// ntstore. Zero when the sanitizer is off.
    san_noop_fences,
}

/// The difference between two snapshots — what one benchmark phase cost.
pub type StatsDelta = StatsSnapshot;

impl PmStats {
    /// Add `n` to the counter selected by `pick`. A block has exactly one
    /// writer (the owner of its [`Counters`]), so this is a relaxed load
    /// and store rather than a read-modify-write; concurrent readers
    /// ([`Registry::snapshot`]) see each count whole.
    #[inline]
    pub fn bump(&self, pick: fn(&PmStats) -> &AtomicU64, n: u64) {
        let c = pick(self);
        c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }
}

/// No span active (see [`Counters::enter`]).
const NO_SPAN: usize = usize::MAX;

/// One writer's counters: its run totals, one block per canonical span
/// ([`SPAN_NAMES`] order) and the index of its innermost active span.
/// Every [`crate::MemCtx`] owns one; device-level harness operations
/// (quiesce, crash) fill a temporary one and fold it in
/// ([`Registry::fold`]).
pub(crate) struct Counters {
    total: PmStats,
    spans: [SpanCounters; SPAN_NAMES.len()],
    active: AtomicUsize,
}

impl Default for Counters {
    fn default() -> Self {
        Self {
            total: PmStats::default(),
            spans: Default::default(),
            active: AtomicUsize::new(NO_SPAN),
        }
    }
}

impl Counters {
    /// Charge `n` to the counter selected by `pick`, in the totals and in
    /// the innermost active span. Every data-path increment goes through
    /// here, so per-span attribution and the totals can never disagree.
    #[inline]
    pub(crate) fn bump(&self, pick: fn(&PmStats) -> &AtomicU64, n: u64) {
        self.total.bump(pick, n);
        if let Some(span) = self.spans.get(self.active.load(Ordering::Relaxed)) {
            span.stats.bump(pick, n);
        }
    }

    /// Make span `idx` the innermost one; returns the previous innermost
    /// span, for [`Counters::leave`].
    pub(crate) fn enter(&self, idx: usize) -> usize {
        self.spans[idx].note_entry();
        let prev = self.active.load(Ordering::Relaxed);
        self.active.store(idx, Ordering::Relaxed);
        prev
    }

    /// Restore the innermost span [`Counters::enter`] returned.
    pub(crate) fn leave(&self, prev: usize) {
        self.active.store(prev, Ordering::Relaxed);
    }

    /// Add `ns` of inclusive virtual time to span `idx`.
    pub(crate) fn note_vtime(&self, idx: usize, ns: u64) {
        self.spans[idx].note_vtime(ns);
    }

    /// The run totals of this block alone.
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        self.total.snapshot()
    }
}

/// Every writer's counters for one device: the blocks of live contexts
/// plus the sums folded in from blocks that are gone. Reads add both up
/// under the lock, so a context retiring concurrently counts exactly once.
///
/// The lock is taken with [`SpinMutex::lock_unscheduled`]. Registering
/// and retiring a context is bookkeeping, not modelled synchronization, so
/// it must add no scheduler decision point. A context can also be dropped
/// by a crash-injection unwind, where a decision point could panic a
/// second time inside a destructor.
#[derive(Default)]
pub(crate) struct Registry {
    inner: SpinMutex<Ledger>,
}

#[derive(Default)]
struct Ledger {
    live: Vec<Arc<Counters>>,
    retired: StatsSnapshot,
    retired_spans: [SpanSnapshot; SPAN_NAMES.len()],
}

impl Ledger {
    fn absorb(&mut self, c: &Counters) {
        self.retired.accumulate(&c.snapshot());
        for (sum, span) in self.retired_spans.iter_mut().zip(&c.spans) {
            sum.accumulate(&span.snapshot());
        }
    }
}

impl Registry {
    /// A fresh block, counted from now on.
    pub(crate) fn register(&self) -> Arc<Counters> {
        let c = Arc::new(Counters::default());
        self.inner.lock_unscheduled().live.push(Arc::clone(&c));
        c
    }

    /// Fold a registered block into the retired sums and stop tracking it.
    pub(crate) fn retire(&self, c: &Arc<Counters>) {
        let mut l = self.inner.lock_unscheduled();
        if let Some(i) = l.live.iter().position(|x| Arc::ptr_eq(x, c)) {
            l.live.swap_remove(i);
            l.absorb(c);
        }
    }

    /// Fold a block that was never registered (harness-level traffic).
    pub(crate) fn fold(&self, c: &Counters) {
        self.inner.lock_unscheduled().absorb(c);
    }

    /// Device-wide totals.
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let l = self.inner.lock_unscheduled();
        let mut sum = l.retired;
        for c in &l.live {
            sum.accumulate(&c.snapshot());
        }
        sum
    }

    /// Device-wide span totals, in [`SPAN_NAMES`] order.
    pub(crate) fn span_totals(&self) -> [SpanSnapshot; SPAN_NAMES.len()] {
        let l = self.inner.lock_unscheduled();
        let mut sums = l.retired_spans;
        for c in &l.live {
            for (sum, span) in sums.iter_mut().zip(&c.spans) {
                sum.accumulate(&span.snapshot());
            }
        }
        sums
    }
}

impl StatsSnapshot {
    /// The minimum virtual time this much media traffic can take given the
    /// platform's bandwidth (paper §II-A). Benchmarks report
    /// `elapsed = max(max per-thread clock, bandwidth_floor_ns)`, which is
    /// what makes write-heavy workloads bandwidth-bound in the model just
    /// as they are on real Optane.
    pub fn bandwidth_floor_ns(&self, cost: &crate::CostModel) -> u64 {
        let w = self.media_write_bytes as f64 / cost.pm_write_bw * 1e9;
        let r = self.media_read_bytes as f64 / cost.pm_read_bw * 1e9;
        let d = (self.dram_accesses * crate::CACHELINE) as f64 / cost.dram_bw * 1e9;
        w.max(r).max(d) as u64
    }

    /// Write amplification: media bytes written per cacheline's worth of
    /// writeback traffic. 1.0 means perfect XPLine coalescing on a
    /// 256-byte-aligned stream; 4.0 means every 64-byte writeback cost a
    /// full XPLine.
    pub fn write_amplification(&self) -> f64 {
        let logical = self.cl_writes.saturating_add(self.ntstores) * crate::CACHELINE;
        if logical == 0 {
            return 0.0;
        }
        self.media_write_bytes as f64 / logical as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SPAN_COMPACTION, SPAN_LOG_REPLAY, SPAN_PROBE, SPAN_SPLIT};
    use crate::{MemCtx, PmAddr, PmConfig, PmDevice};

    type Sums = (StatsSnapshot, [SpanSnapshot; SPAN_NAMES.len()]);

    /// One context's totals and span snapshots, read from its own block.
    fn own(ctx: &MemCtx) -> Sums {
        let c = ctx.counters();
        (c.snapshot(), std::array::from_fn(|i| c.spans[i].snapshot()))
    }

    fn add(sum: &mut Sums, part: &Sums) {
        sum.0.accumulate(&part.0);
        for (s, p) in sum.1.iter_mut().zip(&part.1) {
            s.accumulate(p);
        }
    }

    fn span(name: &str) -> usize {
        crate::span::index_of(name).unwrap()
    }

    #[test]
    fn device_totals_are_exact_sums_over_contexts() {
        let dev = PmDevice::new(PmConfig::adr_test());
        // Two live contexts on two threads, each inside a different span.
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| {
                let mut c = dev.ctx();
                c.stats_span(SPAN_SPLIT, |c| {
                    for i in 0..400u64 {
                        c.write_u64(PmAddr(i * 64), i);
                        c.flush(PmAddr(i * 64));
                    }
                    c.fence();
                });
                c.write_u64(PmAddr(1 << 20), 1);
                c
            });
            let b = s.spawn(|| {
                let mut c = dev.ctx();
                c.stats_span(SPAN_PROBE, |c| {
                    for i in 0..400u64 {
                        c.read_u64(PmAddr((2 << 20) + i * 4096));
                    }
                    c.charge_dram(3);
                });
                c
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        let mut want = own(&a);
        add(&mut want, &own(&b));
        // A context that is gone: its counts must survive it.
        {
            let mut c = dev.ctx();
            c.stats_span(SPAN_COMPACTION, |c| c.ntstore_bytes(PmAddr(3 << 20), &[7; 256]));
            add(&mut want, &own(&c));
        }
        // A context unwound mid-span, then used outside it, then dropped.
        let mut c = dev.ctx();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.stats_span(SPAN_LOG_REPLAY, |c| {
                c.read_u64(PmAddr(4 << 20));
                panic!("crash point");
            })
        }));
        assert!(r.is_err());
        c.write_u64(PmAddr(5 << 20), 5);
        let unwound = own(&c);
        let replay = unwound.1[span(SPAN_LOG_REPLAY)].stats;
        assert_eq!(replay.cl_reads, 1);
        assert_eq!(replay.write_hits, 0, "the unwind left the span");
        add(&mut want, &unwound);
        drop(c);

        assert_eq!(dev.snapshot(), want.0);
        let spans: Vec<SpanSnapshot> = dev.span_totals().into_iter().map(|(_, s)| s).collect();
        assert_eq!(spans, want.1);
        for name in SPAN_NAMES {
            assert_eq!(want.1[span(name)].entries, 1, "{name} entered once");
        }

        // Harness traffic counts in the totals and in no span.
        drop((a, b));
        let before = dev.snapshot();
        dev.quiesce();
        let d = dev.snapshot().since(&before);
        assert!(d.xp_writes > 0);
        let media_only = StatsSnapshot {
            xp_writes: d.xp_writes,
            media_write_bytes: d.media_write_bytes,
            ..Default::default()
        };
        assert_eq!(d, media_only);
        let after: Vec<SpanSnapshot> = dev.span_totals().into_iter().map(|(_, s)| s).collect();
        assert_eq!(after, want.1);
    }

    #[test]
    fn snapshot_delta() {
        let s = PmStats::default();
        s.cl_reads.store(10, Ordering::Relaxed);
        let a = s.snapshot();
        s.cl_reads.store(25, Ordering::Relaxed);
        s.xp_writes.store(3, Ordering::Relaxed);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.cl_reads, 15);
        assert_eq!(d.xp_writes, 3);
        assert_eq!(d.cl_writes, 0);
    }

    #[test]
    fn write_amplification_of_random_evictions() {
        // 4 cacheline writebacks that each cost a full XPLine: WA = 4.
        let d = StatsSnapshot {
            cl_writes: 4,
            media_write_bytes: 4 * crate::XPLINE,
            ..Default::default()
        };
        assert!((d.write_amplification() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn write_amplification_zero_when_no_writes() {
        assert_eq!(StatsSnapshot::default().write_amplification(), 0.0);
    }
}
