//! Dynamic persistence-ordering sanitizer.
//!
//! A shadow state machine per cacheline, driven from the [`crate::MemCtx`]
//! choke points every PM access already flows through:
//!
//! ```text
//!            store                flush (clwb)           fence (sfence)
//!   Clean ──────────▶ DirtyUnflushed ──────▶ FlushedUnfenced ──────▶ Persisted
//!     ▲                    │  ▲                    │
//!     │   ADR crash revert │  │ write-after-flush- │
//!     └────────────────────┘  └─before-fence ──────┘
//! ```
//!
//! (`ntstore` and dirty capacity evictions jump straight to `Persisted`:
//! in this platform model the WPQ/XPBuffer is ADR-protected, so anything
//! that reached a media writeback survives a crash. A *fence* therefore
//! never changes what a simulated crash keeps — which is exactly why a
//! missing fence is invisible to the crash-point sweep and only this
//! state machine can localize it.)
//!
//! What gets reported, parameterized by persistence domain and
//! [`SanMode`]:
//!
//! * **Publication violations** (hard failures, ADR only): at every
//!   *visibility edge* — VLock/VRwLock release, atomic RMW, HTM commit,
//!   observed via the [`crate::schedhook`] `SyncEvent` stream — lines the
//!   publishing thread wrote that are still `DirtyUnflushed` or
//!   `FlushedUnfenced`. In [`SanMode::Strict`] every non-transient written
//!   line is checked (the discipline ADR-era indexes like CCEH/Dash/Level
//!   claim); in [`SanMode::Relaxed`] only ranges explicitly registered
//!   with [`crate::MemCtx::san_ordered`] are checked (Spash is eADR-native
//!   and deliberately publishes unflushed data — only its ADR-gated
//!   publication-ordering paths promise store→flush→fence).
//! * **Write-after-flush-before-fence** (hard failure in `Strict` under
//!   ADR): a store to a line whose flush has not yet been fenced — the
//!   fence no longer covers the line's latest contents.
//! * **Redundant flushes / no-op fences** (perf diagnostics, both
//!   domains): a `clwb` that found the line clean, and an `sfence` with
//!   no outstanding flush or ntstore — pure wasted PM-ordering cost,
//!   counted into the flushing context's [`crate::stats::PmStats`].
//! * **Dirty lines at crash time**: lines the ADR power-failure revert
//!   rolled back, rendered with their allocation-region tag so a failed
//!   crash-point recovery names what was lost.
//!
//! Violations carry the allocating region tag (registered by the PM
//! allocator via [`crate::MemCtx::san_tag`]) and the harness-set
//! operation label, so a report localizes to "which structure, which op,
//! which line state" instead of "recovery mismatched three layers later".
//!
//! The sanitizer is a pure observer: it never changes media traffic, so
//! enabling it cannot perturb crash-point ordinals or schedule replay.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
// lint:allow(std-sync): the sanitizer must observe `crate::sync` locks
// without recursing into their schedhook sync points; poison is handled
// explicitly at every acquisition.
use std::sync::{Arc, Mutex, PoisonError, Weak};

use crate::config::PersistenceDomain;
use crate::device::CrashReport;
use crate::schedhook::SyncEvent;
use crate::stats::Counters;
use crate::CACHELINE;

/// How strictly publication edges are checked (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SanMode {
    /// Every non-transient line a thread wrote must be `Persisted` before
    /// that thread's next visibility edge (ADR-era flush+fence designs).
    Strict,
    /// Only ranges registered via [`crate::MemCtx::san_ordered`] are
    /// checked at the next edge (eADR-native designs with ADR-gated
    /// publication ordering, i.e. Spash).
    Relaxed,
}

/// Shadow persistence state of one cacheline. `Clean` is represented by
/// absence from the map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LState {
    /// Stored to, not yet written back: an ADR crash reverts it.
    DirtyUnflushed,
    /// `clwb` issued by thread `by`; durable in-model, but the flush is
    /// not ordered until `by` fences.
    FlushedUnfenced { by: u32 },
    /// Reached a media writeback and the ordering point (fence, ntstore
    /// retirement, or eviction): survives any crash.
    Persisted,
}

impl LState {
    fn name(self) -> &'static str {
        match self {
            LState::DirtyUnflushed => "DirtyUnflushed",
            LState::FlushedUnfenced { .. } => "FlushedUnfenced",
            LState::Persisted => "Persisted",
        }
    }
}

/// What class of ordering bug a [`SanViolation`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SanViolationKind {
    /// A visibility edge published a line still `DirtyUnflushed`.
    PublishedDirty,
    /// A visibility edge published a line still `FlushedUnfenced`.
    PublishedUnfenced,
    /// A store hit a line whose flush has not been fenced yet.
    WriteAfterFlushBeforeFence,
}

impl SanViolationKind {
    pub fn as_str(self) -> &'static str {
        match self {
            SanViolationKind::PublishedDirty => "published-dirty",
            SanViolationKind::PublishedUnfenced => "published-unfenced",
            SanViolationKind::WriteAfterFlushBeforeFence => "write-after-flush-before-fence",
        }
    }
}

/// One hard sanitizer finding, localized to a cacheline and its state.
#[derive(Clone, Debug)]
pub struct SanViolation {
    pub kind: SanViolationKind,
    /// Cacheline index (`addr / 64`).
    pub line: u64,
    /// The shadow state the line was caught in (`DirtyUnflushed` /
    /// `FlushedUnfenced`).
    pub state: &'static str,
    /// Simulated thread that hit the edge or store.
    pub tid: u32,
    /// Allocation-region tag covering the line, if the allocator
    /// registered one.
    pub tag: Option<String>,
    /// Harness-set operation label active on `tid` when it fired.
    pub op: Option<String>,
    /// The visibility edge (or store site) that exposed it.
    pub edge: String,
}

impl fmt::Display for SanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[san] {}: line {:#x} (addr {:#x}) was {} at {} on tid {}",
            self.kind.as_str(),
            self.line,
            self.line * CACHELINE,
            self.state,
            self.edge,
            self.tid,
        )?;
        if let Some(tag) = &self.tag {
            write!(f, ", region \"{tag}\"")?;
        }
        if let Some(op) = &self.op {
            write!(f, ", during {op}")?;
        }
        Ok(())
    }
}

/// Everything the sanitizer accumulated over a run.
#[derive(Clone, Debug, Default)]
pub struct SanReport {
    pub violations: Vec<SanViolation>,
    /// Violations beyond the retention cap (counted, not stored).
    pub dropped: u64,
}

impl SanReport {
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.dropped == 0
    }
}

#[derive(Default)]
struct TidState {
    /// Lines dirtied since this thread's last visibility edge.
    wrote: HashSet<u64>,
    /// Lines this thread flushed whose fence has not happened yet.
    pending: HashSet<u64>,
    /// An ntstore since the last fence (makes the next fence meaningful).
    nt_unfenced: bool,
    /// `(first_line, last_line)` ranges registered for the next edge
    /// ([`SanMode::Relaxed`] publication checks).
    ordered: Vec<(u64, u64)>,
    /// Harness-set operation label.
    op: Option<String>,
}

#[derive(Default)]
struct Inner {
    lines: HashMap<u64, LState>,
    tids: HashMap<u32, TidState>,
    /// Lines exempt from publication checks (PM-resident lock words:
    /// recovery never trusts them, so they are dirty by design).
    transient: HashSet<u64>,
    /// Allocation-region tags: `(start_addr, end_addr, tag)`.
    tags: Vec<(u64, u64, String)>,
    violations: Vec<SanViolation>,
    dropped: u64,
}

const MAX_VIOLATIONS: usize = 64;

/// The per-device sanitizer. Created by [`crate::PmDevice::new`] when
/// [`crate::PmConfig::san`] is set; all hooks are no-ops when absent.
pub struct San {
    mode: SanMode,
    domain: PersistenceDomain,
    inner: Mutex<Inner>,
}

impl San {
    pub(crate) fn new(mode: SanMode, domain: PersistenceDomain) -> Self {
        Self {
            mode,
            domain,
            inner: Mutex::new(Inner::default()),
        }
    }

    pub fn mode(&self) -> SanMode {
        self.mode
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // lint:allow(std-sync): see module header.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publication checks only make sense where a crash can actually
    /// revert a visible line.
    fn checks_publication(&self) -> bool {
        self.domain == PersistenceDomain::Adr
    }

    fn push_violation(inner: &mut Inner, v: SanViolation) {
        if inner.violations.len() < MAX_VIOLATIONS {
            inner.violations.push(v);
        } else {
            inner.dropped += 1;
        }
    }

    fn tag_of(inner: &Inner, line: u64) -> Option<String> {
        let addr = line * CACHELINE;
        inner
            .tags
            .iter()
            .find(|(s, e, _)| addr >= *s && addr < *e)
            .map(|(_, _, t)| t.clone())
    }

    fn op_of(inner: &Inner, tid: u32) -> Option<String> {
        inner.tids.get(&tid).and_then(|t| t.op.clone())
    }

    /// A store to `line` by `tid`; `evicted` is the dirty victim the
    /// cache pushed out to make room (its writeback makes it durable).
    pub(crate) fn on_write(&self, tid: u32, line: u64, evicted: Option<u64>) {
        let mut inner = self.lock();
        if let Some(victim) = evicted {
            Self::mark_persisted(&mut inner, victim);
        }
        let prev = inner.lines.insert(line, LState::DirtyUnflushed);
        if let Some(LState::FlushedUnfenced { by }) = prev {
            // A *cross-thread* redirty is benign: the earlier flush
            // already snapshotted the flusher's data into the
            // (ADR-protected) WPQ, so their fence still covers it and
            // their pending entry stands — only the new writer owes a
            // fresh flush+fence. A *same-thread* rewrite is the real
            // anti-pattern: the thread's own upcoming fence drains the
            // stale snapshot, not this store.
            if by != tid {
                inner.tids.entry(tid).or_default().wrote.insert(line);
                return;
            }
            if let Some(t) = inner.tids.get_mut(&by) {
                t.pending.remove(&line);
            }
            if self.checks_publication()
                && self.mode == SanMode::Strict
                && !inner.transient.contains(&line)
            {
                let v = SanViolation {
                    kind: SanViolationKind::WriteAfterFlushBeforeFence,
                    line,
                    state: LState::FlushedUnfenced { by }.name(),
                    tid,
                    tag: Self::tag_of(&inner, line),
                    op: Self::op_of(&inner, tid),
                    edge: "store".into(),
                };
                Self::push_violation(&mut inner, v);
            }
        }
        inner.tids.entry(tid).or_default().wrote.insert(line);
    }

    /// A `clwb` of `line` by `tid`; `cache_dirty` is what the modelled
    /// cache found (a clean hit means the flush moved no data).
    pub(crate) fn on_flush(&self, tid: u32, line: u64, cache_dirty: bool, stats: &Counters) {
        let mut inner = self.lock();
        if cache_dirty {
            inner.lines.insert(line, LState::FlushedUnfenced { by: tid });
            let ts = inner.tids.entry(tid).or_default();
            // The write obligation moves from `wrote` to `pending`: the
            // snapshot is issued, only the fence is still owed.
            ts.wrote.remove(&line);
            ts.pending.insert(line);
        } else {
            // A clean hit can still discharge a write obligation: on a
            // shared line, another thread's flush may have written this
            // thread's bytes back already (leaving the cache clean). If
            // that snapshot is still unfenced, its fence does not order
            // *our* publication — this flush plus our next fence does, so
            // the obligation moves to `pending`. If the line is already
            // Persisted, our bytes are durable and the obligation simply
            // drops (the flush still counts as redundant — it moved no
            // data). Single-threaded semantics are unchanged: neither
            // state arises there with this thread's write outstanding.
            let state = inner.lines.get(&line).copied();
            let ts = inner.tids.entry(tid).or_default();
            match state {
                Some(LState::FlushedUnfenced { by }) if by != tid && ts.wrote.remove(&line) => {
                    ts.pending.insert(line);
                }
                Some(LState::Persisted) if ts.wrote.remove(&line) => {
                    stats.bump(|s| &s.san_redundant_flushes, 1);
                }
                _ => {
                    stats.bump(|s| &s.san_redundant_flushes, 1);
                }
            }
        }
    }

    /// An `sfence` by `tid`: orders (persists, in shadow state) every
    /// flush this thread has issued since its last fence.
    pub(crate) fn on_fence(&self, tid: u32, stats: &Counters) {
        let mut inner = self.lock();
        let ts = inner.tids.entry(tid).or_default();
        if ts.pending.is_empty() && !ts.nt_unfenced {
            stats.bump(|s| &s.san_noop_fences, 1);
            return;
        }
        ts.nt_unfenced = false;
        let pending: Vec<u64> = ts.pending.drain().collect();
        for line in pending {
            // Only lines whose *latest* snapshot is this thread's flush
            // become Persisted: an sfence orders the issuing thread's
            // own flushes. A line redirtied (or re-flushed) by another
            // thread since keeps its newer shadow state — the other
            // thread owes its own ordering.
            if inner.lines.get(&line) == Some(&LState::FlushedUnfenced { by: tid }) {
                inner.lines.insert(line, LState::Persisted);
            }
        }
    }

    /// One line of a non-temporal store: straight to the (ADR-protected)
    /// WPQ, so durably `Persisted` in-model.
    pub(crate) fn on_ntstore(&self, tid: u32, line: u64) {
        let mut inner = self.lock();
        Self::mark_persisted(&mut inner, line);
        inner.tids.entry(tid).or_default().nt_unfenced = true;
    }

    /// A dirty line evicted by capacity pressure: its writeback makes it
    /// durable.
    pub(crate) fn on_evict(&self, line: u64) {
        let mut inner = self.lock();
        Self::mark_persisted(&mut inner, line);
    }

    fn mark_persisted(inner: &mut Inner, line: u64) {
        if let Some(LState::FlushedUnfenced { by }) = inner.lines.get(&line).copied() {
            if let Some(t) = inner.tids.get_mut(&by) {
                t.pending.remove(&line);
            }
        }
        inner.lines.insert(line, LState::Persisted);
    }

    /// A visibility edge observed on the calling thread via the
    /// [`crate::schedhook`] event stream. Only lock releases, atomic
    /// RMWs, and HTM commits publish data; everything else returns
    /// immediately (see [`observe_event`]).
    pub(crate) fn on_edge(&self, tid: u32, ev: SyncEvent) {
        let edge = match ev {
            SyncEvent::LockRelease => "LockRelease",
            SyncEvent::AtomicRmw(_) => "AtomicRmw",
            SyncEvent::HtmCommit => "HtmCommit",
            _ => return,
        };
        self.edge_check(tid, edge);
    }

    /// Treat the end of a run as a final visibility edge for every
    /// thread, so a missing flush/fence in a run's last operations is
    /// still caught. Harness drivers call this after the workload.
    pub fn final_check(&self) {
        let tids: Vec<u32> = self.lock().tids.keys().copied().collect();
        for tid in tids {
            self.edge_check(tid, "end-of-run");
        }
    }

    fn edge_check(&self, tid: u32, edge: &str) {
        let mut inner = self.lock();
        let ts = inner.tids.entry(tid).or_default();
        let mut wrote: Vec<u64> = ts.wrote.drain().collect();
        // Flushed-but-unfenced lines are still unpublished work: inspect
        // them at the edge but leave them pending, so the thread's next
        // fence is still accounted (the no-op-fence diagnostic stays
        // exact).
        wrote.extend(ts.pending.iter().copied());
        let ordered = std::mem::take(&mut ts.ordered);
        if !self.checks_publication() {
            return;
        }
        let candidates: Vec<u64> = match self.mode {
            SanMode::Strict => wrote,
            SanMode::Relaxed => ordered
                .iter()
                .flat_map(|&(first, last)| first..=last)
                .collect(),
        };
        for line in candidates {
            if inner.transient.contains(&line) {
                continue;
            }
            let (kind, state) = match inner.lines.get(&line) {
                Some(LState::DirtyUnflushed) => {
                    (SanViolationKind::PublishedDirty, LState::DirtyUnflushed.name())
                }
                Some(s @ LState::FlushedUnfenced { .. }) => {
                    (SanViolationKind::PublishedUnfenced, s.name())
                }
                // Clean (never written) or Persisted: publication is safe.
                _ => continue,
            };
            let v = SanViolation {
                kind,
                line,
                state,
                tid,
                tag: Self::tag_of(&inner, line),
                op: Self::op_of(&inner, tid),
                edge: edge.to_string(),
            };
            Self::push_violation(&mut inner, v);
        }
    }

    /// Observe a simulated power failure: everything the eADR energy
    /// flushed or the WPQ drained is durable; ADR-reverted lines return
    /// to `Clean`. Returns a description of each non-transient reverted
    /// line (what the crash actually lost), for crash-sweep diagnostics.
    pub(crate) fn on_crash(&self, report: &CrashReport) -> Vec<String> {
        let mut inner = self.lock();
        for &line in &report.flushed_lines {
            inner.lines.insert(line, LState::Persisted);
        }
        // The WPQ is ADR-protected: any un-fenced flush still drains.
        let unfenced: Vec<u64> = inner
            .lines
            .iter()
            .filter(|(_, s)| matches!(s, LState::FlushedUnfenced { .. }))
            .map(|(&l, _)| l)
            .collect();
        for line in unfenced {
            inner.lines.insert(line, LState::Persisted);
        }
        let mut lost = Vec::new();
        for &line in &report.reverted_lines {
            if inner.lines.remove(&line).is_some() && !inner.transient.contains(&line) {
                let tag = Self::tag_of(&inner, line)
                    .map(|t| format!(", region \"{t}\""))
                    .unwrap_or_default();
                lost.push(format!(
                    "line {:#x} (addr {:#x}{tag}) was DirtyUnflushed at crash and was reverted",
                    line,
                    line * CACHELINE,
                ));
            }
        }
        for ts in inner.tids.values_mut() {
            ts.wrote.clear();
            ts.pending.clear();
            ts.ordered.clear();
            ts.nt_unfenced = false;
        }
        lost
    }

    /// Whole-cache writeback by a harness helper
    /// ([`crate::PmDevice::flush_cache_all`] /
    /// [`crate::PmDevice::invalidate_cache`]): everything dirty reached
    /// media, so the shadow machine follows.
    pub(crate) fn persist_all(&self) {
        let mut inner = self.lock();
        let lines: Vec<u64> = inner.lines.keys().copied().collect();
        for line in lines {
            inner.lines.insert(line, LState::Persisted);
        }
        for ts in inner.tids.values_mut() {
            ts.pending.clear();
            ts.wrote.clear();
            ts.ordered.clear();
            ts.nt_unfenced = false;
        }
    }

    /// Exempt every line overlapping `[addr, addr+len)` from publication
    /// checks (PM-resident lock words; recovery never trusts them).
    pub fn mark_transient(&self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let mut inner = self.lock();
        for line in crate::line_of(addr)..=crate::line_of(addr + len - 1) {
            inner.transient.insert(line);
        }
    }

    /// Forget the *current* dirty state of `[addr, addr+len)`: the bytes
    /// just written there are a recovery don't-care (seqlock version
    /// words, lazily scrubbed slots behind a flushed unpublish, FROZEN
    /// migration bits that recovery strips), so their dirtiness must not
    /// count as an unordered publication. Unlike [`Self::mark_transient`]
    /// this is not sticky — future writes to the same lines are tracked
    /// anew, so real data sharing the cacheline stays protected.
    pub fn forgive(&self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let mut inner = self.lock();
        for line in crate::line_of(addr)..=crate::line_of(addr + len - 1) {
            inner.lines.remove(&line);
            for t in inner.tids.values_mut() {
                t.wrote.remove(&line);
                t.pending.remove(&line);
            }
        }
    }

    /// Register `[addr, addr+len)` as *publication-ordered* for `tid`:
    /// at that thread's next visibility edge, every line of the range
    /// must be `Persisted` ([`SanMode::Relaxed`] checks only these).
    pub fn register_ordered(&self, tid: u32, addr: u64, len: u64) {
        if len == 0 || !self.checks_publication() {
            return;
        }
        let range = (crate::line_of(addr), crate::line_of(addr + len - 1));
        self.lock().tids.entry(tid).or_default().ordered.push(range);
    }

    /// Tag `[addr, addr+len)` with an allocation-region name used in
    /// violation rendering. Later tags win over earlier overlapping ones
    /// (the allocator re-tags on reuse).
    pub fn tag_region(&self, addr: u64, len: u64, tag: &str) {
        if len == 0 {
            return;
        }
        let mut inner = self.lock();
        inner.tags.retain(|&(s, e, _)| !(addr < e && s < addr + len));
        inner.tags.push((addr, addr + len, tag.to_string()));
    }

    /// Set the operation label rendered in `tid`'s future violations.
    pub fn set_op_label(&self, tid: u32, label: &str) {
        self.lock().tids.entry(tid).or_default().op = Some(label.to_string());
    }

    /// Snapshot the accumulated hard violations.
    pub fn report(&self) -> SanReport {
        let inner = self.lock();
        SanReport {
            violations: inner.violations.clone(),
            dropped: inner.dropped,
        }
    }

    /// Drop accumulated violations (e.g. after a harness decided a
    /// format/prefill phase's findings were expected). Line states are
    /// kept — the shadow machine must stay truthful.
    pub fn clear_violations(&self) {
        let mut inner = self.lock();
        inner.violations.clear();
        inner.dropped = 0;
    }
}

// ---------------------------------------------------------------------------
// Thread-local observer: routes schedhook SyncEvents to the device whose
// MemCtx last ran on this thread (events carry no device/tid, contexts do).

struct Observer {
    san: Weak<San>,
    tid: u32,
}

thread_local! {
    static OBSERVER: RefCell<Option<Observer>> = const { RefCell::new(None) };
}

/// Bind this host thread's sync-point events to `san`/`tid`. Called from
/// every sanitized `MemCtx` access; cheap when already bound.
pub(crate) fn install_observer(san: &Arc<San>, tid: u32) {
    OBSERVER.with(|o| {
        let mut o = o.borrow_mut();
        let stale = match &*o {
            Some(obs) => obs.tid != tid || obs.san.as_ptr() != Arc::as_ptr(san),
            None => true,
        };
        if stale {
            *o = Some(Observer {
                san: Arc::downgrade(san),
                tid,
            });
        }
    });
}

/// Forward a [`SyncEvent`] from [`crate::schedhook::sync_point`] to the
/// bound sanitizer, if any. Non-edge events return before touching the
/// thread-local.
#[inline]
pub(crate) fn observe_event(ev: SyncEvent) {
    if !matches!(
        ev,
        SyncEvent::LockRelease | SyncEvent::AtomicRmw(_) | SyncEvent::HtmCommit
    ) {
        return;
    }
    // Clone the strong ref out before calling: on_edge takes the san
    // lock and must not run under the RefCell borrow.
    let bound = OBSERVER.with(|o| {
        o.borrow()
            .as_ref()
            .and_then(|obs| obs.san.upgrade().map(|s| (s, obs.tid)))
    });
    if let Some((san, tid)) = bound {
        san.on_edge(tid, ev);
    }
}

// ---------------------------------------------------------------------------
// Mutation-canary site registry: named flush/fence sites that tests can
// switch off to prove the sanitizer localizes the resulting violation.
// Process-global (like `spash-baselines::testhooks`); tests that disable
// sites must serialize themselves.

static ANY_SITE_DISABLED: AtomicBool = AtomicBool::new(false);
static SITE_GEN: AtomicU64 = AtomicU64::new(0);

fn sites() -> &'static Mutex<HashMap<String, bool>> {
    // lint:allow(std-sync): process-global registry, no schedhook
    // interaction wanted while a scheduler hook is active.
    static SITES: std::sync::OnceLock<Mutex<HashMap<String, bool>>> = std::sync::OnceLock::new();
    SITES.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Is the named flush/fence site enabled? Production default: `true`
/// for every name; a single atomic load when no test has disabled any
/// site.
#[inline]
pub fn site_enabled(name: &str) -> bool {
    if !ANY_SITE_DISABLED.load(Ordering::Relaxed) {
        return true;
    }
    sites()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(name)
        .copied()
        .unwrap_or(true)
}

/// Enable/disable a named site (mutation canaries only).
pub fn set_site(name: &str, enabled: bool) {
    let mut map = sites().lock().unwrap_or_else(PoisonError::into_inner);
    map.insert(name.to_string(), enabled);
    let any_disabled = map.values().any(|&v| !v);
    ANY_SITE_DISABLED.store(any_disabled, Ordering::Relaxed);
    SITE_GEN.fetch_add(1, Ordering::Relaxed);
}

/// Re-enable every site.
pub fn reset_sites() {
    let mut map = sites().lock().unwrap_or_else(PoisonError::into_inner);
    map.clear();
    ANY_SITE_DISABLED.store(false, Ordering::Relaxed);
    SITE_GEN.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemCtx, PmAddr, PmConfig, PmDevice};

    fn adr_strict() -> Arc<PmDevice> {
        PmDevice::new(PmConfig {
            san: Some(SanMode::Strict),
            ..PmConfig::adr_test()
        })
    }

    fn write_flush_fence(ctx: &mut MemCtx, addr: u64) {
        ctx.write_u64(PmAddr(addr), 1);
        ctx.flush(PmAddr(addr));
        ctx.fence();
    }

    #[test]
    fn disciplined_publication_is_clean() {
        let dev = adr_strict();
        let mut ctx = dev.ctx();
        write_flush_fence(&mut ctx, 256);
        ctx.cas_u64(PmAddr(512), 0, 1).unwrap();
        ctx.flush(PmAddr(512));
        ctx.fence();
        dev.san().unwrap().final_check();
        let r = dev.san().unwrap().report();
        assert!(r.clean(), "unexpected violations: {:?}", r.violations);
    }

    #[test]
    fn published_dirty_is_caught_at_rmw_edge() {
        let dev = adr_strict();
        let mut ctx = dev.ctx();
        ctx.write_u64(PmAddr(256), 7); // no flush
        ctx.cas_u64(PmAddr(512), 0, 1).unwrap();
        let r = dev.san().unwrap().report();
        assert_eq!(r.violations.len(), 1);
        let v = &r.violations[0];
        assert_eq!(v.kind, SanViolationKind::PublishedDirty);
        assert_eq!(v.state, "DirtyUnflushed");
        assert_eq!(v.line, 256 / CACHELINE);
    }

    #[test]
    fn published_unfenced_is_caught() {
        let dev = adr_strict();
        let mut ctx = dev.ctx();
        ctx.write_u64(PmAddr(256), 7);
        ctx.flush(PmAddr(256)); // no fence
        ctx.cas_u64(PmAddr(512), 0, 1).unwrap();
        let r = dev.san().unwrap().report();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].kind, SanViolationKind::PublishedUnfenced);
        assert_eq!(r.violations[0].state, "FlushedUnfenced");
    }

    #[test]
    fn write_after_flush_before_fence_is_caught() {
        let dev = adr_strict();
        let mut ctx = dev.ctx();
        ctx.write_u64(PmAddr(256), 7);
        ctx.flush(PmAddr(256));
        ctx.write_u64(PmAddr(264), 8); // same line, fence still outstanding
        let r = dev.san().unwrap().report();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(
            r.violations[0].kind,
            SanViolationKind::WriteAfterFlushBeforeFence
        );
    }

    #[test]
    fn transient_lines_are_exempt() {
        let dev = adr_strict();
        dev.san().unwrap().mark_transient(256, 8);
        let mut ctx = dev.ctx();
        ctx.write_u64(PmAddr(256), 7);
        ctx.cas_u64(PmAddr(512), 0, 1).unwrap();
        // The CAS line itself follows the discipline; only the transient
        // line is left dirty.
        ctx.flush(PmAddr(512));
        ctx.fence();
        dev.san().unwrap().final_check();
        assert!(dev.san().unwrap().report().clean());
    }

    #[test]
    fn redundant_flush_and_noop_fence_counted() {
        let dev = adr_strict();
        let mut ctx = dev.ctx();
        ctx.write_u64(PmAddr(256), 7);
        ctx.flush(PmAddr(256));
        ctx.flush(PmAddr(256)); // second flush finds the line clean
        ctx.fence();
        ctx.fence(); // nothing outstanding
        let s = dev.snapshot();
        assert_eq!(s.san_redundant_flushes, 1);
        assert_eq!(s.san_noop_fences, 1);
    }

    #[test]
    fn eadr_publication_checks_off_diagnostics_on() {
        let dev = PmDevice::new(PmConfig {
            san: Some(SanMode::Strict),
            ..PmConfig::eadr_test()
        });
        let mut ctx = dev.ctx();
        ctx.write_u64(PmAddr(256), 7); // dirty publish: fine under eADR
        ctx.cas_u64(PmAddr(512), 0, 1).unwrap();
        ctx.flush(PmAddr(1024)); // never written: redundant even on eADR
        dev.san().unwrap().final_check();
        assert!(dev.san().unwrap().report().clean());
        assert_eq!(dev.snapshot().san_redundant_flushes, 1);
    }

    #[test]
    fn relaxed_checks_only_ordered_ranges() {
        let dev = PmDevice::new(PmConfig {
            san: Some(SanMode::Relaxed),
            ..PmConfig::adr_test()
        });
        let mut ctx = dev.ctx();
        // Unordered dirty publish: allowed in Relaxed.
        ctx.write_u64(PmAddr(256), 7);
        ctx.cas_u64(PmAddr(512), 0, 1).unwrap();
        assert!(dev.san().unwrap().report().clean());
        // Ordered range left dirty: flagged.
        ctx.write_u64(PmAddr(2048), 9);
        ctx.san_ordered(PmAddr(2048), 8);
        ctx.cas_u64(PmAddr(512), 1, 2).unwrap();
        let r = dev.san().unwrap().report();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].kind, SanViolationKind::PublishedDirty);
    }

    #[test]
    fn crash_reports_reverted_lines_with_tags() {
        let dev = adr_strict();
        dev.san().unwrap().tag_region(256, 64, "canary-region");
        let mut ctx = dev.ctx();
        ctx.write_u64(PmAddr(256), 7); // dirty at crash
        let report = dev.simulate_power_failure();
        assert_eq!(report.san_lost.len(), 1);
        assert!(report.san_lost[0].contains("canary-region"), "{:?}", report.san_lost);
        // After the crash the shadow machine agrees the line is clean.
        dev.san().unwrap().final_check();
        assert!(dev.san().unwrap().report().clean());
    }

    #[test]
    fn ntstore_is_immediately_persisted() {
        let dev = adr_strict();
        let mut ctx = dev.ctx();
        ctx.ntstore_bytes(PmAddr(4096), &[3u8; 64]);
        ctx.cas_u64(PmAddr(512), 0, 1).unwrap();
        ctx.flush(PmAddr(512));
        ctx.fence();
        dev.san().unwrap().final_check();
        assert!(dev.san().unwrap().report().clean());
        // The fence after an ntstore is meaningful, not a no-op.
        ctx.ntstore_bytes(PmAddr(8192), &[4u8; 64]);
        let before = dev.snapshot();
        ctx.fence();
        assert_eq!(dev.snapshot().since(&before).san_noop_fences, 0);
    }

    #[test]
    fn sites_default_enabled_and_toggle() {
        assert!(site_enabled("san-test.some.site"));
        set_site("san-test.some.site", false);
        assert!(!site_enabled("san-test.some.site"));
        assert!(site_enabled("san-test.other.site"));
        reset_sites();
        assert!(site_enabled("san-test.some.site"));
    }

    #[test]
    fn violation_rendering_names_state() {
        let dev = adr_strict();
        let mut ctx = dev.ctx();
        dev.san().unwrap().set_op_label(ctx.tid(), "insert k=5");
        dev.san().unwrap().tag_region(192, 128, "seg");
        ctx.write_u64(PmAddr(256), 7);
        ctx.cas_u64(PmAddr(512), 0, 1).unwrap();
        let r = dev.san().unwrap().report();
        let s = r.violations[0].to_string();
        assert!(s.contains("DirtyUnflushed"), "{s}");
        assert!(s.contains("published-dirty"), "{s}");
        assert!(s.contains("seg"), "{s}");
        assert!(s.contains("insert k=5"), "{s}");
    }
}
