//! The CPU cache model.
//!
//! A sharded, set-associative, write-back cache over the PM address space.
//! The model does not hold data — the arena is always authoritative — it
//! tracks *residency* and *dirtiness*, which is all that is needed to
//! decide (a) whether an access hits, (b) when media writes happen
//! (eviction/flush), and (c) what a power failure loses under ADR.
//!
//! Under [`CrashFidelity::Full`] the model captures a pre-image of each
//! line on its clean-to-dirty transition so that an ADR crash can revert
//! unflushed data — the mechanism behind the crash-consistency tests.

use crate::sync::SpinMutex;

use crate::arena::Arena;
use crate::config::{CrashFidelity, PersistenceDomain};

#[derive(Default)]
struct Way {
    /// line address + 1; 0 = empty.
    tag: u64,
    dirty: bool,
    preimage: Option<Box<[u8; 64]>>,
}

struct Shard {
    /// `sets * ways` entries, laid out set-major.
    ways: Vec<Way>,
    assoc: usize,
    /// Accesses so far; seeds the pseudo-random victim choice.
    tick: u64,
}

/// What a cache access did, so the device can charge costs and drive media.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    pub hit: bool,
    /// A dirty line that had to be written back to make room.
    pub evicted_dirty: Option<u64>,
}

/// `(x / d, x % d)`, by shift and mask when `d` is a power of two (every
/// shipped configuration): a hardware divide would cost tens of host
/// cycles on every modelled access.
#[inline]
fn div_rem(x: usize, d: usize) -> (usize, usize) {
    if d.is_power_of_two() {
        (x >> d.trailing_zeros(), x & (d - 1))
    } else {
        (x / d, x % d)
    }
}

/// The sharded cache model.
pub struct CacheModel {
    shards: Vec<SpinMutex<Shard>>,
    sets_per_shard: usize,
    fidelity: CrashFidelity,
}

impl CacheModel {
    pub fn new(capacity_bytes: u64, ways: usize, shards: usize, fidelity: CrashFidelity) -> Self {
        let total_lines = (capacity_bytes / crate::CACHELINE).max(1) as usize;
        let total_sets = (total_lines / ways).max(shards);
        let sets_per_shard = total_sets.div_ceil(shards);
        let shards = (0..shards)
            .map(|_| {
                SpinMutex::new(Shard {
                    ways: (0..sets_per_shard * ways).map(|_| Way::default()).collect(),

                    assoc: ways,
                    tick: 0,
                })
            })
            .collect();
        Self {
            shards,
            sets_per_shard,
            fidelity,
        }
    }

    #[inline]
    fn locate(&self, line: u64) -> (usize, usize) {
        // Distribute consecutive lines round-robin over shards, then over
        // sets within the shard, so hot contiguous regions spread out.
        let (rest, shard) = div_rem(line as usize, self.shards.len());
        (shard, div_rem(rest, self.sets_per_shard).1)
    }

    /// Simulate a load or store of `line`. For stores under full fidelity,
    /// the pre-image is captured from `arena` *before* the caller performs
    /// the store.
    pub fn access(&self, line: u64, write: bool, arena: &Arena) -> AccessResult {
        let (si, set) = self.locate(line);
        let mut sh = self.shards[si].lock();
        sh.tick += 1;
        let tick = sh.tick;
        let assoc = sh.assoc;
        let base = set * assoc;
        let tag = line + 1;

        // Hit?
        for w in &mut sh.ways[base..base + assoc] {
            if w.tag == tag {
                if write && !w.dirty {
                    w.dirty = true;
                    if self.fidelity == CrashFidelity::Full {
                        let mut img = Box::new([0u8; 64]);
                        arena.read_line(line, &mut img);
                        w.preimage = Some(img);
                    }
                }
                return AccessResult {
                    hit: true,
                    evicted_dirty: None,
                };
            }
        }

        // Miss: find a victim — an empty way if any, else a pseudo-random
        // resident way. Random replacement is deliberate: the paper's
        // Observation 2 hinges on "random cacheline eviction" breaking up
        // XPLine-sized writes, which an LRU that ages sibling lines in
        // lockstep would (unrealistically) keep together.
        let mut victim = usize::MAX;
        for (i, w) in sh.ways[base..base + assoc].iter().enumerate() {
            if w.tag == 0 {
                victim = base + i;
                break;
            }
        }
        if victim == usize::MAX {
            let r = (tick ^ line).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33;
            victim = base + (r as usize) % assoc;
        }
        let w = &mut sh.ways[victim];
        let evicted_dirty = if w.tag != 0 && w.dirty { Some(w.tag - 1) } else { None };
        w.tag = tag;
        w.dirty = write;
        w.preimage = None;
        if write && self.fidelity == CrashFidelity::Full {
            let mut img = Box::new([0u8; 64]);
            arena.read_line(line, &mut img);
            w.preimage = Some(img);
        }
        AccessResult {
            hit: false,
            evicted_dirty,
        }
    }

    /// Install `line` as clean-resident without charging (prefetch
    /// completion). Returns an evicted dirty line, if any.
    pub fn install_clean(&self, line: u64, arena: &Arena) -> Option<u64> {
        let r = self.access(line, false, arena);
        r.evicted_dirty
    }

    /// Is `line` currently resident?
    pub fn is_resident(&self, line: u64) -> bool {
        let (si, set) = self.locate(line);
        let sh = self.shards[si].lock();
        let base = set * sh.assoc;
        sh.ways[base..base + sh.assoc].iter().any(|w| w.tag == line + 1)
    }

    /// Explicit `clwb`: clear the dirty bit (the line stays resident).
    /// Returns `true` if the line was dirty (a writeback goes to media).
    pub fn flush(&self, line: u64) -> bool {
        let (si, set) = self.locate(line);
        let mut sh = self.shards[si].lock();
        let assoc = sh.assoc;
        let base = set * assoc;
        let tag = line + 1;
        for w in &mut sh.ways[base..base + assoc] {
            if w.tag == tag {
                let was = w.dirty;
                w.dirty = false;
                w.preimage = None;
                return was;
            }
        }
        false
    }

    /// A power failure. Under eADR every dirty line is flushed by the
    /// reserved energy (the flushed lines are returned so the device can
    /// count the writebacks); under ADR every dirty line is *lost*: its
    /// pre-image is copied back into the arena and the line is returned in
    /// the second (reverted) list.
    ///
    /// Panics if ADR semantics are requested without pre-image capture.
    pub fn power_failure(
        &self,
        domain: PersistenceDomain,
        arena: &Arena,
    ) -> (Vec<u64>, Vec<u64>) {
        let mut writebacks = Vec::new();
        let mut reverted = Vec::new();
        for sh in &self.shards {
            let mut sh = sh.lock();
            for w in &mut sh.ways {
                if w.tag != 0 && w.dirty {
                    match domain {
                        PersistenceDomain::Eadr => writebacks.push(w.tag - 1),
                        PersistenceDomain::Adr => {
                            let img = w.preimage.take().unwrap_or_else(|| {
                                panic!(
                                    "ADR crash requested but pre-images were not captured; \
                                     use CrashFidelity::Full"
                                )
                            });
                            arena.write_line(w.tag - 1, &img);
                            reverted.push(w.tag - 1);
                        }
                    }
                }
                *w = Way::default();
            }
        }
        (writebacks, reverted)
    }

    /// Write back and evict *everything* (like `wbinvd`): tests use this
    /// to measure cold-cache access counts. Returns the dirty lines.
    pub fn invalidate_all(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for sh in &self.shards {
            let mut sh = sh.lock();
            for w in &mut sh.ways {
                if w.tag != 0 && w.dirty {
                    out.push(w.tag - 1);
                }
                *w = Way::default();
            }
        }
        out
    }

    /// Flush every dirty line (quiesce between benchmark phases). Returns
    /// the lines written back.
    pub fn flush_all(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for sh in &self.shards {
            let mut sh = sh.lock();
            for w in &mut sh.ways {
                if w.tag != 0 && w.dirty {
                    w.dirty = false;
                    w.preimage = None;
                    out.push(w.tag - 1);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> Arena {
        Arena::new(1 << 20)
    }

    fn small_cache(fid: CrashFidelity) -> CacheModel {
        // 2 shards * 2 sets * 2 ways = 8 lines capacity.
        CacheModel::new(8 * 64, 2, 2, fid)
    }

    #[test]
    fn miss_then_hit() {
        let a = arena();
        let c = small_cache(CrashFidelity::Fast);
        let r1 = c.access(5, false, &a);
        assert!(!r1.hit);
        let r2 = c.access(5, false, &a);
        assert!(r2.hit);
        assert!(c.is_resident(5));
        assert!(!c.is_resident(6));
    }

    #[test]
    fn dirty_eviction_reported() {
        let a = arena();
        // 1 shard, 1 set, 2 ways: lines collide aggressively.
        let c = CacheModel::new(2 * 64, 2, 1, CrashFidelity::Fast);
        c.access(1, true, &a);
        c.access(2, true, &a);
        // Third distinct line evicts the LRU (line 1), which is dirty.
        let r = c.access(3, true, &a);
        assert_eq!(r.evicted_dirty, Some(1));
    }

    #[test]
    fn flush_clears_dirty_keeps_resident() {
        let a = arena();
        let c = small_cache(CrashFidelity::Fast);
        c.access(7, true, &a);
        assert!(c.flush(7));
        assert!(!c.flush(7)); // already clean
        assert!(c.is_resident(7));
    }

    #[test]
    fn adr_crash_reverts_unflushed_line() {
        let a = arena();
        let c = small_cache(CrashFidelity::Full);
        let addr = crate::PmAddr(64 * 3);
        a.store_u64(addr, 111);
        c.access(3, true, &a); // capture pre-image (value 111)
        a.store_u64(addr, 222); // the actual store
        c.power_failure(PersistenceDomain::Adr, &a);
        assert_eq!(a.load_u64(addr), 111, "unflushed write must be lost");
    }

    #[test]
    fn adr_crash_keeps_flushed_line() {
        let a = arena();
        let c = small_cache(CrashFidelity::Full);
        let addr = crate::PmAddr(64 * 3);
        a.store_u64(addr, 111);
        c.access(3, true, &a);
        a.store_u64(addr, 222);
        assert!(c.flush(3)); // clwb reached the persistence domain
        c.power_failure(PersistenceDomain::Adr, &a);
        assert_eq!(a.load_u64(addr), 222);
    }

    #[test]
    fn eadr_crash_keeps_everything() {
        let a = arena();
        let c = small_cache(CrashFidelity::Full);
        let addr = crate::PmAddr(64 * 3);
        a.store_u64(addr, 111);
        c.access(3, true, &a);
        a.store_u64(addr, 222);
        let (wb, reverted) = c.power_failure(PersistenceDomain::Eadr, &a);
        assert_eq!(wb, vec![3]);
        assert!(reverted.is_empty());
        assert_eq!(a.load_u64(addr), 222);
    }

    #[test]
    fn eviction_drops_preimage_write_survives_adr_crash() {
        let a = arena();
        // Tiny cache: 1 shard, 1 set, 1 way.
        let c = CacheModel::new(64, 1, 1, CrashFidelity::Full);
        let addr = crate::PmAddr(64);
        a.store_u64(addr, 1);
        c.access(1, true, &a);
        a.store_u64(addr, 2);
        // Evict line 1 by touching line 2: the writeback persists it.
        let r = c.access(2, false, &a);
        assert_eq!(r.evicted_dirty, Some(1));
        c.power_failure(PersistenceDomain::Adr, &a);
        assert_eq!(a.load_u64(addr), 2, "evicted (written-back) data is durable");
    }

    #[test]
    fn flush_all_returns_dirty_lines() {
        let a = arena();
        let c = small_cache(CrashFidelity::Fast);
        c.access(1, true, &a);
        c.access(2, false, &a);
        c.access(3, true, &a);
        let mut dirty = c.flush_all();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![1, 3]);
        assert!(c.flush_all().is_empty());
    }
}
