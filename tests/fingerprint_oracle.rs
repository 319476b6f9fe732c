//! Differential battery pinning the fingerprint-accelerated probe path.
//!
//! Every operation runs through Spash's production path — fp-word
//! filtered probes plus the DRAM overlay cache — and its observable
//! results are compared against two independent sources of truth:
//!
//! 1. a **fingerprint-blind oracle** ([`Spash::oracle_scan_get`]) that
//!    linearly scans all 16 slots of the routed segment on the *same*
//!    arena state, and
//! 2. a reference `HashMap` model.
//!
//! The battery runs across random seeds, forced tag collisions
//! (`testhooks::set_fp_collide`, which degrades every tag to the same
//! value so the filter admits everything), splits/merges, and
//! crash/recover cycles. Two mutation canaries prove the battery and the
//! linearizability checker have teeth:
//!
//! * **wrong-tag** (`testhooks::set_fp_wrong_tag`): corrupts every tag on
//!   its way into the persistent fp table → fingerprinted probes go
//!   false-negative while the oracle still finds the keys, and the
//!   integrity walker reports `FpWordMismatch`;
//! * **stale-cache** (`testhooks::set_overlay_stale`): splits/merges skip
//!   overlay invalidation → a cached bucket image survives its segment's
//!   split and serves pre-split values after a post-split update.
//!
//! The canary hooks are process-global, so every test holds
//! [`hook_lock`] — the ones that flip a hook so they can restore it even
//! on panic, the rest so a concurrently running canary cannot corrupt
//! their index mid-run. Regression seeds for the sibling property suites
//! live in `tests/proptest_substrates.proptest-regressions`.

use std::collections::HashMap;

use spash_repro::index_api::history::{self, Recorder};
use spash_repro::index_api::{crashpoint::SweepOp, PersistentIndex, Rng64};
use spash_repro::pmem::{PmConfig, PmDevice};
use spash_repro::sched::explore::{explore, ExploreConfig};
use spash_repro::spash::integrity::IntegrityError;
use spash_repro::spash::{testhooks, Spash, SpashConfig};

fn pm() -> PmConfig {
    PmConfig {
        arena_size: 64 << 20,
        ..PmConfig::small_test()
    }
}

fn eadr() -> PmConfig {
    PmConfig {
        arena_size: 64 << 20,
        ..PmConfig::eadr_test()
    }
}

/// Serializes tests that flip a process-global test hook.
fn hook_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Run `f` with `set(true)` held, restoring the previous value even if
/// `f` panics.
fn with_hook(set: fn(bool) -> bool, f: impl FnOnce() + std::panic::UnwindSafe) {
    let was = set(true);
    let r = std::panic::catch_unwind(f);
    set(was);
    if let Err(p) = r {
        std::panic::resume_unwind(p);
    }
}

/// Compare the production get path against the blind oracle and the
/// model for one key. Panics with `tag` context on any divergence.
fn check_key(
    idx: &Spash,
    ctx: &mut spash_repro::pmem::MemCtx,
    model: &HashMap<u64, Vec<u8>>,
    k: u64,
    tag: &str,
) {
    let mut via_fp = Vec::new();
    let mut via_oracle = Vec::new();
    let hit_fp = idx.get(ctx, k, &mut via_fp);
    let hit_oracle = idx.oracle_scan_get(ctx, k, &mut via_oracle);
    let expect = model.get(&k);
    assert_eq!(
        (hit_fp, &via_fp),
        (hit_oracle, &via_oracle),
        "{tag}: key {k}: fingerprinted path and blind oracle diverge"
    );
    match expect {
        None => assert!(!hit_fp, "{tag}: key {k}: model says absent, index found it"),
        Some(v) => {
            assert!(hit_fp, "{tag}: key {k}: model says present, index missed it");
            assert_eq!(&via_fp, v, "{tag}: key {k}: wrong value");
        }
    }
}

fn gen_val(rng: &mut Rng64, k: u64) -> Vec<u8> {
    // Mix inline-sized (6B) and blob values so both slot encodings and
    // the overlay's pointer-chasing path are exercised.
    match rng.below(3) {
        0 => (0..6).map(|i| (k ^ i) as u8).collect(),
        1 => vec![(k & 0xff) as u8; 40],
        _ => (0..120).map(|i| (k.wrapping_mul(31) ^ i) as u8).collect(),
    }
}

/// Drive `n_ops` random operations, checking the touched key against
/// oracle + model after every single operation.
fn churn(
    idx: &Spash,
    ctx: &mut spash_repro::pmem::MemCtx,
    model: &mut HashMap<u64, Vec<u8>>,
    rng: &mut Rng64,
    n_ops: u64,
    key_space: u64,
    tag: &str,
) {
    for _ in 0..n_ops {
        let k = 1 + rng.below(key_space);
        match rng.below(4) {
            0 => {
                let v = gen_val(rng, k);
                let r = idx.insert(ctx, k, &v);
                match model.entry(k) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        r.unwrap_or_else(|e| panic!("{tag}: insert({k}) failed: {e:?}"));
                        e.insert(v);
                    }
                    std::collections::hash_map::Entry::Occupied(_) => {
                        assert!(r.is_err(), "{tag}: duplicate insert({k}) succeeded");
                    }
                }
            }
            1 => {
                let v = gen_val(rng, k ^ 0x77);
                let r = idx.update(ctx, k, &v);
                if let Some(slot) = model.get_mut(&k) {
                    r.unwrap_or_else(|e| panic!("{tag}: update({k}) failed: {e:?}"));
                    *slot = v;
                } else {
                    assert!(r.is_err(), "{tag}: update of absent {k} succeeded");
                }
            }
            2 => {
                let removed = idx.remove(ctx, k);
                assert_eq!(
                    removed,
                    model.remove(&k).is_some(),
                    "{tag}: remove({k}) disagreed with model"
                );
            }
            _ => {}
        }
        check_key(idx, ctx, model, k, tag);
        // Also probe a key unlikely to exist: negative probes are the
        // fp filter's whole point.
        let absent = k + key_space * 7 + 1;
        check_key(idx, ctx, model, absent, tag);
    }
}

#[test]
fn fingerprinted_path_matches_oracle_across_seeds() {
    // The canaries flip process-global hooks these runs would observe.
    let _guard = hook_lock();
    for case in 0..12u64 {
        let dev = PmDevice::new(pm());
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        let mut model = HashMap::new();
        let mut rng = Rng64::new(0xF1A6 + case);
        churn(&idx, &mut ctx, &mut model, &mut rng, 400, 199, &format!("seed {case}"));
        idx.verify_integrity(&mut ctx)
            .unwrap_or_else(|e| panic!("seed {case}: integrity after churn: {e}"));
    }
}

#[test]
fn fingerprinted_path_matches_oracle_under_forced_tag_collisions() {
    let _guard = hook_lock();
    with_hook(testhooks::set_fp_collide, || {
        // Every tag degrades to the same value: the filter admits every
        // occupied slot, so the probe path must still disambiguate by
        // full key compare — and stay oracle-identical.
        let dev = PmDevice::new(pm());
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        let mut model = HashMap::new();
        let mut rng = Rng64::new(0xC0111DE);
        churn(&idx, &mut ctx, &mut model, &mut rng, 600, 150, "fp-collide");
        // Tags were computed with the hook on throughout, so the walker's
        // rebuild rule (also hook-aware) must still match exactly.
        idx.verify_integrity(&mut ctx)
            .unwrap_or_else(|e| panic!("fp-collide: integrity: {e}"));
    });
}

#[test]
fn fingerprinted_path_matches_oracle_across_splits() {
    // The canaries flip process-global hooks these runs would observe.
    let _guard = hook_lock();
    let dev = PmDevice::new(pm());
    let mut ctx = dev.ctx();
    let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
    let mut model = HashMap::new();
    let mut rng = Rng64::new(0x59117);
    // Grow through many splits (and a directory doubling or two).
    for k in 1..=6_000u64 {
        let v = gen_val(&mut rng, k);
        idx.insert(&mut ctx, k, &v).unwrap();
        model.insert(k, v);
    }
    for k in (1..=6_000u64).step_by(17) {
        check_key(&idx, &mut ctx, &model, k, "post-split");
        check_key(&idx, &mut ctx, &model, k + 1_000_000, "post-split absent");
    }
    // Mass delete to trigger merges, then recheck.
    for k in 1..=3_000u64 {
        assert!(idx.remove(&mut ctx, k));
        model.remove(&k);
    }
    for k in (1..=6_000u64).step_by(13) {
        check_key(&idx, &mut ctx, &model, k, "post-merge");
    }
    idx.verify_integrity(&mut ctx).unwrap();
}

#[test]
fn fingerprinted_path_matches_oracle_across_crash_recover_cycles() {
    // The canaries flip process-global hooks these runs would observe.
    let _guard = hook_lock();
    let dev = PmDevice::new(eadr());
    let mut model = HashMap::new();
    let mut rng = Rng64::new(0xCAFE);
    {
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        churn(&idx, &mut ctx, &mut model, &mut rng, 300, 250, "pre-crash");
    }
    for cycle in 0..3 {
        dev.simulate_power_failure();
        let mut ctx = dev.ctx();
        let idx = Spash::recover(&mut ctx, SpashConfig::test_default())
            .unwrap_or_else(|| panic!("cycle {cycle}: recovery found no index"));
        let tag = format!("cycle {cycle}");
        // Recovery rebuilt the fp sidecar from slots: every key must
        // resolve identically through the rebuilt filter.
        let keys: Vec<u64> = model.keys().copied().collect();
        for k in keys {
            check_key(&idx, &mut ctx, &model, k, &tag);
            check_key(&idx, &mut ctx, &model, k + 100_000, &tag);
        }
        idx.verify_integrity(&mut ctx)
            .unwrap_or_else(|e| panic!("{tag}: integrity after recovery: {e}"));
        churn(&idx, &mut ctx, &mut model, &mut rng, 200, 250, &tag);
    }
}

// =====================================================================
// Mutation canaries: each hook must flip its detecting suite.
// =====================================================================

#[test]
fn wrong_tag_canary_is_caught_by_oracle_battery() {
    let _guard = hook_lock();
    with_hook(testhooks::set_fp_wrong_tag, || {
        let dev = PmDevice::new(pm());
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        let mut divergences = 0u64;
        for k in 1..=200u64 {
            idx.insert(&mut ctx, k, &k.to_le_bytes()[..6]).unwrap();
            let mut via_fp = Vec::new();
            let mut via_oracle = Vec::new();
            let hit_fp = idx.get(&mut ctx, k, &mut via_fp);
            let hit_oracle = idx.oracle_scan_get(&mut ctx, k, &mut via_oracle);
            assert!(hit_oracle, "oracle must find key {k} regardless of tags");
            if !hit_fp {
                divergences += 1;
            }
        }
        assert!(
            divergences > 0,
            "wrong-tag canary: fingerprinted path never diverged from the oracle"
        );
        // The integrity walker recomputes tags from slots, so the
        // corrupted sidecar must be flagged as a mismatch.
        match idx.verify_integrity(&mut ctx) {
            Err(IntegrityError::FpWordMismatch { .. }) => {}
            other => panic!("wrong-tag canary: expected FpWordMismatch, got {other:?}"),
        }
    });
}

#[test]
fn wrong_tag_canary_is_caught_by_linearizability_checker() {
    let _guard = hook_lock();
    with_hook(testhooks::set_fp_wrong_tag, || {
        // Completed inserts whose keys then read as absent cannot
        // linearize; the explorer must find violations.
        let mut cfg = ExploreConfig::ci(8);
        cfg.lin.key_space = 8;
        cfg.lin.prefill = 0;
        let report = explore(&Spash::crash_target(SpashConfig::test_default()), &pm(), &cfg);
        assert!(
            !report.violations.is_empty(),
            "wrong-tag canary survived {} schedules — the checker caught nothing",
            report.schedules
        );
    });
}

/// Adaptive stale-overlay hunt.
///
/// Install overlay entries by reading a cohort of keys, then feed
/// trigger inserts one at a time, watching `capacity()` for the moment a
/// split commits. Immediately after each split, update every cohort key
/// to a round-fresh value and compare the production get against the
/// blind oracle *before anything else can touch the parent segment's
/// generation cell*. A split whose invalidation was skipped leaves the
/// pre-split bucket image live for keys that moved to a fresh child
/// XPLine, so the production path returns the previous round's value.
///
/// Returns the first diverging key and the fresh value it should have
/// carried (`None` when every read was clean — required of healthy runs).
fn stale_overlay_hunt(
    idx: &Spash,
    ctx: &mut spash_repro::pmem::MemCtx,
) -> Option<(u64, Vec<u8>)> {
    const COHORT: u64 = 400;
    let mut round = 1u8;
    for k in 1..=COHORT {
        idx.insert(ctx, k, &[round; 6]).unwrap();
    }
    let mut sink = Vec::new();
    for k in 1..=COHORT {
        sink.clear();
        assert!(idx.get(ctx, k, &mut sink), "cohort key {k} missing");
    }
    for trigger in COHORT + 1..=COHORT + 1_000 {
        let cap0 = idx.capacity();
        idx.insert(ctx, trigger, &[0xAAu8; 6]).unwrap();
        if idx.capacity() == cap0 {
            continue; // no split this insert
        }
        // A split just committed. Update each cohort key and re-read it
        // at once: a surviving stale entry serves the previous round's
        // value while the oracle sees the update.
        round = round.wrapping_add(1);
        for k in 1..=COHORT {
            idx.update(ctx, k, &[round; 6]).unwrap();
            let mut via_fp = Vec::new();
            let mut via_oracle = Vec::new();
            assert!(idx.get(ctx, k, &mut via_fp));
            assert!(idx.oracle_scan_get(ctx, k, &mut via_oracle));
            assert_eq!(via_oracle, vec![round; 6], "oracle must see the update");
            if via_fp != via_oracle {
                return Some((k, via_oracle));
            }
        }
        // Clean round: re-read the cohort so the overlay holds fresh
        // entries for the next split.
        for k in 1..=COHORT {
            sink.clear();
            assert!(idx.get(ctx, k, &mut sink));
        }
    }
    None
}

#[test]
fn stale_overlay_canary_is_caught_by_oracle_battery() {
    let _guard = hook_lock();
    // Healthy run: invalidation works, every post-split read is fresh.
    {
        let dev = PmDevice::new(pm());
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        assert_eq!(
            stale_overlay_hunt(&idx, &mut ctx),
            None,
            "healthy overlay must never serve stale values"
        );
        idx.verify_integrity(&mut ctx).unwrap();
    }
    with_hook(testhooks::set_overlay_stale, || {
        let dev = PmDevice::new(pm());
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        assert!(
            stale_overlay_hunt(&idx, &mut ctx).is_some(),
            "stale-cache canary: overlay never served a pre-split value"
        );
    });
}

#[test]
fn stale_overlay_canary_is_caught_by_linearizability_checker() {
    let _guard = hook_lock();
    with_hook(testhooks::set_overlay_stale, || {
        let dev = PmDevice::new(pm());
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        let (k, fresh) = stale_overlay_hunt(&idx, &mut ctx)
            .expect("stale-cache canary: hunt found no stale read to record");
        // Record the stale read as a one-op history against an initial
        // state that reflects the completed update: a get returning the
        // pre-split value cannot linearize.
        let rec = Recorder::new();
        let hist = vec![rec.run_op(&idx, &mut ctx, 0, &SweepOp::Get(k))];
        let initial: HashMap<u64, u64> =
            [(k, history::fingerprint(&fresh))].into_iter().collect();
        assert!(
            history::check_linearizable(&hist, &initial).is_err(),
            "stale-cache canary: stale read of key {k} linearized — the checker caught nothing"
        );
    });
}
