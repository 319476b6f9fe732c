//! Deterministic schedule exploration with linearizability checking (see
//! DESIGN.md, "Deterministic schedule exploration").
//!
//! Each test runs a seeded concurrent workload under the cooperative
//! scheduler (`spash-sched`), exploring a batch of random interleavings
//! and checking every completed history against the sequential map model
//! with the Wing–Gong checker. Failures print the schedule seed and
//! decision trace; `spash-bench sched` runs the bigger sweeps from
//! EXPERIMENTS.md.

use spash_repro::baselines::{testhooks, CLevel, Cceh, Dash, Halo, Level, Plush};
use spash_repro::index_api::crashpoint::{CrashTarget, SweepOp};
use spash_repro::index_api::history::{self, Recorder};
use spash_repro::pmem::{PersistenceDomain, PmConfig, PmDevice};
use spash_repro::sched::explore::{explore, ExploreConfig};
use spash_repro::sched::{run_tasks, SchedConfig};
use spash_repro::spash::{Spash, SpashConfig};

fn pm() -> PmConfig {
    let mut pm = PmConfig::small_test();
    pm.arena_size = 48 << 20;
    pm.domain = PersistenceDomain::Eadr;
    pm
}

/// Explore `seeds` random schedules of the shared CI-sized workload and
/// require every history to linearize.
fn assert_linearizable(target: CrashTarget, seeds: u64) {
    let cfg = ExploreConfig::ci(seeds);
    let report = explore(&target, &pm(), &cfg);
    assert_eq!(report.schedules, seeds);
    assert!(
        report.distinct >= seeds / 2,
        "{}: only {} distinct interleavings in {} schedules — exploration is degenerate",
        report.name,
        report.distinct,
        report.schedules
    );
    assert!(
        report.clean(),
        "{}: schedule exploration failed\nviolations:\n{}\npanics:\n{}\nstopped: {}",
        report.name,
        report
            .violations
            .iter()
            .map(|f| f.detail.clone())
            .collect::<Vec<_>>()
            .join("\n"),
        report
            .panics
            .iter()
            .map(|f| f.detail.clone())
            .collect::<Vec<_>>()
            .join("\n"),
        report.stopped,
    );
}

const CI_SEEDS: u64 = 10;

#[test]
fn spash_concurrent_histories_linearize() {
    assert_linearizable(Spash::crash_target(SpashConfig::test_default()), CI_SEEDS);
}

#[test]
fn cceh_concurrent_histories_linearize() {
    assert_linearizable(Cceh::crash_target(1), CI_SEEDS);
}

#[test]
fn dash_concurrent_histories_linearize() {
    assert_linearizable(Dash::crash_target(1), CI_SEEDS);
}

#[test]
fn level_concurrent_histories_linearize() {
    assert_linearizable(Level::crash_target(4), CI_SEEDS);
}

#[test]
fn clevel_concurrent_histories_linearize() {
    assert_linearizable(CLevel::crash_target(4), CI_SEEDS);
}

#[test]
fn plush_concurrent_histories_linearize() {
    assert_linearizable(Plush::crash_target(4), CI_SEEDS);
}

#[test]
fn halo_concurrent_histories_linearize() {
    let _guard = halo_mutation_lock();
    assert_linearizable(Halo::crash_target(8 << 20, u64::MAX), CI_SEEDS);
}

/// Four threads (not three) still linearize: the checker's real-time
/// pruning has to work with a wider pending frontier.
#[test]
fn four_thread_histories_linearize() {
    let mut cfg = ExploreConfig::ci(6);
    cfg.lin.threads = 4;
    cfg.lin.ops_per_thread = 6;
    let report = explore(
        &Spash::crash_target(SpashConfig::test_default()),
        &pm(),
        &cfg,
    );
    assert!(report.clean(), "4-thread exploration failed");
}

/// Concurrent split/doubling with concurrent readers linearizes.
///
/// Two writers insert disjoint key ranges into a depth-2 directory —
/// enough to force segment splits and a collaborative directory doubling
/// mid-run — while a reader hammers lookups across both ranges. The
/// recorded history must linearize, and the capacity growth proves the
/// doubling actually happened under the explored interleavings.
#[test]
fn spash_doubling_under_readers_linearizes() {
    for seed in [1u64, 7, 23] {
        let dev = PmDevice::new(pm());
        let mut ctx = dev.ctx();
        let idx = std::sync::Arc::new(
            Spash::format(&mut ctx, SpashConfig::test_default()).expect("format"),
        );
        let cap0 = idx.capacity();
        let recorder = Recorder::new();
        let history = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));

        let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        for (t, keys) in [(0usize, 1..=30u64), (1, 31..=60)] {
            let idx = std::sync::Arc::clone(&idx);
            let rec = recorder.clone();
            let hist = std::sync::Arc::clone(&history);
            let mut tctx = dev.ctx();
            bodies.push(Box::new(move || {
                for k in keys {
                    let op = SweepOp::Insert(k, spash_repro::sched::lin::prefill_value(k));
                    let done = rec.run_op(idx.as_ref(), &mut tctx, t, &op);
                    hist.lock().unwrap().push(done);
                }
            }));
        }
        {
            let idx = std::sync::Arc::clone(&idx);
            let rec = recorder.clone();
            let hist = std::sync::Arc::clone(&history);
            let mut tctx = dev.ctx();
            bodies.push(Box::new(move || {
                for i in 0..25u64 {
                    let op = SweepOp::Get(1 + (i * 7) % 60);
                    let done = rec.run_op(idx.as_ref(), &mut tctx, 2, &op);
                    hist.lock().unwrap().push(done);
                }
            }));
        }

        let out = run_tasks(&SchedConfig::random(seed, 32), None, bodies);
        assert!(out.panics.is_empty(), "seed {seed}: {:?}", out.panics);
        assert!(out.stopped.is_none(), "seed {seed}: {:?}", out.stopped);

        let hist = history.lock().unwrap();
        history::check_linearizable(&hist, &Default::default()).unwrap_or_else(|v| {
            panic!("seed {seed}: doubling-under-readers history: {v}\ntrace = {:?}", out.trace)
        });
        assert!(
            idx.capacity() > cap0,
            "seed {seed}: 60 inserts never grew a depth-2 directory (capacity {cap0})"
        );
    }
}

/// The Halo racy-insert mutation is process-global; the healthy Halo test
/// and the mutation tests must not overlap.
fn halo_mutation_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Checker validation: with Halo's check-then-append atomicity broken
/// (`testhooks::set_halo_racy_insert`), the explorer must find a
/// linearizability violation, and the violation must replay
/// deterministically from its recorded trace.
#[test]
fn mutated_halo_violation_is_caught_and_replays() {
    let _guard = halo_mutation_lock();
    let was = testhooks::set_halo_racy_insert(true);
    let result = std::panic::catch_unwind(|| {
        let target = Halo::crash_target(8 << 20, u64::MAX);
        // Insert-heavy collisions: no prefill, tiny key space, so racing
        // inserts of the same absent key are common.
        let mut cfg = ExploreConfig::ci(64);
        cfg.lin.key_space = 4;
        cfg.lin.prefill = 0;
        let report = explore(&target, &pm(), &cfg);
        assert!(
            !report.violations.is_empty(),
            "mutated Halo survived {} schedules — the checker caught nothing",
            report.schedules
        );
        for f in &report.violations {
            assert!(
                f.replay_reproduces,
                "seed {}: violation did not replay byte-identically\n{}",
                f.seed, f.detail
            );
        }
    });
    testhooks::set_halo_racy_insert(was);
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}

/// The scale sweep's batch driver (`spash_sched::batch::run_batch`, the
/// engine under `spash-bench scale`) must record a decision trace that
/// replays byte-identically with identical per-task results — the
/// property that makes every sweep row reproducible from its seed alone.
#[test]
fn batch_driver_trace_replays_byte_identically() {
    use spash_repro::index_api::PersistentIndex;
    use spash_repro::sched::batch::run_batch;

    let run = |cfg: &SchedConfig| {
        let dev = PmDevice::new(pm());
        let mut fmt = dev.ctx();
        let idx =
            std::sync::Arc::new(Spash::format(&mut fmt, SpashConfig::default()).unwrap());
        drop(fmt);
        // Contexts created before spawning, in task order, so simulated
        // thread ids match between record and replay (the scale driver's
        // discipline).
        let bodies: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..3u64)
            .map(|t| {
                let idx = idx.clone();
                let mut ctx = dev.ctx();
                let b: Box<dyn FnOnce() -> u64 + Send> = Box::new(move || {
                    // Digest every observed outcome: any divergence in
                    // interleaving that is visible to a task changes it.
                    let mut digest = 0xcbf2_9ce4_8422_2325u64;
                    let mut mix = |x: u64| {
                        digest = (digest ^ x).wrapping_mul(0x100_0000_01b3);
                    };
                    for i in 0..12u64 {
                        let k = i % 6 + 1; // tiny key space: tasks collide
                        match i % 3 {
                            0 => mix(idx.insert_u64(&mut ctx, k, t * 100 + i).is_ok() as u64),
                            1 => mix(idx.get_u64(&mut ctx, k).unwrap_or(u64::MAX)),
                            _ => mix(idx.remove(&mut ctx, k) as u64),
                        }
                    }
                    digest
                });
                b
            })
            .collect();
        let out = run_batch(cfg, None, bodies);
        assert!(
            out.complete(),
            "batch run did not complete: panics={:?} stopped={:?}",
            out.sched.panics,
            out.sched.stopped
        );
        (out.sched.trace, out.results)
    };

    let (trace, results) = run(&SchedConfig::random(0xBA7C4, 40));
    assert!(!trace.is_empty(), "recorded an empty decision trace");
    let (replayed, replayed_results) = run(&SchedConfig::replay(trace.clone()));
    assert_eq!(trace, replayed, "replay diverged from the recorded decisions");
    assert_eq!(results, replayed_results, "replay changed a task's observations");
}
