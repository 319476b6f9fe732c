//! Crash-point sweep through the batched service path.
//!
//! The index-level sweep (`spash_index_api::crashpoint`) proves per-op
//! durability; this sweep proves the *service contract*: a response is
//! acked only after its batch's coalesced journal fence, so
//!
//! 1. **acked ⇒ durable** — for every batch whose responses were
//!    delivered before the crash, the journal record must validate on
//!    the post-crash image, in *both* persistence domains (the
//!    publication barrier is domain-robust: one flush+fence per batch).
//!    The `fence_dropped` canary breaks exactly this — the acked record
//!    sits dirty in the volatile cache and an ADR power cut reverts it —
//!    and the named test `fence_dropped_canary_is_caught_by_the_adr_sweep`
//!    requires this audit to flag it.
//! 2. **un-acked ⇒ atomic** — under eADR ([`CheckLevel::Exact`]) every
//!    key outside the single in-flight batch must recover exactly to the
//!    acked prefix; a key touched by the in-flight batch may be observed
//!    at any *batch-prefix* state (the underlying index's per-op
//!    atomicity, widened batch-wise because a crash can land between any
//!    two operations of the batch, or during the publication itself).
//!
//! Mechanically it is the same record-then-sweep procedure as the index
//! sweep, with the workload driven through [`crate::Service`]: enqueue
//! everything with arrival 0, drain the shards round-robin (one batch
//! per shard per turn), crash at media write `k`, recover, audit.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use spash_index_api::crashpoint::{
    apply_shadow, gen_workload, panic_text, schedule, CheckLevel, CrashPointStat, CrashTarget,
    SweepOp, SweepReport,
};
use spash_pmem::{CrashPointHit, MemCtx, PersistenceDomain, PmConfig, PmDevice};

use crate::{ClientReq, JournalSpec, Service, ServiceConfig, ShardRunStats};

/// Service sweep parameters.
pub struct ServiceSweepConfig {
    /// Platform config; `fidelity` must be `Full`.
    pub pm: PmConfig,
    pub seed: u64,
    pub n_ops: u64,
    pub key_space: u64,
    pub shards: usize,
    /// Max requests coalesced under one batch fence.
    pub batch_max: usize,
    pub exhaustive_limit: u64,
    pub max_points: u64,
    pub check: CheckLevel,
}

impl ServiceSweepConfig {
    /// CI-scale config: same platform knobs as the index sweep's
    /// `SweepConfig::ci` (small cache so evictions happen early), a
    /// slightly smaller workload because every injected point replays
    /// the whole batched run.
    pub fn ci(domain: PersistenceDomain) -> Self {
        use spash_pmem::CrashFidelity;
        let mut pm = PmConfig::small_test();
        pm.arena_size = 48 << 20;
        pm.cache_capacity = 256 << 10;
        pm.domain = domain;
        pm.fidelity = CrashFidelity::Full;
        Self {
            pm,
            seed: 0xC0FFEE,
            n_ops: 400,
            key_space: 160,
            shards: 2,
            batch_max: 4,
            exhaustive_limit: 4_000,
            max_points: 120,
            check: match domain {
                PersistenceDomain::Eadr => CheckLevel::Exact,
                PersistenceDomain::Adr => CheckLevel::NoCorruption,
            },
        }
    }

    /// Debug-test-scale config (the canary tests run three full sweeps
    /// in one `cargo test` binary).
    pub fn test_small(domain: PersistenceDomain) -> Self {
        Self {
            n_ops: 160,
            key_space: 64,
            exhaustive_limit: 48,
            max_points: 48,
            ..Self::ci(domain)
        }
    }

    fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            shards: self.shards,
            batch_max: self.batch_max,
            // One ring slot per workload op: the run can never wrap, so
            // every acked record of the run stays auditable.
            journal: JournalSpec::at_top(self.pm.arena_size, self.shards, self.n_ops),
            pool_slots: self.shards + 1,
            pool_participants: 0,
        }
    }
}

/// One acked batch, as observed at the delivery point.
struct AckedBatch {
    shard: usize,
    seq: u64,
    /// Workload op indices the batch carried (the driver stores the op
    /// index in [`ClientReq::session`]).
    ops: Vec<usize>,
}

/// What one (possibly crashed) service run observed.
#[derive(Default)]
struct RunLog {
    acked: Vec<AckedBatch>,
    /// The batch formed but not yet delivered when the run ended — the
    /// single in-flight batch.
    in_flight: Option<Vec<usize>>,
}

fn fail(report: &mut SweepReport, msg: String) {
    if report.failures.len() < SweepReport::MAX_FAILURES {
        report.failures.push(msg);
    }
    report.failure_count += 1;
}

/// Drive the whole workload through a fresh service on `ctx`, recording
/// acked batches and the in-flight batch into `log`. Panics with
/// [`CrashPointHit`] when the armed fault plan fires.
fn drive(svc: &Service, ctx: &mut MemCtx, ops: &[SweepOp], log: &RefCell<RunLog>) {
    for (i, op) in ops.iter().enumerate() {
        svc.enqueue(ClientReq::new(i as u64, 0, op.clone()));
    }
    let t0 = ctx.now();
    let mut stats = vec![ShardRunStats::default(); svc.config().shards];
    let mut on_invoke = |reqs: &mut [ClientReq]| {
        log.borrow_mut().in_flight = Some(reqs.iter().map(|r| r.session as usize).collect());
    };
    let mut active = true;
    while active {
        active = false;
        for (shard, shard_stats) in stats.iter_mut().enumerate() {
            let mut deliver = |_ctx: &mut MemCtx, pool: &crate::pool::BatchPool, replies: crate::BatchReplies| {
                let mut l = log.borrow_mut();
                l.acked.push(AckedBatch {
                    shard: replies.shard,
                    seq: replies.seq,
                    ops: replies.responses.iter().map(|r| r.session as usize).collect(),
                });
                l.in_flight = None;
                replies.retire(pool);
            };
            if svc.run_shard_step(ctx, shard, t0, shard_stats, &mut on_invoke, &mut deliver) {
                active = true;
            }
        }
    }
    // A healthy sweep run must never observe a misroute.
    assert!(
        stats.iter().all(|s| s.misroutes == 0),
        "routing audit tripped during sweep run"
    );
}

/// Run the record-then-sweep procedure through the service layer for one
/// index target.
pub fn run_service_sweep(target: &CrashTarget, cfg: &ServiceSweepConfig) -> SweepReport {
    spash_pmem::fault::silence_crash_point_panics();
    let ops = gen_workload(cfg.seed, cfg.n_ops, cfg.key_space);
    let mut report = SweepReport {
        target: format!("service/{}", target.name),
        domain: cfg.pm.domain,
        total_writes: 0,
        points: Vec::new(),
        unrecovered: 0,
        failures: Vec::new(),
        failure_count: 0,
    };

    // Record pass: count the batched run's media writes (index writes
    // plus one journal line per batch) and gate the sanitizer over the
    // uninjected run.
    let name = report.target.clone();
    let total_writes = {
        let dev = PmDevice::new(cfg.pm.clone());
        let mut ctx = dev.ctx();
        let idx: Arc<dyn spash_index_api::PersistentIndex> = Arc::from((target.format)(&mut ctx));
        let svc = Service::new(idx, cfg.service_config());
        dev.faults().reset();
        let log = RefCell::new(RunLog::default());
        drive(&svc, &mut ctx, &ops, &log);
        let l = log.borrow();
        assert!(l.in_flight.is_none(), "uninjected run left a batch in flight");
        let acked_ops: usize = l.acked.iter().map(|b| b.ops.len()).sum();
        if acked_ops as u64 != cfg.n_ops {
            fail(
                &mut report,
                format!("{name}: record pass acked {acked_ops} of {} ops", cfg.n_ops),
            );
        }
        if let Some(san) = dev.san() {
            san.final_check();
            let r = san.report();
            for v in &r.violations {
                fail(&mut report, format!("{name}: sanitizer (record pass): {v}"));
            }
            if r.dropped > 0 {
                fail(
                    &mut report,
                    format!(
                        "{name}: sanitizer (record pass): {} further violation(s) dropped",
                        r.dropped
                    ),
                );
            }
        }
        dev.faults().media_writes()
    };
    report.total_writes = total_writes;

    for k in schedule(total_writes, cfg.exhaustive_limit, cfg.max_points) {
        sweep_one(target, cfg, &ops, k, &mut report);
    }
    report
}

/// Inject a crash at media write `k` of the batched run, recover, audit.
fn sweep_one(
    target: &CrashTarget,
    cfg: &ServiceSweepConfig,
    ops: &[SweepOp],
    k: u64,
    report: &mut SweepReport,
) {
    let name = report.target.clone();
    let dev = PmDevice::new(cfg.pm.clone());
    let mut ctx = dev.ctx();
    let idx: Arc<dyn spash_index_api::PersistentIndex> = Arc::from((target.format)(&mut ctx));
    let svc = Service::new(idx, cfg.service_config());
    dev.faults().reset();
    dev.faults().arm(k);

    let log = RefCell::new(RunLog::default());
    let outcome = catch_unwind(AssertUnwindSafe(|| drive(&svc, &mut ctx, ops, &log)));
    dev.faults().disarm();
    drop(svc); // volatile service + index state dies with the "machine"

    match outcome {
        Ok(()) => {
            report.points.push(CrashPointStat {
                write_k: k,
                committed_ops: 0,
                recovered: false,
                recovery_ns: 0,
                reverted_lines: 0,
                flushed_lines: 0,
                leaked_allocs: 0,
                audit_ok: true,
            });
            fail(
                report,
                format!(
                    "{name}: write {k} never fired on replay ({} of {} writes) — \
                     non-deterministic batched run",
                    dev.faults().media_writes(),
                    report.total_writes,
                ),
            );
            return;
        }
        Err(payload) if payload.downcast_ref::<CrashPointHit>().is_some() => {}
        Err(payload) => {
            let msg = panic_text(payload.as_ref());
            fail(
                report,
                format!("{name}: replay at write {k} panicked outside the fault plan: {msg}"),
            );
            return;
        }
    }

    let crash = dev.simulate_power_failure();
    if let Some(san) = dev.san() {
        san.clear_violations();
    }
    let run = log.into_inner();
    let committed: u64 = run.acked.iter().map(|b| b.ops.len() as u64).sum();
    let mut stat = CrashPointStat {
        write_k: k,
        committed_ops: committed,
        recovered: false,
        recovery_ns: 0,
        reverted_lines: crash.reverted_lines.len() as u64,
        flushed_lines: crash.flushed_lines.len() as u64,
        leaked_allocs: 0,
        audit_ok: true,
    };

    // Audit 1, both domains: every acked batch's journal record must
    // validate on the post-crash image — acked ⇒ durable. This needs no
    // index recovery, so a declined recovery cannot mask a lost ack.
    let journal = cfg.service_config().journal;
    {
        let mut rctx = dev.ctx();
        for b in &run.acked {
            match journal.read_record(&mut rctx, b.shard, b.seq) {
                Some((count, _digest)) if count == b.ops.len() as u64 => {}
                got => {
                    fail(
                        report,
                        format!(
                            "{name}: acked batch (shard {}, seq {}) not durable after crash at \
                             write {k}: journal record is {:?}, expected count {}",
                            b.shard,
                            b.seq,
                            got.map(|(c, _)| c),
                            b.ops.len(),
                        ),
                    );
                }
            }
        }
    }

    // Audit 2: recover the index and (under Exact) check contents.
    let mut rctx = dev.ctx();
    let recovery = catch_unwind(AssertUnwindSafe(|| (target.recover)(&mut rctx)));
    let recovery = match recovery {
        Ok(r) => r,
        Err(payload) => {
            let msg = panic_text(payload.as_ref());
            fail(
                report,
                format!("{name}: recovery panicked at write {k} ({committed} ops acked): {msg}"),
            );
            report.points.push(stat);
            return;
        }
    };

    match recovery {
        None => {
            if cfg.check == CheckLevel::Exact {
                fail(
                    report,
                    format!("{name}: unrecoverable image at write {k} ({committed} ops acked)"),
                );
            }
            report.unrecovered += 1;
        }
        Some(rec) => {
            stat.recovered = true;
            stat.leaked_allocs = rec.leaked_allocs;
            if let Some(err) = rec.audit_error {
                stat.audit_ok = false;
                if cfg.check == CheckLevel::Exact {
                    fail(report, format!("{name}: audit failed at write {k}: {err}"));
                }
            }
            if cfg.check == CheckLevel::Exact {
                check_recovered(&name, cfg, ops, &run, k, rec.index.as_ref(), &mut rctx, report);
            }
            if let Some(san) = dev.san() {
                san.final_check();
                let r = san.report();
                for v in &r.violations {
                    fail(report, format!("{name}: sanitizer (recovery at write {k}): {v}"));
                }
            }
        }
    }
    report.points.push(stat);
}

/// The eADR content check: acked prefix exact, in-flight batch allowed at
/// any batch-prefix state.
#[allow(clippy::too_many_arguments)]
fn check_recovered(
    name: &str,
    cfg: &ServiceSweepConfig,
    ops: &[SweepOp],
    run: &RunLog,
    k: u64,
    rec: &dyn spash_index_api::PersistentIndex,
    ctx: &mut MemCtx,
    report: &mut SweepReport,
) {
    // Per-key effects are single-shard (hash routing) and each shard
    // serves its queue in enqueue order, so applying the acked ops in
    // workload order reproduces every key's acked state.
    let mut acked_idx: Vec<usize> = run.acked.iter().flat_map(|b| b.ops.iter().copied()).collect();
    acked_idx.sort_unstable();
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    for &i in &acked_idx {
        apply_shadow(&mut model, &ops[i]);
    }

    // The in-flight batch widens the per-key allowance: a crash can land
    // between any two of its operations (or during the publication, when
    // all of them have applied), so a touched key may be observed at the
    // state after any prefix of the batch.
    let in_flight = run.in_flight.as_deref().unwrap_or(&[]);
    let mut allowed: HashMap<u64, Vec<Option<Vec<u8>>>> = HashMap::new();
    {
        let mut cursor = model.clone();
        for &i in in_flight {
            apply_shadow(&mut cursor, &ops[i]);
            let key = ops[i].key();
            allowed
                .entry(key)
                .or_default()
                .push(cursor.get(&key).cloned());
        }
    }

    let mut buf = Vec::new();
    for key in 1..=cfg.key_space + 3 {
        buf.clear();
        let actual = rec.get(ctx, key, &mut buf).then(|| buf.clone());
        let expect = model.get(&key);
        let ok = actual.as_ref() == expect
            || allowed
                .get(&key)
                .is_some_and(|states| states.iter().any(|s| s.as_ref() == actual.as_ref()));
        if !ok {
            fail(
                report,
                format!(
                    "{name}: write {k} ({} ops acked): key {key} recovered as {:?}B, expected \
                     acked state {:?}B{}",
                    run.acked.iter().map(|b| b.ops.len()).sum::<usize>(),
                    actual.as_ref().map(Vec::len),
                    expect.map(Vec::len),
                    if allowed.contains_key(&key) {
                        " (or an in-flight batch prefix state)"
                    } else {
                        ""
                    },
                ),
            );
        }
    }
}
