//! `service-open`: Spash behind the sharded batched service (2 shards,
//! `batch_max` 8), 100k preloaded keys, zipf 50/50 get/update, offered as
//! an open loop. The shard executors are two scheduler tasks that drive
//! the same loop `Service::run_shard` runs, through the public
//! `begin_batch`/`commit_batch`, so the benchmark can time each call.
//!
//! Phases, each on the same service in this order: one open-loop phase
//! per rate of a fixed grid (which includes the fixed `lo` and `hi`
//! rates), then a saturate phase with every request due at once. Latency
//! is counted from each request's due time to its ack.

use std::sync::Arc;
use std::time::Instant;

use spash::Spash;
use spash_alloc::CHUNK;
use spash_index_api::crashpoint::SweepOp;
use spash_index_api::{hash_key, PersistentIndex};
use spash_pmem::{MemCtx, PersistenceDomain, PmDevice};
use spash_sched::batch::run_batch;
use spash_sched::SchedConfig;
use spash_service::pool::BatchPool;
use spash_service::{
    BatchReplies, ClientReq, JournalSpec, Reply, Service, ServiceConfig, ShardRunStats,
};
use spash_workloads::openloop::{ArrivalGen, OpenLoopConfig};
use spash_workloads::{load_keys, Distribution, Mix, OpStream, ValueSize, WorkloadConfig};

use crate::closed::{device, preload, value, versioned, Kind, Op, ARENA_BYTES};
use crate::metrics::{self, Outcomes, RatePoint};
use crate::trace::{traced, Tracer, NO_REQ};
use crate::{
    device_layers, htm_layers, put_pcts, Phase, PhaseClock, Rep, BACKLOG_FLOOR_NS, LIMIT_NS,
};

const KEYS: u64 = 100_000;
const SHARDS: usize = 2;
const BATCH_MAX: usize = 8;
const VALUE_LEN: usize = 16;
/// Requests per open-loop rate and in the saturate phase; the `lo`
/// phase, whose latency is reported end to end, runs `LO_REQS`.
const REQS_PER_PHASE: usize = 20_000;
const LO_REQS: usize = 50_000;
/// Offered rates (Mops/s) of the `service.max_rate_mops` search, every
/// one run in every repetition. `LO` and `HI` are the fixed reporting
/// rates and lie on the grid.
const GRID: [f64; 10] = [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0];
const LO: usize = 0;
const HI: usize = 3;
/// Journal ring records per shard: more than a repetition's batches, so
/// the post-crash audit sees every acked batch.
const JOURNAL_SLOTS: u64 = 1 << 18;
/// Scheduler preemption budget per phase (the service suite's).
const PREEMPTIONS: u32 = 32;

struct Req {
    arrival_ns: u64,
    session: u64,
    op: Op,
}

/// Per-request record of one phase, indexed by arrival order.
#[derive(Clone, Copy, Default)]
struct Served {
    acked: bool,
    /// Due → ack.
    latency: u64,
    /// Due → start of its batch's execution.
    wait: u64,
    /// Batch execution start → ack.
    exec: u64,
}

struct ShardOut {
    stats: ShardRunStats,
    end_clock: u64,
    served: Vec<(usize, Served)>,
    full_batches: u64,
    outcomes: Outcomes,
    tracer: Option<Tracer>,
}

struct PhaseOut {
    phase: Phase,
    /// Batches (= journal records) and requests acked, per shard.
    shard_batches: [u64; SHARDS],
    shard_acked: [u64; SHARDS],
    served: Vec<Served>,
    outcomes: Outcomes,
    full_batches: u64,
    fences: u64,
    decisions: u64,
    switches: u64,
}

/// The data set: which keys exist and which popularity rank each has.
/// It is the same for every seed; the seed drives the request streams,
/// the arrival times and the schedules. With a seeded data set the
/// seed also decided which hot keys share overlay entries and shards,
/// and that alone put the quartiles of the lo-rate p50 over ten seeds
/// 24% of the median apart.
fn dataset() -> WorkloadConfig {
    WorkloadConfig::new(
        KEYS,
        Distribution::Zipfian,
        Mix::BALANCED,
        ValueSize::Inline,
    )
}

fn gen_phases(seed: u64, vers: &mut [u32]) -> Vec<Vec<Req>> {
    let wl = dataset();
    let stream = |i: usize| OpStream::new(&wl, hash_key(seed ^ ((i as u64) << 32)));
    let mut phases = Vec::new();
    for (i, &mops) in GRID.iter().enumerate() {
        let mut stream = stream(i);
        let n = if i == LO { LO_REQS } else { REQS_PER_PHASE };
        let ops = versioned(&mut stream, n, vers);
        let mut arrivals = ArrivalGen::new(OpenLoopConfig {
            sessions: 1 << 20,
            mean_gap_ns: (1e3 / mops).round() as u64,
            seed: hash_key(seed ^ i as u64),
        });
        phases.push(
            ops.into_iter()
                .map(|op| {
                    let a = arrivals.next_arrival();
                    Req {
                        arrival_ns: a.at_ns,
                        session: a.session,
                        op,
                    }
                })
                .collect(),
        );
    }
    let sat = versioned(&mut stream(GRID.len()), REQS_PER_PHASE, vers);
    phases.push(
        sat.into_iter()
            .enumerate()
            .map(|(i, op)| Req {
                arrival_ns: 0,
                session: i as u64,
                op,
            })
            .collect(),
    );
    phases
}

/// One shard executor: `Service::run_shard`'s loop, with every request's
/// reply checked against the generator's expectation.
fn shard_loop(
    svc: &Service,
    ctx: &mut MemCtx,
    shard: usize,
    reqs: &[Req],
    mut tracer: Option<Tracer>,
) -> ShardOut {
    let t0 = ctx.now();
    let mut out = ShardOut {
        stats: ShardRunStats::default(),
        end_clock: 0,
        served: Vec::new(),
        full_batches: 0,
        outcomes: Outcomes::default(),
        tracer: None,
    };
    let mut buf = Vec::with_capacity(32);
    while let Some(batch) = traced(&mut tracer, "service.begin_batch", NO_REQ, || {
        svc.begin_batch(ctx, shard, t0)
    }) {
        let start = ctx.now();
        if batch.reqs.len() == BATCH_MAX {
            out.full_batches += 1;
        }
        let first = batch.reqs[0].stamp;
        let served = &mut out.served;
        let outcomes = &mut out.outcomes;
        let mut deliver = |_: &mut MemCtx, pool: &BatchPool, replies: BatchReplies| {
            for r in &replies.responses {
                let i = r.stamp as usize;
                let want = &reqs[i].op;
                match (&r.reply, want.kind) {
                    _ if r.op.key() != want.key => outcomes.wrong += 1,
                    (Reply::Value(Some(v)), Kind::Get) => {
                        buf.clear();
                        let got = pool.resolve(v, &mut buf).is_ok();
                        if !got || buf[..] != value(want.key, want.ver)[..VALUE_LEN] {
                            outcomes.wrong += 1;
                        }
                    }
                    (Reply::Done(Ok(())), Kind::Update) => {}
                    (Reply::Done(Err(_)), Kind::Update) => outcomes.failed += 1,
                    _ => outcomes.wrong += 1,
                }
                let due = t0 + r.arrival_ns;
                served.push((
                    i,
                    Served {
                        acked: true,
                        latency: r.ack_ns - due,
                        wait: start.saturating_sub(due),
                        exec: r.ack_ns - start,
                    },
                ));
            }
            replies.retire(pool);
        };
        traced(&mut tracer, "service.commit_batch", first, || {
            svc.commit_batch(ctx, shard, batch, &mut out.stats, &mut deliver)
        });
    }
    out.end_clock = ctx.now();
    out.tracer = tracer;
    out
}

/// Enqueue a phase's requests, run both shard executors to completion
/// under the scheduler, and account for the phase.
fn run_phase(
    svc: &Service,
    dev: &Arc<PmDevice>,
    reqs: &[Req],
    sched_seed: u64,
    tracer: &mut Option<Tracer>,
) -> Result<PhaseOut, String> {
    traced(tracer, "service.enqueue", NO_REQ, || {
        for (i, r) in reqs.iter().enumerate() {
            let op = match r.op.kind {
                Kind::Get => SweepOp::Get(r.op.key),
                Kind::Update => {
                    SweepOp::Update(r.op.key, value(r.op.key, r.op.ver)[..VALUE_LEN].to_vec())
                }
                Kind::Insert => unreachable!("service mixes are get/update"),
            };
            let mut req = ClientReq::new(r.session, r.arrival_ns, op);
            req.stamp = i as u64;
            svc.enqueue(req);
        }
    });
    let clock = PhaseClock::begin(dev);
    let run_span = tracer.as_mut().map(|t| t.enter("sched.run_batch", NO_REQ));
    let bodies: Vec<Box<dyn FnOnce() -> ShardOut + Send + '_>> = (0..SHARDS)
        .map(|shard| {
            let mut ctx = dev.ctx();
            ctx.reset_clock();
            let task_tracer = match (&*tracer, run_span) {
                (Some(t), Some(p)) => Some(Tracer::child_task(t.origin(), 1 + shard as u16, p)),
                _ => None,
            };
            let b: Box<dyn FnOnce() -> ShardOut + Send + '_> =
                Box::new(move || shard_loop(svc, &mut ctx, shard, reqs, task_tracer));
            b
        })
        .collect();
    let cfg = SchedConfig {
        max_steps: 500_000_000,
        ..SchedConfig::random(sched_seed, PREEMPTIONS)
    };
    let outcome = run_batch(&cfg, None, bodies);
    if let Some(t) = tracer.as_mut() {
        t.exit();
    }
    let trace = &outcome.sched.trace;
    let decisions = trace.len() as u64;
    let switches = trace.windows(2).filter(|w| w[0] != w[1]).count() as u64;
    let shards = outcome.into_complete()?;

    let mut served = vec![Served::default(); reqs.len()];
    let mut outcomes = Outcomes {
        attempted: reqs.len() as u64,
        ..Outcomes::default()
    };
    let (mut full, mut fences, mut acked, mut max_clock) = (0, 0, 0, 0);
    let (mut shard_batches, mut shard_acked) = ([0; SHARDS], [0; SHARDS]);
    for (shard, s) in shards.into_iter().enumerate() {
        shard_batches[shard] = s.stats.batches;
        shard_acked[shard] = s.stats.ops;
        for (i, r) in s.served {
            served[i] = r;
        }
        outcomes.add(&s.outcomes);
        outcomes.misrouted += s.stats.misroutes;
        fences += s.stats.fences;
        acked += s.stats.ops;
        full += s.full_batches;
        max_clock = max_clock.max(s.end_clock);
        if let (Some(t), Some(task)) = (tracer.as_mut(), s.tracer) {
            t.absorb(task);
        }
    }
    outcomes.unacked += served.iter().filter(|s| !s.acked).count() as u64;
    let phase = clock.end(dev, acked, max_clock);
    Ok(PhaseOut {
        phase,
        shard_batches,
        shard_acked,
        served,
        outcomes,
        full_batches: full,
        fences,
        decisions,
        switches,
    })
}

fn sorted(v: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = v.collect();
    v.sort_unstable();
    v
}

pub fn service_open(seed: u64, traced_rep: bool, origin: Instant) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let mut tracer = traced_rep.then(|| Tracer::new(origin, 0));

    // ---- setup ----------------------------------------------------------
    rep.sample_reference();
    let setup_start = Instant::now();
    let dev = device(PersistenceDomain::Eadr);
    let mut ctx = dev.ctx();
    let cfg = spash::SpashConfig::default();
    let spash = Arc::new(
        Spash::format(&mut ctx, cfg.fresh_volatile()).map_err(|e| format!("format Spash: {e}"))?,
    );
    let gen_start = Instant::now();
    let (keys, phases, final_vers) = traced(&mut tracer, "workloads.generate", NO_REQ, || {
        let keys = load_keys(&dataset());
        let mut vers = vec![0u32; KEYS as usize + 1];
        let phases = gen_phases(seed, &mut vers);
        (keys, phases, vers)
    });
    rep.gen_ns = gen_start.elapsed().as_nanos() as u64;
    rep.gen_ops = keys.len() as u64 + phases.iter().map(|p| p.len() as u64).sum::<u64>();
    preload(&dev, &mut ctx, &*spash, &keys, VALUE_LEN)?;
    drop(ctx);
    let index: Arc<dyn PersistentIndex> = spash.clone();
    let journal = JournalSpec::at_top(ARENA_BYTES, SHARDS, JOURNAL_SLOTS);
    let svc = Service::new(
        index,
        ServiceConfig {
            shards: SHARDS,
            batch_max: BATCH_MAX,
            journal,
            pool_slots: SHARDS + 1,
            pool_participants: 0,
        },
    );
    rep.setup_ns = setup_start.elapsed().as_nanos() as u64;

    // ---- measured phases -------------------------------------------------
    let htm0 = spash.htm_stats();
    let (f0, a0, w0) = (
        spash.fallback_count(),
        spash.dir_assist_count(),
        spash.dir_await_count(),
    );
    let mut total = Phase::default();
    let mut out = Outcomes::default();
    let (mut decisions, mut switches) = (0, 0);
    let mut rate_points = Vec::new();
    let mut lo_hi = Vec::new();
    let phase_t0 = tracer.as_ref().map_or(0, |t| t.now());
    let mut sat_mops = 0.0;
    let (mut shard_batches, mut shard_acked) = ([0u64; SHARDS], [0u64; SHARDS]);
    for (i, reqs) in phases.iter().enumerate() {
        traced(&mut tracer, "bench.reference", NO_REQ, || {
            rep.sample_reference()
        });
        let window = Instant::now();
        let p = run_phase(
            &svc,
            &dev,
            reqs,
            hash_key(seed ^ 0x5e41ce ^ i as u64),
            &mut tracer,
        )?;
        rep.windows_ns.push(window.elapsed().as_nanos() as u64);
        for s in 0..SHARDS {
            shard_batches[s] += p.shard_batches[s];
            shard_acked[s] += p.shard_acked[s];
        }
        out.add(&p.outcomes);
        decisions += p.decisions;
        switches += p.switches;
        total.add(&p.phase);
        if i < GRID.len() {
            let lat = sorted(p.served.iter().map(|s| s.latency));
            let waits: Vec<u64> = p.served.iter().map(|s| s.wait).collect();
            rate_points.push(RatePoint {
                rate_mops: GRID[i],
                p999_ns: metrics::percentile(&lat, 0.999).ok().map(|x| x.value),
                backlog: metrics::backlog_grows(&waits, BACKLOG_FLOOR_NS),
            });
            if i == LO || i == HI {
                lo_hi.push(p);
            }
        } else {
            sat_mops = p.phase.mops();
        }
    }
    traced(&mut tracer, "bench.reference", NO_REQ, || {
        rep.sample_reference()
    });
    rep.phase_host_ns = rep.windows_ns.iter().sum();
    let phase_t1 = tracer.as_ref().map_or(0, |t| t.now());
    rep.phase_ops = total.ops;

    // ---- end-to-end metrics ----------------------------------------------
    rep.exact.insert("virt_mops".into(), sat_mops);
    let (lo, hi) = (&lo_hi[0], &lo_hi[1]);
    let ack = |p: &PhaseOut| sorted(p.served.iter().map(|s| s.latency));
    for (rate, p) in [("lo", lo), ("hi", hi)] {
        let names = [
            (format!("service.ack_p50_ns.{rate}"), 0.5),
            (format!("service.ack_p999_ns.{rate}"), 0.999),
        ];
        put_pcts(&mut rep, &names, &ack(p), true)?;
    }
    // A service user sees ack latency, not call latency. The end-to-end
    // pair is taken at the fixed low rate; the `hi` pair shows the
    // loaded point.
    rep.exact
        .insert("virt_p50_ns".into(), rep.exact["service.ack_p50_ns.lo"]);
    rep.exact
        .insert("virt_p999_ns".into(), rep.exact["service.ack_p999_ns.lo"]);
    let max_rate = metrics::max_rate(&rate_points, LIMIT_NS);
    rep.notes.push(format!(
        "service.max_rate_mops = {max_rate:.4} ({} of {} grid rates pass)",
        rate_points.iter().filter(|p| p.meets(LIMIT_NS)).count(),
        GRID.len()
    ));
    rep.exact.insert("service.max_rate_mops".into(), max_rate);
    let frontier = spash.allocator().frontier_chunks();
    rep.exact
        .insert("alloc.frontier_chunks".into(), frontier as f64);
    rep.exact.insert(
        "pm_bytes_per_kv".into(),
        (frontier * CHUNK) as f64 / (spash.len() * (8 + VALUE_LEN as u64)) as f64,
    );

    // ---- per-layer metrics -------------------------------------------------
    device_layers(&mut rep.exact, &total);
    htm_layers(&mut rep.exact, htm0, spash.htm_stats(), total.ops);
    rep.exact.insert(
        "core.fallbacks".into(),
        (spash.fallback_count() - f0) as f64,
    );
    rep.exact.insert(
        "core.dir_assists".into(),
        (spash.dir_assist_count() - a0) as f64,
    );
    rep.exact.insert(
        "core.dir_awaits".into(),
        (spash.dir_await_count() - w0) as f64,
    );
    rep.exact
        .insert("core.load_factor".into(), spash.load_factor());
    let gets = phases
        .iter()
        .flatten()
        .filter(|r| r.op.kind == Kind::Get)
        .count();
    rep.exact.insert("index.get.calls".into(), gets as f64);
    rep.exact.insert(
        "index.update.calls".into(),
        (total.ops as usize - gets) as f64,
    );
    rep.exact.insert("index.insert.calls".into(), 0.0);
    // The service calls the index inside `commit_batch`; per-call index
    // latency is not separable from outside it.
    for k in ["get", "update", "insert"] {
        for p in ["p50", "p999"] {
            rep.exact.insert(format!("index.{k}.virt_ns_{p}"), 0.0);
        }
    }
    let hi_batches: u64 = hi.shard_batches.iter().sum();
    rep.exact
        .insert("service.batches".into(), hi_batches as f64);
    rep.exact.insert(
        "service.batch_size_mean".into(),
        hi.phase.ops as f64 / hi_batches.max(1) as f64,
    );
    rep.exact.insert(
        "service.batch_full_frac".into(),
        hi.full_batches as f64 / hi_batches.max(1) as f64,
    );
    rep.exact.insert(
        "service.fences_per_batch".into(),
        hi.fences as f64 / hi_batches.max(1) as f64,
    );
    rep.exact
        .insert("service.misroutes".into(), out.misrouted as f64);
    for (stage, of) in [
        ("queue_wait", (|s| s.wait) as fn(&Served) -> u64),
        ("exec", |s: &Served| s.exec),
    ] {
        let names = [
            (format!("service.{stage}_ns_p50"), 0.5),
            (format!("service.{stage}_ns_p999"), 0.999),
        ];
        put_pcts(&mut rep, &names, &sorted(hi.served.iter().map(of)), true)?;
    }
    rep.exact.insert(
        "sched.decisions_per_req".into(),
        decisions as f64 / total.ops as f64,
    );
    rep.exact.insert(
        "sched.switches_per_req".into(),
        switches as f64 / total.ops as f64,
    );
    if let Some(t) = tracer.as_mut() {
        rep.spans = std::mem::take(&mut t.spans);
    }
    if traced_rep {
        crate::span_layers(
            &mut rep,
            (phase_t0, phase_t1),
            &["service.enqueue", "sched.run_batch", "bench.reference"],
        );
    }

    // ---- conservation, power failure, journal audit, recovery -------------
    let enqueued: u64 = phases.iter().map(|p| p.len() as u64).sum();
    let acked: u64 = (0..SHARDS).map(|s| svc.acked(s)).sum();
    if acked != enqueued {
        rep.notes
            .push(format!("acked {acked} of {enqueued} enqueued requests"));
        out.unacked += enqueued.saturating_sub(acked);
    }
    drop(svc);
    drop(spash);
    dev.simulate_power_failure();
    let mut ctx = dev.ctx();
    ctx.reset_clock();
    // Acked ⇒ durable: every acked batch's journal record survived the
    // power failure, and the records account for every acked request.
    let mut lost = 0;
    for shard in 0..SHARDS {
        let first = shard_batches[shard].saturating_sub(JOURNAL_SLOTS);
        let mut counted = 0;
        for seq in first..shard_batches[shard] {
            match journal.read_record(&mut ctx, shard, seq) {
                Some((count, _)) => counted += count,
                None => lost += 1,
            }
        }
        if first == 0 && counted != shard_acked[shard] {
            rep.notes.push(format!(
                "shard {shard}: journal records cover {counted} of {} acked requests",
                shard_acked[shard]
            ));
            out.wrong += 1;
        }
    }
    if lost > 0 {
        rep.notes.push(format!(
            "{lost} acked batch records lost to the power failure"
        ));
    }
    out.failed += lost;
    drop(ctx);
    let target = Spash::crash_target(cfg);
    let clock = PhaseClock::begin(&dev);
    let mut ctx = dev.ctx();
    ctx.reset_clock();
    let host = Instant::now();
    let recovered = traced(&mut tracer, "recover", NO_REQ, || {
        (target.recover)(&mut ctx)
    });
    rep.recover_host_ms = host.elapsed().as_secs_f64() * 1e3;
    let rp = clock.end(&dev, 1, ctx.now());
    rep.exact
        .insert("recover_ms".into(), rp.elapsed_ns as f64 / 1e6);
    rep.exact.insert(
        "core.recover.media_read_bytes".into(),
        rp.delta.media_read_bytes as f64,
    );
    out.attempted += 1;
    match recovered {
        None => out.failed += 1,
        Some(rec) => {
            if let Some(e) = &rec.audit_error {
                out.failed += 1;
                rep.notes.push(format!("post-recovery audit: {e}"));
            }
            let mut buf = Vec::new();
            for &k in keys.iter().step_by(50) {
                buf.clear();
                let want = value(k, final_vers[k as usize]);
                if !rec.index.get(&mut ctx, k, &mut buf) || buf[..] != want[..VALUE_LEN] {
                    out.wrong += 1;
                }
                out.attempted += 1;
            }
        }
    }
    rep.outcomes = out;
    Ok(rep)
}
