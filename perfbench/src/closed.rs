//! The three closed-loop workloads: one client on one `MemCtx` calls the
//! index through `PersistentIndex` and issues its next op when the last
//! one returns.
//!
//! * `read-zipf` — Spash, 400k keys with 6 B inline values, then 90/10
//!   search/update on zipf 0.99: the hot set fits the 512 KiB modelled
//!   cache and the DRAM overlay, so probes, fingerprints and HTM reads
//!   bound it.
//! * `insert-grow` — Spash from a freshly formatted depth-6 table, 250k
//!   uniform inserts with 16 B out-of-place values: split, directory
//!   doubling, allocation, compacted-chunk flushes and media writes bound
//!   it, and recovery has a grown table to rebuild.
//! * `dash-adr` — Dash under ADR, 400k keys with 16 B values, 50/50
//!   search/update, uniform: the `baselines` layer, and a flush+fence per
//!   write in `pmem`.
//!
//! Every repetition ends with a power failure and `CrashTarget::recover`
//! (recovery plus the index's own audit), then reads back a sample of
//! keys from the recovered index.

use std::sync::Arc;
use std::time::Instant;

use spash::{Spash, SpashConfig};
use spash_alloc::{PmAllocator, CHUNK};
use spash_baselines::Dash;
use spash_index_api::crashpoint::CrashTarget;
use spash_index_api::{hash_key, PersistentIndex, Rng64};
use spash_pmem::{CrashFidelity, MemCtx, PersistenceDomain, PmAddr, PmConfig, PmDevice};
use spash_workloads::{load_keys, Distribution, Mix, OpStream, ValueSize, WorkOp, WorkloadConfig};

use crate::metrics::Outcomes;
use crate::trace::{traced, Tracer, NO_REQ};
use crate::{device_layers, htm_layers, put_pcts, PhaseClock, Rep, PER_LAYER, WINDOWS};

/// Simulated PM per device (the `spash-bench` suites' size).
pub const ARENA_BYTES: u64 = 256 << 20;
/// The modelled CPU cache: small, so media traffic stays on the path.
const CACHE_BYTES: u64 = 512 << 10;
/// Keys read back from the recovered index.
const READ_BACK: usize = 2_000;

/// A fresh device. Its arena is allocated lazily by the host; one store
/// of the zero it already holds per page makes it resident now, so page
/// faults stay out of the measured phase and `dram_mb` can subtract the
/// whole arena.
pub fn device(domain: PersistenceDomain) -> Arc<PmDevice> {
    let dev = PmDevice::new(PmConfig {
        arena_size: ARENA_BYTES,
        cache_capacity: CACHE_BYTES,
        domain,
        // An ADR power failure must revert unflushed lines, which needs
        // their pre-images; under eADR nothing is reverted.
        fidelity: match domain {
            PersistenceDomain::Adr => CrashFidelity::Full,
            PersistenceDomain::Eadr => CrashFidelity::Fast,
        },
        ..PmConfig::default()
    });
    let arena = dev.arena();
    for page in (0..arena.size()).step_by(4096) {
        arena.store_u64(PmAddr(page), 0);
    }
    dev
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get,
    Update,
    Insert,
}

impl Kind {
    pub fn span(self) -> &'static str {
        match self {
            Kind::Get => "index.get",
            Kind::Update => "index.update",
            Kind::Insert => "index.insert",
        }
    }
}

/// One generated op. For a write `ver` is the version it writes; for a
/// get, the version the key must hold when it runs.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub kind: Kind,
    pub key: u64,
    pub ver: u32,
}

/// Value bytes of `key` at version `ver` (the first `len` are used).
pub fn value(key: u64, ver: u32) -> [u8; 16] {
    let mut v = [0u8; 16];
    v[..8].copy_from_slice(&(key ^ (u64::from(ver) << 40)).to_le_bytes());
    v[8..].copy_from_slice(&hash_key(key ^ u64::from(ver)).to_le_bytes());
    v
}

/// Turn a workload stream into versioned ops, tracking each key's latest
/// version (`vers`, indexed by key) so every get knows its answer.
pub fn versioned(stream: &mut OpStream, n: usize, vers: &mut [u32]) -> Vec<Op> {
    let mut next = vers.iter().copied().max().unwrap_or(0);
    (0..n)
        .map(|_| match stream.next_op() {
            WorkOp::Search(key) => Op {
                kind: Kind::Get,
                key,
                ver: vers[key as usize],
            },
            WorkOp::Update(key, _) => {
                next += 1;
                vers[key as usize] = next;
                Op {
                    kind: Kind::Update,
                    key,
                    ver: next,
                }
            }
            op => unreachable!("closed-loop mixes are search/update only: {op:?}"),
        })
        .collect()
}

struct Spec {
    /// Spash, or else Dash.
    spash: bool,
    keys: u64,
    /// Preload the keys; otherwise inserting them is the measured phase.
    preload: bool,
    ops: usize,
    dist: Distribution,
    mix: Mix,
    value_len: usize,
    domain: PersistenceDomain,
}

/// The index under test, built so its layer counters stay reachable.
enum Built {
    Spash(Box<Spash>),
    Dash(Dash, Arc<PmAllocator>),
}

impl Built {
    fn index(&self) -> &dyn PersistentIndex {
        match self {
            Built::Spash(s) => &**s,
            Built::Dash(d, _) => d,
        }
    }

    fn frontier_chunks(&self) -> u64 {
        match self {
            Built::Spash(s) => s.allocator().frontier_chunks(),
            Built::Dash(_, a) => a.frontier_chunks(),
        }
    }
}

const DASH_DEPTH: u32 = 1;

pub fn read_zipf(seed: u64, traced: bool, origin: Instant) -> Result<Rep, String> {
    run(
        &Spec {
            spash: true,
            keys: 200_000,
            preload: true,
            ops: 600_000,
            dist: Distribution::Zipfian,
            mix: Mix::READ_INTENSIVE,
            value_len: 6,
            domain: PersistenceDomain::Eadr,
        },
        seed,
        traced,
        origin,
    )
}

pub fn insert_grow(seed: u64, traced: bool, origin: Instant) -> Result<Rep, String> {
    run(
        &Spec {
            spash: true,
            keys: 250_000,
            preload: false,
            ops: 0,
            dist: Distribution::Uniform,
            mix: Mix::BALANCED,
            value_len: 16,
            domain: PersistenceDomain::Eadr,
        },
        seed,
        traced,
        origin,
    )
}

pub fn dash_adr(seed: u64, traced: bool, origin: Instant) -> Result<Rep, String> {
    run(
        &Spec {
            spash: false,
            keys: 200_000,
            preload: true,
            ops: 400_000,
            dist: Distribution::Uniform,
            mix: Mix::BALANCED,
            value_len: 16,
            domain: PersistenceDomain::Adr,
        },
        seed,
        traced,
        origin,
    )
}

fn run(spec: &Spec, seed: u64, trace_on: bool, origin: Instant) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let mut tracer = trace_on.then(|| Tracer::new(origin, 0));
    let len = spec.value_len;

    // ---- setup: device, format, inputs, preload ------------------------
    rep.sample_reference();
    let setup_start = Instant::now();
    let dev = device(spec.domain);
    let mut ctx = dev.ctx();
    let built = if spec.spash {
        Built::Spash(Box::new(
            Spash::format(&mut ctx, SpashConfig::default().fresh_volatile())
                .map_err(|e| format!("format Spash: {e}"))?,
        ))
    } else {
        let alloc = Arc::new(PmAllocator::format(&mut ctx, 64));
        let d = Dash::new(&mut ctx, Arc::clone(&alloc), DASH_DEPTH)
            .map_err(|e| format!("format Dash: {e}"))?;
        Built::Dash(d, alloc)
    };
    let index = built.index();

    let gen_start = Instant::now();
    let (load, ops, final_vers) = traced_gen(&mut tracer, spec, seed);
    rep.gen_ns = gen_start.elapsed().as_nanos() as u64;
    rep.gen_ops = load.len() as u64 + ops.len() as u64;

    let mut buf = Vec::with_capacity(32);
    if spec.preload {
        preload(&dev, &mut ctx, index, &load, len)?;
    }
    drop(ctx);
    rep.setup_ns = setup_start.elapsed().as_nanos() as u64;

    // ---- measured phase -------------------------------------------------
    // insert-grow's measured ops are its inserts.
    let ops: Vec<Op> = if spec.preload {
        ops
    } else {
        load.iter()
            .map(|&key| Op {
                kind: Kind::Insert,
                key,
                ver: 0,
            })
            .collect()
    };
    let htm_before = match &built {
        Built::Spash(s) => Some((
            s.htm_stats(),
            s.fallback_count(),
            s.dir_assist_count(),
            s.dir_await_count(),
        )),
        Built::Dash(..) => None,
    };
    let clock = PhaseClock::begin(&dev);
    let mut ctx = dev.ctx();
    ctx.reset_clock();
    let mut lat = vec![0u64; ops.len()];
    let mut out = Outcomes::default();
    traced(&mut tracer, "bench.reference", NO_REQ, || {
        rep.sample_reference()
    });
    let mut window_start = Instant::now();
    let window_len = ops.len().div_ceil(WINDOWS);
    let phase_t0 = tracer.as_ref().map_or(0, |t| t.now());
    for (i, op) in ops.iter().enumerate() {
        if i > 0 && i % window_len == 0 {
            let now = Instant::now();
            rep.windows_ns.push((now - window_start).as_nanos() as u64);
            traced(&mut tracer, "bench.reference", NO_REQ, || {
                rep.sample_reference()
            });
            window_start = Instant::now();
        }
        let t0 = ctx.now();
        let v = value(op.key, op.ver);
        let ok = match op.kind {
            Kind::Get => {
                buf.clear();
                let hit = traced(&mut tracer, "index.get", i as u64, || {
                    index.get(&mut ctx, op.key, &mut buf)
                });
                Ok(hit && buf[..] == v[..len])
            }
            Kind::Update => traced(&mut tracer, "index.update", i as u64, || {
                index.update(&mut ctx, op.key, &v[..len])
            })
            .map(|()| true),
            Kind::Insert => traced(&mut tracer, "index.insert", i as u64, || {
                index.insert(&mut ctx, op.key, &v[..len])
            })
            .map(|()| true),
        };
        lat[i] = ctx.now() - t0;
        match ok {
            Ok(true) => {}
            Ok(false) => out.wrong += 1,
            Err(_) => out.failed += 1,
        }
    }
    rep.windows_ns
        .push(window_start.elapsed().as_nanos() as u64);
    traced(&mut tracer, "bench.reference", NO_REQ, || {
        rep.sample_reference()
    });
    rep.phase_host_ns = rep.windows_ns.iter().sum();
    let phase_t1 = tracer.as_ref().map_or(0, |t| t.now());
    out.attempted += ops.len() as u64;
    rep.phase_ops = ops.len() as u64;
    let end_clock = ctx.now();
    drop(ctx);
    let phase = clock.end(&dev, ops.len() as u64, end_clock);

    // ---- metrics of the measured phase ----------------------------------
    rep.exact.insert("virt_mops".into(), phase.mops());
    let mut sorted = lat.clone();
    sorted.sort_unstable();
    let names = [
        ("virt_p50_ns".to_string(), 0.5),
        ("virt_p999_ns".to_string(), 0.999),
    ];
    put_pcts(&mut rep, &names, &sorted, true)?;
    for kind in [Kind::Get, Kind::Update, Kind::Insert] {
        let mut v: Vec<u64> = ops
            .iter()
            .zip(&lat)
            .filter(|(o, _)| o.kind == kind)
            .map(|(_, &l)| l)
            .collect();
        v.sort_unstable();
        let name = kind.span();
        rep.exact.insert(format!("{name}.calls"), v.len() as f64);
        let names = [
            (format!("{name}.virt_ns_p50"), 0.5),
            (format!("{name}.virt_ns_p999"), 0.999),
        ];
        put_pcts(&mut rep, &names, &v, false)?;
    }

    device_layers(&mut rep.exact, &phase);
    let frontier = built.frontier_chunks();
    rep.exact
        .insert("alloc.frontier_chunks".into(), frontier as f64);
    let live = index.entries();
    rep.exact.insert(
        "pm_bytes_per_kv".into(),
        (frontier * CHUNK) as f64 / (live * (8 + len as u64)) as f64,
    );
    rep.exact
        .insert("core.load_factor".into(), index.load_factor());
    match (&built, htm_before) {
        (Built::Spash(s), Some((h, f, a, w))) => {
            htm_layers(&mut rep.exact, h, s.htm_stats(), phase.ops);
            rep.exact
                .insert("core.fallbacks".into(), (s.fallback_count() - f) as f64);
            rep.exact
                .insert("core.dir_assists".into(), (s.dir_assist_count() - a) as f64);
            rep.exact
                .insert("core.dir_awaits".into(), (s.dir_await_count() - w) as f64);
        }
        _ => {
            htm_layers(
                &mut rep.exact,
                Default::default(),
                Default::default(),
                phase.ops,
            );
            for k in ["core.fallbacks", "core.dir_assists", "core.dir_awaits"] {
                rep.exact.insert(k.into(), 0.0);
            }
        }
    }
    // A closed loop does not exercise the service or the scheduler; their
    // host-time metrics come from the (absent) spans below.
    for (name, _) in PER_LAYER.iter().filter(|(n, _)| {
        (n.starts_with("service.") || n.starts_with("sched.")) && !n.contains("host_ns")
    }) {
        rep.exact.insert(name.to_string(), 0.0);
    }
    if let Some(t) = tracer.as_mut() {
        rep.spans = std::mem::take(&mut t.spans);
    }
    if trace_on {
        crate::span_layers(
            &mut rep,
            (phase_t0, phase_t1),
            &[
                "index.get",
                "index.update",
                "index.insert",
                "bench.reference",
            ],
        );
    }
    let expected_entries = load.len() as u64;
    if live != expected_entries {
        out.wrong += 1;
        rep.notes
            .push(format!("entries() = {live}, expected {expected_entries}"));
    }
    drop(built);

    // ---- power failure, recovery, read-back ------------------------------
    dev.simulate_power_failure();
    let target: CrashTarget = if spec.spash {
        Spash::crash_target(SpashConfig::default())
    } else {
        Dash::crash_target(DASH_DEPTH)
    };
    let clock = PhaseClock::begin(&dev);
    let mut ctx = dev.ctx();
    ctx.reset_clock();
    let mut tracer_rec = trace_on.then(|| Tracer::new(origin, 0));
    let host = Instant::now();
    let recovered = traced(&mut tracer_rec, "recover", NO_REQ, || {
        (target.recover)(&mut ctx)
    });
    rep.recover_host_ms = host.elapsed().as_secs_f64() * 1e3;
    let end = ctx.now();
    let rp = clock.end(&dev, 1, end);
    rep.exact
        .insert("recover_ms".into(), rp.elapsed_ns as f64 / 1e6);
    rep.exact.insert(
        "core.recover.media_read_bytes".into(),
        rp.delta.media_read_bytes as f64,
    );
    if let Some(t) = tracer_rec {
        rep.spans.extend(t.spans);
    }
    out.attempted += 1;
    let Some(rec) = recovered else {
        out.failed += 1;
        rep.outcomes = out;
        rep.notes.push("recovery found no index".into());
        return Ok(rep);
    };
    if let Some(e) = &rec.audit_error {
        out.failed += 1;
        rep.notes.push(format!("post-recovery audit: {e}"));
    }
    rep.notes.push(format!(
        "recovered {} entries, {} leaked allocations",
        rec.index.entries(),
        rec.leaked_allocs
    ));
    let mut rng = Rng64::new(seed ^ 0x7265_6164_6261_636b);
    for _ in 0..READ_BACK {
        let key = load[rng.below(load.len() as u64) as usize];
        buf.clear();
        let want = value(key, final_vers[key as usize]);
        if !rec.index.get(&mut ctx, key, &mut buf) || buf[..] != want[..len] {
            out.wrong += 1;
        }
    }
    out.attempted += READ_BACK as u64;
    rep.outcomes = out;
    Ok(rep)
}

/// Insert every key at version 0 as a phase of its own, so the virtual
/// time it leaves in lock and transaction metadata is behind the floor
/// the measured phase starts from.
pub fn preload(
    dev: &Arc<PmDevice>,
    ctx: &mut MemCtx,
    index: &dyn PersistentIndex,
    keys: &[u64],
    len: usize,
) -> Result<(), String> {
    let clock = PhaseClock::begin(dev);
    ctx.reset_clock();
    for &k in keys {
        index
            .insert(ctx, k, &value(k, 0)[..len])
            .map_err(|e| format!("preload insert {k}: {e}"))?;
    }
    clock.end(dev, keys.len() as u64, ctx.now());
    Ok(())
}

/// Generate the preload keys, the run ops and every key's final version.
fn traced_gen(
    tracer: &mut Option<Tracer>,
    spec: &Spec,
    seed: u64,
) -> (Vec<u64>, Vec<Op>, Vec<u32>) {
    traced(tracer, "workloads.generate", NO_REQ, || {
        let wl = WorkloadConfig {
            seed,
            ..WorkloadConfig::new(spec.keys, spec.dist, spec.mix, ValueSize::Inline)
        };
        let load = load_keys(&wl);
        let mut vers = vec![0u32; spec.keys as usize + 1];
        let mut stream = OpStream::new(&wl, 0);
        let ops = versioned(&mut stream, spec.ops, &mut vers);
        (load, ops, vers)
    })
}
