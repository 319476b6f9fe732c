//! `spash-perfbench`: the repository benchmark. One run measures one
//! workload for a fixed host-time budget and prints its metrics; the last
//! line of standard output is a single JSON object:
//!
//! ```text
//! spash-perfbench --workload <read-zipf|insert-grow|service-open|dash-adr>
//!                 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run repeats one *repetition* (fresh device, inputs generated from the
//! seed, preload, measured phase, power failure, recovery, checks) until
//! the budget is spent. Virtual-time metrics must agree exactly between
//! repetitions (a disagreement is a failed run); host-time metrics are
//! medians over repetitions. `--trace 1` alternates untraced and traced
//! repetitions and reports the per-layer metrics instead of the
//! end-to-end ones. See README.md for the metric definitions.

mod closed;
mod metrics;
mod service;
mod trace;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spash_htm::HtmStats;
use spash_pmem::{PmDevice, SpanSnapshot, StatsDelta, SPAN_COMPACTION, SPAN_PROBE, SPAN_SPLIT};

use metrics::{median_f64, Outcomes};
use trace::Span;

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;
/// Repetitions a run makes even when the budget is spent sooner.
const MIN_REPS: usize = 3;
/// The open-loop latency limit behind `service.max_rate_mops`.
pub const LIMIT_NS: f64 = 50_000.0;
/// The measured phase's host time is taken in this many windows.
pub const WINDOWS: usize = 10;
/// Queue waits below this never count as a growing backlog.
pub const BACKLOG_FLOOR_NS: u64 = 1_000;

const WORKLOADS: [&str; 4] = ["read-zipf", "insert-grow", "service-open", "dash-adr"];

/// Metric values keyed by name, in a stable order.
pub type Metrics = BTreeMap<String, f64>;

/// What one repetition measured.
#[derive(Default)]
pub struct Rep {
    /// Host time to build the device, format, generate inputs, preload.
    pub setup_ns: u64,
    /// Host time spent generating inputs, and the ops generated.
    pub gen_ns: u64,
    pub gen_ops: u64,
    /// Host time and op count of the measured phase.
    pub phase_host_ns: u64,
    /// The measured phase's host time in fixed windows (by op index for
    /// a closed loop, one per phase for the service).
    pub windows_ns: Vec<u64>,
    /// Host ns of [`reference_ns`], sampled through the repetition.
    pub ref_ns: Vec<u64>,
    pub phase_ops: u64,
    /// Host ms of the recovery call.
    pub recover_host_ms: f64,
    pub outcomes: Outcomes,
    /// Metrics that are a function of the seed alone: every virtual-time
    /// figure and count, end-to-end and per-layer alike.
    pub exact: Metrics,
    /// Whether spans were recorded, and the per-layer host-time metrics
    /// taken from them.
    pub traced: bool,
    pub host_layers: Metrics,
    /// Human-readable lines (percentiles with their sample counts).
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Rep {
    /// The factor that turns host times of this repetition into host
    /// times at the reference speed (see [`REFERENCE_NS`]), from the
    /// median of its reference samples.
    pub fn scale(&self) -> f64 {
        let v: Vec<f64> = self.ref_ns.iter().map(|&x| x as f64).collect();
        REFERENCE_NS / median_f64(&v)
    }

    /// The same from the two samples that bracket an interval: setup is
    /// interval 0, measured-phase window `w` is interval `w + 1`.
    fn bracket_scale(&self, interval: usize) -> f64 {
        let (a, b) = (self.ref_ns[interval], self.ref_ns[interval + 1]);
        2.0 * REFERENCE_NS / (a + b) as f64
    }

    pub fn setup_s(&self) -> f64 {
        self.setup_ns as f64 * self.bracket_scale(0) / 1e9
    }

    /// Time [`reference_ns`] once more. A repetition samples it before
    /// setup, before the measured phase and after each window.
    pub fn sample_reference(&mut self) {
        self.ref_ns.push(reference_ns());
    }
}

/// Counter deltas and virtual time of one measured phase.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    pub ops: u64,
    /// `max(task clocks, bandwidth floor)` since the phase start.
    pub elapsed_ns: u64,
    pub delta: StatsDelta,
    /// Span-ledger deltas in `SPAN_NAMES` order.
    pub spans: Vec<(&'static str, SpanSnapshot)>,
    pub bw_floor_ns: u64,
}

impl Phase {
    /// Accumulate another phase of the same run.
    pub fn add(&mut self, o: &Phase) {
        self.ops += o.ops;
        self.elapsed_ns += o.elapsed_ns;
        self.bw_floor_ns += o.bw_floor_ns;
        add_stats(&mut self.delta, &o.delta);
        if self.spans.is_empty() {
            self.spans = o.spans.clone();
        } else {
            for ((_, s), (_, t)) in self.spans.iter_mut().zip(&o.spans) {
                s.entries += t.entries;
                s.vtime_ns += t.vtime_ns;
                add_stats(&mut s.stats, &t.stats);
            }
        }
    }

    pub fn mops(&self) -> f64 {
        self.ops as f64 * 1e3 / self.elapsed_ns.max(1) as f64
    }

    fn span(&self, name: &str) -> SpanSnapshot {
        self.spans
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }
}

/// A phase's device-side accounting, as in `spash-bench`: quiesce, take
/// counter and span snapshots, and start every context at the device's
/// virtual-time floor.
pub struct PhaseClock {
    before: StatsDelta,
    spans_before: Vec<(&'static str, SpanSnapshot)>,
    start_ns: u64,
}

impl PhaseClock {
    pub fn begin(dev: &Arc<PmDevice>) -> Self {
        dev.quiesce();
        Self {
            before: dev.snapshot(),
            spans_before: dev.span_totals(),
            start_ns: dev.vtime_floor(),
        }
    }

    /// Close the phase given the latest task clock; raises the device
    /// floor so the next phase starts after this one.
    pub fn end(self, dev: &Arc<PmDevice>, ops: u64, max_clock: u64) -> Phase {
        dev.quiesce();
        let delta = dev.snapshot().since(&self.before);
        let spans = dev
            .span_totals()
            .iter()
            .zip(&self.spans_before)
            .map(|((n, a), (_, b))| (*n, a.since(b)))
            .collect();
        let max_clock = max_clock.max(dev.sim_horizon());
        dev.raise_vtime_floor(max_clock);
        let bw_floor_ns = delta.bandwidth_floor_ns(&dev.config().cost);
        Phase {
            ops,
            elapsed_ns: max_clock.saturating_sub(self.start_ns).max(bw_floor_ns),
            delta,
            spans,
            bw_floor_ns,
        }
    }
}

fn add_stats(a: &mut StatsDelta, b: &StatsDelta) {
    a.cl_reads += b.cl_reads;
    a.cl_writes += b.cl_writes;
    a.xp_reads += b.xp_reads;
    a.xp_writes += b.xp_writes;
    a.read_hits += b.read_hits;
    a.write_hits += b.write_hits;
    a.dirty_evictions += b.dirty_evictions;
    a.flushes += b.flushes;
    a.ntstores += b.ntstores;
    a.dram_accesses += b.dram_accesses;
    a.media_read_bytes += b.media_read_bytes;
    a.media_write_bytes += b.media_write_bytes;
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// `pmem.*` and the span-ledger part of `core.*`, from a phase's deltas.
pub fn device_layers(m: &mut Metrics, p: &Phase) {
    let d = &p.delta;
    for (name, v) in [
        ("cl_reads", d.cl_reads),
        ("read_hits", d.read_hits),
        ("cl_writes", d.cl_writes),
        ("write_hits", d.write_hits),
        ("xp_reads", d.xp_reads),
        ("xp_writes", d.xp_writes),
        ("dirty_evictions", d.dirty_evictions),
        ("flushes", d.flushes),
        ("ntstores", d.ntstores),
        ("dram_accesses", d.dram_accesses),
        ("media_read_bytes", d.media_read_bytes),
        ("media_write_bytes", d.media_write_bytes),
    ] {
        m.insert(format!("pmem.{name}_per_op"), ratio(v, p.ops));
    }
    m.insert(
        "pmem.read_hit_ratio".into(),
        ratio(d.read_hits, d.read_hits + d.cl_reads),
    );
    m.insert("pmem.write_amp".into(), d.write_amplification());
    m.insert(
        "pmem.bw_floor_share".into(),
        ratio(p.bw_floor_ns, p.elapsed_ns),
    );
    let probe = p.span(SPAN_PROBE);
    m.insert(
        "core.probe.cl_per_probe".into(),
        ratio(probe.stats.cl_reads + probe.stats.read_hits, probe.entries),
    );
    m.insert(
        "core.probe.virt_ns".into(),
        ratio(probe.vtime_ns, probe.entries),
    );
    for (key, name) in [("split", SPAN_SPLIT), ("compaction", SPAN_COMPACTION)] {
        let s = p.span(name);
        m.insert(format!("core.{key}.count"), s.entries as f64);
        m.insert(format!("core.{key}.virt_ns"), s.vtime_ns as f64);
    }
}

/// `htm.*` from the stats delta of a phase of `ops` operations.
pub fn htm_layers(m: &mut Metrics, before: HtmStats, after: HtmStats, ops: u64) {
    let commits = after.commits - before.commits;
    let conflict = after.conflict_aborts - before.conflict_aborts;
    let capacity = after.capacity_aborts - before.capacity_aborts;
    let explicit = after.explicit_aborts - before.explicit_aborts;
    m.insert("htm.commits_per_op".into(), ratio(commits, ops));
    m.insert("htm.conflict_aborts".into(), conflict as f64);
    m.insert("htm.capacity_aborts".into(), capacity as f64);
    m.insert("htm.explicit_aborts".into(), explicit as f64);
    m.insert(
        "htm.nontx_locks".into(),
        (after.nontx_locks - before.nontx_locks) as f64,
    );
    m.insert(
        "htm.commit_ratio".into(),
        ratio(commits, commits + conflict + capacity + explicit),
    );
}

/// Record each `(name, p)` percentile of `sorted`, with a note giving
/// its sample count. A percentile the sample cannot support is recorded
/// as 0 and the refusal is noted; `required` makes it an error instead.
pub fn put_pcts(
    rep: &mut Rep,
    names: &[(String, f64)],
    sorted: &[u64],
    required: bool,
) -> Result<(), String> {
    for (name, p) in names {
        match metrics::percentile(sorted, *p) {
            Ok(pct) => {
                rep.exact.insert(name.clone(), pct.value);
                rep.notes.push(format!("{name} = {pct} ns"));
            }
            Err(e) if required => return Err(format!("{name}: {e}")),
            Err(e) => {
                rep.exact.insert(name.clone(), 0.0);
                rep.notes.push(format!("{name} = not reported: {e}"));
            }
        }
    }
    Ok(())
}

/// Per-layer metrics of a traced repetition that come from its spans:
/// host ns per call of each traced function (scaled like every host
/// time), and the share of the measured phase's host interval `phase`
/// that no span in `roots` covers.
pub fn span_layers(rep: &mut Rep, phase: (u64, u64), roots: &[&str]) {
    let scale = rep.scale();
    let spans = &rep.spans;
    let self_t = trace::self_times(spans);
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, st) in spans.iter().zip(&self_t) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur();
        e.2 += st;
    }
    let per_call = |name: &str| by_name.get(name).map_or(0.0, |e| ratio(e.1, e.0) * scale);
    for k in ["get", "update", "insert"] {
        rep.host_layers.insert(
            format!("index.{k}.host_ns"),
            per_call(&format!("index.{k}")),
        );
    }
    for k in ["begin_batch", "commit_batch"] {
        rep.host_layers.insert(
            format!("service.{k}.host_ns"),
            per_call(&format!("service.{k}")),
        );
    }
    let in_phase: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| roots.contains(&s.name) && s.start >= phase.0 && s.end <= phase.1)
        .map(|s| (s.start, s.end))
        .collect();
    let covered = trace::union_len(in_phase);
    rep.host_layers.insert(
        "bench.uncovered_host_frac".into(),
        1.0 - ratio(covered, phase.1 - phase.0),
    );
    let sched_self = by_name.get("sched.run_batch").map_or(0, |e| e.2);
    rep.host_layers.insert(
        "sched.self_host_ns_per_req".into(),
        ratio(sched_self, rep.phase_ops) * scale,
    );
    let task_time: u64 = spans.iter().filter(|s| s.task != 0).map(Span::dur).sum();
    rep.host_layers.insert(
        "bench.cross_task_overlap_frac".into(),
        ratio(trace::cross_task_overlap_ns(spans), task_time),
    );
}

/// Every per-layer metric a traced run reports, with its unit, on every
/// workload. A layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 69] = [
    ("workloads.gen_ns_per_op", "ns"),
    ("index.get.calls", "count"),
    ("index.get.host_ns", "ns"),
    ("index.get.virt_ns_p50", "ns"),
    ("index.get.virt_ns_p999", "ns"),
    ("index.update.calls", "count"),
    ("index.update.host_ns", "ns"),
    ("index.update.virt_ns_p50", "ns"),
    ("index.update.virt_ns_p999", "ns"),
    ("index.insert.calls", "count"),
    ("index.insert.host_ns", "ns"),
    ("index.insert.virt_ns_p50", "ns"),
    ("index.insert.virt_ns_p999", "ns"),
    ("core.probe.cl_per_probe", "lines/probe"),
    ("core.probe.virt_ns", "ns"),
    ("core.split.count", "count"),
    ("core.split.virt_ns", "ns"),
    ("core.compaction.count", "count"),
    ("core.compaction.virt_ns", "ns"),
    ("core.fallbacks", "count"),
    ("core.dir_assists", "count"),
    ("core.dir_awaits", "count"),
    ("core.load_factor", "ratio"),
    ("core.recover.host_ms", "ms"),
    ("core.recover.media_read_bytes", "B"),
    ("htm.commits_per_op", "1/op"),
    ("htm.conflict_aborts", "count"),
    ("htm.capacity_aborts", "count"),
    ("htm.explicit_aborts", "count"),
    ("htm.nontx_locks", "count"),
    ("htm.commit_ratio", "ratio"),
    ("pmem.cl_reads_per_op", "1/op"),
    ("pmem.read_hits_per_op", "1/op"),
    ("pmem.cl_writes_per_op", "1/op"),
    ("pmem.write_hits_per_op", "1/op"),
    ("pmem.xp_reads_per_op", "1/op"),
    ("pmem.xp_writes_per_op", "1/op"),
    ("pmem.dirty_evictions_per_op", "1/op"),
    ("pmem.flushes_per_op", "1/op"),
    ("pmem.ntstores_per_op", "1/op"),
    ("pmem.dram_accesses_per_op", "1/op"),
    ("pmem.media_read_bytes_per_op", "B/op"),
    ("pmem.media_write_bytes_per_op", "B/op"),
    ("pmem.read_hit_ratio", "ratio"),
    ("pmem.write_amp", "ratio"),
    ("pmem.bw_floor_share", "ratio"),
    ("alloc.frontier_chunks", "count"),
    ("service.batches", "count"),
    ("service.batch_size_mean", "req/batch"),
    ("service.batch_full_frac", "ratio"),
    ("service.queue_wait_ns_p50", "ns"),
    ("service.queue_wait_ns_p999", "ns"),
    ("service.exec_ns_p50", "ns"),
    ("service.exec_ns_p999", "ns"),
    ("service.begin_batch.host_ns", "ns"),
    ("service.commit_batch.host_ns", "ns"),
    ("service.fences_per_batch", "1/batch"),
    ("service.misroutes", "count"),
    ("service.ack_p50_ns.lo", "ns"),
    ("service.ack_p999_ns.lo", "ns"),
    ("service.ack_p50_ns.hi", "ns"),
    ("service.ack_p999_ns.hi", "ns"),
    ("service.max_rate_mops", "Mops/s"),
    ("sched.decisions_per_req", "1/req"),
    ("sched.switches_per_req", "1/req"),
    ("sched.self_host_ns_per_req", "ns"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.uncovered_host_frac", "ratio"),
    ("bench.cross_task_overlap_frac", "ratio"),
];

/// The end-to-end metrics, with units, reported on every workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("host_kops", "kops/s"),
    ("virt_mops", "Mops/s"),
    ("virt_p50_ns", "ns"),
    ("virt_p999_ns", "ns"),
    ("recover_ms", "ms"),
    ("pm_bytes_per_kv", "ratio"),
    ("dram_mb", "MB"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("ratio", |(_, u)| u)
}

/// Peak resident set of this process, bytes.
fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.clamp(1, 120),
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            a.workload
        ));
    }
    Ok(a)
}

fn run_rep(workload: &str, seed: u64, traced: bool, origin: Instant) -> Result<Rep, String> {
    match workload {
        "read-zipf" => closed::read_zipf(seed, traced, origin),
        "insert-grow" => closed::insert_grow(seed, traced, origin),
        "dash-adr" => closed::dash_adr(seed, traced, origin),
        "service-open" => service::service_open(seed, traced, origin),
        _ => unreachable!("workload validated by parse_args"),
    }
}

/// Ops per host ms of the measured phase. Each window's host time, scaled
/// by the reference samples around it, is its median over the
/// repetitions, and the phase time is their sum: the whole phase counts,
/// while a host hiccup in one repetition's window does not.
fn host_kops(reps: &[&Rep]) -> f64 {
    let n = reps.iter().map(|r| r.windows_ns.len()).min().unwrap_or(0);
    let phase_ns: f64 = (0..n)
        .map(|w| median_of(reps, |r| r.windows_ns[w] as f64 * r.bracket_scale(w + 1)))
        .sum();
    reps[0].phase_ops as f64 * 1e6 / phase_ns.max(1.0)
}

/// What [`reference_ns`] takes, in ns, on the machine host times are
/// reported for: a shared 2-core Xeon VM at its usual speed.
///
/// Every host time is scaled by `REFERENCE_NS / reference_ns()`, with
/// `reference_ns()` sampled through the same repetition. On a shared VM
/// the host's speed drifts by ±20% over minutes with its neighbours'
/// load, and that drift moves this loop and the simulator alike; the
/// scaled figures are what the run would have taken at the reference
/// speed. Scaled and unscaled measured-phase times are both printed.
pub const REFERENCE_NS: f64 = 1.7e6;

/// Host ns of a fixed CPU-bound loop that shares no code with the
/// program under test.
pub fn reference_ns() -> u64 {
    let mut table = [0u64; 8192];
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..200_000u64 {
        x ^= x >> 29;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 32;
        let slot = (x as usize) & 8191;
        table[slot] = table[slot].wrapping_add(i ^ x);
        if table[slot] & 3 == 0 {
            x = x.rotate_left(17);
        }
    }
    std::hint::black_box(&table);
    start.elapsed().as_nanos() as u64
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Repeat the workload's repetition until the budget is spent. Returns
/// the repetitions, the peak resident set after the first one (later
/// ones add only allocator slack, and how many run depends on host
/// speed), and any error that stopped the run.
fn run_reps(args: &Args, origin: Instant) -> (Vec<Rep>, Result<u64, String>, Option<String>) {
    let budget = Duration::from_secs(args.seconds);
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_rss = Err("no repetition completed".to_string());
    while reps.len() < MIN_REPS || origin.elapsed() < budget {
        // A traced run alternates: untraced repetitions give the baseline
        // the tracing overhead is measured against.
        let traced = args.trace && reps.len() % 2 == 1;
        match run_rep(&args.workload, args.seed, traced, origin) {
            Ok(r) => reps.push(Rep { traced, ..r }),
            Err(e) => return (reps, peak_rss, Some(e)),
        }
        if reps.len() == 1 {
            peak_rss = peak_rss_bytes();
        }
    }
    (reps, peak_rss, None)
}

/// Names of the virtual metrics on which a repetition disagrees with the
/// first one.
fn disagreements(reps: &[Rep]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, r) in reps.iter().enumerate().skip(1) {
        let differ: Vec<&String> = reps[0]
            .exact
            .iter()
            .filter(|(k, v)| r.exact.get(*k).map(|w| w.to_bits()) != Some(v.to_bits()))
            .map(|(k, _)| k)
            .collect();
        if !differ.is_empty() {
            out.push(format!(
                "repetition {i} disagrees with repetition 0 on virtual metrics {differ:?}"
            ));
        }
    }
    out
}

fn median_of(reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median_f64(&reps.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// The end-to-end metrics of a run (untraced repetitions give host time).
fn end_to_end(reps: &[Rep], untraced: &[&Rep], rss: u64) -> Metrics {
    let all: Vec<&Rep> = reps.iter().collect();
    let mut m = Metrics::new();
    for (name, _) in END_TO_END {
        if let Some(v) = reps[0].exact.get(name) {
            m.insert(name.into(), *v);
        }
    }
    m.insert("setup_s".into(), median_of(&all, Rep::setup_s));
    m.insert("host_kops".into(), host_kops(untraced));
    m.insert(
        "dram_mb".into(),
        (rss as f64 - closed::ARENA_BYTES as f64) / 1e6,
    );
    m
}

/// The per-layer metrics of a run; host-time ones come from its traced
/// repetitions, whose last span set is written out.
fn per_layer(reps: &[Rep], untraced: &[&Rep], workload: &str) -> Result<Metrics, String> {
    let all: Vec<&Rep> = reps.iter().collect();
    let mut m = Metrics::new();
    for (name, _) in PER_LAYER {
        if let Some(v) = reps[0].exact.get(name) {
            m.insert(name.into(), *v);
        }
    }
    m.insert(
        "workloads.gen_ns_per_op".into(),
        median_of(&all, |r| ratio(r.gen_ns, r.gen_ops) * r.scale()),
    );
    m.insert(
        "core.recover.host_ms".into(),
        median_of(&all, |r| r.recover_host_ms * r.scale()),
    );
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let Some(last) = traced.last() else {
        return Ok(m);
    };
    for k in last.host_layers.keys() {
        m.insert(k.clone(), median_of(&traced, |r| r.host_layers[k]));
    }
    let phase_ns = |r: &Rep| r.phase_host_ns as f64 * r.scale();
    m.insert(
        "bench.trace_overhead_frac".into(),
        median_of(&traced, phase_ns) / median_of(untraced, phase_ns) - 1.0,
    );
    let path = std::path::Path::new(".bench_trace").join(format!("{workload}.tsv"));
    trace::write_tsv(&path, &last.spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# {} spans written to {}", last.spans.len(), path.display());
    Ok(m)
}

fn print_reps(args: &Args, reps: &[Rep], origin: Instant) {
    println!(
        "# {}: seed {}, {} repetitions ({} traced) in {:.1} s",
        args.workload,
        args.seed,
        reps.len(),
        reps.iter().filter(|r| r.traced).count(),
        origin.elapsed().as_secs_f64()
    );
    let Some(first) = reps.first() else {
        return;
    };
    for n in &first.notes {
        println!("# {n}");
    }
    let each = |f: &dyn Fn(&Rep) -> f64| {
        reps.iter()
            .map(|r| format!("{:.3}", f(r)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "# setup ms per repetition: {}",
        each(&|r| r.setup_ns as f64 / 1e6)
    );
    println!(
        "# measured-phase host ms per repetition: {}",
        each(&|r| r.phase_host_ns as f64 / 1e6)
    );
    println!(
        "# reference loop ms per repetition (host times are scaled to {} ms): {}",
        REFERENCE_NS / 1e6,
        each(&|r| REFERENCE_NS / r.scale() / 1e6)
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spash-perfbench: {e}");
            std::process::exit(2);
        }
    };
    spash_sched::silence_sched_panics();
    let origin = Instant::now();
    let (reps, peak_rss, stopped) = run_reps(&args, origin);
    let mut problems: Vec<String> = stopped.into_iter().collect();
    problems.extend(disagreements(&reps));
    let mut outcomes = Outcomes::default();
    for r in &reps {
        outcomes.add(&r.outcomes);
    }
    if outcomes.errors() > 0 {
        problems.push(format!(
            "{} of {} ops failed or were wrong ({outcomes:?})",
            outcomes.errors(),
            outcomes.attempted
        ));
    }

    print_reps(&args, &reps, origin);
    let mut out = Metrics::new();
    if !reps.is_empty() {
        let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
        let rss = peak_rss.unwrap_or_else(|e| {
            problems.push(e);
            0
        });
        let e2e = end_to_end(&reps, &untraced, rss);
        let layers = per_layer(&reps, &untraced, &args.workload).unwrap_or_else(|e| {
            problems.push(e);
            Metrics::new()
        });
        for (name, unit) in END_TO_END {
            println!("{name} = {:.6} {unit}", e2e[name]);
        }
        println!("error_frac = {:.6} ratio", outcomes.error_frac());
        let (wanted, got) = if args.trace {
            (&PER_LAYER[..], layers)
        } else {
            for (name, unit) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("service.")) {
                if let Some(v) = layers
                    .get(*name)
                    .filter(|_| args.workload == "service-open")
                {
                    println!("{name} = {v:.6} {unit}");
                }
            }
            (&END_TO_END[..], e2e)
        };
        for (name, unit) in wanted {
            match got.get(*name) {
                Some(v) if args.trace => println!("{name} = {v:.6} {unit}"),
                Some(_) => {}
                None => problems.push(format!("metric {name} was not measured")),
            }
        }
        out = got;
    }
    for p in &problems {
        eprintln!("spash-perfbench: {p}");
    }
    let correct = problems.is_empty();
    let body: Vec<String> = out
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_num(*v),
                unit_of(k)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.attempted.max(1),
        outcomes.errors(),
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics this program reports,
    /// with the same units.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(json.matches(&entry).count(), 1, "{entry}");
        }
        let declared = json.matches("\"unit\": ").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
                "{w}"
            );
        }
    }
}
