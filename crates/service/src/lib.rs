//! Spash-as-a-service: a sharded, batched KV front-end over any
//! [`PersistentIndex`] (DESIGN.md §11, "Sharded batched service layer").
//!
//! The index crates prove single-operation durability and
//! linearizability; production PM stores (Dash's end-to-end concurrency
//! machinery, Halo's batched log) win or lose on the *service* layer
//! around the index. This crate models that layer deterministically:
//!
//! * **Shard-per-core dispatch** — client requests are hash-partitioned
//!   over `shards` executor queues by [`route`] (one executor task per
//!   shard under the cooperative scheduler). Per-key order is preserved
//!   because a key's requests always land on the same shard.
//! * **Per-shard batching with group fence coalescing** — an executor
//!   drains up to `batch_max` *arrived* requests, runs them through
//!   [`PersistentIndex::run_batch`], then publishes **one** journal
//!   record covering the whole batch with a single flush+fence — the ack
//!   durability barrier amortized across the batch, the way Halo batches
//!   its log. A response is acked only after that fence, so "acked ⇒
//!   durable" is checkable per batch ([`JournalSpec`], `sweep`).
//! * **Epoch-based reclamation for batch buffers** — `get` responses
//!   return [`pool::ValueRef`]s into a pooled batch buffer instead of
//!   owned allocations; buffers are retired into an epoch list and only
//!   recycled once every pinned consumer has moved past the retire epoch
//!   ([`pool::BatchPool`]).
//! * **Open-loop arrival control** — requests carry virtual arrival
//!   times (`spash_workloads::openloop`); an executor idles on its
//!   virtual clock (`charge_compute`) until the head request has
//!   arrived, so tail latency under a 10⁶-session open-loop workload is
//!   a deterministic function of the seed.
//!
//! Verification hooks ship with the layer, not after it: every mutation
//! canary in [`testhooks`] (dropped batch fence, cross-shard misroute,
//! premature reclamation) is caught by a named test or gate — see
//! `sweep`, `lincheck`, and `crates/bench/tests/service.rs`.

pub mod lincheck;
pub mod pool;
pub mod sweep;
pub mod testhooks;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spash_index_api::crashpoint::SweepOp;
use spash_index_api::history::fingerprint;
use spash_index_api::{hash_key, BatchOp, BatchResult, IndexError, PersistentIndex};
use spash_pmem::sync::Mutex;
use spash_pmem::{schedhook, MemCtx, PersistenceDomain, PmAddr};

use pool::{BatchBuf, BatchPool, ValueRef};

/// Magic stamped (xor shard id) into every journal record line.
pub const JOURNAL_MAGIC: u64 = 0x5350_4153_484a_4c31; // "SPASHJL1"

/// Bytes per journal record: one 64 B cacheline (a quarter of a 256 B
/// XPLine), so an ADR record publication is a single-line flush and the
/// record is torn-write-free (a power cut either reverts or persists the
/// whole cacheline).
pub const RECORD_BYTES: u64 = 64;

/// Hash-partitioned routing: which shard owns `key`. Uses the shared
/// avalanche mixer, folded from a different bit range than the indexes'
/// own bucket/directory bits so shard choice and bucket choice stay
/// independent. The `misroute` canary (when armed) consistently shifts
/// the route by one shard — per-key order survives (the check the
/// linearizability test can NOT catch), which is exactly why the
/// executor-side routing audit exists ([`ShardRunStats::misroutes`]).
pub fn route(key: u64, shards: usize) -> usize {
    let clean = route_clean(key, shards);
    if testhooks::misroute() {
        (clean + 1) % shards
    } else {
        clean
    }
}

/// The canonical route, ignoring the misroute canary. The executor
/// re-derives this for every dequeued request: a request observed on a
/// shard it does not route to is a dispatch bug, counted (and gated)
/// rather than silently served.
pub fn route_clean(key: u64, shards: usize) -> usize {
    debug_assert!(shards >= 1);
    ((hash_key(key) >> 17) % shards as u64) as usize
}

/// One client request: an operation plus its open-loop metadata.
#[derive(Clone, Debug)]
pub struct ClientReq {
    /// Client session id (the open-loop driver samples these from a
    /// 2²⁰+ space; the service treats them as opaque).
    pub session: u64,
    /// Virtual arrival time, relative to the executor phase start. The
    /// owning executor will not serve this request before its arrival.
    pub arrival_ns: u64,
    /// Harness-owned stamp (the lin-check stores the Wing–Gong
    /// invocation timestamp here); the service never reads it.
    pub stamp: u64,
    pub op: SweepOp,
}

impl ClientReq {
    pub fn new(session: u64, arrival_ns: u64, op: SweepOp) -> Self {
        Self {
            session,
            arrival_ns,
            stamp: 0,
            op,
        }
    }
}

/// The service-level outcome of one request. `get` payloads are
/// [`ValueRef`]s into the batch buffer — valid until the batch is
/// retired, enforcing the epoch-reclamation contract on every reader.
#[derive(Clone, Debug)]
pub enum Reply {
    /// Insert/update outcome.
    Done(Result<(), IndexError>),
    /// Get outcome: a reference into the batch buffer on hit.
    Value(Option<ValueRef>),
    /// Remove outcome: was the key present?
    Removed(bool),
}

/// One acked response, delivered batch-at-a-time via [`BatchReplies`].
#[derive(Clone, Debug)]
pub struct Response {
    pub session: u64,
    pub shard: usize,
    /// The batch (= journal record) this response was acked under.
    pub seq: u64,
    pub arrival_ns: u64,
    /// Executor virtual clock at the ack point (after the batch fence).
    pub ack_ns: u64,
    /// Echo of [`ClientReq::stamp`].
    pub stamp: u64,
    pub op: SweepOp,
    pub reply: Reply,
}

/// A whole batch of acked responses plus the buffer that backs its
/// value refs. Delivered as one unit so the consumer that takes it owns
/// the retire: once every [`ValueRef`] has been resolved (or abandoned),
/// call [`BatchReplies::retire`] — the buffer enters the epoch limbo
/// list and is recycled only when no pinned consumer could still hold a
/// reference ([`BatchPool`] invariants).
#[derive(Debug)]
pub struct BatchReplies {
    pub shard: usize,
    pub seq: u64,
    pub responses: Vec<Response>,
    buf: BatchBuf,
}

impl BatchReplies {
    /// Release the batch buffer into the epoch reclamation list. Every
    /// delivered batch must eventually be retired or its buffer slot
    /// leaks (the pool's accounting makes that visible in tests).
    pub fn retire(self, pool: &BatchPool) {
        pool.retire(self.buf);
    }
}

/// The per-shard PM journal: a ring of one-line batch records. Record
/// `seq` of shard `s` lives at slot `seq % slots_per_shard` in shard
/// `s`'s region. Publishing a record is the service's *only* durability
/// barrier — one flush+fence per batch, not per operation — so a crash
/// sweep that finds an acked record missing has caught a real lost-ack
/// window (see [`testhooks::set_fence_dropped`]).
#[derive(Clone, Copy, Debug)]
pub struct JournalSpec {
    /// Base PM address; the caller must hand the service a region
    /// disjoint from the index's heap. Records are self-validating
    /// (magic + checksum), so an overlap is *detected* by the sweep
    /// rather than silently accepted.
    pub base: PmAddr,
    pub shards: usize,
    /// Ring capacity per shard. Size it above the run's batch count when
    /// the sweep must audit every acked record (no wrap).
    pub slots_per_shard: u64,
}

impl JournalSpec {
    /// Place the journal at the top of an arena of `arena_size` bytes —
    /// far above the allocator frontier for every configured workload.
    pub fn at_top(arena_size: u64, shards: usize, slots_per_shard: u64) -> Self {
        let bytes = shards as u64 * slots_per_shard * RECORD_BYTES;
        assert!(bytes < arena_size / 4, "journal would swallow the arena");
        Self {
            base: PmAddr((arena_size - bytes) & !(RECORD_BYTES - 1)),
            shards,
            slots_per_shard,
        }
    }

    pub fn bytes(&self) -> u64 {
        self.shards as u64 * self.slots_per_shard * RECORD_BYTES
    }

    fn slot_addr(&self, shard: usize, seq: u64) -> PmAddr {
        debug_assert!(shard < self.shards);
        let slot = self.shards as u64 * (seq % self.slots_per_shard) + shard as u64;
        PmAddr(self.base.0 + slot * RECORD_BYTES)
    }

    fn csum(shard: usize, seq: u64, count: u64, digest: u64) -> u64 {
        hash_key(
            (JOURNAL_MAGIC ^ shard as u64)
                .wrapping_add(hash_key(seq))
                .wrapping_add(hash_key(count).rotate_left(17))
                .wrapping_add(hash_key(digest).rotate_left(34)),
        )
    }

    /// Write and publish the record for batch `seq`: the group-commit
    /// edge. The record line is written, then made durable with a single
    /// flush+fence — one barrier for however many operations the batch
    /// carried. The armed `fence_dropped` canary skips the barrier
    /// (modelling a forgotten group-commit fence): under ADR the acked
    /// record then sits in the volatile cache and a power cut loses it,
    /// which the crash sweep must flag.
    pub fn publish(&self, ctx: &mut MemCtx, shard: usize, seq: u64, count: u64, digest: u64) {
        let a = self.slot_addr(shard, seq);
        ctx.write_u64(a, JOURNAL_MAGIC ^ shard as u64);
        ctx.write_u64(PmAddr(a.0 + 8), seq);
        ctx.write_u64(PmAddr(a.0 + 16), count);
        ctx.write_u64(PmAddr(a.0 + 24), digest);
        ctx.write_u64(PmAddr(a.0 + 32), Self::csum(shard, seq, count, digest));
        if !testhooks::fence_dropped() {
            // One line, one flush, one fence — for the whole batch.
            ctx.flush(a);
            ctx.fence();
        }
    }

    /// Read back record `seq` of `shard`, validating magic, sequence and
    /// checksum. `None` = the slot never became durable (or was torn):
    /// for an *acked* batch that is a lost-ack violation.
    pub fn read_record(&self, ctx: &mut MemCtx, shard: usize, seq: u64) -> Option<(u64, u64)> {
        let a = self.slot_addr(shard, seq);
        let magic = ctx.read_u64(a);
        let got_seq = ctx.read_u64(PmAddr(a.0 + 8));
        let count = ctx.read_u64(PmAddr(a.0 + 16));
        let digest = ctx.read_u64(PmAddr(a.0 + 24));
        let csum = ctx.read_u64(PmAddr(a.0 + 32));
        if magic != JOURNAL_MAGIC ^ shard as u64 || got_seq != seq {
            return None;
        }
        if csum != Self::csum(shard, seq, count, digest) {
            return None;
        }
        Some((count, digest))
    }
}

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    pub shards: usize,
    /// Max requests coalesced under one batch fence.
    pub batch_max: usize,
    pub journal: JournalSpec,
    /// Batch buffer slots in the epoch-reclaimed pool. With consumers
    /// that retire inline (bench, sweep) `shards + 1` never blocks;
    /// cross-task consumers need head-room for their pin windows.
    pub pool_slots: usize,
    /// Pin slots for cross-task consumers ([`BatchPool::pin`]).
    pub pool_participants: usize,
}

struct ShardState {
    queue: Mutex<VecDeque<ClientReq>>,
    seq: AtomicU64,
    /// Requests acked by this shard across its lifetime (conservation:
    /// the suite checks `sum(acked) == requests enqueued`).
    acked: AtomicU64,
}

/// Per-`run_shard` executor statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardRunStats {
    /// Requests acked.
    pub ops: u64,
    /// Batches published (= journal records written).
    pub batches: u64,
    /// Durability barriers issued — equals `batches` unless the
    /// `fence_dropped` canary is armed.
    pub fences: u64,
    /// Requests observed whose canonical route is NOT this shard: the
    /// routing audit. Always 0 in a healthy service; the bench cell
    /// turns any nonzero count into a hard error (the misroute gate).
    pub misroutes: u64,
}

/// A dequeued, not-yet-executed batch (see [`Service::begin_batch`]).
pub struct PreparedBatch {
    pub reqs: Vec<ClientReq>,
}

/// The sharded batched front-end. One instance serves one index; shard
/// executors are driven externally (as cooperative tasks, or stepwise by
/// the crash sweep) so the harness owns scheduling and crash timing.
pub struct Service {
    index: Arc<dyn PersistentIndex>,
    cfg: ServiceConfig,
    shards: Vec<ShardState>,
    pool: BatchPool,
}

impl Service {
    pub fn new(index: Arc<dyn PersistentIndex>, cfg: ServiceConfig) -> Self {
        assert!(cfg.shards >= 1 && cfg.batch_max >= 1);
        assert_eq!(cfg.journal.shards, cfg.shards, "journal/shard mismatch");
        let shards = (0..cfg.shards)
            .map(|_| ShardState {
                queue: Mutex::new(VecDeque::new()),
                seq: AtomicU64::new(0),
                acked: AtomicU64::new(0),
            })
            .collect();
        let pool = BatchPool::new(cfg.pool_slots, cfg.pool_participants);
        Self {
            index,
            cfg,
            shards,
            pool,
        }
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    pub fn pool(&self) -> &BatchPool {
        &self.pool
    }

    pub fn index(&self) -> &Arc<dyn PersistentIndex> {
        &self.index
    }

    /// Route and enqueue one request; returns the shard it landed on.
    /// Queues are arrival-ordered by construction when the caller
    /// enqueues in nondecreasing `arrival_ns` order (the open-loop
    /// generator emits arrivals monotonically).
    pub fn enqueue(&self, req: ClientReq) -> usize {
        let shard = route(req.op.key(), self.cfg.shards);
        self.shards[shard].queue.lock().push_back(req);
        shard
    }

    /// Requests acked by shard `s` so far.
    pub fn acked(&self, shard: usize) -> u64 {
        self.shards[shard].acked.load(Ordering::SeqCst)
    }

    /// Form the next batch for `shard`: wait (in virtual time) for the
    /// head request's arrival, then take every already-arrived request
    /// up to `batch_max`. Returns `None` when the queue is empty. `t0`
    /// is the executor's phase-start clock — arrivals are relative to it.
    pub fn begin_batch(&self, ctx: &mut MemCtx, shard: usize, t0: u64) -> Option<PreparedBatch> {
        testhooks::maybe_inflate_dispatch(ctx);
        let mut q = self.shards[shard].queue.lock();
        let head_due = t0.saturating_add(q.front()?.arrival_ns);
        if head_due > ctx.now() {
            // Open-loop idle: the executor sleeps on its virtual clock
            // until the next request arrives.
            ctx.charge_compute(head_due - ctx.now());
        }
        let mut reqs = Vec::with_capacity(self.cfg.batch_max);
        while reqs.len() < self.cfg.batch_max {
            match q.front() {
                Some(r) if t0.saturating_add(r.arrival_ns) <= ctx.now() => {
                    reqs.push(q.pop_front().unwrap());
                }
                _ => break,
            }
        }
        debug_assert!(!reqs.is_empty());
        Some(PreparedBatch { reqs })
    }

    /// Execute a prepared batch and ack it: run the operations through
    /// the index's batch entry point, copy `get` payloads into a pooled
    /// batch buffer, publish **one** journal record under **one**
    /// flush+fence, and hand the acked responses to `deliver` (which
    /// owns the buffer's retirement — see [`BatchReplies::retire`]).
    pub fn commit_batch(
        &self,
        ctx: &mut MemCtx,
        shard: usize,
        batch: PreparedBatch,
        stats: &mut ShardRunStats,
        deliver: &mut dyn FnMut(&mut MemCtx, &BatchPool, BatchReplies),
    ) {
        let state = &self.shards[shard];
        // Routing audit: every request must canonically route here.
        for r in &batch.reqs {
            if route_clean(r.op.key(), self.cfg.shards) != shard {
                stats.misroutes += 1;
            }
        }

        let buf = self.acquire_buf();
        let ops: Vec<BatchOp<'_>> = batch
            .reqs
            .iter()
            .map(|r| match &r.op {
                SweepOp::Insert(k, v) => BatchOp::Insert(*k, v.as_slice()),
                SweepOp::Update(k, v) => BatchOp::Update(*k, v.as_slice()),
                SweepOp::Get(k) => BatchOp::Get(*k),
                SweepOp::Remove(k) => BatchOp::Remove(*k),
            })
            .collect();
        let mut out = Vec::with_capacity(ops.len());
        self.index.run_batch(ctx, &ops, &mut out);
        assert_eq!(out.len(), ops.len(), "index run_batch dropped results");

        // Digest the acked results (the journal binds them durably) and
        // move get payloads into the epoch-managed batch buffer.
        let mut enc: Vec<u8> = Vec::with_capacity(out.len() * 16);
        let mut replies = Vec::with_capacity(out.len());
        for (req, res) in batch.reqs.iter().zip(out) {
            enc.extend_from_slice(&req.op.key().to_le_bytes());
            let reply = match res {
                BatchResult::Inserted(r) => {
                    enc.push(0x10 | err_tag(&r));
                    Reply::Done(r)
                }
                BatchResult::Updated(r) => {
                    enc.push(0x20 | err_tag(&r));
                    Reply::Done(r)
                }
                BatchResult::Got(Some(bytes)) => {
                    enc.push(0x31);
                    enc.extend_from_slice(&fingerprint(&bytes).to_le_bytes());
                    Reply::Value(Some(self.pool.append(&buf, &bytes)))
                }
                BatchResult::Got(None) => {
                    enc.push(0x30);
                    Reply::Value(None)
                }
                BatchResult::Removed(hit) => {
                    enc.push(0x40 | u64::from(hit) as u8);
                    Reply::Removed(hit)
                }
            };
            replies.push(reply);
        }
        let digest = fingerprint(&enc);
        let count = batch.reqs.len() as u64;
        let seq = state.seq.fetch_add(1, Ordering::SeqCst);

        // The coalesced publication: one record, one flush, one fence —
        // the whole batch's ack durability in a single barrier.
        self.cfg.journal.publish(ctx, shard, seq, count, digest);
        if !testhooks::fence_dropped() {
            stats.fences += 1;
        }

        // Ack: responses exist only after the publication barrier.
        let ack_ns = ctx.now();
        let responses: Vec<Response> = batch
            .reqs
            .into_iter()
            .zip(replies)
            .map(|(req, reply)| Response {
                session: req.session,
                shard,
                seq,
                arrival_ns: req.arrival_ns,
                ack_ns,
                stamp: req.stamp,
                op: req.op,
                reply,
            })
            .collect();
        state.acked.fetch_add(count, Ordering::SeqCst);
        stats.ops += count;
        stats.batches += 1;
        deliver(
            ctx,
            &self.pool,
            BatchReplies {
                shard,
                seq,
                responses,
                buf,
            },
        );
    }

    fn acquire_buf(&self) -> BatchBuf {
        let mut spins = 0u64;
        loop {
            if let Some(b) = self.pool.acquire() {
                return b;
            }
            // Cooperative wait for a consumer to retire a batch. Without
            // a scheduler nothing can retire concurrently, so a long
            // spin is a sizing bug, not a transient.
            spins += 1;
            assert!(
                schedhook::active() || spins < 1_000_000,
                "batch buffer pool exhausted with no scheduler to run consumers"
            );
            schedhook::spin_wait();
        }
    }

    /// One executor iteration: form and commit the next batch. Returns
    /// `false` when the shard's queue is empty. `on_invoke` runs after
    /// batch formation, before execution (the lin-check stamps Wing–Gong
    /// invocation times there); `deliver` receives the acked batch.
    pub fn run_shard_step(
        &self,
        ctx: &mut MemCtx,
        shard: usize,
        t0: u64,
        stats: &mut ShardRunStats,
        on_invoke: &mut dyn FnMut(&mut [ClientReq]),
        deliver: &mut dyn FnMut(&mut MemCtx, &BatchPool, BatchReplies),
    ) -> bool {
        let Some(mut batch) = self.begin_batch(ctx, shard, t0) else {
            return false;
        };
        on_invoke(&mut batch.reqs);
        self.commit_batch(ctx, shard, batch, stats, deliver);
        true
    }

    /// Drain `shard`'s queue to completion (the executor task body):
    /// repeated [`Self::run_shard_step`] with `t0` captured at entry.
    pub fn run_shard(
        &self,
        ctx: &mut MemCtx,
        shard: usize,
        on_invoke: &mut dyn FnMut(&mut [ClientReq]),
        deliver: &mut dyn FnMut(&mut MemCtx, &BatchPool, BatchReplies),
    ) -> ShardRunStats {
        let t0 = ctx.now();
        let mut stats = ShardRunStats::default();
        while self.run_shard_step(ctx, shard, t0, &mut stats, on_invoke, deliver) {}
        stats
    }
}

fn err_tag(r: &Result<(), IndexError>) -> u8 {
    match r {
        Ok(()) => 0,
        Err(IndexError::DuplicateKey) => 1,
        Err(IndexError::NotFound) => 2,
        Err(IndexError::OutOfMemory) => 3,
        Err(IndexError::ValueTooLarge) => 4,
    }
}

/// Persistence-domain helper: does this device require explicit flushes
/// for ack durability? (Kept for documentation symmetry; the journal
/// issues the flush unconditionally — redundant under eADR, required
/// under ADR — so the publication discipline is domain-independent.)
pub fn ack_needs_flush(domain: PersistenceDomain) -> bool {
    domain == PersistenceDomain::Adr
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_covers_all_shards() {
        let shards = 4;
        let mut seen = [false; 4];
        for k in 1..=256u64 {
            let s = route_clean(k, shards);
            assert!(s < shards);
            assert_eq!(s, route_clean(k, shards));
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "some shard owns no keys");
    }

    #[test]
    fn journal_records_roundtrip_and_reject_corruption() {
        let dev = spash_pmem::PmDevice::new(spash_pmem::PmConfig {
            arena_size: 8 << 20,
            ..spash_pmem::PmConfig::small_test()
        });
        let mut ctx = dev.ctx();
        let j = JournalSpec::at_top(8 << 20, 2, 16);
        j.publish(&mut ctx, 1, 7, 3, 0xfeed);
        assert_eq!(j.read_record(&mut ctx, 1, 7), Some((3, 0xfeed)));
        // Wrong shard, wrong seq: self-validation refuses.
        assert_eq!(j.read_record(&mut ctx, 0, 7), None);
        assert_eq!(j.read_record(&mut ctx, 1, 8), None);
    }

    #[test]
    fn at_top_slots_stay_inside_the_arena_and_distinct() {
        let j = JournalSpec::at_top(64 << 20, 4, 32);
        let mut seen = std::collections::HashSet::new();
        for s in 0..4 {
            for q in 0..32u64 {
                let a = j.slot_addr(s, q);
                assert!(a.0 >= j.base.0 && a.0 + RECORD_BYTES <= 64 << 20);
                assert!(seen.insert(a.0), "overlapping journal slots");
            }
        }
    }
}
