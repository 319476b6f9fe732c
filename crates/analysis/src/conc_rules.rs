//! The `spash-lint conc` rules: static concurrency-discipline checks
//! over the flow CFGs. See DESIGN.md § "Static concurrency analysis".
//!
//! PR 2's deterministic scheduler and PR 3's sanitizer witness races on
//! *explored* schedules; these rules reason about *every* path. Four
//! rules plus a machine-readable shared-word inventory:
//!
//! * [`RULE_CONC_LOCKSET`] — interprocedural lockset analysis. Lock
//!   regions ([`crate::cfg::Ev::RegionEnter`]/[`crate::cfg::Ev::RegionExit`],
//!   HTM transactions) become must-held facts; a plain store to shared
//!   PM reachable from a public index operation with no lock held
//!   locally, no lock guaranteed by every caller, and no later CAS
//!   publication covering it (the lock-free designs' discipline) is
//!   flagged.
//! * [`RULE_CONC_ATOMICITY`] — check-then-act detection. A guarded read
//!   (a PM load or read-only helper call in a branch condition, or a
//!   condition consulting a variable bound from one) whose dependent
//!   write does not execute under any sync-region instance that also
//!   covered the read is flagged — the static twin of the PLUSH
//!   check-then-act race PR 2's scheduler found dynamically.
//! * [`RULE_CONC_XREF`] — every `conc-*` waiver must cite the dynamic
//!   twin that covers the same interleaving: `sched=<witness>` (an index
//!   name the scheduler explores or a race testhook), `san=<file>::<fn>`
//!   (a sanitizer forgive site, validated against the same map as the
//!   flow cross-check), or `none(<why>)`. Reverse direction: every race
//!   testhook consulted by non-test source must be cited by at least one
//!   conc waiver.
//! * [`RULE_CONC_SYNC_MODEL`] — the lowering's region-function table
//!   ([`crate::cfg::REGION_FNS`]) is cross-checked against
//!   `// conc: region(<kind>) fn=<name>` annotations at the primitive
//!   definitions in `crates/pmem`/`crates/htm`, both directions, so the
//!   static sync model cannot silently drift from the primitives.
//!
//! **Entry-lock alternatives.** A helper can be reached under different
//! disciplines (`split` under HTM from the fast path, under `nontx`
//! from the fallback). Per function the analysis keeps a *set of
//! alternatives* — one writer-lock set per distinct call context
//! reachable from a public root (`insert`/`update`/`get`/`remove`) —
//! rather than one must-intersection, so a function entered sometimes
//! with lock A and sometimes with lock B is not falsely "sometimes
//! unprotected". A site is unprotected only if some alternative holds
//! nothing and the site itself holds nothing. Functions unreachable
//! from any root (recovery, format, audits) are single-threaded by
//! construction and skipped.
//!
//! **Shared-word inventory.** Every PM word accessed from a concurrent
//! function is classified `private` / `sharded` / `shared` with its
//! protecting discipline (`lock:<names>`, `htm`, `atomic`,
//! `cas-publish`, `read-only`, `mixed`, or `none`). Words are named
//! `<file_stem>::<label>` where the label is the address-helper call at
//! the access (`seg.slot_addr(b, s)` → `slot_addr`) or the provenance
//! of the address binding. The inventory is the input ROADMAP item 3
//! (CXL backend) needs: which words are cross-thread-shared.

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::{Cfg, Ev, PubKind, REGION_FNS};
use crate::flow_rules::{dynamic_san_sites, model_for, MemModel};
use crate::lint::{
    cfg_test_lines, collect_rs_files, stats_virt, stats_waived, strip_non_code, waived, Finding,
    StatsMap,
};
use crate::summaries::{self, SummaryTable};

pub const RULE_CONC_LOCKSET: &str = "conc-lockset";
pub const RULE_CONC_ATOMICITY: &str = "conc-atomicity";
pub const RULE_CONC_XREF: &str = "conc-waiver-xref";
pub const RULE_CONC_SYNC_MODEL: &str = "conc-sync-model";

pub const CONC_RULES: [&str; 4] = [
    RULE_CONC_LOCKSET,
    RULE_CONC_ATOMICITY,
    RULE_CONC_XREF,
    RULE_CONC_SYNC_MODEL,
];

/// Public index operations: the analysis roots. Concurrent threads
/// enter the indexes through these with no locks held.
const CONC_ROOTS: &[&str] = &["insert", "update", "get", "remove"];

/// Index names the PR 2 scheduler explores — valid `sched=` witnesses.
const SCHED_INDEXES: &[&str] = &["Spash", "CCEH", "Dash", "Level", "CLevel", "Plush", "Halo"];

/// Alternatives are capped; beyond this the set collapses to its
/// intersection (sound: fewer locks guaranteed, never more).
const MAX_ALTS: usize = 8;

/// Helper-call names that never name a PM word (arithmetic, iterator
/// and option plumbing inside address expressions).
const LABEL_DENY: &[&str] = &[
    "min", "max", "clone", "len", "iter", "rev", "find", "map", "unwrap", "unwrap_or",
    "unwrap_or_default", "then_some", "wrapping_add", "wrapping_sub", "wrapping_mul",
    "saturating_add", "saturating_sub", "checked_add", "checked_sub", "checked_mul", "into",
    "from", "with", "read", "write", "expect",
];

// ---------------------------------------------------------------------------
// Local locksets.
// ---------------------------------------------------------------------------

/// Must-held sync-region instances (node indices of `RegionEnter` /
/// `HtmBegin`) at each node's entry; `None` = unreachable. Join is
/// set intersection over predecessors.
pub fn local_locksets(cfg: &Cfg) -> Vec<Option<BTreeSet<usize>>> {
    let preds = cfg.preds();
    let mut facts: Vec<Option<BTreeSet<usize>>> = vec![None; cfg.nodes.len()];
    facts[cfg.entry] = Some(BTreeSet::new());
    let mut work: Vec<usize> = vec![cfg.entry];
    while let Some(n) = work.pop() {
        let Some(in_fact) = facts[n].clone() else { continue };
        let out = transfer_lockset(cfg, n, &in_fact);
        for &s in &cfg.succs[n] {
            let joined = match &facts[s] {
                None => out.clone(),
                Some(prev) => prev.intersection(&out).cloned().collect(),
            };
            if facts[s].as_ref() != Some(&joined) {
                facts[s] = Some(joined);
                work.push(s);
            }
        }
        let _ = preds; // preds retained for documentation symmetry
    }
    facts
}

fn transfer_lockset(cfg: &Cfg, n: usize, held: &BTreeSet<usize>) -> BTreeSet<usize> {
    let mut out = held.clone();
    match &cfg.nodes[n].ev {
        Ev::RegionEnter { id, .. } => {
            out.insert(*id);
        }
        Ev::HtmBegin => {
            out.insert(n);
        }
        Ev::RegionExit { enter: Some(e), .. } => {
            out.remove(e);
        }
        Ev::RegionExit { enter: None, lock } => {
            out.retain(|&i| !matches!(&cfg.nodes[i].ev, Ev::RegionEnter { lock: l, .. } if l == lock));
        }
        Ev::Publish {
            kind: PubKind::HtmCommit,
            ..
        } => {
            out.retain(|&i| !matches!(cfg.nodes[i].ev, Ev::HtmBegin));
        }
        _ => {}
    }
    out
}

/// Writer-side protection names for a set of held instances: exclusive
/// lock names plus `"htm"` for transactions. Read-side regions are
/// excluded — they do not license writes.
fn writer_names(cfg: &Cfg, insts: &BTreeSet<usize>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for &i in insts {
        match &cfg.nodes[i].ev {
            Ev::RegionEnter { lock, writer: true, .. } => {
                out.insert(lock.clone());
            }
            Ev::HtmBegin => {
                out.insert("htm".to_string());
            }
            _ => {}
        }
    }
    out
}

/// Are all lock instances in `insts` per-shard (indexed receivers)?
fn all_sharded(cfg: &Cfg, insts: &BTreeSet<usize>) -> bool {
    insts.iter().all(|&i| {
        matches!(
            cfg.nodes[i].ev,
            Ev::RegionEnter { sharded: true, .. } | Ev::HtmBegin
        )
    })
}

// ---------------------------------------------------------------------------
// Analysis units and entry-lock alternatives.
// ---------------------------------------------------------------------------

struct FnUnit {
    path: String,
    name: String,
    cfg: Cfg,
    line: usize,
    locks: Vec<Option<BTreeSet<usize>>>,
}

#[derive(Clone, Debug, Default)]
struct Alts {
    sets: BTreeSet<BTreeSet<String>>,
    saturated: bool,
}

impl Alts {
    fn insert(&mut self, alt: BTreeSet<String>) -> bool {
        if self.saturated {
            // Collapsed: a single alternative, refined by intersection.
            let cur = self.sets.iter().next().cloned().unwrap_or_default();
            let merged: BTreeSet<String> = cur.intersection(&alt).cloned().collect();
            if merged != cur {
                self.sets = BTreeSet::from([merged]);
                return true;
            }
            return false;
        }
        if self.sets.contains(&alt) {
            return false;
        }
        self.sets.insert(alt);
        if self.sets.len() > MAX_ALTS {
            let mut it = self.sets.iter();
            let mut merged = it.next().cloned().unwrap_or_default();
            for s in it {
                merged = merged.intersection(s).cloned().collect();
            }
            self.sets = BTreeSet::from([merged]);
            self.saturated = true;
        }
        true
    }

    /// Some entry path guarantees no writer lock at all.
    fn has_empty(&self) -> bool {
        self.sets.iter().any(|s| s.is_empty())
    }

    /// Locks guaranteed on *every* entry path.
    fn guaranteed(&self) -> BTreeSet<String> {
        let mut it = self.sets.iter();
        let mut out = it.next().cloned().unwrap_or_default();
        for s in it {
            out = out.intersection(s).cloned().collect();
        }
        out
    }
}

/// Entry-lock alternatives per `(file, fn)`, propagated from the
/// [`CONC_ROOTS`] through resolvable calls to a Kleene fixpoint.
fn entry_alternatives(
    units: &BTreeMap<(String, String), FnUnit>,
    table: &SummaryTable,
) -> BTreeMap<(String, String), Alts> {
    let mut alts: BTreeMap<(String, String), Alts> = BTreeMap::new();
    for (key, u) in units {
        if CONC_ROOTS.contains(&u.name.as_str()) {
            alts.entry(key.clone()).or_default().insert(BTreeSet::new());
        }
    }
    for _round in 0..64 {
        let mut changed = false;
        let snapshot: Vec<_> = alts
            .iter()
            .map(|(k, a)| (k.clone(), a.sets.iter().cloned().collect::<Vec<_>>()))
            .collect();
        for (caller_key, caller_alts) in &snapshot {
            let u = &units[caller_key];
            for (n, node) in u.cfg.nodes.iter().enumerate() {
                let Ev::Call { name, foreign } = &node.ev else { continue };
                let Some(insts) = &u.locks[n] else { continue };
                let Some(callee) = table.resolve_call_key(&u.path, name, *foreign) else {
                    continue;
                };
                if !units.contains_key(&callee) {
                    continue;
                }
                let held = writer_names(&u.cfg, insts);
                for a in caller_alts {
                    let merged: BTreeSet<String> = a.union(&held).cloned().collect();
                    changed |= alts.entry(callee.clone()).or_default().insert(merged);
                }
            }
        }
        if !changed {
            break;
        }
    }
    alts
}

// ---------------------------------------------------------------------------
// Accesses and the shared-word inventory.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    Read,
    Write,
    Rmw,
}

struct Access {
    word: String,
    kind: AccessKind,
    /// Writer-side protection at the site: local locks + caller-guaranteed.
    protection: BTreeSet<String>,
    /// Local writer protection only (for the unprotected-site test).
    local_protection: BTreeSet<String>,
    sharded: bool,
    /// Address base is a fresh local allocation (thread-private).
    alloc_fresh: bool,
    /// A later atomic RMW in the same function publishes this word
    /// (the lock-free CAS-publish discipline).
    cas_covered: bool,
    /// The enclosing function is reachable from a public root.
    concurrent: bool,
    /// Some entry alternative of the enclosing function holds nothing.
    entry_may_be_bare: bool,
}

/// One inventory row, rendered into the `--json` report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WordRow {
    pub word: String,
    pub class: String,
    pub discipline: String,
    pub reads: u64,
    pub writes: u64,
    pub rmws: u64,
    pub locks: Vec<String>,
}

fn file_stem(path: &str) -> &str {
    let base = path.rsplit('/').next().unwrap_or(path);
    base.strip_suffix(".rs").unwrap_or(base)
}

fn label_candidate(calls: &[String]) -> Option<&String> {
    calls
        .iter()
        .rev()
        .find(|c| !LABEL_DENY.contains(&c.as_str()) && c.chars().next().is_some_and(|ch| ch.is_lowercase()))
}

/// `let ba = lvl.bucket(b);` labels later `ba`-based accesses `bucket`.
fn bind_labels(cfg: &Cfg) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for node in &cfg.nodes {
        if let Ev::Bind {
            var, init_calls, ..
        } = &node.ev
        {
            if let Some(l) = label_candidate(init_calls) {
                out.insert(var.clone(), l.clone());
            } else {
                out.remove(var);
            }
        }
    }
    out
}

fn word_label(
    path: &str,
    via: &[String],
    tgt: &[String],
    binds: &BTreeMap<String, String>,
) -> String {
    let label = label_candidate(via)
        .cloned()
        .or_else(|| tgt.first().and_then(|t| binds.get(t).cloned()))
        .or_else(|| tgt.first().cloned())
        .unwrap_or_else(|| "anon".to_string());
    format!("{}::{}", file_stem(path), label)
}

fn later_rmw(cfg: &Cfg, n: usize) -> bool {
    cfg.nodes[n + 1..]
        .iter()
        .any(|node| matches!(node.ev, Ev::Publish { kind: PubKind::Rmw, .. }))
}

/// Classify the collected accesses into inventory rows.
fn classify(accesses: &[Access]) -> Vec<WordRow> {
    let mut by_word: BTreeMap<&str, Vec<&Access>> = BTreeMap::new();
    for a in accesses {
        by_word.entry(&a.word).or_default().push(a);
    }
    let mut rows = Vec::new();
    for (word, accs) in by_word {
        let reads = accs.iter().filter(|a| a.kind == AccessKind::Read).count() as u64;
        let writes = accs.iter().filter(|a| a.kind == AccessKind::Write).count() as u64;
        let rmws = accs.iter().filter(|a| a.kind == AccessKind::Rmw).count() as u64;
        let mut locks: BTreeSet<String> = BTreeSet::new();
        for a in &accs {
            locks.extend(a.protection.iter().cloned());
        }
        let conc: Vec<&&Access> = accs.iter().filter(|a| a.concurrent && !a.alloc_fresh).collect();
        let conc_writes: Vec<&&&Access> = conc
            .iter()
            .filter(|a| a.kind != AccessKind::Read)
            .collect();
        let (class, discipline) = if conc.is_empty() {
            ("private".to_string(), "single-thread".to_string())
        } else if conc_writes.is_empty() {
            ("shared".to_string(), "read-only".to_string())
        } else if conc_writes.iter().all(|a| a.kind == AccessKind::Rmw) {
            ("shared".to_string(), "atomic".to_string())
        } else if conc_writes
            .iter()
            .all(|a| a.kind == AccessKind::Rmw || a.cas_covered)
        {
            ("shared".to_string(), "cas-publish".to_string())
        } else {
            let plain: Vec<&&&&Access> = conc_writes
                .iter()
                .filter(|a| a.kind == AccessKind::Write)
                .collect();
            let mut common = plain
                .first()
                .map(|a| a.protection.clone())
                .unwrap_or_default();
            for a in &plain[1..] {
                common = common.intersection(&a.protection).cloned().collect();
            }
            if !common.is_empty() {
                let sharded = plain.iter().all(|a| a.sharded);
                let class = if sharded { "sharded" } else { "shared" };
                let disc = if common.len() == 1 && common.contains("htm") {
                    "htm".to_string()
                } else {
                    format!(
                        "lock:{}",
                        common.iter().cloned().collect::<Vec<_>>().join("+")
                    )
                };
                (class.to_string(), disc)
            } else if plain
                .iter()
                .all(|a| !a.protection.is_empty() || a.cas_covered || !a.entry_may_be_bare)
            {
                ("shared".to_string(), "mixed".to_string())
            } else {
                ("shared".to_string(), "none".to_string())
            }
        };
        rows.push(WordRow {
            word: word.to_string(),
            class,
            discipline,
            reads,
            writes,
            rmws,
            locks: locks.into_iter().collect(),
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Control dependence (check-then-act pairing).
// ---------------------------------------------------------------------------

/// Nodes reachable from `start` (inclusive) along successor edges.
fn reach_from(cfg: &Cfg, start: usize) -> Vec<bool> {
    let mut seen = vec![false; cfg.nodes.len()];
    let mut stack = vec![start];
    while let Some(n) = stack.pop() {
        if seen[n] {
            continue;
        }
        seen[n] = true;
        for &s in &cfg.succs[n] {
            stack.push(s);
        }
    }
    seen
}

/// Is `w` control-dependent on the branch decided by condition node
/// `g`? The lowering chains condition nodes single-successor into the
/// branch node, so walk forward from `g` until the out-degree exceeds
/// one; `w` depends on that branch iff it is reachable from some but
/// not all of the branch's successors.
fn control_dependent(cfg: &Cfg, g: usize, w: usize) -> bool {
    let mut b = g;
    let mut steps = 0;
    while cfg.succs[b].len() == 1 && steps <= cfg.nodes.len() {
        b = cfg.succs[b][0];
        steps += 1;
    }
    if cfg.succs[b].len() < 2 {
        return false;
    }
    let mut some = false;
    let mut all = true;
    for &s in &cfg.succs[b] {
        let r = reach_from(cfg, s)[w];
        some |= r;
        all &= r;
    }
    some && !all
}

// ---------------------------------------------------------------------------
// Guard taint (check-then-act).
// ---------------------------------------------------------------------------

/// Variables whose value derives from a guarded/shared PM read, with
/// the sync-region instances that justified the read. A bind whose
/// initializer runs a region closure (`let hit = self.shards[i]
/// .with(…)`) is justified by that region instance; a bind from a plain
/// load or read-only helper by whatever was held at the bind.
fn guard_vars(
    cfg: &Cfg,
    locks: &[Option<BTreeSet<usize>>],
    table: &SummaryTable,
    path: &str,
) -> BTreeMap<String, BTreeSet<usize>> {
    let region_names: Vec<&str> = REGION_FNS.iter().map(|(n, _)| *n).collect();
    let reads_pm = |name: &str| {
        name == "read_u64"
            || name == "read_bytes"
            || table
                .resolve(path, name)
                .is_some_and(|s| s.reads_pm && !s.writes_pm)
    };
    let mut out: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    loop {
        let mut changed = false;
        for (n, node) in cfg.nodes.iter().enumerate() {
            let Ev::Bind {
                var,
                init_calls,
                init_idents,
                ..
            } = &node.ev
            else {
                continue;
            };
            let mut insts: Option<BTreeSet<usize>> = None;
            if init_calls.iter().any(|c| region_names.contains(&c.as_str())) {
                // Justified by the nearest preceding region instance
                // (the region closure whose result is being bound).
                let inst = (0..n)
                    .rev()
                    .find(|&i| matches!(cfg.nodes[i].ev, Ev::RegionEnter { .. } | Ev::HtmBegin));
                insts = Some(inst.into_iter().collect());
            } else if init_calls.iter().any(|c| reads_pm(c)) {
                insts = Some(locks[n].clone().unwrap_or_default());
            } else {
                let mut merged = BTreeSet::new();
                let mut any = false;
                for id in init_idents {
                    if let Some(s) = out.get(id) {
                        merged.extend(s.iter().copied());
                        any = true;
                    }
                }
                if any {
                    insts = Some(merged);
                }
            }
            if let Some(insts) = insts {
                let e = out.entry(var.clone()).or_default();
                if *e != insts {
                    let merged: BTreeSet<usize> = e.union(&insts).copied().collect();
                    if *e != merged {
                        *e = merged;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

/// Run the concurrency rules over (workspace-relative path, source)
/// pairs. Returns findings plus the shared-word inventory.
pub fn check_files_conc(files: &[(String, String)]) -> (Vec<Finding>, Vec<WordRow>) {
    check_files_conc_stats(files, &mut StatsMap::new())
}

/// [`check_files_conc`] plus per-rule counters.
pub fn check_files_conc_stats(
    files: &[(String, String)],
    stats: &mut StatsMap,
) -> (Vec<Finding>, Vec<WordRow>) {
    let stripped: Vec<(String, String)> = files
        .iter()
        .map(|(p, src)| (p.clone(), strip_non_code(src)))
        .collect();
    let lowered = summaries::lower_files(&stripped);
    let table = summaries::compute(&lowered);

    // Analysis units: every non-test fn in a conc-checked file.
    let mut units: BTreeMap<(String, String), FnUnit> = BTreeMap::new();
    for fc in &lowered {
        if model_for(&fc.path) == MemModel::Exempt {
            continue;
        }
        let strip = &stripped
            .iter()
            .find(|(p, _)| p == &fc.path)
            .expect("same set")
            .1;
        let test_region = cfg_test_lines(strip);
        for (f, _) in &fc.fns {
            if test_region.get(f.line.saturating_sub(1)).copied().unwrap_or(false) {
                continue;
            }
            let cfg = crate::cfg::build_cfg(f);
            let locks = local_locksets(&cfg);
            units.insert(
                (fc.path.clone(), f.name.clone()),
                FnUnit {
                    path: fc.path.clone(),
                    name: f.name.clone(),
                    cfg,
                    line: f.line,
                    locks,
                },
            );
        }
    }

    let alts = entry_alternatives(&units, &table);

    let mut raw: Vec<(String, usize, &'static str, String)> = Vec::new();
    let mut accesses: Vec<Access> = Vec::new();

    for (key, u) in &units {
        let fn_alts = alts.get(key);
        let concurrent = fn_alts.is_some_and(|a| !a.sets.is_empty());
        let may_be_bare = fn_alts.is_some_and(|a| a.has_empty());
        let guaranteed = fn_alts.map(|a| a.guaranteed()).unwrap_or_default();
        if concurrent {
            stats_virt(stats, RULE_CONC_LOCKSET, u.cfg.nodes.len() as u64);
            stats_virt(stats, RULE_CONC_ATOMICITY, u.cfg.nodes.len() as u64);
        }
        let binds = bind_labels(&u.cfg);
        let guards_by_var = guard_vars(&u.cfg, &u.locks, &table, &u.path);
        // Words this function publishes (or claims) via atomic RMW: a
        // plain store to the same word participates in a CAS
        // claim/publish protocol (freeze-then-move, write-then-CAS) and
        // is not an unsynchronized shared write.
        let rmw_words: BTreeSet<String> = u
            .cfg
            .nodes
            .iter()
            .filter_map(|node| match &node.ev {
                Ev::Publish {
                    kind: PubKind::Rmw,
                    tgt,
                    via,
                    ..
                } => Some(word_label(&u.path, via, tgt, &binds)),
                _ => None,
            })
            .collect();

        // -- access collection (inventory + lockset rule) --------------
        for (n, node) in u.cfg.nodes.iter().enumerate() {
            let (kind, tgt, via, nt) = match &node.ev {
                Ev::Store { nt, tgt, via } => (AccessKind::Write, tgt, via, *nt),
                Ev::Load { tgt, via } => (AccessKind::Read, tgt, via, false),
                Ev::Publish {
                    kind: PubKind::Rmw,
                    tgt,
                    via,
                    ..
                } => (AccessKind::Rmw, tgt, via, false),
                _ => continue,
            };
            let _ = nt;
            let fresh = summaries::alloc_tainted(&u.cfg);
            let alloc_fresh = !tgt.is_empty() && tgt.iter().all(|t| fresh.contains(t));
            let insts = u.locks[n].clone().unwrap_or_default();
            let local = writer_names(&u.cfg, &insts);
            let mut protection = local.clone();
            protection.extend(guaranteed.iter().cloned());
            let word = word_label(&u.path, via, tgt, &binds);
            let cas_covered = kind == AccessKind::Write
                && (later_rmw(&u.cfg, n) || rmw_words.contains(&word));
            accesses.push(Access {
                word,
                kind,
                protection,
                local_protection: local,
                sharded: !insts.is_empty() && all_sharded(&u.cfg, &insts),
                alloc_fresh,
                cas_covered,
                concurrent,
                entry_may_be_bare: may_be_bare,
            });
            let a = accesses.last().expect("just pushed");
            if concurrent
                && may_be_bare
                && kind == AccessKind::Write
                && a.local_protection.is_empty()
                && !alloc_fresh
                && !cas_covered
            {
                raw.push((
                    u.path.clone(),
                    node.line,
                    RULE_CONC_LOCKSET,
                    format!(
                        "shared PM write (`{}`) reachable from a public operation with no \
                         lock held, no caller-guaranteed lock, and no CAS publication \
                         covering it",
                        a.word
                    ),
                ));
            }
        }

        // -- check-then-act (atomicity rule) ----------------------------
        if concurrent && may_be_bare {
            // Guards: condition-position PM reads, read-only helper
            // calls, and conditions consulting guard-tainted variables.
            let mut guards: Vec<(usize, BTreeSet<usize>)> = Vec::new();
            for (n, node) in u.cfg.nodes.iter().enumerate() {
                if !u.cfg.in_cond[n] {
                    continue;
                }
                match &node.ev {
                    Ev::Load { .. } => {
                        guards.push((n, u.locks[n].clone().unwrap_or_default()));
                    }
                    Ev::Call { name, foreign }
                        if table
                            .resolve_call(&u.path, name, *foreign)
                            .is_some_and(|s| s.reads_pm && !s.writes_pm) =>
                    {
                        guards.push((n, u.locks[n].clone().unwrap_or_default()));
                    }
                    Ev::CondUse { idents } => {
                        let mut insts = BTreeSet::new();
                        let mut any = false;
                        for id in idents {
                            if let Some(s) = guards_by_var.get(id) {
                                insts.extend(s.iter().copied());
                                any = true;
                            }
                        }
                        if any {
                            guards.push((n, insts));
                        }
                    }
                    _ => {}
                }
            }
            let fresh = summaries::alloc_tainted(&u.cfg);
            // Acts in node order: bare stores and shared-writing calls
            // under no writer protection. A writer-protected act is
            // presumed to revalidate its guard inside the region (the
            // optimistic check / locked-recheck idiom every baseline
            // uses).
            let mut acts: Vec<(usize, bool, BTreeSet<usize>)> = Vec::new();
            for (w, node) in u.cfg.nodes.iter().enumerate() {
                let act_is_call = match &node.ev {
                    Ev::Store { tgt, via, .. } => {
                        let alloc_fresh = !tgt.is_empty() && tgt.iter().all(|t| fresh.contains(t));
                        let word = word_label(&u.path, via, tgt, &binds);
                        if alloc_fresh || later_rmw(&u.cfg, w) || rmw_words.contains(&word) {
                            None
                        } else {
                            Some(false)
                        }
                    }
                    Ev::Call { name, foreign } => table
                        .resolve_call(&u.path, name, *foreign)
                        .is_some_and(|s| s.writes_shared)
                        .then_some(true),
                    _ => None,
                };
                let Some(is_call) = act_is_call else { continue };
                let w_insts = u.locks[w].clone().unwrap_or_default();
                if !writer_names(&u.cfg, &w_insts).is_empty() {
                    continue;
                }
                acts.push((w, is_call, w_insts));
            }
            // Pair each guard with the first act its branch controls:
            // the read that decided the branch races with the first
            // dependent write taken on its strength (later acts on the
            // same branch depend on that first one's outcome, not on
            // the raw guard). A bare-store act races any guard whose
            // region instances are disjoint from the act's; a call act
            // (the callee re-reads under its own discipline) races
            // only a fully unprotected guard — the PLUSH shape, where
            // the lookup ran bare and the callee writes the shared
            // word on its say-so.
            let mut reported: BTreeSet<usize> = BTreeSet::new();
            for (g, g_insts) in &guards {
                let hit = acts
                    .iter()
                    .find(|(w, _, _)| *w > *g && control_dependent(&u.cfg, *g, *w));
                let Some((w, is_call, w_insts)) = hit else {
                    continue;
                };
                let races = if *is_call {
                    g_insts.is_empty()
                } else {
                    g_insts.intersection(w_insts).count() == 0
                };
                if !races {
                    continue;
                }
                let line = u.cfg.nodes[*w].line;
                let already_lockset = raw
                    .iter()
                    .any(|(p, l, r, _)| *r == RULE_CONC_LOCKSET && p == &u.path && *l == line);
                if already_lockset || !reported.insert(line) {
                    continue;
                }
                raw.push((
                    u.path.clone(),
                    line,
                    RULE_CONC_ATOMICITY,
                    format!(
                        "dependent write outside the sync region of its guard \
                         (checked at line {}): the checked condition can be \
                         invalidated before this write (check-then-act race)",
                        u.cfg.nodes[*g].line
                    ),
                ));
            }
        }
        let _ = u.line;
    }

    // Waiver filtering against the raw findings.
    let mut out = Vec::new();
    for (path, line, rule, msg) in raw {
        let src = &files.iter().find(|(p, _)| p == &path).expect("same set").1;
        let original: Vec<&str> = src.lines().collect();
        let idx = line.saturating_sub(1).min(original.len().saturating_sub(1));
        if !waived(&original, idx, rule) {
            out.push(Finding {
                file: path,
                line,
                rule,
                msg,
            });
        } else {
            stats_waived(stats, rule);
        }
    }

    out.extend(conc_crosscheck(files, stats));
    out.extend(sync_model_check(files, stats));
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out.dedup();

    let inventory = classify(&accesses);
    (out, inventory)
}

/// Run the concurrency rules over every `.rs` file under `root`.
pub fn check_tree_conc(
    root: &std::path::Path,
) -> std::io::Result<(usize, Vec<Finding>, Vec<WordRow>, StatsMap)> {
    let mut rel_files = Vec::new();
    collect_rs_files(root, root, &mut rel_files)?;
    rel_files.sort();
    let mut files = Vec::new();
    for rel in &rel_files {
        let src = std::fs::read_to_string(root.join(rel))?;
        files.push((rel.clone(), src));
    }
    let mut stats = StatsMap::new();
    for rule in [RULE_CONC_LOCKSET, RULE_CONC_ATOMICITY] {
        stats_virt(&mut stats, rule, 0);
    }
    let (findings, inventory) = check_files_conc_stats(&files, &mut stats);
    Ok((files.len(), findings, inventory, stats))
}

// ---------------------------------------------------------------------------
// Waiver cross-check against the dynamic twins.
// ---------------------------------------------------------------------------

fn is_test_path(path: &str) -> bool {
    path.contains("/tests/") || path.contains("/benches/") || path.contains("/examples/")
}

/// Valid `sched=` witnesses: the index names the scheduler explores
/// plus every race-testhook function defined in a `testhooks` module.
fn sched_witnesses(files: &[(String, String)]) -> BTreeSet<String> {
    let mut out: BTreeSet<String> = SCHED_INDEXES.iter().map(|s| s.to_string()).collect();
    for (path, src) in files {
        if !file_stem(path).contains("testhooks") {
            continue;
        }
        for f in crate::parse::parse_functions(&strip_non_code(src)) {
            out.insert(f.name);
        }
    }
    out
}

/// `conc-*` waivers must cite a dynamic witness; race testhooks consulted
/// by non-test source must be cited by some waiver (both directions,
/// mirroring the flow rules' `san_forgive` cross-check).
fn conc_crosscheck(files: &[(String, String)], stats: &mut StatsMap) -> Vec<Finding> {
    let mut out = Vec::new();
    let witnesses = sched_witnesses(files);
    let san_sites = dynamic_san_sites(files);

    let mut cited: BTreeSet<String> = BTreeSet::new();
    for (path, src) in files {
        if is_test_path(path) {
            continue;
        }
        stats_virt(stats, RULE_CONC_XREF, src.lines().count() as u64);
        let test_region = cfg_test_lines(&strip_non_code(src));
        for (i, line) in src.lines().enumerate() {
            if test_region.get(i).copied().unwrap_or(false) {
                continue;
            }
            let Some(cpos) = line.find("//") else { continue };
            let comment = &line[cpos..];
            let Some(pos) = comment
                .find("lint:allow(conc-")
                .or_else(|| comment.find("lint:allow-file(conc-"))
            else {
                continue;
            };
            let reason = &comment[pos..];
            let token_after = |tag: &str| -> Option<String> {
                let p = reason.find(tag)?;
                Some(
                    reason[p + tag.len()..]
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == ':')
                        .collect(),
                )
            };
            let none_why = |tag: &str| -> Option<&str> {
                let p = reason.find(tag)?;
                reason[p + tag.len()..].split(')').next()
            };
            if let Some(why) = none_why("sched=none(").or_else(|| none_why("san=none(")) {
                if why.trim().is_empty() {
                    out.push(Finding {
                        file: path.clone(),
                        line: i + 1,
                        rule: RULE_CONC_XREF,
                        msg: "none() needs a reason why no dynamic twin covers this site".into(),
                    });
                }
            } else if let Some(w) = token_after("sched=") {
                if witnesses.contains(&w) {
                    cited.insert(w);
                } else {
                    out.push(Finding {
                        file: path.clone(),
                        line: i + 1,
                        rule: RULE_CONC_XREF,
                        msg: format!(
                            "waiver cites sched={w}, which is neither a scheduler-explored \
                             index nor a race testhook"
                        ),
                    });
                }
            } else if let Some(k) = token_after("san=") {
                if !san_sites.contains_key(&k) {
                    out.push(Finding {
                        file: path.clone(),
                        line: i + 1,
                        rule: RULE_CONC_XREF,
                        msg: format!("waiver cites san={k}, but no such san_forgive site exists"),
                    });
                }
            } else {
                out.push(Finding {
                    file: path.clone(),
                    line: i + 1,
                    rule: RULE_CONC_XREF,
                    msg: "conc waiver must cite its dynamic twin: sched=<index|testhook>, \
                          san=<file>::<fn>, or sched=none(<why>)"
                        .into(),
                });
            }
        }
    }

    // Reverse: race testhooks consulted from real (non-test, non-hook)
    // source represent deliberately-unfixed races; each must be pinned
    // by a waiver citing it.
    let race_hooks: Vec<&String> = witnesses.iter().filter(|w| w.contains("racy")).collect();
    for hook in race_hooks {
        let used = files.iter().find(|(path, src)| {
            (path.starts_with("crates/baselines/") || path.starts_with("crates/core/"))
                && !is_test_path(path)
                && !file_stem(path).contains("testhooks")
                && strip_non_code(src).contains(hook.as_str())
        });
        if let Some((path, src)) = used {
            if !cited.contains(hook) {
                let line = strip_non_code(src)
                    .lines()
                    .position(|l| l.contains(hook.as_str()))
                    .map(|i| i + 1)
                    .unwrap_or(1);
                out.push(Finding {
                    file: path.clone(),
                    line,
                    rule: RULE_CONC_XREF,
                    msg: format!(
                        "race testhook `{hook}` is consulted here but no conc waiver cites \
                         sched={hook}; the deliberate race must be pinned to its witness"
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Sync-model cross-check.
// ---------------------------------------------------------------------------

/// `// conc: region(<kind>) fn=<name>` annotations at the primitive
/// definitions must agree with [`REGION_FNS`] in both directions.
fn sync_model_check(files: &[(String, String)], stats: &mut StatsMap) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut seen: BTreeMap<String, (String, String, usize)> = BTreeMap::new();
    let mut primitive_files = false;
    for (path, src) in files {
        // Primitives live in pmem/htm; the two-phase wrapper the
        // lowering also models is defined in core, so annotations are
        // scanned there too. The reverse direction stays gated on the
        // pmem/htm primitives being in the scanned set.
        let primitive = path.starts_with("crates/pmem/") || path.starts_with("crates/htm/");
        let annot_scope = primitive || path.starts_with("crates/core/");
        if !annot_scope || is_test_path(path) {
            continue;
        }
        primitive_files |= primitive;
        stats_virt(stats, RULE_CONC_SYNC_MODEL, src.lines().count() as u64);
        for (i, line) in src.lines().enumerate() {
            let Some(cpos) = line.find("//") else { continue };
            let comment = &line[cpos..];
            let Some(pos) = comment.find("conc: region(") else { continue };
            let rest = &comment[pos + "conc: region(".len()..];
            let Some(kind) = rest.split(')').next() else { continue };
            let Some(fpos) = rest.find("fn=") else {
                out.push(Finding {
                    file: path.clone(),
                    line: i + 1,
                    rule: RULE_CONC_SYNC_MODEL,
                    msg: "region annotation without fn=<name>".into(),
                });
                continue;
            };
            let name: String = rest[fpos + 3..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            seen.insert(name, (kind.to_string(), path.clone(), i + 1));
        }
    }
    for (name, (kind, path, line)) in &seen {
        match REGION_FNS.iter().find(|(n, _)| n == name) {
            None => out.push(Finding {
                file: path.clone(),
                line: *line,
                rule: RULE_CONC_SYNC_MODEL,
                msg: format!(
                    "`{name}` is annotated as a sync region but the CFG lowering does not \
                     model it (cfg::REGION_FNS); the static lockset analysis is blind to it"
                ),
            }),
            Some((_, k)) if k != kind => out.push(Finding {
                file: path.clone(),
                line: *line,
                rule: RULE_CONC_SYNC_MODEL,
                msg: format!(
                    "`{name}` is annotated region({kind}) but the lowering models it as \
                     region({k})"
                ),
            }),
            Some(_) => {}
        }
    }
    // Reverse direction only when the primitives are in the scanned set
    // (the real tree; synthetic fixtures check the forward direction).
    if primitive_files {
        for (name, kind) in REGION_FNS {
            if !seen.contains_key(*name) {
                let anchor = files
                    .iter()
                    .find(|(p, _)| p.starts_with("crates/pmem/") || p.starts_with("crates/htm/"))
                    .map(|(p, _)| p.clone())
                    .unwrap_or_else(|| "crates/pmem".into());
                out.push(Finding {
                    file: anchor,
                    line: 1,
                    rule: RULE_CONC_SYNC_MODEL,
                    msg: format!(
                        "lowering models `{name}` as region({kind}) but no primitive \
                         definition carries `// conc: region({kind}) fn={name}`; annotate \
                         the definition so the model is pinned to the code"
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Report rendering.
// ---------------------------------------------------------------------------

/// The `spash-lint conc --json` report: the schema-2 lint report plus
/// the shared-word `inventory` section. Deterministic bytes.
pub fn conc_report_json(
    mode: &str,
    files_scanned: usize,
    findings: &[Finding],
    stats: &StatsMap,
    inventory: &[WordRow],
) -> crate::json::Json {
    use crate::json::Json;
    let base = crate::lint::report_json(mode, files_scanned, findings, stats);
    let Json::Obj(mut pairs) = base else { unreachable!("report_json returns an object") };
    pairs.push((
        "inventory".into(),
        Json::Arr(
            inventory
                .iter()
                .map(|w| {
                    Json::Obj(vec![
                        ("word".into(), Json::Str(w.word.clone())),
                        ("class".into(), Json::Str(w.class.clone())),
                        ("discipline".into(), Json::Str(w.discipline.clone())),
                        ("reads".into(), Json::Int(w.reads)),
                        ("writes".into(), Json::Int(w.writes)),
                        ("rmws".into(), Json::Int(w.rmws)),
                        (
                            "locks".into(),
                            Json::Arr(w.locks.iter().map(|l| Json::Str(l.clone())).collect()),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conc(src: &str) -> (Vec<Finding>, Vec<WordRow>) {
        check_files_conc(&[("crates/baselines/src/x.rs".to_string(), src.to_string())])
    }

    #[test]
    fn locked_write_is_clean() {
        let (f, inv) = conc(
            "fn insert(&self, ctx: &mut MemCtx, k: u64) { \
               self.shards[0].with(ctx, |ctx, _| { ctx.write_u64(self.slot_addr(k), k); }); }",
        );
        assert!(f.is_empty(), "{f:?}");
        let row = inv.iter().find(|w| w.word == "x::slot_addr").unwrap();
        assert_eq!(row.class, "sharded");
        assert_eq!(row.discipline, "lock:shards");
    }

    #[test]
    fn bare_write_fires_lockset() {
        let (f, inv) = conc(
            "fn insert(&self, ctx: &mut MemCtx, k: u64) { ctx.write_u64(self.slot_addr(k), k); }",
        );
        assert!(f.iter().any(|x| x.rule == RULE_CONC_LOCKSET), "{f:?}");
        let row = inv.iter().find(|w| w.word == "x::slot_addr").unwrap();
        assert_eq!(row.discipline, "none");
    }

    #[test]
    fn cas_publish_discipline_is_exempt() {
        let (f, inv) = conc(
            "fn insert(&self, ctx: &mut MemCtx, k: u64) { \
               ctx.write_u64(self.slot_addr(k), k); ctx.cas_u64(self.head_addr(), 0, k); }",
        );
        assert!(f.iter().all(|x| x.rule != RULE_CONC_LOCKSET), "{f:?}");
        let row = inv.iter().find(|w| w.word == "x::slot_addr").unwrap();
        assert_eq!(row.discipline, "cas-publish");
    }

    #[test]
    fn helper_inherits_caller_lock() {
        let (f, _) = conc(
            "fn insert(&self, ctx: &mut MemCtx, k: u64) { \
               self.shards[0].with(ctx, |ctx, _| { self.slot_put(ctx, k) }); }\n\
             fn slot_put(&self, ctx: &mut MemCtx, k: u64) { ctx.write_u64(self.slot_addr(k), k); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unreachable_fn_is_single_threaded() {
        let (f, _) = conc(
            "fn recover_scan(&self, ctx: &mut MemCtx) { ctx.write_u64(self.slot_addr(0), 0); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn check_then_act_across_regions_fires() {
        // The PLUSH shape: an unguarded existence probe decides whether
        // to call a helper that writes the shared word under its own
        // (too-late) lock — the probed condition can be invalidated
        // before the helper re-acquires.
        let (f, _) = conc(
            "fn insert(&self, ctx: &mut MemCtx, k: u64) {\n\
               let hit = self.probe(ctx, k);\n\
               if hit == 0 {\n\
                 self.put(ctx, k);\n\
               }\n\
             }\n\
             fn probe(&self, ctx: &mut MemCtx, k: u64) -> u64 {\n\
               ctx.read_u64(self.slot_addr(k))\n\
             }\n\
             fn put(&self, ctx: &mut MemCtx, k: u64) {\n\
               self.shards[0].with(ctx, |ctx, _| { ctx.write_u64(self.slot_addr(k), k); });\n\
             }",
        );
        assert!(f.iter().any(|x| x.rule == RULE_CONC_ATOMICITY && x.line == 4), "{f:?}");
    }

    #[test]
    fn check_and_act_in_one_region_is_clean() {
        let (f, _) = conc(
            "fn insert(&self, ctx: &mut MemCtx, k: u64) { \
               self.shards[0].with(ctx, |ctx, _| { \
                 if ctx.read_u64(self.slot_addr(k)) == 0 { \
                   ctx.write_u64(self.slot_addr(k), k); } }); }",
        );
        assert!(f.iter().all(|x| x.rule != RULE_CONC_ATOMICITY), "{f:?}");
    }

    #[test]
    fn conc_waiver_requires_witness() {
        let files = vec![(
            "crates/baselines/src/x.rs".to_string(),
            "// lint:allow(conc-lockset): because reasons\nfn g() {}".to_string(),
        )];
        let (f, _) = check_files_conc(&files);
        assert!(
            f.iter().any(|x| x.rule == RULE_CONC_XREF && x.msg.contains("sched=")),
            "{f:?}"
        );
    }

    #[test]
    fn conc_waiver_with_index_witness_passes() {
        let files = vec![(
            "crates/baselines/src/x.rs".to_string(),
            "// lint:allow(conc-lockset): racy by design sched=Halo\nfn g() {}".to_string(),
        )];
        let (f, _) = check_files_conc(&files);
        assert!(f.iter().all(|x| x.rule != RULE_CONC_XREF), "{f:?}");
    }

    #[test]
    fn stale_sched_witness_fires() {
        let files = vec![(
            "crates/baselines/src/x.rs".to_string(),
            "// lint:allow(conc-lockset): stale sched=NoSuchThing\nfn g() {}".to_string(),
        )];
        let (f, _) = check_files_conc(&files);
        assert!(
            f.iter().any(|x| x.rule == RULE_CONC_XREF && x.msg.contains("NoSuchThing")),
            "{f:?}"
        );
    }

    #[test]
    fn sync_model_annotation_mismatch_fires() {
        let files = vec![(
            "crates/pmem/src/vlock.rs".to_string(),
            "// conc: region(unmodeled) fn=mystery_sync\npub fn mystery_sync() {}".to_string(),
        )];
        let (f, _) = check_files_conc(&files);
        assert!(
            f.iter().any(|x| x.rule == RULE_CONC_SYNC_MODEL && x.msg.contains("mystery_sync")),
            "{f:?}"
        );
    }

}
