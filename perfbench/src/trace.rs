//! Host-time spans recorded by the benchmark around its calls into each
//! layer's public functions; the program under test keeps only its own
//! virtual-time span ledger. Spans stay in memory and are written out
//! when the run ends.
//!
//! Under the cooperative scheduler each task records into its own
//! [`Tracer`]; a span there can contain a baton pass, during which another
//! task's spans run. Such cross-task overlap is measured and reported
//! ([`cross_task_overlap_ns`]), and parents subtract the *union* of their
//! children, so it is never counted twice in self time.

use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// Request id of a span that serves no single request.
pub const NO_REQ: u64 = u64::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// 0 for the driving thread, `1 + shard` for scheduler tasks.
    pub task: u16,
    pub req: u64,
    pub parent: u32,
    /// Host ns since the run's origin.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// One thread's span recorder.
pub struct Tracer {
    origin: Instant,
    task: u16,
    /// Parent given to spans opened with nothing else open.
    root_parent: u32,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(origin: Instant, task: u16) -> Self {
        Self {
            origin,
            task,
            root_parent: NO_PARENT,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for a scheduler task whose spans were caused by span
    /// `parent` of the driving thread's recorder.
    pub fn child_task(origin: Instant, task: u16, parent: u32) -> Self {
        Self {
            root_parent: parent,
            ..Self::new(origin, task)
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index.
    pub fn enter(&mut self, name: &'static str, req: u64) -> u32 {
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            name,
            task: self.task,
            req,
            parent,
            start,
            end: start,
        });
        self.open.push(idx);
        idx
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let idx = self.open.pop().expect("exit without an open span");
        self.spans[idx as usize].end = self.now();
    }

    /// Append a task's spans, re-indexing their parents; its top-level
    /// spans get the parent given to [`Tracer::child_task`].
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NO_PARENT {
                other.root_parent
            } else {
                s.parent + base
            };
            s
        }));
    }
}

/// Run `f` inside span `name` when tracing; just run it otherwise.
#[inline]
pub fn traced<R>(t: &mut Option<Tracer>, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    match t {
        None => f(),
        Some(t) => {
            t.enter(name, req);
            let r = f();
            t.exit();
            r
        }
    }
}

/// Total length of the union of `intervals`.
pub fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of it that the
/// union of its children covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start.max(p.start), s.end.min(p.end));
            if a < b {
                kids[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(kids)
        .map(|(s, k)| s.dur() - union_len(k))
        .collect()
}

/// Host time during which spans of two or more different tasks are open
/// at once (only scheduler tasks, `task != 0`, are compared).
pub fn cross_task_overlap_ns(spans: &[Span]) -> u64 {
    let mut events: Vec<(u64, i32, u16)> = Vec::new();
    let tasks: std::collections::BTreeSet<u16> = spans
        .iter()
        .filter(|s| s.task != 0)
        .map(|s| s.task)
        .collect();
    for &t in &tasks {
        // Merge each task's own intervals first: nesting within a task is
        // not overlap.
        let mut iv: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.task == t && s.end > s.start)
            .map(|s| (s.start, s.end))
            .collect();
        iv.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for (s, e) in iv {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        for (s, e) in merged {
            events.push((s, 1, t));
            events.push((e, -1, t));
        }
    }
    // Ends sort before starts at the same instant: touching is not overlap.
    events.sort_unstable_by_key(|&(at, d, _)| (at, d));
    let (mut active, mut since, mut total) = (0i32, 0u64, 0u64);
    for (at, d, _) in events {
        if active >= 2 {
            total += at - since;
        }
        active += d;
        since = at;
    }
    total
}

/// Write every span as one tab-separated line.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "idx\tname\ttask\treq\tparent\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let req = if s.req == NO_REQ { -1 } else { s.req as i64 };
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            s.parent as i64
        };
        writeln!(
            w,
            "{i}\t{}\t{}\t{req}\t{parent}\t{}\t{}",
            s.name, s.task, s.start, s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, task: u16, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            task,
            req: NO_REQ,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, NO_PARENT, 0, 100),
            span("a", 1, 0, 10, 40),
            // Overlaps "a" (another task ran inside it): counted once.
            span("b", 2, 0, 30, 50),
            span("leaf", 1, 1, 12, 20),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![100 - 40, 30 - 8, 20, 8]);
        // Self times never sum past the root's duration.
        assert!(st.iter().sum::<u64>() <= 100 + 10);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("p", 0, NO_PARENT, 10, 20), span("c", 0, 0, 5, 15)];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn cross_task_overlap_is_measured_not_hidden() {
        let spans = vec![
            span("run", 0, NO_PARENT, 0, 100),
            span("t1", 1, 0, 0, 50),
            span("t1-inner", 1, 1, 10, 20),
            span("t2", 2, 0, 40, 60),
            // Touching at 60 is not overlap.
            span("t1-late", 1, 0, 60, 70),
        ];
        assert_eq!(cross_task_overlap_ns(&spans), 10);
    }

    #[test]
    fn union_len_merges() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_len(vec![]), 0);
    }

    #[test]
    fn tracer_nests_and_absorbs() {
        let origin = Instant::now();
        let mut main = Tracer::new(origin, 0);
        let run = main.enter("run_batch", NO_REQ);
        let mut task = Tracer::child_task(origin, 1, run);
        task.enter("commit_batch", 7);
        task.enter("inner", 7);
        task.exit();
        task.exit();
        main.exit();
        main.absorb(task);
        let s = &main.spans;
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, run);
        assert_eq!(s[2].parent, 1);
        assert_eq!((s[1].task, s[1].req), (1, 7));
        let mut none = None;
        assert_eq!(traced(&mut none, "x", 0, || 5), 5);
    }
}
