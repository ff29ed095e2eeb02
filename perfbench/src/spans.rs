//! The benchmark's own spans, one around each public call it makes into
//! the simulator crates (`run_sim`, `run_scenario`, `RunCache::run`,
//! `run_experiment`, table rendering, store open).
//!
//! They are kept apart from `h2_sim_core::prof` on purpose: the runner
//! flushes the profiler's thread state at the end of every simulation,
//! which discards any scope still open around it. These spans live in
//! memory on the calling thread, are recorded only while the profiler is
//! armed, and are folded into the result when the pass ends.

use h2_sim_core::prof;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct Rec {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

#[derive(Default)]
struct Log {
    recs: Vec<Rec>,
    stack: Vec<usize>,
}

thread_local! {
    static LOG: RefCell<Log> = RefCell::new(Log::default());
}

/// Closes its span on drop.
#[must_use = "a span ends when its guard drops"]
pub struct Span {
    idx: Option<usize>,
}

/// Open a span named `name` (a no-op while the profiler is disarmed).
pub fn span(name: &'static str) -> Span {
    if !prof::armed() {
        return Span { idx: None };
    }
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        let idx = l.recs.len();
        let parent = l.stack.last().copied();
        l.recs.push(Rec {
            name,
            parent,
            start: Instant::now(),
            end: None,
        });
        l.stack.push(idx);
        Span { idx: Some(idx) }
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        LOG.with(|l| {
            let mut l = l.borrow_mut();
            l.recs[idx].end = Some(Instant::now());
            if l.stack.last() == Some(&idx) {
                l.stack.pop();
            }
        });
    }
}

/// Spans closed since the last call, folded per name.
#[derive(Debug, Default)]
pub struct SpanTotals {
    /// Self nanoseconds (duration minus child spans) and count per name.
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Nanoseconds covered by top-level spans.
    pub covered_ns: u64,
}

/// Drain the calling thread's span log.
pub fn take() -> SpanTotals {
    let log = LOG.with(|l| std::mem::take(&mut *l.borrow_mut()));
    let dur = |r: &Rec| {
        r.end
            .map_or(0, |e| e.duration_since(r.start).as_nanos() as u64)
    };
    let mut child_ns = vec![0u64; log.recs.len()];
    for r in &log.recs {
        if let Some(p) = r.parent {
            child_ns[p] += dur(r);
        }
    }
    let mut out = SpanTotals::default();
    for (i, r) in log.recs.iter().enumerate() {
        let e = out.by_name.entry(r.name).or_default();
        e.0 += dur(r).saturating_sub(child_ns[i]);
        e.1 += 1;
        if r.parent.is_none() {
            out.covered_ns += dur(r);
        }
    }
    out
}
