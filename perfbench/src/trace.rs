//! Outside-in instrumentation: a span recorder around calls into the
//! simulator, and two decorators around a policy.
//!
//! Nothing here reaches into the simulator. Spans time public calls
//! from the caller's side, and [`TimedPolicy`] and [`StampedPolicy`]
//! wrap a `Box<dyn Policy>` handed in through
//! `SimulationBuilder::policy_instance` or the policy registry,
//! forwarding every hook unchanged.

use camdn_core::Decision;
use camdn_mapper::Mct;
use camdn_runtime::{
    AllocFailure, EpochSlot, InstallEvent, PartitionCtx, Policy, PolicyCapabilities, Selection,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// In-memory span recorder. A disabled recorder calls straight through
/// and records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Call count, total and self time of every span with one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.ns(Instant::now());
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: start,
                end_ns: start,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records an interval measured by the caller as a child of the
    /// innermost open span.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.borrow().last().copied(),
        };
        self.spans.borrow_mut().push(span);
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Per-name totals; self time is a span's duration minus the time
    /// its direct children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

/// Hook counters shared by every [`TimedPolicy`] of one study.
#[derive(Debug, Default)]
pub struct HookStats {
    pub selections: AtomicU64,
    pub alloc_failures: AtomicU64,
    pub installs: AtomicU64,
    pub hook_ns: AtomicU64,
}

impl HookStats {
    pub fn get(&self) -> [u64; 4] {
        [
            self.selections.load(Ordering::Relaxed),
            self.alloc_failures.load(Ordering::Relaxed),
            self.installs.load(Ordering::Relaxed),
            self.hook_ns.load(Ordering::Relaxed),
        ]
    }
}

/// Forwards every hook to `inner`, counting calls and their wall time.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    stats: Arc<HookStats>,
}

impl TimedPolicy {
    pub fn wrap(inner: Box<dyn Policy>, stats: Arc<HookStats>) -> Box<dyn Policy> {
        Box::new(TimedPolicy { inner, stats })
    }

    fn timed<T>(
        &mut self,
        counter: Option<fn(&HookStats) -> &AtomicU64>,
        f: impl FnOnce(&mut dyn Policy) -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f(self.inner.as_mut());
        self.stats
            .hook_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Some(c) = counter {
            c(&self.stats).fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

impl Policy for TimedPolicy {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn capabilities(&self) -> PolicyCapabilities {
        self.inner.capabilities()
    }

    fn partition(&mut self, ctx: &PartitionCtx) {
        self.timed(None, |p| p.partition(ctx))
    }

    fn on_epoch(&mut self, now: u64, npu_budget: usize, slots: &mut [EpochSlot]) {
        self.timed(None, |p| p.on_epoch(now, npu_budget, slots))
    }

    fn select_candidate(
        &mut self,
        now: u64,
        task: u32,
        mct: &Mct,
        lbm_active: bool,
        idle_pages: u32,
    ) -> Selection {
        self.timed(Some(|s| &s.selections), |p| {
            p.select_candidate(now, task, mct, lbm_active, idle_pages)
        })
    }

    fn on_alloc_failure(
        &mut self,
        now: u64,
        task: u32,
        mct: &Mct,
        decision: &Decision,
    ) -> AllocFailure {
        self.timed(Some(|s| &s.alloc_failures), |p| {
            p.on_alloc_failure(now, task, mct, decision)
        })
    }

    fn on_install(&mut self, now: u64, task: u32, ev: &InstallEvent) {
        self.timed(Some(|s| &s.installs), |p| p.on_install(now, task, ev))
    }

    fn on_layer_retire(&mut self, now: u64, task: u32, lbm_block_ended: bool) {
        self.timed(None, |p| p.on_layer_retire(now, task, lbm_block_ended))
    }

    fn on_task_done(&mut self, task: u32) {
        self.timed(None, |p| p.on_task_done(task))
    }

    fn set_lookahead(&mut self, factor: f64) {
        self.inner.set_lookahead(factor)
    }

    fn on_topology_change(&mut self, now: u64, ctx: &PartitionCtx) {
        self.timed(None, |p| p.on_topology_change(now, ctx))
    }
}

/// Forwards every hook to `inner`, stamping the time of each candidate
/// selection: marks that split an untraced engine run into pieces at
/// the cost of one clock read each.
pub struct StampedPolicy {
    inner: Box<dyn Policy>,
    stamps: Arc<Mutex<Vec<Instant>>>,
}

impl StampedPolicy {
    pub fn wrap(inner: Box<dyn Policy>, stamps: Arc<Mutex<Vec<Instant>>>) -> Box<dyn Policy> {
        Box::new(StampedPolicy { inner, stamps })
    }
}

impl Policy for StampedPolicy {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn capabilities(&self) -> PolicyCapabilities {
        self.inner.capabilities()
    }

    fn partition(&mut self, ctx: &PartitionCtx) {
        self.inner.partition(ctx)
    }

    fn on_epoch(&mut self, now: u64, npu_budget: usize, slots: &mut [EpochSlot]) {
        self.inner.on_epoch(now, npu_budget, slots)
    }

    fn select_candidate(
        &mut self,
        now: u64,
        task: u32,
        mct: &Mct,
        lbm_active: bool,
        idle_pages: u32,
    ) -> Selection {
        self.stamps
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Instant::now());
        self.inner
            .select_candidate(now, task, mct, lbm_active, idle_pages)
    }

    fn on_alloc_failure(
        &mut self,
        now: u64,
        task: u32,
        mct: &Mct,
        decision: &Decision,
    ) -> AllocFailure {
        self.inner.on_alloc_failure(now, task, mct, decision)
    }

    fn on_install(&mut self, now: u64, task: u32, ev: &InstallEvent) {
        self.inner.on_install(now, task, ev)
    }

    fn on_layer_retire(&mut self, now: u64, task: u32, lbm_block_ended: bool) {
        self.inner.on_layer_retire(now, task, lbm_block_ended)
    }

    fn on_task_done(&mut self, task: u32) {
        self.inner.on_task_done(task)
    }

    fn set_lookahead(&mut self, factor: f64) {
        self.inner.set_lookahead(factor)
    }

    fn on_topology_change(&mut self, now: u64, ctx: &PartitionCtx) {
        self.inner.on_topology_change(now, ctx)
    }
}
