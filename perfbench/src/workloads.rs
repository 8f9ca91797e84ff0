//! The three workloads. Each is a closed loop on the host: a pass runs
//! whole units back to back, and results fold in unit-index order.
//!
//! * `contention`: Baseline on the 16-tenant Section IV-A4 workload;
//!   one unit is one engine run.
//! * `serving`: CaMDN(Full) replaying a seeded heavy-tailed trace; one
//!   unit is one replay window.
//! * `grid`: the Fig. 8 grid through `Sweep::grid()`; one unit is one
//!   cell.

use crate::probes::{self, MapProbe};
use crate::trace::{HookStats, StampedPolicy, TimedPolicy, Tracer};
use camdn_bench::{
    cycling_workload, dram_by_model, geomean, latency_by_model, speedup_policies, speedup_workload,
};
use camdn_common::config::SocConfig;
use camdn_common::types::{ms_to_cycles, MIB};
use camdn_mapper::MapperConfig;
use camdn_models::Model;
use camdn_runtime::{
    builtin_policy, register_policy, DetailLevel, PolicyKind, RunSummary, Simulation,
    SimulationBuilder, Workload,
};
use camdn_sweep::{CellCoord, Sweep, SweepBuilder, SweepResult};
use camdn_trace::{
    windows, ReplayAggregate, ReplayConfig, ReplayDriver, ReplaySink, SlaClass, TraceGen,
    TraceGenConfig, TraceRecord, WindowMetrics,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Closed-loop rounds per tenant (the first is warm-up).
const ROUNDS: u32 = 2;
/// Paper Section IV-B: CaMDN(Full) over AuRORA, average speedup.
pub const PAPER_SPEEDUP: f64 = 1.88;
/// Paper Section IV-B: average memory-access reduction, percent.
pub const PAPER_MEM_REDUCTION_PCT: f64 = 33.4;
/// Serving: offered rate (below CaMDN(Full)'s SLO knee), trace length
/// and analysis window.
const SERVE_RATE_PER_S: f64 = 250.0;
const SERVE_HORIZON_S: f64 = 8.0;
const SERVE_WINDOW_US: u64 = 50_000;
/// Grid axes: the Fig. 8 cache sizes and tenant counts.
const GRID_CACHE_MIB: [u64; 5] = [4, 8, 16, 32, 64];
const GRID_TENANTS: [usize; 4] = [2, 4, 8, 16];

/// FNV-1a, folded over the debug form of each result in unit order.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, item: &impl std::fmt::Debug) {
        for b in format!("{item:?}").bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// What one pass measured and checked.
#[derive(Default)]
pub struct Pass {
    pub wall_s: f64,
    /// Host time of each piece of the pass, in order. The simulator is
    /// deterministic, so piece `i` is the same work in every pass.
    pub piece_walls_s: Vec<f64>,
    /// Consecutive pieces that make one unit (0 is read as 1).
    pub pieces_per_unit: usize,
    /// Threads the units ran on (0 or 1: one after another).
    pub workers: usize,
    pub sim_cycles: u64,
    pub requests: u64,
    pub digest: u64,
    pub failed_units: u64,
    pub checks: u64,
    pub failures: Vec<String>,
}

impl Pass {
    /// Host time of each unit.
    pub fn unit_walls_s(&self) -> Vec<f64> {
        self.piece_walls_s
            .chunks(self.pieces_per_unit.max(1))
            .map(|c| c.iter().sum())
            .collect()
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// The latency tail must count every measured inference.
    fn check_tail(&mut self, unit: &str, s: &RunSummary) {
        self.check(s.latency_tail.total() == s.inferences as u64, || {
            format!(
                "{unit}: latency tail counts {} of {} inferences",
                s.latency_tail.total(),
                s.inferences
            )
        });
    }
}

/// The probe engine's results over its traced runs.
pub struct Probe {
    pub sim_cycles: u64,
    pub inferences: usize,
    pub cache_hit_rate: f64,
    pub mem_mb_per_model: f64,
    pub hooks: [u64; 4],
    pub runs: u64,
    pub wall_s: f64,
}

/// One benchmark workload after set-up.
pub trait Study {
    /// Runs one pass of whole units.
    fn pass(&mut self, tr: &Tracer) -> Pass;
    /// The workload's representative engine run and its policy.
    fn probe(&self) -> (PolicyKind, SimulationBuilder);
    /// The tenants the layer probes replay.
    fn tenants(&self) -> &[Model];
    /// The set-up's cold map of the tenants.
    fn map_probe(&self) -> &MapProbe;
    /// Workload-specific output checks, run after the loop.
    fn checks(&self) -> Vec<(bool, String)>;
    /// Prints workload-specific metrics.
    fn report(&self, _passes: &[Pass]) {}
    /// Switches to the traced configuration's worker count.
    fn serial(&mut self) {}
    /// Wraps the policy of every later unit in a [`TimedPolicy`]
    /// (`None` unwraps it again).
    fn instrument(&mut self, hooks: Option<&Arc<HookStats>>);
    /// Hook counters, engine runs and engine seconds of the
    /// instrumented passes, when the workload can instrument them.
    fn hook_totals(&self) -> Option<([u64; 4], u64, f64)> {
        None
    }
    /// Lookup hit rate of the plan cache the workload's engines shared.
    fn plan_cache_hit_rate(&self) -> Option<f64> {
        None
    }
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Builds the named workload: inputs, a cold map of its tenants and
/// one engine build.
pub fn setup(name: &str, seed: u64, out_dir: &Path, tr: &Tracer) -> Result<Box<dyn Study>, String> {
    let study: Box<dyn Study> = match name {
        "contention" => Box::new(Contention::new(seed, tr)),
        "serving" => Box::new(Serving::new(seed, tr)?),
        "grid" => Box::new(Grid::new(seed, out_dir, tr)),
        _ => {
            return Err(format!(
                "unknown workload {name:?} (contention, serving or grid)"
            ))
        }
    };
    let (_, probe) = study.probe();
    tr.span("runtime.build", || {
        probe
            .plan_cache(Arc::clone(&study.map_probe().cache))
            .build()
    })
    .map_err(|e| err("probe build", e))?;
    Ok(study)
}

/// Runs the probe engine `n` times behind a [`TimedPolicy`].
pub fn run_probe(study: &dyn Study, tr: &Tracer, n: usize) -> Result<Probe, String> {
    let hooks = Arc::new(HookStats::default());
    let mut wall_s = 0.0;
    let mut last = None;
    for _ in 0..n {
        let (kind, b) = study.probe();
        let b = b
            .plan_cache(Arc::clone(&study.map_probe().cache))
            .policy_instance(TimedPolicy::wrap(builtin_policy(kind), Arc::clone(&hooks)));
        let sim = tr
            .span("runtime.build", || b.build())
            .map_err(|e| err("probe build", e))?;
        let t0 = Instant::now();
        let out = tr
            .span("runtime.run", || sim.run())
            .map_err(|e| err("probe run", e))?;
        wall_s += t0.elapsed().as_secs_f64();
        last = Some(out.summary);
    }
    let s = last.ok_or("no probe run")?;
    Ok(Probe {
        sim_cycles: ms_to_cycles(s.makespan_ms),
        inferences: s.inferences,
        cache_hit_rate: s.cache_hit_rate,
        mem_mb_per_model: s.mem_mb_per_model,
        hooks: hooks.get(),
        runs: n as u64,
        wall_s,
    })
}

/// Checks the probe run against the per-line reference memory model.
fn reference_check(study: &dyn Study) -> (bool, String) {
    let run = |reference| {
        study
            .probe()
            .1
            .reference_model(reference)
            .run()
            .map(|o| o.summary)
    };
    match (run(false), run(true)) {
        (Ok(batched), Ok(reference)) => (
            batched == reference,
            "batched memory model diverged from the per-line reference model".into(),
        ),
        (Err(e), _) | (_, Err(e)) => (false, err("probe", e)),
    }
}

// ------------------------------------------------------------------
// contention
// ------------------------------------------------------------------

struct Contention {
    seed: u64,
    models: Vec<Model>,
    map: MapProbe,
    hooks: Option<Arc<HookStats>>,
    runs: u64,
    run_s: f64,
}

impl Contention {
    fn new(seed: u64, tr: &Tracer) -> Self {
        let models = speedup_workload();
        let map = tr.span("mapper.map_models", || {
            probes::map_models(&models, &MapperConfig::paper_default())
        });
        Contention {
            seed,
            models,
            map,
            hooks: None,
            runs: 0,
            run_s: 0.0,
        }
    }
}

impl Study for Contention {
    fn probe(&self) -> (PolicyKind, SimulationBuilder) {
        let b = Simulation::builder()
            .policy(PolicyKind::SharedBaseline)
            .workload(Workload::closed(self.models.clone(), ROUNDS))
            .seed(self.seed);
        (PolicyKind::SharedBaseline, b)
    }

    fn pass(&mut self, tr: &Tracer) -> Pass {
        let mut p = Pass::default();
        let t0 = Instant::now();
        let (kind, mut b) = self.probe();
        b = b.plan_cache(Arc::clone(&self.map.cache));
        let stamps = Arc::new(Mutex::new(Vec::new()));
        b = b.policy_instance(match &self.hooks {
            Some(h) => TimedPolicy::wrap(builtin_policy(kind), Arc::clone(h)),
            None => StampedPolicy::wrap(builtin_policy(kind), Arc::clone(&stamps)),
        });
        let out = tr
            .span("runtime.build", || b.build())
            .and_then(|sim| tr.span("runtime.run", || sim.run()));
        let t1 = Instant::now();
        p.wall_s = t1.duration_since(t0).as_secs_f64();
        // The run's pieces are split at its candidate selections (2,204
        // of them), so a burst of interference costs one piece of one
        // pass, not the whole unit.
        let stamps = std::mem::take(&mut *stamps.lock().unwrap_or_else(|e| e.into_inner()));
        let ends = stamps.iter().copied().chain([t1]);
        p.piece_walls_s = std::iter::once(t0)
            .chain(stamps.iter().copied())
            .zip(ends)
            .map(|(a, b)| b.duration_since(a).as_secs_f64())
            .collect();
        p.pieces_per_unit = p.piece_walls_s.len();
        if self.hooks.is_some() {
            self.runs += 1;
            self.run_s += p.wall_s;
        }
        let mut d = Digest::new();
        match out {
            Ok(o) => {
                p.sim_cycles = ms_to_cycles(o.summary.makespan_ms);
                p.requests = o.summary.inferences as u64;
                p.check_tail("engine run", &o.summary);
                d.add(&o.summary);
            }
            Err(e) => {
                p.failed_units += 1;
                p.failures.push(format!("engine run: {e}"));
                d.add(&"error");
            }
        }
        p.digest = d.0;
        p
    }

    fn tenants(&self) -> &[Model] {
        &self.models
    }

    fn map_probe(&self) -> &MapProbe {
        &self.map
    }

    fn checks(&self) -> Vec<(bool, String)> {
        vec![reference_check(self)]
    }

    fn instrument(&mut self, hooks: Option<&Arc<HookStats>>) {
        self.hooks = hooks.cloned();
    }

    fn hook_totals(&self) -> Option<([u64; 4], u64, f64)> {
        self.hooks
            .as_ref()
            .map(|h| (h.get(), self.runs, self.run_s))
    }
}

// ------------------------------------------------------------------
// serving
// ------------------------------------------------------------------

struct Serving {
    seed: u64,
    records: Vec<TraceRecord>,
    driver: ReplayDriver,
    /// The busiest window, rebuilt as a standalone engine run.
    window_index: u64,
    window_models: Vec<Model>,
    window_schedules: Vec<Vec<u64>>,
    map: MapProbe,
    /// Simulated replay results of the last pass.
    agg: ReplayAggregate,
}

/// One task per distinct `(tenant, model, class)` of a window, in key
/// order, with the class deadline baked into a model clone.
fn window_workload(w: &camdn_trace::TraceWindow) -> Result<(Vec<Model>, Vec<Vec<u64>>), String> {
    let mut groups: BTreeMap<(&str, &str, SlaClass), Vec<u64>> = BTreeMap::new();
    for r in &w.records {
        groups
            .entry((&r.tenant, &r.model, r.class))
            .or_default()
            .push((r.ts_us - w.start_us) * 1000);
    }
    let mut models = Vec::new();
    let mut schedules = Vec::new();
    for ((_, model, class), sched) in groups {
        models.push(class_model(model, class)?);
        schedules.push(sched);
    }
    Ok((models, schedules))
}

/// A Table I model with `class`'s deadline scale baked in, named apart
/// from the other classes' clones.
fn class_model(abbr: &str, class: SlaClass) -> Result<Model, String> {
    let mut m = camdn_models::zoo::by_abbr(abbr).ok_or(format!("unknown model {abbr}"))?;
    m.qos_ms *= class.qos_scale();
    m.name = format!("{}+{}", m.name, class.letter());
    Ok(m)
}

impl Serving {
    fn new(seed: u64, tr: &Tracer) -> Result<Self, String> {
        let gen = TraceGenConfig {
            seed,
            rate_per_s: SERVE_RATE_PER_S,
            horizon_s: SERVE_HORIZON_S,
            ..TraceGenConfig::default()
        };
        let records: Vec<TraceRecord> = tr
            .span("trace.gen", || {
                TraceGen::new(gen.clone()).map(Iterator::collect)
            })
            .map_err(|e| err("trace", e))?;
        let mut cfg = ReplayConfig::new(PolicyKind::CamdnFull, SERVE_WINDOW_US);
        cfg.seed = seed;
        cfg.max_cycles_per_window = Some(32 * SERVE_WINDOW_US * 1000);
        let driver = ReplayDriver::new(cfg).map_err(|e| err("replay config", e))?;
        let busiest = windows(records.iter().cloned().map(Ok), SERVE_WINDOW_US)
            .filter_map(Result::ok)
            .max_by_key(|w| (w.records.len(), std::cmp::Reverse(w.index)))
            .ok_or("empty trace")?;
        let (window_models, window_schedules) = window_workload(&busiest)?;
        // Every (model, class) the trace can request, so set-up work
        // does not depend on which models the seed happened to draw.
        let roster = gen
            .models
            .iter()
            .flat_map(|abbr| SlaClass::ALL.map(|class| class_model(abbr, class)))
            .collect::<Result<Vec<_>, _>>()?;
        let map = tr.span("mapper.map_models", || {
            probes::map_models(&roster, &MapperConfig::paper_default())
        });
        Ok(Serving {
            seed,
            records,
            driver,
            window_index: busiest.index,
            window_models,
            window_schedules,
            map,
            agg: ReplayAggregate::new(),
        })
    }
}

/// Receives the windows of one replay: a unit's wall time is the time
/// between successive callbacks.
struct WindowSink<'a> {
    tr: &'a Tracer,
    last: Instant,
    pass: Pass,
    digest: Digest,
    arrivals: u64,
    agg: ReplayAggregate,
}

impl ReplaySink for WindowSink<'_> {
    fn on_window(&mut self, w: &WindowMetrics) {
        let now = Instant::now();
        self.pass
            .piece_walls_s
            .push(now.duration_since(self.last).as_secs_f64());
        self.tr.record("replay.window", self.last, now);
        self.last = now;
        self.digest.add(w);
        self.arrivals += w.arrivals;
        self.pass.sim_cycles += ms_to_cycles(w.makespan_ms);
        self.pass.check(w.tail.total() == w.sla_total, || {
            format!(
                "window {}: latency tail counts {} of {} inferences",
                w.index,
                w.tail.total(),
                w.sla_total
            )
        });
        self.agg.on_window(w);
    }
}

impl Study for Serving {
    fn probe(&self) -> (PolicyKind, SimulationBuilder) {
        let b = Simulation::builder()
            .policy(PolicyKind::CamdnFull)
            .workload(Workload::traced(
                self.window_models.clone(),
                self.window_schedules.clone(),
            ))
            .seed(self.seed ^ self.window_index)
            .qos_scale(1.0)
            .detail(DetailLevel::Tasks);
        (PolicyKind::CamdnFull, b)
    }

    fn pass(&mut self, tr: &Tracer) -> Pass {
        let t0 = Instant::now();
        let mut sink = WindowSink {
            tr,
            last: t0,
            pass: Pass::default(),
            digest: Digest::new(),
            arrivals: 0,
            agg: ReplayAggregate::new(),
        };
        let records = &self.records;
        let driver = &mut self.driver;
        let res = tr.span("replay", || {
            driver.replay(records.iter().cloned().map(Ok), &mut sink)
        });
        let WindowSink {
            mut pass,
            digest,
            arrivals,
            agg,
            ..
        } = sink;
        pass.wall_s = t0.elapsed().as_secs_f64();
        pass.digest = digest.0;
        pass.requests = arrivals;
        let n = records.len() as u64;
        match res {
            Ok(totals) => {
                pass.check(totals.arrivals == n && arrivals == n, || {
                    format!(
                        "replayed {} (sink saw {arrivals}) of {n} generated arrivals",
                        totals.arrivals
                    )
                });
            }
            Err(e) => {
                pass.failed_units += 1;
                pass.failures.push(format!("replay: {e}"));
            }
        }
        self.agg = agg;
        pass
    }

    fn tenants(&self) -> &[Model] {
        &self.window_models
    }

    fn map_probe(&self) -> &MapProbe {
        &self.map
    }

    fn checks(&self) -> Vec<(bool, String)> {
        vec![reference_check(self)]
    }

    fn report(&self, _passes: &[Pass]) {
        let a = &self.agg;
        println!("report trace.windows {} count", a.windows);
        println!(
            "report trace.truncated_frac {} ratio",
            a.truncated_windows as f64 / a.windows.max(1) as f64
        );
        println!("report trace.sim_sla_rate {} ratio", a.sla_rate());
        println!("report trace.sim_p99_ms {} ms", a.tail.p99_ms());
        println!("report trace.max_queue_depth {} count", a.max_queue_depth);
        println!("report trace.arrivals {} count", self.records.len());
    }

    fn instrument(&mut self, _hooks: Option<&Arc<HookStats>>) {
        // The replay driver takes a policy kind, not an instance, so
        // serving's policy hooks are timed on the probe window only.
    }
}

// ------------------------------------------------------------------
// grid
// ------------------------------------------------------------------

struct Grid {
    seed: u64,
    log: PathBuf,
    tenants: Vec<Model>,
    map: MapProbe,
    threads: usize,
    hooks: Option<Arc<HookStats>>,
    cells_run: u64,
    cells_s: f64,
    /// Per pass: plan-cache lookup hit rate, worker idle share, log
    /// bytes and log read-back ms.
    stats: Vec<[f64; 4]>,
    last: Option<SweepResult>,
}

/// Name under which the timed wrapper of `kind` is registered.
fn timed_name(kind: PolicyKind) -> String {
    format!("perfbench-timed-{}", kind.name())
}

impl Grid {
    fn new(seed: u64, out_dir: &Path, tr: &Tracer) -> Self {
        let tenants = cycling_workload(16);
        let map = tr.span("mapper.map_models", || {
            probes::map_models(&tenants, &MapperConfig::paper_default())
        });
        Grid {
            seed,
            log: out_dir.join(format!("grid-{seed}.cells.jsonl")),
            tenants,
            map,
            threads: 2,
            hooks: None,
            cells_run: 0,
            cells_s: 0.0,
            stats: Vec::new(),
            last: None,
        }
    }

    fn sweep(&self) -> SweepBuilder {
        let mut g = Sweep::grid();
        for kind in speedup_policies() {
            g = match self.hooks {
                Some(_) => g.policy_named(timed_name(kind)),
                None => g.policy(kind),
            };
        }
        g.cache_bytes(GRID_CACHE_MIB.map(|c| c * MIB))
            .workloads(GRID_TENANTS.map(|n| {
                (
                    format!("{n}t"),
                    Workload::closed(cycling_workload(n), ROUNDS),
                )
            }))
            .seeds([self.seed])
            .threads(self.threads)
            .detail(DetailLevel::Tasks)
    }

    /// The Fig. 7 coordinate: 16 MiB, 16 tenants, under `policy`.
    fn fig7(&self, policy: usize) -> CellCoord {
        CellCoord {
            policy,
            soc: 0,
            cache: GRID_CACHE_MIB.iter().position(|&c| c == 16).unwrap_or(0),
            channel: 0,
            workload: GRID_TENANTS.len() - 1,
            qos: 0,
            lookahead: 0,
            fault: 0,
            seed: 0,
        }
    }

    /// Fig. 7 speedup (geomean over models of AuRORA / CaMDN(Full)
    /// latency) and mean per-model DRAM reduction (%).
    fn fidelity(&self, r: &SweepResult) -> Option<(f64, f64)> {
        let tasks = |p| r.cell(self.fig7(p))?.outcome.as_ref().ok()?.try_tasks();
        let (aurora, full) = (tasks(0)?, tasks(2)?);
        let (base_lat, full_lat) = (latency_by_model(aurora), latency_by_model(full));
        let (base_mem, full_mem) = (dram_by_model(aurora), dram_by_model(full));
        let abbrs: Vec<String> = camdn_models::zoo::all()
            .into_iter()
            .map(|m| m.abbr)
            .filter(|a| base_lat.contains_key(a) && full_lat.contains_key(a))
            .collect();
        let speedups: Vec<f64> = abbrs.iter().map(|a| base_lat[a] / full_lat[a]).collect();
        let reductions: Vec<f64> = abbrs
            .iter()
            .map(|a| 100.0 * (1.0 - full_mem[a] / base_mem[a].max(1e-9)))
            .collect();
        Some((
            geomean(&speedups),
            reductions.iter().sum::<f64>() / reductions.len().max(1) as f64,
        ))
    }
}

impl Study for Grid {
    fn probe(&self) -> (PolicyKind, SimulationBuilder) {
        let b = Simulation::builder()
            .policy(PolicyKind::CamdnFull)
            .soc(SocConfig::paper_default().with_cache_bytes(16 * MIB))
            .workload(Workload::closed(self.tenants.clone(), ROUNDS))
            .seed(self.seed)
            .detail(DetailLevel::Tasks);
        (PolicyKind::CamdnFull, b)
    }

    fn pass(&mut self, tr: &Tracer) -> Pass {
        let mut p = Pass::default();
        let t0 = Instant::now();
        let res = tr.span("sweep.run_streamed", || {
            self.sweep().run_streamed(&self.log)
        });
        p.wall_s = t0.elapsed().as_secs_f64();
        let res = match res {
            Ok(r) => r,
            Err(e) => {
                p.failed_units += 1;
                p.failures.push(format!("grid: {e}"));
                return p;
            }
        };
        p.workers = res.threads;
        let mut d = Digest::new();
        let mut busy_s = 0.0;
        for (i, c) in res.cells.iter().enumerate() {
            p.piece_walls_s.push(c.wall_s);
            busy_s += c.wall_s;
            match &c.outcome {
                Ok(o) => {
                    p.sim_cycles += ms_to_cycles(o.summary.makespan_ms);
                    p.requests += o.summary.inferences as u64;
                    p.check_tail(&format!("cell {i}"), &o.summary);
                    d.add(&o.summary);
                }
                Err(e) => {
                    p.failed_units += 1;
                    p.failures.push(format!("cell {i}: {e}"));
                    d.add(&"error");
                }
            }
        }
        p.digest = d.0;
        if self.hooks.is_some() {
            self.cells_run += res.cells.len() as u64;
            self.cells_s += busy_s;
        }

        // Read the finished log back: every cell must resume, equal to
        // the in-memory result.
        let log_bytes = std::fs::metadata(&self.log).map(|m| m.len()).unwrap_or(0);
        let t1 = Instant::now();
        let back = tr.span("sweep.resume", || self.sweep().resume(&self.log));
        let read_ms = t1.elapsed().as_secs_f64() * 1e3;
        match back {
            Ok(b) => {
                let same = b.cells.len() == res.cells.len()
                    && b.cells.iter().zip(&res.cells).all(|(x, y)| {
                        matches!((&x.outcome, &y.outcome), (Ok(a), Ok(b)) if a.summary == b.summary)
                    });
                p.check(b.cells_resumed == res.cells.len() && same, || {
                    format!(
                        "log read back: {} of {} cells resumed equal",
                        b.cells_resumed,
                        res.cells.len()
                    )
                });
            }
            Err(e) => p.check(false, || format!("log read back: {e}")),
        }
        let hit_rate = res.plan_cache.as_ref().map_or(0.0, probes::hit_rate);
        let idle = 1.0 - busy_s / (res.threads as f64 * res.wall_s).max(1e-9);
        self.stats.push([hit_rate, idle, log_bytes as f64, read_ms]);
        self.last = Some(res);
        p
    }

    fn tenants(&self) -> &[Model] {
        &self.tenants
    }

    fn map_probe(&self) -> &MapProbe {
        &self.map
    }

    fn checks(&self) -> Vec<(bool, String)> {
        let mut out = vec![reference_check(self)];
        // The Fig. 7 cell must equal the same configuration run alone.
        let cell = self
            .last
            .as_ref()
            .and_then(|r| r.cell(self.fig7(2)))
            .and_then(|c| c.outcome.as_ref().ok())
            .map(|o| o.summary);
        let alone = self.probe().1.run().ok().map(|o| o.summary);
        out.push((
            cell.is_some() && cell == alone,
            "the Fig. 7 grid cell differs from the same run outside the grid".into(),
        ));
        out
    }

    fn report(&self, passes: &[Pass]) {
        let med = |k: usize| crate::median(&self.stats.iter().map(|s| s[k]).collect::<Vec<_>>());
        // As units_per_s: cells over their fastest repetitions.
        let (cells, wall_s) = crate::best_units(passes);
        println!("report cells_per_s {} 1/s", cells.len() as f64 / wall_s);
        println!("report sweep.plan_cache_hit_rate {} ratio", med(0));
        println!("report sweep.worker_idle_frac {} ratio", med(1));
        println!("report sweep.log_bytes {} B", med(2));
        println!("report sweep.log_read_ms {} ms", med(3));
        if let Some((speedup, reduction)) = self.last.as_ref().and_then(|r| self.fidelity(r)) {
            println!("report sim_speedup {speedup} x (paper {PAPER_SPEEDUP})");
            println!(
                "report sim_speedup_gap {} ratio",
                (speedup - PAPER_SPEEDUP).abs() / PAPER_SPEEDUP
            );
            println!("report sim_mem_reduction {reduction} % (paper {PAPER_MEM_REDUCTION_PCT})");
            println!(
                "report sim_mem_reduction_gap_pp {} pp",
                (reduction - PAPER_MEM_REDUCTION_PCT).abs()
            );
        }
    }

    fn serial(&mut self) {
        self.threads = 1;
    }

    fn instrument(&mut self, hooks: Option<&Arc<HookStats>>) {
        if let Some(hooks) = hooks {
            for kind in speedup_policies() {
                let h = Arc::clone(hooks);
                register_policy(&timed_name(kind), move || {
                    TimedPolicy::wrap(builtin_policy(kind), Arc::clone(&h))
                });
            }
        }
        self.hooks = hooks.cloned();
    }

    fn hook_totals(&self) -> Option<([u64; 4], u64, f64)> {
        self.hooks
            .as_ref()
            .map(|h| (h.get(), self.cells_run, self.cells_s))
    }

    fn plan_cache_hit_rate(&self) -> Option<f64> {
        self.stats.last().map(|s| s[0])
    }
}
