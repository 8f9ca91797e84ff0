//! The CaMDN simulator's benchmark: host speed, paper fidelity and
//! per-layer cost on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload contention|serving|grid|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run sets its workload up several times (reporting the median),
//! then runs whole units back to back (a closed loop) for `--seconds`,
//! and times each piece of a unit by its fastest repetition (see
//! [`best_units`]). `--trace 0` reports the end-to-end metrics;
//! `--trace 1` alternates untraced passes with passes that have spans
//! around every call into the simulator and a timing decorator around
//! the policy, and reports the per-layer metrics.
//! Every run checks its own outputs; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`, and a failed
//! check makes the exit code non-zero. `perfbench/registry.json`
//! describes every workload and metric.

mod probes;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{HookStats, Tracer};
use workloads::{Pass, Probe, Study};

/// The workloads `--workload all` runs.
const WORKLOADS: [&str; 3] = ["contention", "serving", "grid"];
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Probe engine runs per traced run.
const PROBE_RUNS: usize = 3;
/// Percentiles tried for the unit-latency tail, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Median of a sample (NaN when empty).
fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile, `q` in `[0, 1]`.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The highest listed percentile with at least ten samples above it.
fn tail(v: &[f64]) -> Option<(f64, f64)> {
    TAIL_PERCENTILES
        .iter()
        .find(|&&p| v.len() as f64 * (1.0 - p / 100.0) >= 10.0)
        .map(|&p| (p, quantile(v, p / 100.0)))
}

/// High-water resident set of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Metric name → (value, unit), printed in name order.
#[derive(Default)]
struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| {
                format!(
                    "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Output checks: how many ran and which failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Runs passes until `seconds` have elapsed (at least `min` passes).
fn timed_passes(study: &mut dyn Study, tr: &Tracer, seconds: f64, min: usize) -> Vec<Pass> {
    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min || t0.elapsed().as_secs_f64() < seconds {
        passes.push(study.pass(tr));
    }
    passes
}

/// Folds passes into checks: each pass's own failures, every pass's
/// digest against `reference`, and its piece count against the first
/// pass's.
fn check_passes(passes: &[Pass], reference: u64, label: &str, checks: &mut Checks) {
    for (i, p) in passes.iter().enumerate() {
        checks.attempted += p.checks;
        checks
            .failures
            .extend(p.failures.iter().map(|f| format!("{label} pass {i}: {f}")));
        checks.check(
            p.piece_walls_s.len() == passes[0].piece_walls_s.len(),
            || {
                format!(
                    "{label} pass {i}: {} pieces, pass 0 had {}",
                    p.piece_walls_s.len(),
                    passes[0].piece_walls_s.len()
                )
            },
        );
        checks.check(p.digest == reference, || {
            format!(
                "{label} pass {i}: results digest {:016x} differs from {reference:016x}",
                p.digest
            )
        });
    }
}

fn units(passes: &[Pass]) -> (u64, u64) {
    passes.iter().fold((0, 0), |(a, f), p| {
        (a + p.unit_walls_s().len() as u64, f + p.failed_units)
    })
}

/// Each unit's host time, summed from its pieces' fastest repetitions
/// over the passes, and the loop time those units add up to, spread
/// over the pass's workers.
///
/// Every pass does the same work (check_passes compares their digests
/// and piece counts), so a piece's host times differ only by
/// interference. On a shared host interference only ever slows a piece
/// down, and it comes in bursts, so means and medians of a run follow
/// the neighbours while each piece's fastest repetition follows the
/// program.
pub fn best_units(passes: &[Pass]) -> (Vec<f64>, f64) {
    let pieces = passes
        .iter()
        .map(|p| p.piece_walls_s.len())
        .min()
        .unwrap_or(0);
    let first = passes.first();
    let best = Pass {
        piece_walls_s: (0..pieces)
            .map(|i| {
                passes
                    .iter()
                    .map(|p| p.piece_walls_s[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect(),
        pieces_per_unit: first.map_or(1, |p| p.pieces_per_unit),
        ..Pass::default()
    };
    let best_s = best.unit_walls_s();
    let workers = first.map_or(1, |p| p.workers.max(1));
    let wall_s = best_s.iter().sum::<f64>() / workers as f64;
    (best_s, wall_s)
}

fn end_to_end(passes: &[Pass], setup_s: f64, m: &mut Metrics) -> Result<(), String> {
    let first = passes.first().ok_or("no pass ran")?;
    let (best_s, wall_s) = best_units(passes);
    let units = best_s.len();
    let rate = |work: u64| work as f64 / wall_s;
    m.set("setup_s", setup_s, "s");
    m.set("sim_cycles_per_s", rate(first.sim_cycles), "cyc/s");
    m.set("requests_per_s", rate(first.requests), "1/s");
    m.set("units_per_s", rate(units as u64), "1/s");
    let best_ms: Vec<f64> = best_s.iter().map(|s| s * 1e3).collect();
    println!("report unit_wall_p50_ms {} ms", median(&best_ms));
    println!(
        "report unit_wall_gmean_ms {} ms",
        camdn_bench::geomean(&best_ms)
    );
    let walls_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.unit_walls_s().into_iter().map(|w| w * 1e3))
        .collect();
    println!("report peak_rss_mb {} MiB", peak_rss_mb()?);
    match tail(&walls_ms) {
        Some((p, v)) => println!(
            "report unit_wall_tail_ms {v:.4} ms (p{p} of {} units)",
            walls_ms.len()
        ),
        None => println!(
            "report unit_wall_tail_ms omitted ({} units: no percentile has ten beyond it)",
            walls_ms.len()
        ),
    }
    Ok(())
}

fn per_layer(
    study: &dyn Study,
    tr: &Tracer,
    base: &[Pass],
    traced: &[Pass],
    probe: &Probe,
    m: &mut Metrics,
) {
    let med = |name: &str| median(&tr.durations_ms(name));
    m.set("runtime.build_ms", med("runtime.build"), "ms");
    m.set("runtime.run_ms", med("runtime.run"), "ms");
    m.set("runtime.sim_cycles", probe.sim_cycles as f64, "cyc");
    m.set("runtime.inferences", probe.inferences as f64, "count");

    let (hooks, engine_runs, engine_s) =
        study
            .hook_totals()
            .unwrap_or((probe.hooks, probe.runs, probe.wall_s));
    let [selections, failures, installs, hook_ns] = hooks;
    let per_run = |v: u64| v as f64 / engine_runs.max(1) as f64;
    m.set("policy.selections", per_run(selections), "count");
    m.set("policy.alloc_failures", per_run(failures), "count");
    m.set(
        "policy.alloc_fail_ratio",
        failures as f64 / selections.max(1) as f64,
        "ratio",
    );
    m.set("policy.installs", per_run(installs), "count");
    m.set("policy.hook_ms", per_run(hook_ns) / 1e6, "ms");
    m.set(
        "policy.hook_share",
        hook_ns as f64 / 1e9 / engine_s.max(1e-9),
        "ratio",
    );

    let map = study.map_probe();
    m.set("mapper.map_ms", med("mapper.map_models"), "ms");
    m.set("mapper.layers", map.layers as f64, "count");
    m.set(
        "mapper.plan_cache_hit_rate",
        study.plan_cache_hit_rate().unwrap_or(map.hit_rate),
        "ratio",
    );

    let soc = camdn_common::config::SocConfig::paper_default();
    let mapper = camdn_mapper::MapperConfig::paper_default();
    let cache = tr.span("cache.access_range", || {
        probes::cache_kernel(study.tenants(), &map.cache, &mapper, &soc)
    });
    m.set("cache.ns_per_line", cache.ns_per_line, "ns");
    m.set("cache.lines", cache.lines as f64, "count");
    m.set("cache.kernel_hit_rate", cache.hit_rate, "ratio");
    m.set("cache.sim_hit_rate", probe.cache_hit_rate, "ratio");
    let dram = tr.span("dram.access_burst", || {
        probes::dram_kernel(study.tenants(), &map.cache, &mapper, &soc)
    });
    m.set("dram.burst_ns_per_line", dram.ns_per_line, "ns");
    m.set("dram.row_hit_rate", dram.hit_rate, "ratio");
    m.set("dram.sim_mem_mb_per_model", probe.mem_mb_per_model, "MB");

    // Fastest pass against fastest pass, as in end_to_end.
    let fastest = |ps: &[Pass]| ps.iter().map(|p| p.wall_s).fold(f64::INFINITY, f64::min);
    m.set(
        "bench.trace_overhead_frac",
        fastest(traced) / fastest(base) - 1.0,
        "ratio",
    );
}

fn run(args: &Args) -> Result<(Metrics, Checks, u64, u64), String> {
    let out_dir = PathBuf::from(".perfbench_out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let tr = Tracer::new(args.trace);
    let off = Tracer::new(false);

    // Set-up, repeated; the last one is kept.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut study = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        study = Some(tr.span("setup", || {
            workloads::setup(&args.workload, args.seed, &out_dir, &tr)
        })?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut study = study.ok_or("no set-up ran")?;
    let setup_s = median(&setups);

    let mut m = Metrics::default();
    let mut checks = Checks::default();
    let (attempted, failed);
    if !args.trace {
        let passes = timed_passes(study.as_mut(), &off, args.seconds, 2);
        check_passes(&passes, passes[0].digest, "untraced", &mut checks);
        for (ok, what) in study.checks() {
            checks.check(ok, || what);
        }
        end_to_end(&passes, setup_s, &mut m)?;
        println!("report results_digest {:016x}", passes[0].digest);
        study.report(&passes);
        (attempted, failed) = units(&passes);
    } else {
        // Reference pass at the default configuration, then untraced
        // and traced passes in turn at the traced configuration (the
        // grid drops to one worker so the shared plan-cache counters
        // are exact), so both see the same host.
        let reference = study.pass(&off);
        study.serial();
        let hooks = std::sync::Arc::new(HookStats::default());
        let (mut base, mut traced) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        while base.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
            study.instrument(None);
            base.push(study.pass(&off));
            if traced.is_empty() {
                // High water of set-up and an untraced pass, before
                // spans and probes allocate.
                m.set("bench.peak_rss_mb", peak_rss_mb()?, "MiB");
            }
            study.instrument(Some(&hooks));
            traced.push(tr.span("pass", || study.pass(&tr)));
        }
        check_passes(
            std::slice::from_ref(&reference),
            base[0].digest,
            "reference",
            &mut checks,
        );
        check_passes(&base, base[0].digest, "untraced", &mut checks);
        check_passes(&traced, base[0].digest, "traced", &mut checks);
        let probe = workloads::run_probe(study.as_ref(), &tr, PROBE_RUNS)?;
        per_layer(study.as_ref(), &tr, &base, &traced, &probe, &mut m);
        println!(
            "report results_digest {:016x} (untraced and traced)",
            base[0].digest
        );
        study.report(&traced);
        let gen = tr.durations_ms("trace.gen");
        if !gen.is_empty() {
            println!("report trace.gen_ms {} ms", median(&gen));
        }
        for (name, t) in tr.totals() {
            println!(
                "report span {name}: {} calls, {:.3} ms total, {:.3} ms self",
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let spans = out_dir.join(format!("{}-{}.spans.jsonl", args.workload, args.seed));
        tr.write(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        let ((a, f), (b, g)) = (units(&base), units(&traced));
        (attempted, failed) = (a + b + 1, f + g + reference.failed_units);
    }
    Ok((m, checks, attempted, failed))
}

/// `--workload all`: every workload untraced and traced, each in a
/// fresh process so peak memory is per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut failed = Vec::new();
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            println!("== {w} --trace {trace}");
            let status = std::process::Command::new(&exe)
                .args(["--workload", w, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .status();
            if !matches!(status, Ok(s) if s.success()) {
                failed.push(format!("{w} --trace {trace}"));
            }
        }
    }
    println!(
        "perfbench all: {} of {} runs failed {failed:?}",
        failed.len(),
        2 * WORKLOADS.len()
    );
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload contention|serving|grid|all --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let (m, checks, units, failed_units) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for f in &checks.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let attempted = units + checks.attempted;
    let failed = failed_units + checks.failures.len() as u64;
    println!(
        "report error_rate {} ({failed} of {attempted} units and checks failed)",
        failed as f64 / attempted.max(1) as f64
    );
    for (name, (v, unit)) in &m.0 {
        println!("metric {name} {v} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        m.json()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
