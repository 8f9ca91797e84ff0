//! Golden result corpus: the absolute oracle of the engine.
//!
//! Every case below is one fully specified run — all five built-in
//! policies across closed-loop, Poisson, bursty, QoS and traced
//! workloads, fault-free and faulted (hand-written and generated
//! plans), every detail level, cycle-budget partials, a seed sweep,
//! the per-line reference memory model, and the Fig. 7/8/9 headline
//! cells. Its outcome is pinned by one fixed-shape line of
//! `tests/golden/runs.ndjson`:
//!
//! ```text
//! {"case":…,"outcome":…,"inferences":…,"makespan_ms":…,"avg_latency_ms":…,
//!  "mem_mb_per_model":…,"shed":…,"retried":…,"dropped":…,"fnv1a":…}
//! ```
//!
//! The headline fields make a diff readable; `fnv1a` is the 64-bit
//! FNV-1a hash of the `Debug` rendering of the whole outcome (the
//! `RunOutput`, or the `EngineError` including any `BudgetExceeded`
//! partial). `Debug` prints every `f64` in shortest round-trip form,
//! so the hash is bit-exact over every field of the result.
//!
//! The relative oracles (batched vs. reference memory model, traced vs.
//! untraced) cannot see a change that moves every path the same way;
//! this corpus can. After an intentional change to simulated
//! behaviour, regenerate it with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release -p camdn --test golden
//! ```
//!
//! and explain the diff in the change log.

use camdn::common::config::SocConfig;
use camdn::common::types::MIB;
use camdn::models::{zoo, Model};
use camdn::{
    DetailLevel, EngineError, FaultEvent, FaultGenConfig, FaultKind, FaultPlan, PolicyKind,
    RunOutput, Simulation, SimulationBuilder, Workload,
};
use std::path::PathBuf;

/// One pinned run: a unique `group/variant` name and the builder that
/// assembles it.
pub struct Case {
    pub name: String,
    pub build: Box<dyn Fn() -> SimulationBuilder>,
}

fn case(name: impl Into<String>, build: impl Fn() -> SimulationBuilder + 'static) -> Case {
    Case {
        name: name.into(),
        build: Box::new(build),
    }
}

/// A mid-run fault plan touching every fault kind the engine knows:
/// an NPU outage-and-repair, a DRAM brownout, a fractional channel
/// degrade, and a DVFS throttle that later recovers.
fn mixed_fault_plan() -> FaultPlan {
    let ev = |at, kind| FaultEvent { at, kind };
    FaultPlan::new(vec![
        ev(200_000, FaultKind::ClockThrottle { factor: 0.6 }),
        ev(400_000, FaultKind::NpuDown(1)),
        ev(600_000, FaultKind::DramChannelDown(0)),
        ev(
            900_000,
            FaultKind::DramDegrade {
                channel: 1,
                factor: 0.5,
            },
        ),
        ev(1_400_000, FaultKind::NpuUp(1)),
        ev(1_800_000, FaultKind::DramChannelUp(0)),
        ev(2_200_000, FaultKind::ClockThrottle { factor: 1.0 }),
    ])
    .expect("plan is time-ordered")
}

/// A seeded MTBF/MTTR fault process: denser, less hand-picked than
/// the mixed plan.
fn generated_fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::generate(&FaultGenConfig {
        seed,
        horizon: 3_000_000,
        npu_cores: 4,
        dram_channels: 2,
        npu_mtbf_cycles: 800_000.0,
        npu_mttr_cycles: 200_000.0,
        dram_mtbf_cycles: 1_000_000.0,
        dram_mttr_cycles: 150_000.0,
        dram_degrade_factor: 0.3,
        throttle_mtbf_cycles: 700_000.0,
        throttle_mttr_cycles: 250_000.0,
        throttle_factor: 0.5,
    })
    .expect("generated plan is valid")
}

fn detail_name(detail: DetailLevel) -> &'static str {
    match detail {
        DetailLevel::Summary => "summary",
        DetailLevel::Tasks => "tasks",
        DetailLevel::Full => "full",
    }
}

/// The standard N-tenant workload of the figure binaries: cycle the
/// Table I zoo.
fn cycling(n: usize) -> Vec<Model> {
    let zoo = zoo::all();
    (0..n).map(|i| zoo[i % zoo.len()].clone()).collect()
}

/// Every pinned case, in corpus order.
pub fn cases() -> Vec<Case> {
    let mut out = Vec::new();

    let closed = vec![
        zoo::mobilenet_v2(),
        zoo::efficientnet_b0(),
        zoo::resnet50(),
        zoo::gnmt(),
    ];
    for kind in PolicyKind::ALL {
        let m = closed.clone();
        out.push(case(format!("closed/{}", kind.name()), move || {
            Simulation::builder()
                .policy(kind)
                .workload(Workload::closed(m.clone(), 2))
        }));
    }

    // QoS mode redistributes shares and quotas every epoch, so an epoch
    // boundary firing one event early or late shows up immediately.
    let qos = vec![zoo::mobilenet_v2(), zoo::bert_base(), zoo::mobilenet_v2()];
    for kind in PolicyKind::ALL {
        let m = qos.clone();
        out.push(case(format!("qos/{}", kind.name()), move || {
            Simulation::builder()
                .policy(kind)
                .workload(Workload::closed(m.clone(), 2))
                .qos_scale(0.8)
        }));
    }

    let pair = vec![zoo::mobilenet_v2(), zoo::efficientnet_b0()];
    for kind in [PolicyKind::SharedBaseline, PolicyKind::CamdnFull] {
        for detail in [DetailLevel::Summary, DetailLevel::Tasks, DetailLevel::Full] {
            let m = pair.clone();
            let name = format!("poisson/{}/{}", kind.name(), detail_name(detail));
            out.push(case(name, move || {
                Simulation::builder()
                    .policy(kind)
                    .workload(Workload::poisson(m.clone(), 0.05, 60.0))
                    .warmup_rounds(0)
                    .detail(detail)
            }));
        }
    }

    let bursty: Vec<_> = (0..4).map(|_| zoo::mobilenet_v2()).collect();
    for kind in [PolicyKind::Moca, PolicyKind::Aurora] {
        let m = bursty.clone();
        out.push(case(format!("bursty/{}", kind.name()), move || {
            Simulation::builder()
                .policy(kind)
                .workload(Workload::bursty(m.clone(), 2, 3, 10.0))
                .qos_scale(1.0)
                .warmup_rounds(0)
                .sample_queue_depth(50_000)
        }));
    }

    // Deliberately colliding arrivals: the FIFO tie-break (task order)
    // is part of what is pinned.
    let schedules = vec![vec![0, 500_000, 500_000], vec![0, 500_000]];
    for kind in PolicyKind::ALL {
        let (m, s) = (pair.clone(), schedules.clone());
        out.push(case(format!("traced/{}", kind.name()), move || {
            Simulation::builder()
                .policy(kind)
                .workload(Workload::traced(m.clone(), s.clone()))
                .warmup_rounds(0)
        }));
    }

    let faulted = vec![zoo::mobilenet_v2(), zoo::resnet50(), zoo::mobilenet_v2()];
    for kind in PolicyKind::ALL {
        let m = faulted.clone();
        out.push(case(format!("faults/{}", kind.name()), move || {
            Simulation::builder()
                .policy(kind)
                .workload(Workload::closed(m.clone(), 3))
                .fault_plan(mixed_fault_plan())
        }));
    }

    for seed in [3u64, 17, 0xFA11] {
        let m = pair.clone();
        out.push(case(format!("chaos/seed-{seed}"), move || {
            Simulation::builder()
                .policy(PolicyKind::CamdnFull)
                .workload(Workload::closed(m.clone(), 3))
                .fault_plan(generated_fault_plan(seed))
        }));
    }

    // Runs stopped mid-flight by the cycle budget: the stop event and
    // the partial aggregate are pinned, with and without a fault plan
    // racing the budget.
    let heavy = vec![zoo::gnmt(), zoo::bert_base(), zoo::resnet50()];
    let m = heavy.clone();
    out.push(case("budget/baseline", move || {
        Simulation::builder()
            .policy(PolicyKind::SharedBaseline)
            .workload(Workload::closed(m.clone(), 2))
            .max_sim_cycles(1_500_000)
    }));
    let m = heavy;
    out.push(case("budget/camdn-full-faulted", move || {
        Simulation::builder()
            .policy(PolicyKind::CamdnFull)
            .workload(Workload::closed(m.clone(), 3))
            .fault_plan(mixed_fault_plan())
            .max_sim_cycles(1_000_000)
    }));

    // Seeds reshuffle NPU assignment and arrival draws into different
    // event interleavings.
    for seed in [1u64, 42, 0xDEAD, 0xCA3D41] {
        let m = pair.clone();
        out.push(case(format!("seed/{seed}"), move || {
            Simulation::builder()
                .policy(PolicyKind::CamdnFull)
                .workload(Workload::closed(m.clone(), 2))
                .seed(seed)
        }));
    }

    let m = vec![zoo::mobilenet_v2(), zoo::resnet50()];
    out.push(case("reference/camdn-full", move || {
        Simulation::builder()
            .policy(PolicyKind::CamdnFull)
            .workload(Workload::closed(m.clone(), 2))
            .reference_model(true)
    }));

    // Headline cells of the paper figures, configured as the figure
    // binaries configure them in quick mode.
    let figure_policies = [
        PolicyKind::Aurora,
        PolicyKind::CamdnHwOnly,
        PolicyKind::CamdnFull,
    ];
    // Fig. 7: one instance of each Table I model, closed loop.
    for kind in figure_policies {
        out.push(case(format!("fig7/{}", kind.name()), move || {
            Simulation::builder()
                .policy(kind)
                .workload(Workload::closed(zoo::all(), 2))
        }));
    }
    // Fig. 8: eight cycled tenants on an 8 MiB shared cache.
    for kind in figure_policies {
        out.push(case(format!("fig8/{}", kind.name()), move || {
            Simulation::builder()
                .policy(kind)
                .soc(SocConfig::paper_default().with_cache_bytes(8 * MIB))
                .workload(Workload::closed(cycling(8), 2))
                .detail(DetailLevel::Summary)
        }));
    }
    // Fig. 9: the eight-tenant QoS workload at QoS-H, the tightest
    // deadline level.
    for kind in [PolicyKind::Moca, PolicyKind::Aurora, PolicyKind::CamdnFull] {
        out.push(case(format!("fig9/{}", kind.name()), move || {
            Simulation::builder()
                .policy(kind)
                .workload(Workload::closed(zoo::all(), 2))
                .qos_scale(0.8)
        }));
    }
    out
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The corpus line pinning `result` under `name`.
pub fn line(name: &str, result: &Result<RunOutput, EngineError>) -> String {
    let (outcome, s, debug) = match result {
        Ok(out) => ("ok", out.summary, format!("{out:?}")),
        Err(e @ EngineError::BudgetExceeded { partial, .. }) => {
            ("budget_exceeded", partial.summary, format!("{e:?}"))
        }
        Err(e) => panic!("{name}: no result to pin: {e}"),
    };
    format!(
        "{{\"case\":\"{name}\",\"outcome\":\"{outcome}\",\"inferences\":{},\
         \"makespan_ms\":{:?},\"avg_latency_ms\":{:?},\"mem_mb_per_model\":{:?},\
         \"shed\":{},\"retried\":{},\"dropped\":{},\"fnv1a\":\"{:016x}\"}}",
        s.inferences,
        s.makespan_ms,
        s.avg_latency_ms,
        s.mem_mb_per_model,
        s.shed_requests,
        s.retried_inferences,
        s.dropped_inferences,
        fnv1a(debug.as_bytes()),
    )
}

pub fn corpus_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/runs.ndjson")
}

/// The checked-in corpus as `(case name, line)` pairs.
pub fn corpus() -> Vec<(String, String)> {
    let text = std::fs::read_to_string(corpus_path()).expect("golden corpus is checked in");
    text.lines()
        .map(|l| {
            let name = l
                .strip_prefix("{\"case\":\"")
                .and_then(|rest| rest.split('"').next())
                .unwrap_or_else(|| panic!("malformed corpus line: {l}"));
            (name.to_string(), l.to_string())
        })
        .collect()
}

fn updating() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some()
}

/// Runs every case of `group` and compares it with its corpus line.
/// Skipped while the corpus is being regenerated.
fn check(group: &str) {
    if updating() {
        return;
    }
    let prefix = format!("{group}/");
    let want: Vec<_> = corpus()
        .into_iter()
        .filter(|(n, _)| n.starts_with(&prefix))
        .collect();
    let cases: Vec<_> = cases()
        .into_iter()
        .filter(|c| c.name.starts_with(&prefix))
        .collect();
    assert!(!cases.is_empty(), "no cases in group {group}");
    assert_eq!(
        cases.iter().map(|c| &c.name).collect::<Vec<_>>(),
        want.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "group {group}: case list and corpus disagree (regenerate with UPDATE_GOLDEN=1)"
    );
    for (c, (_, want)) in cases.iter().zip(&want) {
        let got = line(&c.name, &(c.build)().run());
        assert_eq!(&got, want, "{} diverged from the golden corpus", c.name);
    }
}

#[test]
fn corpus_names_every_case_exactly_once() {
    let names: Vec<String> = cases().into_iter().map(|c| c.name).collect();
    if updating() {
        let mut text = String::new();
        for c in cases() {
            text.push_str(&line(&c.name, &(c.build)().run()));
            text.push('\n');
        }
        std::fs::write(corpus_path(), text).expect("write golden corpus");
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate case names");
    let pinned: Vec<String> = corpus().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, pinned, "case list and corpus disagree");
}

#[test]
fn closed_multi_tenant_matches_the_corpus() {
    check("closed");
}

#[test]
fn qos_mode_matches_the_corpus() {
    check("qos");
}

#[test]
fn open_loop_poisson_matches_the_corpus_at_every_detail_level() {
    check("poisson");
}

#[test]
fn bursty_arrivals_with_queue_sampling_match_the_corpus() {
    check("bursty");
}

#[test]
fn traced_arrivals_match_the_corpus() {
    check("traced");
}

#[test]
fn mid_run_faults_match_the_corpus() {
    check("faults");
}

#[test]
fn generated_chaos_schedules_match_the_corpus() {
    check("chaos");
}

#[test]
fn budget_exceeded_partials_match_the_corpus() {
    check("budget");
}

#[test]
fn seed_sweep_matches_the_corpus() {
    check("seed");
}

#[test]
fn reference_memory_model_matches_the_corpus() {
    check("reference");
}

#[test]
fn fig7_headline_cells_match_the_corpus() {
    check("fig7");
}

#[test]
fn fig8_headline_cells_match_the_corpus() {
    check("fig8");
}

#[test]
fn fig9_headline_cells_match_the_corpus() {
    check("fig9");
}
