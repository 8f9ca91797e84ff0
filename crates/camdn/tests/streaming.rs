//! Integration tests of the streaming result pipeline at the sweep
//! layer: the JSONL cell log must reproduce the in-memory grid
//! cell-for-cell, a killed-and-resumed grid must equal a cold run
//! bit-for-bit, and the `SeedAggregate` sink must fold the seeds axis
//! into the same statistics a hand computation gives, whatever order
//! the cells arrive in. No sink's output may depend on the number of
//! worker threads.

use camdn::common::SimRng;
use camdn::{
    CellSink, DetailLevel, PolicyKind, SeedAggregate, Sweep, SweepBuilder, SweepResult, Workload,
};
use camdn_models::zoo;

fn unique_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "camdn-streaming-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    p
}

fn small_grid() -> SweepBuilder {
    Sweep::grid()
        .policies([PolicyKind::SharedBaseline, PolicyKind::CamdnFull])
        .workload("mb", Workload::closed(vec![zoo::mobilenet_v2()], 2))
        .seeds([1, 2, 3])
}

fn assert_same_cells(a: &SweepResult, b: &SweepResult) {
    assert_eq!(a.axes, b.axes);
    assert_eq!(a.cells.len(), b.cells.len());
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.coord, y.coord);
        assert_eq!(x.outcome, y.outcome, "cell {:?} diverged", x.coord);
    }
}

#[test]
fn streamed_grid_equals_in_memory_grid_cell_for_cell() {
    let path = unique_path("streamed");
    let streamed = small_grid().run_streamed(&path).expect("streamed grid");
    let in_memory = small_grid().run().expect("in-memory grid");
    assert_same_cells(&streamed, &in_memory);
    assert_eq!(streamed.cells_resumed, 0);

    // The log itself carries a header + one line per cell, and feeding
    // it back through resume re-runs nothing.
    let text = std::fs::read_to_string(&path).expect("log exists");
    assert_eq!(text.lines().count(), 1 + streamed.cells.len());
    let header = text.lines().next().unwrap();
    assert!(header.contains("camdn-sweep-cells/3"));
    assert!(
        header.contains("\"channels\": [\"default\"]"),
        "header names the channel axis: {header}"
    );
    assert!(
        header.contains("\"hist_edges\": [65536,"),
        "header names the latency bucket edges: {header}"
    );
    // Every ok cell line serializes the latency tail.
    for line in text.lines().skip(1) {
        assert!(line.contains("\"lat_counts\": ["), "cell line: {line}");
        assert!(line.contains("\"p99_ms\": "), "cell line: {line}");
    }
    let resumed = small_grid().resume(&path).expect("resume full log");
    assert_eq!(
        resumed.cells_resumed,
        resumed.cells.len(),
        "a complete log re-runs nothing"
    );
    assert_same_cells(&resumed, &in_memory);
    std::fs::remove_file(&path).ok();
}

#[test]
fn killed_grid_resumes_to_a_bit_for_bit_cold_run() {
    // Simulate a mid-flight kill: stream the grid, then truncate the
    // log to its header + first two cell lines + one *torn* line (a
    // partial write the kill interrupted).
    let path = unique_path("resume");
    let cold = small_grid().run_streamed(&path).expect("cold grid");
    let text = std::fs::read_to_string(&path).expect("log");
    let lines: Vec<&str> = text.lines().collect();
    let keep = 3; // header + 2 cells
    let torn = &lines[keep][..lines[keep].len() / 2];
    let truncated = format!("{}\n{}", lines[..keep].join("\n"), torn);
    std::fs::write(&path, truncated).expect("truncate log");

    let resumed = small_grid().resume(&path).expect("resumed grid");
    assert_eq!(
        resumed.cells_resumed, 2,
        "exactly the two recorded cells are skipped"
    );
    assert_same_cells(&resumed, &cold);
    // Bit-for-bit includes the latency tail: resumed-from-log cells
    // reproduce their recorded bucket counts exactly.
    for cell in &resumed.cells {
        let tail = cell.outcome.as_ref().unwrap().summary.latency_tail;
        assert!(tail.total() > 0, "every cell measured inferences");
        assert!(tail.p99_ms() > 0.0);
    }

    // After the resume the log is complete again: resuming once more
    // runs nothing and still matches.
    let resumed_again = small_grid().resume(&path).expect("second resume");
    assert_eq!(resumed_again.cells_resumed, resumed_again.cells.len());
    assert_same_cells(&resumed_again, &cold);
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_rejects_a_v1_log_when_the_grid_has_a_channel_axis() {
    // Only the current `camdn-sweep-cells/3` header is read back: a log
    // in an older schema is rejected as a different grid, whether or
    // not the grid has a channel axis — never silently merged at
    // channel 0.
    let path = unique_path("v1chan");
    let v1_header = "{\"schema\": \"camdn-sweep-cells/1\", \
                     \"policies\": [\"Baseline\"], \"socs\": [\"paper\"], \
                     \"caches\": [\"default\"], \"workloads\": [\"mb\"], \"qos\": [\"closed\"], \
                     \"lookaheads\": [\"default\"], \"seeds\": [1]}";
    let grid = || {
        Sweep::grid()
            .workload("mb", Workload::closed(vec![zoo::mobilenet_v2()], 2))
            .seeds([1])
    };
    for (name, g) in [
        ("channel axis", grid().channel_counts([2, 4])),
        ("no channel axis", grid()),
    ] {
        std::fs::write(&path, format!("{v1_header}\n")).expect("write v1 header");
        let err = g.resume(&path).expect_err("a v1 log must be rejected");
        assert!(err.to_string().contains("different grid"), "{name}: {err}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_rejects_a_log_from_a_different_grid() {
    let path = unique_path("mismatch");
    small_grid().run_streamed(&path).expect("grid");
    // Same file, different axes: one more seed.
    let err = small_grid()
        .seeds([4])
        .resume(&path)
        .expect_err("axes mismatch must fail");
    assert!(
        err.to_string().contains("different grid"),
        "unexpected error: {err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn detailed_cells_stream_summaries_and_resume_summary_only() {
    // Streaming records summaries; a resumed cell is summary-only even
    // when the live grid carries detail. The summaries still match.
    let path = unique_path("detail");
    let cold = small_grid()
        .detail(DetailLevel::Tasks)
        .run_streamed(&path)
        .expect("detailed grid");
    let resumed = small_grid()
        .detail(DetailLevel::Tasks)
        .resume(&path)
        .expect("resumed grid");
    for (x, y) in cold.cells.iter().zip(&resumed.cells) {
        let (a, b) = (x.outcome.as_ref().unwrap(), y.outcome.as_ref().unwrap());
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.policy, b.policy);
        assert!(a.detail.is_some(), "live cell keeps its detail");
        assert!(b.detail.is_none(), "resumed cell is summary-only");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn seed_aggregate_sink_matches_in_memory_statistics() {
    // Drive the grid into the SeedAggregate sink without buffering,
    // and compare to folding the buffered result; both must agree with
    // a hand computation over the per-seed summaries.
    let mut sink = SeedAggregate::new();
    let info = small_grid().run_with_sink(&mut sink).expect("sink run");
    assert_eq!(info.cells_total, 6);
    assert_eq!(info.cells_run, 6);
    let streamed_stats = sink.stats();

    let buffered = small_grid().run().expect("in-memory grid");
    let buffered_stats = buffered.seed_stats();
    assert_eq!(streamed_stats.len(), 2, "one group per policy");
    assert_eq!(buffered_stats.len(), 2);

    for s in &streamed_stats {
        assert_eq!(s.n, 3, "three seeds per group");
        assert_eq!(s.errors, 0);
    }
    // Worker completion order decides the sink's fold order; the
    // statistics must not depend on it.
    assert_eq!(streamed_stats, buffered_stats);

    // The same cells folded reversed and in seeded-shuffled orders
    // give bit-identical statistics.
    let n = buffered.cells.len();
    let mut orders: Vec<Vec<usize>> = vec![(0..n).rev().collect()];
    let mut rng = SimRng::new(0x5EED);
    for _ in 0..8 {
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        orders.push(order);
    }
    let in_order = SeedAggregate::of(&buffered);
    for order in orders {
        let mut agg = SeedAggregate::new();
        for &i in &order {
            let cell = &buffered.cells[i];
            agg.fold(cell.coord, &cell.outcome.as_ref().unwrap().summary);
        }
        assert_eq!(agg.stats(), in_order, "fold order {order:?}");
    }

    // Hand computation for the baseline group (cells 0..3).
    let lats: Vec<f64> = buffered.cells[..3]
        .iter()
        .map(|c| c.outcome.as_ref().unwrap().summary.avg_latency_ms)
        .collect();
    let mean = lats.iter().sum::<f64>() / 3.0;
    let var = lats.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / 2.0;
    let g = &buffered_stats[0];
    assert!((g.avg_latency_ms.mean - mean).abs() < 1e-9);
    assert!((g.avg_latency_ms.stddev - var.sqrt()).abs() < 1e-9);
    let expect_ci = camdn::common::stats::t95(2) * var.sqrt() / 3.0_f64.sqrt();
    assert!((g.avg_latency_ms.ci95 - expect_ci).abs() < 1e-9);
}

/// A sink that only counts, standing in for any custom consumer.
struct Counting(usize);

impl CellSink for Counting {
    fn on_cell(&mut self, _coord: camdn::CellCoord, outcome: camdn::CellOutcome) {
        assert!(outcome.outcome.is_ok());
        self.0 += 1;
    }
}

#[test]
fn custom_sinks_see_every_cell_without_buffering() {
    let mut sink = Counting(0);
    let info = small_grid().run_with_sink(&mut sink).expect("sink run");
    assert_eq!(sink.0, 6);
    assert!(info.plan_cache.is_some(), "shared plan cache still applies");
    assert!(info.threads >= 1);
}

/// A cell log with its cell lines sorted and every `wall_s` value
/// masked: the parts of a streamed log that must not depend on how
/// many workers ran the grid.
fn canonical_log(path: &std::path::Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("log exists");
    let mut lines = text.lines();
    let header = lines.next().expect("header").to_string();
    let mut cells: Vec<String> = lines
        .map(|line| {
            let at = line.find("\"wall_s\": ").expect("wall_s field") + "\"wall_s\": ".len();
            let end = at + line[at..].find(',').expect("field separator");
            format!("{}*{}", &line[..at], &line[end..])
        })
        .collect();
    cells.sort();
    std::iter::once(header).chain(cells).collect()
}

#[test]
fn sinks_do_not_depend_on_the_thread_count() {
    let grid = |threads| small_grid().threads(threads);
    // MemorySink: identical cells, in row-major order.
    assert_same_cells(
        &grid(1).run().expect("one worker"),
        &grid(2).run().expect("two workers"),
    );
    // SeedAggregate: identical statistics, bit for bit.
    let stats = |threads| {
        let mut sink = SeedAggregate::new();
        grid(threads).run_with_sink(&mut sink).expect("sink run");
        sink.stats()
    };
    assert_eq!(stats(1), stats(2));
    // JsonlSink: the same lines, once completion order and wall time
    // are factored out.
    let (one, two) = (unique_path("threads1"), unique_path("threads2"));
    grid(1).run_streamed(&one).expect("streamed, one worker");
    grid(2).run_streamed(&two).expect("streamed, two workers");
    let log = canonical_log(&one);
    assert_eq!(log.len(), 7, "header + six cells");
    assert_eq!(log, canonical_log(&two));
    std::fs::remove_file(&one).ok();
    std::fs::remove_file(&two).ok();
}
