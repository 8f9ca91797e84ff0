//! Cell sinks: streaming collection of sweep results.
//!
//! The original sweep buffered every cell until the whole grid
//! finished, which made very large grids (hundreds of tenants × many
//! seeds) memory-unbounded and non-resumable. A [`CellSink`] receives
//! each cell *as it finishes* instead; the executor drives it from the
//! worker threads (serialized — a sink never sees two cells at once).
//!
//! Three sinks ship with the crate:
//!
//! * [`MemorySink`] — the in-memory [`SweepResult`] (summary-only
//!   cells at the sweep's default detail level);
//! * [`JsonlSink`] — a streamed `camdn-sweep-cells/3` writer: one JSON
//!   line per cell (summary scalars + the compact latency tail),
//!   written the moment the cell completes, so a killed grid leaves a
//!   valid log behind and
//!   [`SweepBuilder::resume`](crate::SweepBuilder::resume) can skip the
//!   already-recorded coordinates;
//! * [`SeedAggregate`] — folds the seeds axis into mean / sample
//!   stddev / 95% Student-t confidence intervals per non-seed cell,
//!   pooling the per-seed latency tails by histogram merge so
//!   percentiles come from the pooled samples — the multi-seed
//!   statistics the scaling studies report.

use crate::jsonl::{esc, field, jnum, parse_flat_object, rewrite_atomically, JsonVal};
use crate::{CellCoord, SweepAxes, SweepCell};
use camdn_common::stats::Welford;
use camdn_runtime::{
    EngineError, LatencyTail, RunOutput, RunSummary, LATENCY_HIST_BUCKETS, LATENCY_HIST_EDGES,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

pub use crate::exec::CellRun;

/// Outcome of one finished cell, as delivered to a [`CellSink`]
/// (the executor's [`CellRun`] under the name the sink API uses).
pub type CellOutcome = CellRun;

/// A consumer of finished sweep cells.
///
/// The executor calls [`CellSink::on_cell`] once per cell, in
/// *completion* order (non-deterministic under more than one worker
/// thread); the coordinate identifies the cell. Calls are serialized —
/// implementations need no locking of their own, but must be `Send`
/// because the call comes from a worker thread.
pub trait CellSink: Send {
    /// Receives one finished cell.
    fn on_cell(&mut self, coord: CellCoord, outcome: CellOutcome);
}

// ------------------------------------------------------------------
// In-memory sink
// ------------------------------------------------------------------

/// Collects cells into row-major order for a [`SweepResult`].
///
/// Its memory grows with the cells' [`DetailLevel`]: at the sweep's
/// default ([`DetailLevel::Summary`]) each cell is a compact summary.
/// Grids too large to buffer at all stream through
/// [`SweepBuilder::run_with_sink`] instead.
///
/// [`SweepResult`]: crate::SweepResult
/// [`DetailLevel`]: camdn_runtime::DetailLevel
/// [`DetailLevel::Summary`]: camdn_runtime::DetailLevel::Summary
/// [`SweepBuilder::run_with_sink`]: crate::SweepBuilder::run_with_sink
#[derive(Debug)]
pub struct MemorySink {
    axes: SweepAxes,
    cells: Vec<Option<SweepCell>>,
}

impl MemorySink {
    /// Creates a sink for a grid with the given axes (one slot per
    /// coordinate of the cross-product).
    pub fn new(axes: SweepAxes) -> Self {
        let slots = axes.cell_count();
        MemorySink {
            axes,
            cells: (0..slots).map(|_| None).collect(),
        }
    }

    /// Consumes the sink: the cells in row-major order (missing slots —
    /// a cell the executor never delivered — become structured errors).
    pub fn into_cells(self) -> Vec<SweepCell> {
        let axes = self.axes;
        self.cells
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| SweepCell {
                    coord: axes.coord_of(i),
                    outcome: Err(EngineError::Panicked {
                        detail: "worker thread lost this cell".into(),
                    }),
                    wall_s: 0.0,
                })
            })
            .collect()
    }
}

impl CellSink for MemorySink {
    fn on_cell(&mut self, coord: CellCoord, outcome: CellOutcome) {
        let idx = self.axes.index_of(&coord);
        self.cells[idx] = Some(SweepCell {
            coord,
            outcome: outcome.outcome,
            wall_s: outcome.wall_s,
        });
    }
}

// ------------------------------------------------------------------
// JSONL streaming sink
// ------------------------------------------------------------------

/// Streamed cell log: schema `camdn-sweep-cells/3`.
///
/// The first line is a header naming the schema, every axis, and the
/// latency-histogram bucket edges; each subsequent line is one cell —
/// its coordinate, wall time, and either the policy label +
/// [`RunSummary`] scalars (including the fault counters
/// `shed_requests` / `retried_inferences` / `dropped_inferences`)
/// plus the compact latency tail (`"ok": true`) or the error text.
/// Lines are written unbuffered the moment the cell completes, so a
/// killed grid leaves every finished cell on disk; a torn final line
/// (kill mid-write) is ignored by the reader and the cell simply
/// re-runs on resume.
///
/// Summary floats are serialized with Rust's shortest-roundtrip
/// `Display`, so a parsed line reproduces the in-memory summary —
/// including its [`LatencyTail`] (integer bucket counts + min/max
/// cycles) — bit-for-bit.
#[derive(Debug)]
pub struct JsonlSink {
    file: std::fs::File,
    path: PathBuf,
    error: Option<String>,
}

/// Schema identifier of the cell-log header line.
pub const CELLS_SCHEMA: &str = "camdn-sweep-cells/3";

impl JsonlSink {
    /// Creates (truncates) the log at `path` and writes the header line
    /// for `axes`.
    pub fn create(path: impl AsRef<Path>, axes: &SweepAxes) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = std::fs::File::create(&path)?;
        file.write_all(header_line(axes).as_bytes())?;
        file.write_all(b"\n")?;
        Ok(JsonlSink {
            file,
            path,
            error: None,
        })
    }

    /// Rewrites the log at `path` as header + the given cells, then
    /// opens it for appending (see [`rewrite_atomically`]: the
    /// previously persisted cells can never be lost to a kill
    /// mid-rewrite).
    pub(crate) fn rewrite(
        path: impl AsRef<Path>,
        axes: &SweepAxes,
        cells: &[(CellCoord, CellOutcome)],
    ) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let lines = std::iter::once(header_line(axes))
            .chain(cells.iter().map(|(coord, cell)| cell_line(*coord, cell)));
        let file = rewrite_atomically(&path, lines)?;
        Ok(JsonlSink {
            file,
            path,
            error: None,
        })
    }

    /// Writes one cell line. I/O failures are recorded and re-surfaced
    /// by [`JsonlSink::finish`] (a sink callback has nowhere to return
    /// an error mid-grid).
    pub fn write_cell(&mut self, coord: CellCoord, outcome: &CellOutcome) {
        if self.error.is_some() {
            return;
        }
        let mut line = cell_line(coord, outcome);
        line.push('\n');
        if let Err(e) = self.file.write_all(line.as_bytes()) {
            self.error = Some(format!("writing {}: {e}", self.path.display()));
        }
    }

    /// Flushes and closes the log, surfacing any write error deferred
    /// during the grid.
    pub fn finish(mut self) -> Result<(), EngineError> {
        if self.error.is_none() {
            if let Err(e) = self.file.flush() {
                self.error = Some(format!("flushing {}: {e}", self.path.display()));
            }
        }
        match self.error {
            None => Ok(()),
            Some(detail) => Err(EngineError::Io { detail }),
        }
    }
}

impl CellSink for JsonlSink {
    fn on_cell(&mut self, coord: CellCoord, outcome: CellOutcome) {
        self.write_cell(coord, &outcome);
    }
}

/// The header line of a cell log for `axes`.
pub(crate) fn header_line(axes: &SweepAxes) -> String {
    let seeds: Vec<String> = axes.seeds.iter().map(u64::to_string).collect();
    let edges: Vec<String> = LATENCY_HIST_EDGES.iter().map(u64::to_string).collect();
    format!(
        "{{\"schema\": \"{}\", \"policies\": {}, \"socs\": {}, \"caches\": {}, \
         \"channels\": {}, \"workloads\": {}, \"qos\": {}, \"lookaheads\": {}, \
         \"faults\": {}, \"seeds\": [{}], \"hist_edges\": [{}]}}",
        CELLS_SCHEMA,
        crate::report::str_array(&axes.policies),
        crate::report::str_array(&axes.socs),
        crate::report::str_array(&axes.caches),
        crate::report::str_array(&axes.channels),
        crate::report::str_array(&axes.workloads),
        crate::report::str_array(&axes.qos),
        crate::report::str_array(&axes.lookaheads),
        crate::report::str_array(&axes.faults),
        seeds.join(", "),
        edges.join(", "),
    )
}

/// One cell as a JSONL line (no trailing newline).
pub(crate) fn cell_line(coord: CellCoord, outcome: &CellOutcome) -> String {
    let mut s = String::with_capacity(384);
    let _ = write!(
        s,
        "{{\"policy\": {}, \"soc\": {}, \"cache\": {}, \"channel\": {}, \"workload\": {}, \
         \"qos\": {}, \"lookahead\": {}, \"fault\": {}, \"seed\": {}, \"wall_s\": {}, ",
        coord.policy,
        coord.soc,
        coord.cache,
        coord.channel,
        coord.workload,
        coord.qos,
        coord.lookahead,
        coord.fault,
        coord.seed,
        jnum(outcome.wall_s),
    );
    match &outcome.outcome {
        Ok(run) => {
            let m = &run.summary;
            let tail = &m.latency_tail;
            let counts: Vec<String> = tail.counts().iter().map(u64::to_string).collect();
            let _ = write!(
                s,
                "\"ok\": true, \"label\": \"{}\", \"tasks\": {}, \"inferences\": {}, \
                 \"cache_hit_rate\": {}, \"avg_latency_ms\": {}, \"mem_mb_per_model\": {}, \
                 \"makespan_ms\": {}, \"sla_rate\": {}, \"multicast_saved_mb\": {}, \
                 \"shed_requests\": {}, \"retried_inferences\": {}, \
                 \"dropped_inferences\": {}, \
                 \"p50_ms\": {}, \"p90_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}, \
                 \"p999_ms\": {}, \"lat_counts\": [{}], \"lat_min_cycles\": {}, \
                 \"lat_max_cycles\": {}}}",
                esc(&run.policy),
                m.tasks,
                m.inferences,
                jnum(m.cache_hit_rate),
                jnum(m.avg_latency_ms),
                jnum(m.mem_mb_per_model),
                jnum(m.makespan_ms),
                jnum(m.sla_rate),
                jnum(m.multicast_saved_mb),
                m.shed_requests,
                m.retried_inferences,
                m.dropped_inferences,
                jnum(tail.p50_ms()),
                jnum(tail.p90_ms()),
                jnum(tail.p95_ms()),
                jnum(tail.p99_ms()),
                jnum(tail.p999_ms()),
                counts.join(", "),
                tail.min_cycles().unwrap_or(0),
                tail.max_cycles().unwrap_or(0),
            );
        }
        Err(e) => {
            let _ = write!(s, "\"ok\": false, \"error\": \"{}\"}}", esc(&e.to_string()));
        }
    }
    s
}

/// Reads the successfully recorded cells of a log, validating that its
/// header matches `axes` (a log from a different grid must not be
/// silently merged; a header of an older `camdn-sweep-cells` schema is
/// rejected the same way). Error cells and torn or malformed lines are
/// skipped — resume re-runs them.
pub(crate) fn read_recorded(
    path: impl AsRef<Path>,
    axes: &SweepAxes,
) -> Result<Vec<(CellCoord, RunOutput, f64)>, EngineError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| EngineError::Io {
        detail: format!("reading {}: {e}", path.display()),
    })?;
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("").trim();
    if header != header_line(axes) {
        return Err(EngineError::InvalidConfig(format!(
            "{} belongs to a different grid (axes header mismatch); \
             delete it or point the sweep elsewhere",
            path.display()
        )));
    }
    // A torn final line (killed mid-write) parses as None: skip it and
    // let the cell re-run.
    Ok(lines
        .filter_map(|line| parse_cell_line(line, axes))
        .collect())
}

/// Parses one cell line back into its coordinate + summary-only
/// [`RunOutput`] + recorded wall seconds. `None` for error cells,
/// malformed (torn) lines, or out-of-range coordinates.
fn parse_cell_line(line: &str, axes: &SweepAxes) -> Option<(CellCoord, RunOutput, f64)> {
    let fields = parse_flat_object(line)?;
    let num = |key: &str| field(&fields, key)?.as_f64();
    // Coordinates, counts and cycles are exact unsigned integers: a
    // negative or fractional token makes the line malformed instead of
    // truncating onto 0 (and cycles above 2^53 must not round).
    let int = |key: &str| field(&fields, key)?.as_u64();
    let index = |key: &str| usize::try_from(int(key)?).ok();
    let coord = CellCoord {
        policy: index("policy")?,
        soc: index("soc")?,
        cache: index("cache")?,
        channel: index("channel")?,
        workload: index("workload")?,
        qos: index("qos")?,
        lookahead: index("lookahead")?,
        fault: index("fault")?,
        seed: index("seed")?,
    };
    if !axes.contains(&coord) || !field(&fields, "ok")?.as_bool()? {
        return None;
    }
    let label = field(&fields, "label")?.as_str()?.to_string();
    let raw = match field(&fields, "lat_counts")? {
        JsonVal::Arr(items) if items.len() == LATENCY_HIST_BUCKETS => items,
        _ => return None,
    };
    let mut counts = [0u64; LATENCY_HIST_BUCKETS];
    for (slot, item) in counts.iter_mut().zip(raw) {
        *slot = item.parse().ok()?;
    }
    let latency_tail =
        LatencyTail::from_parts(counts, int("lat_min_cycles")?, int("lat_max_cycles")?);
    let summary = RunSummary {
        tasks: index("tasks")?,
        inferences: index("inferences")?,
        cache_hit_rate: num("cache_hit_rate")?,
        avg_latency_ms: num("avg_latency_ms")?,
        mem_mb_per_model: num("mem_mb_per_model")?,
        makespan_ms: num("makespan_ms")?,
        sla_rate: num("sla_rate")?,
        multicast_saved_mb: num("multicast_saved_mb")?,
        shed_requests: int("shed_requests")?,
        retried_inferences: int("retried_inferences")?,
        dropped_inferences: int("dropped_inferences")?,
        latency_tail,
    };
    Some((
        coord,
        RunOutput {
            policy: label,
            summary,
            detail: None,
        },
        num("wall_s")?,
    ))
}

// ------------------------------------------------------------------
// Multi-seed statistics sink
// ------------------------------------------------------------------

/// Mean / sample stddev / 95% CI half-width of one metric over the
/// seeds of a cell group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricStats {
    /// Arithmetic mean over seeds.
    pub mean: f64,
    /// Sample standard deviation (0.0 with fewer than two seeds).
    pub stddev: f64,
    /// Half-width of the two-sided 95% Student-t confidence interval
    /// of the mean (0.0 with fewer than two seeds).
    pub ci95: f64,
}

impl From<&Welford> for MetricStats {
    fn from(w: &Welford) -> Self {
        MetricStats {
            mean: w.mean(),
            stddev: w.stddev(),
            ci95: w.ci95(),
        }
    }
}

/// Multi-seed statistics of one non-seed coordinate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedStats {
    /// The group's coordinate with `seed` normalized to 0.
    pub coord: CellCoord,
    /// Successful runs folded into the statistics.
    pub n: u64,
    /// Failed cells in the group (excluded from the statistics).
    pub errors: u64,
    /// Stats over [`RunSummary::avg_latency_ms`].
    pub avg_latency_ms: MetricStats,
    /// Stats over [`RunSummary::mem_mb_per_model`].
    pub mem_mb_per_model: MetricStats,
    /// Stats over [`RunSummary::cache_hit_rate`].
    pub cache_hit_rate: MetricStats,
    /// Stats over [`RunSummary::makespan_ms`].
    pub makespan_ms: MetricStats,
    /// Stats over [`RunSummary::sla_rate`].
    pub sla_rate: MetricStats,
    /// The group's per-seed [`RunSummary::latency_tail`]s pooled by
    /// histogram merge: `latency_tail.p99_ms()` is the p99 of *all*
    /// inferences across the seeds, not an average of per-seed p99s
    /// (percentiles do not average — a seed with a long tail would be
    /// washed out).
    pub latency_tail: LatencyTail,
}

#[derive(Debug, Default)]
struct SeedGroup {
    errors: u64,
    /// Per-seed `(seed index, [avg_latency_ms, mem_mb_per_model,
    /// cache_hit_rate, makespan_ms, sla_rate])` in arrival order;
    /// [`SeedAggregate::stats`] folds them in seed order.
    runs: Vec<(usize, [f64; 5])>,
    /// Histogram merge is integer addition, so the tail folds eagerly.
    tail: LatencyTail,
}

/// Folds the seeds axis into per-group mean / stddev / 95% CI as cells
/// arrive: two cells belong to the same group when every coordinate
/// but `seed` matches.
///
/// Each group keeps its per-seed scalars (one small array per seed)
/// and [`stats`](SeedAggregate::stats) runs the Welford updates in
/// seed order, so the statistics are bit-identical whatever order the
/// cells arrive in.
#[derive(Debug, Default)]
pub struct SeedAggregate {
    groups: BTreeMap<CellCoord, SeedGroup>,
}

impl SeedAggregate {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        SeedAggregate::default()
    }

    /// Folds a whole in-memory sweep (cells visited in row-major
    /// order) and returns the statistics.
    pub fn of(result: &crate::SweepResult) -> Vec<SeedStats> {
        let mut agg = SeedAggregate::new();
        for cell in &result.cells {
            match &cell.outcome {
                Ok(run) => agg.fold(cell.coord, &run.summary),
                Err(_) => agg.fold_error(cell.coord),
            }
        }
        agg.stats()
    }

    /// Folds one successful cell's summary into its group (its
    /// scalars are kept under the cell's seed index, and the latency
    /// tail is histogram-merged).
    pub fn fold(&mut self, coord: CellCoord, summary: &RunSummary) {
        let g = self.groups.entry(group_key(coord)).or_default();
        g.runs.push((
            coord.seed,
            [
                summary.avg_latency_ms,
                summary.mem_mb_per_model,
                summary.cache_hit_rate,
                summary.makespan_ms,
                summary.sla_rate,
            ],
        ));
        g.tail.merge(&summary.latency_tail);
    }

    /// Counts one failed cell against its group.
    pub fn fold_error(&mut self, coord: CellCoord) {
        self.groups.entry(group_key(coord)).or_default().errors += 1;
    }

    /// The per-group statistics, sorted in row-major coordinate order.
    /// Within a group the seeds are folded in seed order.
    pub fn stats(&self) -> Vec<SeedStats> {
        let mut out: Vec<SeedStats> = self
            .groups
            .iter()
            .map(|(coord, g)| {
                let mut runs = g.runs.clone();
                // Stable: repeated folds of one seed keep arrival order.
                runs.sort_by_key(|&(seed, _)| seed);
                let mut w: [Welford; 5] = Default::default();
                for (_, values) in &runs {
                    for (w, &v) in w.iter_mut().zip(values) {
                        w.record(v);
                    }
                }
                SeedStats {
                    coord: *coord,
                    n: runs.len() as u64,
                    errors: g.errors,
                    avg_latency_ms: (&w[0]).into(),
                    mem_mb_per_model: (&w[1]).into(),
                    cache_hit_rate: (&w[2]).into(),
                    makespan_ms: (&w[3]).into(),
                    sla_rate: (&w[4]).into(),
                    latency_tail: g.tail,
                }
            })
            .collect();
        out.sort_by_key(|s| {
            let c = s.coord;
            (
                c.policy,
                c.soc,
                c.cache,
                c.channel,
                c.workload,
                c.qos,
                c.lookahead,
                c.fault,
            )
        });
        out
    }
}

impl CellSink for SeedAggregate {
    fn on_cell(&mut self, coord: CellCoord, outcome: CellOutcome) {
        match &outcome.outcome {
            Ok(run) => self.fold(coord, &run.summary),
            Err(_) => self.fold_error(coord),
        }
    }
}

fn group_key(mut coord: CellCoord) -> CellCoord {
    coord.seed = 0;
    coord
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord(seed: usize) -> CellCoord {
        CellCoord {
            policy: 1,
            soc: 0,
            cache: 2,
            channel: 0,
            workload: 0,
            qos: 0,
            lookahead: 0,
            fault: 0,
            seed,
        }
    }

    fn summary(lat: f64) -> RunSummary {
        let mut latency_tail = LatencyTail::new();
        latency_tail.record(camdn_common::types::ms_to_cycles(lat));
        RunSummary {
            tasks: 2,
            inferences: 4,
            cache_hit_rate: lat / 100.0,
            avg_latency_ms: lat,
            mem_mb_per_model: 2.0 * lat,
            makespan_ms: 10.0 * lat,
            sla_rate: 1.0,
            multicast_saved_mb: 0.0,
            shed_requests: 0,
            retried_inferences: 0,
            dropped_inferences: 0,
            latency_tail,
        }
    }

    #[test]
    fn seed_aggregate_matches_hand_computed_fixture() {
        // Latencies {10, 12, 14} over three seeds: mean 12, sample
        // stddev 2, CI95 half-width t(0.975, 2) * 2 / sqrt(3).
        let mut agg = SeedAggregate::new();
        for (seed, lat) in [(0, 10.0), (1, 12.0), (2, 14.0)] {
            agg.fold(coord(seed), &summary(lat));
        }
        let stats = agg.stats();
        assert_eq!(stats.len(), 1, "one non-seed group");
        let s = &stats[0];
        assert_eq!(s.coord.seed, 0);
        assert_eq!((s.coord.policy, s.coord.cache), (1, 2));
        assert_eq!(s.n, 3);
        assert_eq!(s.errors, 0);
        assert!((s.avg_latency_ms.mean - 12.0).abs() < 1e-12);
        assert!((s.avg_latency_ms.stddev - 2.0).abs() < 1e-12);
        let expect_ci = 4.303 * 2.0 / 3.0_f64.sqrt();
        assert!(
            (s.avg_latency_ms.ci95 - expect_ci).abs() < 1e-9,
            "ci {} != {expect_ci}",
            s.avg_latency_ms.ci95
        );
        // The dependent metrics scale with the fixture.
        assert!((s.mem_mb_per_model.mean - 24.0).abs() < 1e-12);
        assert!((s.makespan_ms.stddev - 20.0).abs() < 1e-12);
        assert!((s.sla_rate.stddev - 0.0).abs() < 1e-12);
    }

    #[test]
    fn error_cells_are_counted_not_folded() {
        let mut agg = SeedAggregate::new();
        agg.fold(coord(0), &summary(10.0));
        agg.fold_error(coord(1));
        let stats = agg.stats();
        assert_eq!(stats[0].n, 1);
        assert_eq!(stats[0].errors, 1);
        assert_eq!(stats[0].avg_latency_ms.mean, 10.0);
        assert_eq!(stats[0].avg_latency_ms.ci95, 0.0, "one sample, no CI");
    }

    fn roundtrip_axes() -> SweepAxes {
        SweepAxes {
            policies: vec!["Baseline".into(), "needs \"escaping\"".into()],
            socs: vec!["paper".into()],
            caches: vec!["default".into(), "16MiB".into(), "32MiB".into()],
            channels: vec!["default".into()],
            workloads: vec!["w".into()],
            qos: vec!["closed".into()],
            lookaheads: vec!["default".into()],
            faults: vec!["none".into()],
            seeds: vec![1, 2],
        }
    }

    #[test]
    fn cell_lines_roundtrip_bit_for_bit() {
        let axes = roundtrip_axes();
        let c = CellCoord {
            policy: 1,
            soc: 0,
            cache: 2,
            channel: 0,
            workload: 0,
            qos: 0,
            lookahead: 0,
            fault: 0,
            seed: 1,
        };
        // A tail with samples in three buckets plus awkward extremes:
        // the integer counts/min/max must come back exactly — the max
        // is deliberately above 2^53, where an f64 path would round.
        let mut latency_tail = LatencyTail::new();
        latency_tail.record(123);
        latency_tail.record((1 << 20) + 1);
        latency_tail.record((1 << 53) + 1);
        let run = RunOutput {
            policy: "needs \"escaping\"".into(),
            summary: RunSummary {
                tasks: 3,
                inferences: 7,
                // Awkward doubles: shortest-roundtrip Display must
                // reproduce them exactly.
                cache_hit_rate: 1.0 / 3.0,
                avg_latency_ms: 0.1 + 0.2,
                mem_mb_per_model: f64::MIN_POSITIVE,
                makespan_ms: 12345.678901234567,
                sla_rate: 1.0,
                multicast_saved_mb: 0.0,
                // Non-zero fault counters: they must roundtrip exactly.
                shed_requests: 5,
                retried_inferences: 2,
                dropped_inferences: 1,
                latency_tail,
            },
            detail: None,
        };
        let line = cell_line(
            c,
            &CellRun {
                outcome: Ok(run.clone()),
                wall_s: 0.015625,
            },
        );
        let (pc, prun, wall) = parse_cell_line(&line, &axes).expect("line parses");
        assert_eq!(pc, c);
        assert_eq!(prun, run, "summary must roundtrip bit-for-bit");
        assert_eq!(
            prun.summary.latency_tail, run.summary.latency_tail,
            "tail counts/min/max must roundtrip exactly"
        );
        assert_eq!(wall, 0.015625);
        // The line carries derived percentiles for plain consumers.
        assert!(line.contains("\"p99_ms\": "));
        // Error lines are skipped (they re-run on resume).
        let err_line = cell_line(
            c,
            &CellRun {
                outcome: Err(EngineError::EmptyWorkload),
                wall_s: 0.0,
            },
        );
        assert!(parse_cell_line(&err_line, &axes).is_none());
        // Torn lines (killed mid-write) are skipped, not fatal.
        assert!(parse_cell_line(&line[..line.len() / 2], &axes).is_none());
        // Out-of-range coordinates (a log from a bigger grid) too.
        let small = SweepAxes {
            caches: vec!["default".into()],
            ..axes.clone()
        };
        assert!(parse_cell_line(&line, &small).is_none());
        // Non-finite values serialize as JSON null (never `NaN`/`inf`),
        // which the reader skips — the cell re-runs instead of
        // poisoning the log.
        let mut weird = run;
        weird.summary.avg_latency_ms = f64::NAN;
        let weird_line = cell_line(
            c,
            &CellRun {
                outcome: Ok(weird),
                wall_s: f64::INFINITY,
            },
        );
        assert!(weird_line.contains("\"avg_latency_ms\": null"));
        assert!(weird_line.contains("\"wall_s\": null"));
        assert!(!weird_line.contains(": NaN") && !weird_line.contains(": inf"));
        assert!(parse_cell_line(&weird_line, &axes).is_none());
    }

    #[test]
    fn malformed_integers_drop_the_line_instead_of_landing_on_zero() {
        let axes = roundtrip_axes();
        let ok = CellRun {
            outcome: Ok(RunOutput {
                policy: "Baseline".into(),
                summary: summary(10.0),
                detail: None,
            }),
            wall_s: 0.5,
        };
        let line = cell_line(coord(1), &ok);
        assert_eq!(parse_cell_line(&line, &axes).map(|p| p.0), Some(coord(1)));
        // A negative or fractional coordinate or count is not an index:
        // the line is dropped like a torn one (its cell re-runs), never
        // credited to coordinate 0.
        for (from, to) in [
            ("\"policy\": 1,", "\"policy\": -1,"),
            ("\"policy\": 1,", "\"policy\": 0.5,"),
            ("\"seed\": 1,", "\"seed\": 1e0,"),
            ("\"tasks\": 2,", "\"tasks\": -2,"),
        ] {
            assert!(line.contains(from), "{from} not in {line}");
            let bad = line.replace(from, to);
            assert!(
                parse_cell_line(&bad, &axes).is_none(),
                "{to} must drop the line"
            );
        }
    }

    #[test]
    fn seed_aggregate_pools_tails_instead_of_averaging_percentiles() {
        // Seed 0: 99 fast inferences. Seed 1: 99 fast + 99 slow. The
        // pooled p99 must see the slow samples (pooled tail ranks over
        // all 297 samples); an average of per-seed p99s would sit half
        // way and a fast-only pool would miss them entirely.
        let fast = 1_000_000u64; // ~1 ms
        let slow = 500_000_000u64; // ~500 ms
        let mk = |n_fast: u64, n_slow: u64| {
            let mut s = summary(1.0);
            let mut t = LatencyTail::new();
            for _ in 0..n_fast {
                t.record(fast);
            }
            for _ in 0..n_slow {
                t.record(slow);
            }
            s.latency_tail = t;
            s
        };
        let mut agg = SeedAggregate::new();
        agg.fold(coord(0), &mk(99, 0));
        agg.fold(coord(1), &mk(99, 99));
        let stats = agg.stats();
        assert_eq!(stats.len(), 1);
        let pooled = stats[0].latency_tail;
        assert_eq!(pooled.total(), 297);
        // A third of the pooled samples are slow: p90 and above land in
        // the slow straggler's bucket (clamped to the recorded max).
        assert_eq!(pooled.quantile_cycles(0.90), Some(slow));
        assert_eq!(pooled.max_cycles(), Some(slow));
        // The median stays fast.
        let p50 = pooled.quantile_cycles(0.50).unwrap();
        assert!(p50 < 2 * fast, "median {p50} must stay in the fast bucket");
    }
}
