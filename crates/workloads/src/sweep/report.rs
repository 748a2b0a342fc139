//! The merged sweep report: one deterministically ordered document per
//! invocation.
//!
//! Cells are sorted by cell id (their position in the deterministic
//! matrix expansion), floats are written in Rust's shortest-roundtrip
//! form, and nothing wall-clock-dependent is serialized — so the JSON
//! and CSV renderings of a fixed-seed sweep are bit-for-bit identical
//! across runs and across `--jobs` values (the CI `sweep-determinism`
//! job `cmp`s them). The vendored serde derive does not support
//! lifetime-parameterised structs, so the report owns its data.

use super::pareto::pareto_frontier;
use serde::Serialize;
use supersim_faults::DegradationReport;

/// Bytes of a typical cell in [`SweepReport::to_json`] (about 0.55 KB
/// clean, 1 KB with a degradation report), to size the output once.
const CELL_JSON_BYTES: usize = 800;

/// One cell's resolved coordinates and results.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CellResult {
    /// Position in the deterministic matrix expansion (also the merge
    /// order of the report).
    pub id: u64,
    /// Algorithm name.
    pub algorithm: String,
    /// Matrix order.
    pub n: usize,
    /// Tile size.
    pub nb: usize,
    /// Scheduler profile name (`pinned` for cluster cells).
    pub scheduler: String,
    /// Worker count (per node for cluster cells).
    pub workers: usize,
    /// Node count (0 = single-node).
    pub nodes: usize,
    /// Interconnect model name (`-` for single-node cells).
    pub interconnect: String,
    /// Fault-plan name (`clean` for the empty plan).
    pub plan: String,
    /// Duration-sampling seed.
    pub seed: u64,
    /// Backend that executed the cell (`des` or `threaded`).
    pub backend: String,
    /// Trace spans recorded (compute + transfer + fault markers).
    pub tasks: u64,
    /// Predicted makespan (virtual seconds; the faulted makespan for
    /// faulted cells).
    pub makespan: f64,
    /// Predicted GFLOP/s at that makespan.
    pub gflops: f64,
    /// Transfer tasks (cluster cells; 0 single-node).
    pub transfers: u64,
    /// Bytes moved by those transfers (clean cluster cells; the faulted
    /// pipeline does not re-derive volumes, so faulted cells report 0).
    pub transfer_bytes: u64,
    /// Faulted/clean makespan ratio (1.0 for clean cells).
    pub slowdown: f64,
    /// Transient retries executed.
    pub retries: u64,
    /// Tasks re-run by permanent-failure replay.
    pub restarted_tasks: u64,
    /// Full degradation report for faulted cells.
    pub degradation: Option<DegradationReport>,
}

/// The frontier section: objective names plus the ids of the
/// non-dominated cells.
#[derive(Debug, Clone, Serialize)]
pub struct ParetoReport {
    /// Objective names, in vector order, all minimized.
    pub objectives: Vec<String>,
    /// Ids of non-dominated cells, ascending.
    pub frontier: Vec<u64>,
}

/// One value-group of an autotune scan.
#[derive(Debug, Clone, Serialize)]
pub struct AutotuneGroup {
    /// The swept axis value (as a string, e.g. `"64"` for nb=64).
    pub value: String,
    /// Cells in the group.
    pub cells: u64,
    /// Mean makespan across the group.
    pub mean_makespan: f64,
    /// Best (minimum) makespan in the group.
    pub min_makespan: f64,
    /// Worst (maximum) makespan in the group.
    pub max_makespan: f64,
}

/// Argmin-over-the-matrix: group cells by one axis, average the
/// makespans, pick the winner.
#[derive(Debug, Clone, Serialize)]
pub struct AutotuneReport {
    /// The grouped axis (`nb`, `workers`, `scheduler`, ...).
    pub axis: String,
    /// Groups in first-appearance (cell-id) order.
    pub groups: Vec<AutotuneGroup>,
    /// Axis value with the lowest mean makespan (earliest group wins
    /// exact ties).
    pub best: String,
}

/// The merged report of one sweep invocation.
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    /// Report schema version.
    pub version: u32,
    /// Total cells executed.
    pub cells_total: u64,
    /// Per-cell results, ordered by cell id.
    pub cells: Vec<CellResult>,
    /// Pareto frontier over (makespan, slowdown, transfer_bytes).
    pub pareto: ParetoReport,
    /// Present when the sweep ran in `--autotune` mode.
    pub autotune: Option<AutotuneReport>,
}

/// Axes [`autotune`] can group by.
pub const AUTOTUNE_AXES: &[&str] = &[
    "n",
    "nb",
    "scheduler",
    "workers",
    "nodes",
    "interconnect",
    "plan",
    "seed",
    "backend",
];

fn axis_value(cell: &CellResult, axis: &str) -> String {
    match axis {
        "n" => cell.n.to_string(),
        "nb" | "tile_size" => cell.nb.to_string(),
        "scheduler" => cell.scheduler.clone(),
        "workers" => cell.workers.to_string(),
        "nodes" => cell.nodes.to_string(),
        "interconnect" => cell.interconnect.clone(),
        "plan" => cell.plan.clone(),
        "seed" => cell.seed.to_string(),
        "backend" => cell.backend.clone(),
        other => panic!("unknown autotune axis {other:?} (one of {AUTOTUNE_AXES:?})"),
    }
}

/// Group `cells` by `axis` and rank the groups by mean makespan. Groups
/// appear in first-appearance order over ascending cell id, so the
/// report stays deterministic.
pub fn autotune(cells: &[CellResult], axis: &str) -> AutotuneReport {
    let mut groups: Vec<(String, Vec<f64>)> = Vec::new();
    for cell in cells {
        let value = axis_value(cell, axis);
        match groups.iter_mut().find(|(v, _)| *v == value) {
            Some((_, xs)) => xs.push(cell.makespan),
            None => groups.push((value, vec![cell.makespan])),
        }
    }
    let groups: Vec<AutotuneGroup> = groups
        .into_iter()
        .map(|(value, xs)| AutotuneGroup {
            value,
            cells: xs.len() as u64,
            mean_makespan: xs.iter().sum::<f64>() / xs.len() as f64,
            min_makespan: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max_makespan: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        })
        .collect();
    let best = groups
        .iter()
        .min_by(|a, b| a.mean_makespan.total_cmp(&b.mean_makespan))
        .map(|g| g.value.clone())
        .unwrap_or_default();
    AutotuneReport {
        axis: axis.to_string(),
        groups,
        best,
    }
}

impl SweepReport {
    /// Report schema version.
    pub const VERSION: u32 = 1;

    /// Assemble the merged report from executed cells (sorted by id
    /// here) plus the optional autotune axis.
    pub fn assemble(mut cells: Vec<CellResult>, autotune_axis: Option<&str>) -> SweepReport {
        cells.sort_by_key(|c| c.id);
        let points: Vec<(u64, Vec<f64>)> = cells
            .iter()
            .map(|c| (c.id, vec![c.makespan, c.slowdown, c.transfer_bytes as f64]))
            .collect();
        let pareto = ParetoReport {
            objectives: vec![
                "makespan".to_string(),
                "slowdown".to_string(),
                "transfer_bytes".to_string(),
            ],
            frontier: pareto_frontier(&points),
        };
        let autotune = autotune_axis.map(|axis| autotune(&cells, axis));
        SweepReport {
            version: Self::VERSION,
            cells_total: cells.len() as u64,
            cells,
            pareto,
            autotune,
        }
    }

    /// Pretty JSON rendering (deterministic for a fixed-seed sweep): the
    /// bytes of `serde_json::to_string_pretty(self)`, but the cells are
    /// serialised one at a time and spliced in two levels deep, so the
    /// intermediate value tree is one cell's, not the whole report's.
    pub fn to_json(&self) -> String {
        fn pretty<T: Serialize>(value: &T) -> String {
            serde_json::to_string_pretty(value).expect("sweep report serialization cannot fail")
        }
        let shell = pretty(&SweepReport {
            version: self.version,
            cells_total: self.cells_total,
            cells: Vec::new(),
            pareto: self.pareto.clone(),
            autotune: self.autotune.clone(),
        });
        if self.cells.is_empty() {
            return shell;
        }
        // Field order puts the top-level `cells` before every nested one.
        let (head, tail) = shell
            .split_once("\"cells\": []")
            .expect("the shell report has an empty cells array");
        let mut out = String::with_capacity(shell.len() + self.cells.len() * CELL_JSON_BYTES);
        out.push_str(head);
        out.push_str("\"cells\": [");
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Strings escape their newlines, so every raw one is an
            // indentation break.
            for line in pretty(cell).split('\n') {
                out.push_str("\n    ");
                out.push_str(line);
            }
        }
        out.push_str("\n  ]");
        out.push_str(tail);
        out
    }

    /// CSV rendering: fixed column order, one row per cell, a trailing
    /// `pareto` membership column. Floats use Rust's shortest-roundtrip
    /// display, so the bytes are deterministic too.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "id,algorithm,n,nb,scheduler,workers,nodes,interconnect,plan,seed,backend,\
             tasks,makespan,gflops,transfers,transfer_bytes,slowdown,retries,\
             restarted_tasks,pareto\n",
        );
        for c in &self.cells {
            let on_frontier = self.pareto.frontier.binary_search(&c.id).is_ok();
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                c.id,
                c.algorithm,
                c.n,
                c.nb,
                c.scheduler,
                c.workers,
                c.nodes,
                c.interconnect,
                c.plan,
                c.seed,
                c.backend,
                c.tasks,
                c.makespan,
                c.gflops,
                c.transfers,
                c.transfer_bytes,
                c.slowdown,
                c.retries,
                c.restarted_tasks,
                u8::from(on_frontier),
            ));
        }
        out
    }

    /// Rank-keyed per-cell counts: trace-span and retry totals, which the
    /// determinism contract (DESIGN.md §7) guarantees even on the racy
    /// threaded scheduler profiles where span *times* may differ. The CI
    /// threaded-subset gate `cmp`s this rendering across runs.
    pub fn counts(&self) -> String {
        let mut out =
            String::from("id algorithm n nb scheduler plan seed tasks retries restarted\n");
        for c in &self.cells {
            out.push_str(&format!(
                "{} {} {} {} {} {} {} {} {} {}\n",
                c.id,
                c.algorithm,
                c.n,
                c.nb,
                c.scheduler,
                c.plan,
                c.seed,
                c.tasks,
                c.retries,
                c.restarted_tasks,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(id: u64, makespan: f64, slowdown: f64, bytes: u64) -> CellResult {
        CellResult {
            id,
            algorithm: "cholesky".into(),
            n: 480,
            nb: 48,
            scheduler: "quark".into(),
            workers: 4,
            nodes: 0,
            interconnect: "-".into(),
            plan: "clean".into(),
            seed: 42,
            backend: "des".into(),
            tasks: 10,
            makespan,
            gflops: 1.0,
            transfers: 0,
            transfer_bytes: bytes,
            slowdown,
            retries: 0,
            restarted_tasks: 0,
            degradation: None,
        }
    }

    #[test]
    fn assemble_sorts_and_extracts_frontier() {
        // Insert out of order; cell 2 is dominated by cell 0.
        let cells = vec![
            cell(2, 2.0, 1.0, 100),
            cell(0, 1.0, 1.0, 100),
            cell(1, 3.0, 0.5, 0),
        ];
        let report = SweepReport::assemble(cells, None);
        assert_eq!(
            report.cells.iter().map(|c| c.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(report.pareto.frontier, vec![0, 1]);
        assert_eq!(report.cells_total, 3);
    }

    #[test]
    fn autotune_groups_and_picks_argmin() {
        let mut a = cell(0, 4.0, 1.0, 0);
        a.nb = 32;
        let mut b = cell(1, 2.0, 1.0, 0);
        b.nb = 64;
        let mut c = cell(2, 6.0, 1.0, 0);
        c.nb = 32;
        let report = SweepReport::assemble(vec![a, b, c], Some("nb"));
        let tune = report.autotune.as_ref().unwrap();
        assert_eq!(tune.best, "64");
        assert_eq!(tune.groups.len(), 2);
        assert_eq!(tune.groups[0].value, "32");
        assert_eq!(tune.groups[0].mean_makespan, 5.0);
        assert_eq!(tune.groups[0].cells, 2);
    }

    #[test]
    fn csv_is_deterministic_and_flags_frontier() {
        let cells = vec![cell(0, 1.0, 1.0, 0), cell(1, 2.0, 1.0, 0)];
        let report = SweepReport::assemble(cells.clone(), None);
        let csv = report.to_csv();
        assert_eq!(csv, SweepReport::assemble(cells, None).to_csv());
        let rows: Vec<&str> = csv.lines().collect();
        assert_eq!(rows.len(), 3);
        assert!(rows[1].ends_with(",1"), "cell 0 on frontier: {}", rows[1]);
        assert!(rows[2].ends_with(",0"), "cell 1 dominated: {}", rows[2]);
    }

    /// Splicing cells in one at a time writes exactly what serialising the
    /// whole report writes: empty, clean and faulted cells, with and
    /// without an autotune section, strings needing escapes included.
    #[test]
    fn spliced_json_is_the_whole_report_serialised() {
        let mut faulted = cell(1, 2.0, 1.25, 0);
        faulted.plan = "a \"quoted\"\nplan".into();
        faulted.degradation = Some(DegradationReport {
            clean_makespan: 1.6,
            faulted_makespan: 2.0,
            slowdown: 1.25,
            critical_lane_clean: 1,
            critical_lane_faulted: 2,
            retries: 3,
            aborted_virtual_seconds: 0.1,
            lost_virtual_seconds: 0.0,
            checkpoint_overhead: 0.0,
            restarted_tasks: 0,
            per_fault: vec![supersim_faults::FaultAttribution {
                fault: "straggler".into(),
                makespan: 2.0,
                slowdown: 1.25,
            }],
        });
        for (cells, axis) in [
            (vec![], None),
            (vec![cell(0, 1.5, 1.0, 7)], None),
            (vec![cell(0, 1.5, 1.0, 7), faulted], Some("nb")),
        ] {
            let report = SweepReport::assemble(cells, axis);
            assert_eq!(
                report.to_json(),
                serde_json::to_string_pretty(&report).unwrap()
            );
        }
    }

    #[test]
    fn json_round_trips_through_vendored_serde() {
        let report = SweepReport::assemble(vec![cell(0, 1.5, 1.0, 7)], Some("nb"));
        let json = report.to_json();
        assert!(json.contains("\"frontier\""));
        assert!(json.contains("\"autotune\""));
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["cells"][0]["makespan"].as_f64(), Some(1.5));
    }
}
