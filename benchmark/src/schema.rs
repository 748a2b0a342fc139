//! The benchmark's declared surface: workloads, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root is generated from these tables (`supersim-benchmark schema`) and a
//! unit test keeps the two identical.

/// Seconds one run measures (`run_seconds`, and the default `--seconds`).
pub const RUN_SECONDS: u64 = 20;

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDecl; 4] = [
    WorkloadDecl {
        name: "des-dense",
        why: "45,760-task Cholesky DAG on the DES backend, sampled durations, buffered trace: hazards, plan_ranked, dist and the event heap do the work; sinks, serve and threads do none",
    },
    WorkloadDecl {
        name: "des-stream",
        why: "200,000-task lazy stream on the same DES loop with an ndjson sink: shallow deps, no sampling, every span epoch-drained and serialised; shows the bounded-memory claim in peak_heap_mb",
    },
    WorkloadDecl {
        name: "threaded-inloop",
        why: "the paper's method: 2,600-task Cholesky on the threaded engine with 8 workers: engine locks, TEQ wake-ups and the quiescence gate under real threads; des does nothing",
    },
    WorkloadDecl {
        name: "serve-mix",
        why: "loopback HTTP to an in-process server: per 50 requests 35 cached hits, 13 cold misses that grow the cache, 2 sweeps of 64 cells reaching cluster and faults; JSON and cache paths",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// What a user of the simulator sees, on every workload. All host time
/// except `peak_heap_mb`.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.2,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.1,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer metrics of the `--trace 1` run. A metric reads 0 on a workload
/// that does not exercise its layer; README.md says which workload owns
/// which probe.
pub const PER_LAYER: [PerLayer; 70] = [
    // Every workload: the op as the driver sees it.
    pl("op.n", "count", "higher"),
    pl("op.p50_ms", "ms", "lower"),
    pl("op.p90_ms", "ms", "lower"),
    pl("op.tail_ms", "ms", "lower"),
    pl("op.tail_pct", "%", "higher"),
    pl("op.traced_p50_ms", "ms", "lower"),
    pl("trace_overhead_pct", "%", "lower"),
    pl("bench.harness_self_pct", "%", "lower"),
    pl("ops_failed", "count", "lower"),
    pl("pinned_cpus", "count", "higher"),
    pl("proc.cpu_per_wall", "ratio", "lower"),
    pl("mem.peak_rss_mb", "MiB", "lower"),
    pl("mem.peak_heap_mb", "MiB", "lower"),
    pl("mem.allocs_per_op", "count", "lower"),
    pl("sim.tasks_per_op", "count", "higher"),
    pl("sim.spans_per_op", "count", "higher"),
    pl("sim.tasks_per_s", "1/s", "higher"),
    pl("sim.err_pct", "%", "lower"),
    pl("sim.digest32", "count", "higher"),
    pl("calibrate.fit_ms", "ms", "lower"),
    pl("runtime.lock_acq_per_task", "count", "lower"),
    pl("runtime.idle_transitions_per_task", "count", "lower"),
    pl("runtime.worker_imbalance", "ratio", "lower"),
    // des-dense (hazards also des-stream): the pipeline of one op, layer by layer.
    pl("workloads.enumerate_ns_per_task", "ns", "lower"),
    pl("runtime.hazards_ns_per_task", "ns", "lower"),
    pl("runtime.hazards_deps_per_task", "count", "lower"),
    pl("dag.build_ns_per_task", "ns", "lower"),
    pl("dist.sample_ns_per_draw", "ns", "lower"),
    pl("core.plan_ns_per_task", "ns", "lower"),
    pl("trace.record_ns_per_span", "ns", "lower"),
    pl("des.replay_ns_per_task", "ns", "lower"),
    pl("des.loop_residual_ns_per_task", "ns", "lower"),
    pl("workloads.run_sim_overhead_ns_per_task", "ns", "lower"),
    pl("trace.canonical_ns_per_span", "ns", "lower"),
    pl("des.replay_share_of_op", "ratio", "higher"),
    // des-stream: loop, drain and serialise, separated.
    pl("bench.gen_ns_per_task", "ns", "lower"),
    pl("des.replay_nosink_ns_per_task", "ns", "lower"),
    pl("des.replay_nullsink_ns_per_task", "ns", "lower"),
    pl("trace.ndjson_emit_ns_per_span", "ns", "lower"),
    pl("trace.chrome_emit_ns_per_span", "ns", "lower"),
    pl("trace.parse_ndjson_ns_per_span", "ns", "lower"),
    pl("trace.ndjson_emit_share_of_op", "ratio", "lower"),
    pl("trace.ndjson_bytes_per_span", "count", "lower"),
    pl("trace.epochs_per_op", "count", "lower"),
    pl("trace.batch_spans_max", "count", "lower"),
    pl("trace.resident_spans_max", "count", "lower"),
    // threaded-inloop: engine and TEQ alone, and the backends side by side.
    pl("runtime.submit_ns_per_task", "ns", "lower"),
    pl("core.teq_cycle_ns", "ns", "lower"),
    pl("core.teq_drain_ns_per_task_w8", "ns", "lower"),
    pl("des.equiv_speedup", "ratio", "higher"),
    pl("runtime.unpinned_p50_ms", "ms", "lower"),
    // serve-mix: per-class latency, the pieces of a hit, a miss and a sweep.
    pl("serve.hit_p50_ms", "ms", "lower"),
    pl("serve.miss_p50_ms", "ms", "lower"),
    pl("serve.sweep_p50_ms", "ms", "lower"),
    pl("serve.healthz_rtt_us", "us", "lower"),
    pl("serve.json_parse_us", "us", "lower"),
    pl("serve.prepare_us", "us", "lower"),
    pl("workloads.content_hash_ns", "ns", "lower"),
    pl("serve.cache_get_ns", "ns", "lower"),
    pl("serve.miss_sim_share", "ratio", "higher"),
    pl("workloads.sweep_cells_per_s_j1", "cell/s", "higher"),
    pl("workloads.sweep_cells_per_s_j2", "cell/s", "higher"),
    pl("workloads.sweep_report_us", "us", "lower"),
    pl("cluster.run_ns_per_task", "ns", "lower"),
    pl("faults.straggler_cell_ratio", "ratio", "lower"),
    pl("serve.cache_entries_end", "count", "lower"),
    pl("serve.response_bytes_hit", "count", "lower"),
    pl("serve.refused", "count", "lower"),
    // Set-up, as the traced run saw it (one repetition).
    pl("setup.traced_s", "s", "lower"),
    pl("setup.calibrate_share", "ratio", "lower"),
];

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{comma}\n",
            json_string(w.name),
            json_string(w.why)
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}\n",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}\n",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better)
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn declared_surface_obeys_the_contract() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert_eq!(
            WORKLOADS.map(|w| w.name),
            crate::workloads::NAMES,
            "the schema and the dispatcher must name the same workloads"
        );
        for m in &END_TO_END {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher");
        }
        assert!(PER_LAYER.len() <= 128 && (1..=60).contains(&RUN_SECONDS));
        // 4 + 22 runs per workload, set-up and two builds included, must
        // fit 3,420 s: leave every run 12 s beyond its timed section.
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(runs * (RUN_SECONDS + 12) + 2 * 60 <= 3420);
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `supersim-benchmark schema > BENCHMARK.json`"
        );
        let doc: serde_json::Value = serde_json::from_str(&on_disk).expect("valid JSON");
        assert_eq!(doc["per_layer"].as_array().unwrap().len(), PER_LAYER.len());
        assert!(on_disk.len() <= 64 * 1024);
    }
}
