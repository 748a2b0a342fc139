//! `serve-mix`: HTTP requests over loopback to an in-process `Server`.
//!
//! The front end: `serve::{http,api,cache,server}`,
//! `Scenario::content_hash`, JSON in and out, and — through the sweep
//! cells — `workloads::sweep`, `cluster` and `faults`. Every block of 50
//! requests is 35 cached `POST /run` hits over a 2,048-scenario hot set, 13
//! cold misses (fresh seeds, so the cache grows while it is read) and 2
//! `POST /sweep` of 64 cells; by time that is about 10 % hits, 40 % misses
//! and 50 % sweeps. `jobs` is 1 because the process is pinned: wall-clock
//! scaling on shared vCPUs measures the hypervisor, not the program.

use super::Ctx;
use crate::calib::{self, Calib};
use crate::driver::{probe_ns, Metrics, OpOutcome, TracedSections, Workload};
use crate::spans;
use crate::stats::{fnv1a, median, splitmix64, SimDigest};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use supersim_cluster::{ClusterSpec, Hockney};
use supersim_serve::api::RunOutput;
use supersim_serve::{
    client_request, ClientResponse, ModelCache, ResponseCache, RunRequest, ServeConfig, Server,
    ServerHandle, SweepRequest,
};
use supersim_workloads::sweep::FaultPlanSpec;
use supersim_workloads::{Algorithm, Backend, Scenario};

pub const HIT: u8 = 0;
pub const MISS: u8 = 1;
pub const SWEEP: u8 = 2;

const HOT_SET: usize = 2_048;
const BLOCK: usize = 50;
const HITS_PER_BLOCK: usize = 35;
const MISSES_PER_BLOCK: usize = 13;
const SWEEP_CELLS: u64 = 64;
/// Tasks of the `/run` scenario: tiles = 12 Cholesky.
const RUN_TASKS: u64 = 364;
/// Ops of each slow-to-verify class kept per section for `verify_after`.
const MISS_SAMPLES: usize = 32;
const SWEEP_SAMPLES: usize = 4;
const TIMEOUT: Duration = Duration::from_secs(60);

/// Scenario seeds of one run live in `[base, base + SEED_STRIDE)`, split
/// into four disjoint ranges (valid for op indices below 2^23): the hot
/// set at the bottom, then cold misses, sweeps (four seeds each; slot 0 is
/// the set-up's reference sweep, op `i` uses slot `i + 1`) and probes.
const SEED_STRIDE: u64 = 1 << 28;
const MISS_SEEDS: u64 = 1 << 24;
const SWEEP_SEEDS: u64 = 1 << 26;
const PROBE_SEEDS: u64 = 1 << 27;

fn miss_seed(base: u64, index: u64) -> u64 {
    base + MISS_SEEDS + index
}

fn sweep_seed(base: u64, slot: u64) -> u64 {
    base + SWEEP_SEEDS + 4 * slot
}

fn run_body(seed: u64) -> String {
    format!("{{\"tiles\":12,\"workers\":16,\"seed\":{seed},\"backend\":\"des\"}}")
}

fn sweep_body(first_seed: u64) -> String {
    let s = first_seed;
    format!(
        "{{\"tile_counts\":[4,6],\"worker_counts\":[2,4],\"node_counts\":[0,2],\
         \"plans\":[\"clean\",\"straggler\"],\"seeds\":[{},{},{},{}],\"backend\":\"des\",\"jobs\":1}}",
        s,
        s + 1,
        s + 2,
        s + 3
    )
}

/// The unsigned integer after `"key":`, whatever the whitespace.
fn json_u64_field(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\"");
    let rest = &body[body.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Run a `/run` request body in this process through the same public
/// calls the server makes, returning `(makespan bits, trace hash)`.
fn run_in_process(body: &str, models: &ModelCache) -> Result<(u64, String), String> {
    let req: RunRequest = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let prepared = req.prepare(models)?;
    let doc = RunOutput::Sim(prepared.scenario.run_sim()).doc();
    Ok((doc.predicted_seconds.to_bits(), doc.trace_hash))
}

/// `(makespan bits, trace hash)` as a `/run` response states them.
fn run_response_result(body: &str) -> Option<(u64, String)> {
    let doc: serde_json::Value = serde_json::from_str(body).ok()?;
    let result = doc.get("result")?;
    Some((
        result.get("predicted_seconds")?.as_f64()?.to_bits(),
        result.get("trace_hash")?.as_str()?.to_string(),
    ))
}

/// The class order of block `block`: the fixed 35/13/2 mix, shuffled by
/// `--seed` and the block number (Fisher-Yates).
fn block_order(seed: u64, block: u64) -> [u8; BLOCK] {
    let mut order = [HIT; BLOCK];
    order[HITS_PER_BLOCK..HITS_PER_BLOCK + MISSES_PER_BLOCK].fill(MISS);
    order[HITS_PER_BLOCK + MISSES_PER_BLOCK..].fill(SWEEP);
    let mut s = seed ^ block.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for i in (1..BLOCK).rev() {
        order.swap(i, (splitmix64(&mut s) % (i as u64 + 1)) as usize);
    }
    order
}

pub struct ServeMix {
    calib: Calib,
    seed: u64,
    handle: Option<ServerHandle>,
    addr: SocketAddr,
    /// First seed of this run's stride (see `SEED_STRIDE`).
    base: u64,
    hot_requests: Vec<String>,
    hot_responses: Vec<String>,
    sweep_tasks: u64,
    block: u64,
    order: [u8; BLOCK],
    refused: u64,
    miss_samples: Vec<(String, String)>,
    sweep_samples: Vec<(String, String)>,
    local_models: ModelCache,
}

impl ServeMix {
    /// Fit the models, bind the server, prime the hot set with 2,048 cold
    /// runs (each must be a miss), check a sample of the answers against
    /// in-process runs, and take one sweep as the size reference.
    pub fn setup(ctx: &Ctx) -> Result<ServeMix, String> {
        let calib = calib::load(&ctx.data_dir)?;
        let handle = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue: 64,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("bind loopback: {e}"))?
        .spawn();
        let addr = handle.addr;
        let mut s = ctx.seed ^ fnv1a(b"serve-mix");
        let base = (splitmix64(&mut s) % (1 << 20)) * SEED_STRIDE;
        let mut w = ServeMix {
            calib,
            seed: ctx.seed,
            handle: Some(handle),
            addr,
            base,
            hot_requests: (0..HOT_SET as u64).map(|k| run_body(base + k)).collect(),
            hot_responses: Vec::with_capacity(HOT_SET),
            sweep_tasks: 0,
            block: u64::MAX,
            order: [HIT; BLOCK],
            refused: 0,
            miss_samples: Vec::new(),
            sweep_samples: Vec::new(),
            local_models: ModelCache::new(),
        };
        for k in 0..HOT_SET {
            let resp = w.post("/run", &w.hot_requests[k])?;
            if resp.status != 200 || resp.header("x-cache") != Some("miss") {
                return Err(format!(
                    "priming request {k}: status {} {}",
                    resp.status, resp.body
                ));
            }
            w.hot_responses.push(resp.body);
        }
        for k in (0..HOT_SET).step_by(HOT_SET / 16) {
            let expect = run_in_process(&w.hot_requests[k], &w.local_models)?;
            if run_response_result(&w.hot_responses[k]) != Some(expect) {
                return Err(format!(
                    "hot-set answer {k} differs from the in-process run"
                ));
            }
        }
        let sweep = w.post("/sweep", &sweep_body(sweep_seed(base, 0)))?;
        let doc: serde_json::Value =
            serde_json::from_str(&sweep.body).map_err(|e| format!("sweep answer: {e}"))?;
        let cells = doc
            .get("cells")
            .and_then(|c| c.as_array())
            .ok_or("sweep answer has no cells")?;
        if sweep.status != 200 || cells.len() as u64 != SWEEP_CELLS {
            return Err(format!(
                "reference sweep: status {}, {} cells",
                sweep.status,
                cells.len()
            ));
        }
        w.sweep_tasks = cells
            .iter()
            .filter_map(|c| c.get("tasks").and_then(|t| t.as_u64()))
            .sum();
        Ok(w)
    }

    fn post(&self, path: &str, body: &str) -> Result<ClientResponse, String> {
        client_request(self.addr, "POST", path, body, TIMEOUT).map_err(|e| format!("{path}: {e}"))
    }

    /// One timed round trip; a transport error reads as no response.
    fn request(&self, path: &str, body: &str) -> Option<ClientResponse> {
        spans::within("serve.client_request", || self.post(path, body)).ok()
    }
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

impl Workload for ServeMix {
    fn block_len(&self) -> u64 {
        BLOCK as u64
    }

    /// Twenty blocks: 700 hits, 260 inserting misses, 40 sweeps.
    fn counted_ops(&self) -> u64 {
        20 * BLOCK as u64
    }

    fn op(&mut self, index: u64) -> OpOutcome {
        let block = index / BLOCK as u64;
        if block != self.block {
            self.order = block_order(self.seed, block);
            self.block = block;
        }
        let class = self.order[(index % BLOCK as u64) as usize];
        let ok = match class {
            HIT => {
                let mut s = self.seed ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                let k = (splitmix64(&mut s) % HOT_SET as u64) as usize;
                let resp = self.request("/run", &self.hot_requests[k]);
                let _g = spans::enter("bench.check");
                self.refused += u64::from(resp.as_ref().is_some_and(|r| r.status == 503));
                resp.is_some_and(|r| {
                    r.status == 200
                        && r.header("x-cache") == Some("hit")
                        && r.body == self.hot_responses[k]
                })
            }
            MISS => {
                let seed = miss_seed(self.base, index);
                let body = run_body(seed);
                let resp = self.request("/run", &body);
                let _g = spans::enter("bench.check");
                self.refused += u64::from(resp.as_ref().is_some_and(|r| r.status == 503));
                match resp {
                    Some(r)
                        if r.status == 200
                            && r.header("x-cache") == Some("miss")
                            && json_u64_field(&r.body, "seed") == Some(seed)
                            && json_u64_field(&r.body, "tasks") == Some(RUN_TASKS) =>
                    {
                        if self.miss_samples.len() < MISS_SAMPLES {
                            self.miss_samples.push((body, r.body));
                        }
                        true
                    }
                    _ => false,
                }
            }
            _ => {
                let body = sweep_body(sweep_seed(self.base, index + 1));
                let resp = self.request("/sweep", &body);
                let _g = spans::enter("bench.check");
                self.refused += u64::from(resp.as_ref().is_some_and(|r| r.status == 503));
                match resp {
                    Some(r)
                        if r.status == 200
                            && json_u64_field(&r.body, "cells_total") == Some(SWEEP_CELLS) =>
                    {
                        if self.sweep_samples.len() < SWEEP_SAMPLES {
                            self.sweep_samples.push((body, r.body));
                        }
                        true
                    }
                    _ => false,
                }
            }
        };
        OpOutcome { ok, class }
    }

    /// The first misses and sweeps of the section, re-run in this process
    /// through the public API: a miss must state the same makespan bits
    /// and trace hash, a sweep the same report, byte for byte.
    fn verify_after(&mut self) -> u64 {
        let mut failed = 0;
        for (request, response) in std::mem::take(&mut self.miss_samples) {
            let expect = run_in_process(&request, &self.local_models).ok();
            failed += u64::from(expect.is_none() || run_response_result(&response) != expect);
        }
        for (request, response) in std::mem::take(&mut self.sweep_samples) {
            let report = serde_json::from_str::<SweepRequest>(&request)
                .map_err(|e| e.to_string())
                .and_then(|r| r.spec())
                .map(|spec| spec.run(1).report.to_json());
            failed += u64::from(report.as_deref() != Ok(response.as_str()));
        }
        failed
    }

    fn sim_digest(&self) -> SimDigest {
        let mut d = SimDigest::default();
        for r in &self.hot_responses {
            d.add(&[fnv1a(r.as_bytes())]);
        }
        d.add(&[self.sweep_tasks]);
        d
    }

    /// Per block: 13 cold runs and 2 sweeps simulate; hits simulate
    /// nothing. Spans equal tasks (one span per task, transfers included).
    fn sim_size(&self) -> (f64, f64) {
        let sweeps = (BLOCK - HITS_PER_BLOCK - MISSES_PER_BLOCK) as u64;
        let per_block = MISSES_PER_BLOCK as u64 * RUN_TASKS + sweeps * self.sweep_tasks;
        let per_op = per_block as f64 / BLOCK as f64;
        (per_op, per_op)
    }

    fn fit_ms(&self) -> f64 {
        self.calib.fit_ms
    }

    fn sim_err_pct(&self) -> f64 {
        calib::sim_err_pct(&self.calib, Backend::Des, self.seed)
    }

    fn layer_metrics(&mut self, sections: &TracedSections<'_>, out: &mut Metrics) {
        let plain = sections.untraced;
        out.put("serve.hit_p50_ms", plain.class_p50_ms(HIT), "ms");
        out.put("serve.miss_p50_ms", plain.class_p50_ms(MISS), "ms");
        out.put("serve.sweep_p50_ms", plain.class_p50_ms(SWEEP), "ms");
        out.put("serve.refused", self.refused as f64, "count");
        out.put(
            "serve.response_bytes_hit",
            self.hot_responses[0].len() as f64,
            "count",
        );

        // Cache size where the timed sections left it.
        let mut entries = 0;
        if let Ok(resp) = client_request(self.addr, "GET", "/metrics", "", TIMEOUT) {
            if let Ok(doc) = serde_json::from_str::<serde_json::Value>(&resp.body) {
                entries = doc
                    .get("gauges")
                    .and_then(|g| g.as_array())
                    .into_iter()
                    .flatten()
                    .find(|g| {
                        g.get("name").and_then(|n| n.as_str()) == Some("serve.cache.responses")
                    })
                    .and_then(|g| g.get("value").and_then(|v| v.as_u64()))
                    .unwrap_or(0);
            }
        }
        out.put("serve.cache_entries_end", entries as f64, "count");

        let addr = self.addr;
        let rtt: Vec<f64> = (0..500)
            .map(|_| {
                let t0 = Instant::now();
                let _ = client_request(addr, "GET", "/healthz", "", TIMEOUT);
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        out.put("serve.healthz_rtt_us", median(&rtt), "us");

        // The pieces of a hit, one public call each, on the hot request.
        const CALLS: usize = 2_000;
        let body = self.hot_requests[0].clone();
        let parse_ns = probe_ns("serve.json_parse", 5, || {
            for _ in 0..CALLS {
                std::hint::black_box(serde_json::from_str::<RunRequest>(&body).is_ok());
            }
        });
        out.put("serve.json_parse_us", parse_ns / CALLS as f64 / 1e3, "us");
        let request: RunRequest = serde_json::from_str(&body).expect("own request parses");
        let models = &self.local_models;
        let prepare_ns = probe_ns("serve.prepare", 5, || {
            for _ in 0..CALLS {
                std::hint::black_box(request.prepare(models).is_ok());
            }
        });
        out.put("serve.prepare_us", prepare_ns / CALLS as f64 / 1e3, "us");
        let prepared = request.prepare(models).expect("own request prepares");
        let hash_ns = probe_ns("workloads.content_hash", 5, || {
            for _ in 0..CALLS {
                std::hint::black_box(prepared.scenario.content_hash());
            }
        });
        out.put("workloads.content_hash_ns", hash_ns / CALLS as f64, "ns");

        let cache = ResponseCache::new();
        let filler = Arc::new(self.hot_responses[0].clone());
        let keys: Vec<u64> = {
            let mut s = self.seed;
            (0..entries.max(1)).map(|_| splitmix64(&mut s)).collect()
        };
        for k in &keys {
            cache.insert(*k, filler.clone());
        }
        let get_ns = probe_ns("serve.cache_get", 5, || {
            for k in keys.iter().cycle().step_by(7).take(100_000) {
                std::hint::black_box(cache.get(*k));
            }
        });
        out.put("serve.cache_get_ns", get_ns / 100_000.0, "ns");

        // A miss, minus HTTP and JSON: the same scenario run in-process.
        let sim_ms: Vec<f64> = (0..200u64)
            .map(|i| {
                let scenario =
                    serde_json::from_str::<RunRequest>(&run_body(self.base + PROBE_SEEDS + i))
                        .expect("own request parses")
                        .prepare(models)
                        .expect("own request prepares")
                        .scenario;
                let t0 = Instant::now();
                std::hint::black_box(scenario.run_sim());
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.put(
            "serve.miss_sim_share",
            median(&sim_ms) / plain.class_p50_ms(MISS).max(f64::MIN_POSITIVE),
            "ratio",
        );

        // A sweep, minus HTTP: the request's own spec, run directly.
        let spec = serde_json::from_str::<SweepRequest>(&sweep_body(self.base + PROBE_SEEDS))
            .expect("own request parses")
            .spec()
            .expect("own request is valid");
        for (name, jobs) in [
            ("workloads.sweep_cells_per_s_j1", 1),
            ("workloads.sweep_cells_per_s_j2", 2),
        ] {
            let ns = probe_ns("workloads.sweep_run", 5, || {
                spec.run(jobs).report.cells_total
            });
            out.put(name, SWEEP_CELLS as f64 / (ns / 1e9), "cell/s");
        }
        let report = spec.run(1).report;
        let report_ns = probe_ns("workloads.sweep_report", 5, || report.to_json());
        out.put("workloads.sweep_report_us", report_ns / 1e3, "us");

        // One cluster cell of that matrix, clean and with the straggler plan.
        let cell = |plan: &str, seed: u64| {
            Scenario::new(Algorithm::Cholesky)
                .tiles(6)
                .tile_size(calib::TILE_SIZE)
                .seed(seed)
                .models_shared(self.calib.models.clone())
                .cluster(ClusterSpec::new(2, 2))
                .interconnect(Arc::new(Hockney::new(1e-5, 1e10)))
                .faults(FaultPlanSpec::preset(plan).expect("known preset").plan)
                .backend(Backend::Des)
        };
        let size = cell("clean", 1).run_cluster();
        let spans_per_cell = (size.compute_tasks + size.transfers) as f64;
        const CELLS: u64 = 64;
        let clean_ns = probe_ns("cluster.run_cluster", 5, || {
            for seed in 0..CELLS {
                std::hint::black_box(cell("clean", seed).run_cluster());
            }
        });
        let straggler_ns = probe_ns("faults.straggler_cell", 5, || {
            for seed in 0..CELLS {
                std::hint::black_box(cell("straggler", seed).run_cluster());
            }
        });
        out.put(
            "cluster.run_ns_per_task",
            clean_ns / CELLS as f64 / spans_per_cell,
            "ns",
        );
        out.put(
            "faults.straggler_cell_ratio",
            straggler_ns / clean_ns,
            "ratio",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_order_is_a_function_of_seed_and_block() {
        let count = |o: &[u8; BLOCK], c: u8| o.iter().filter(|x| **x == c).count();
        let mut distinct = std::collections::BTreeSet::new();
        for block in 0..40 {
            let o = block_order(1, block);
            assert_eq!(o, block_order(1, block), "same seed, same order");
            assert_eq!(
                (count(&o, HIT), count(&o, MISS), count(&o, SWEEP)),
                (
                    HITS_PER_BLOCK,
                    MISSES_PER_BLOCK,
                    BLOCK - HITS_PER_BLOCK - MISSES_PER_BLOCK
                ),
                "every block holds the same mix"
            );
            distinct.insert(o);
        }
        assert!(distinct.len() > 30, "blocks are shuffled independently");
        assert_ne!(
            block_order(1, 0),
            block_order(2, 0),
            "another seed, another order"
        );
    }

    #[test]
    fn request_seeds_never_collide() {
        let base = 5 * SEED_STRIDE;
        let last_op = (1u64 << 23) - 1;
        let hot = base..base + HOT_SET as u64;
        let misses = miss_seed(base, 0)..miss_seed(base, last_op) + 1;
        let sweeps = sweep_seed(base, 0)..sweep_seed(base, last_op + 1) + 4;
        let probes = base + PROBE_SEEDS..base + PROBE_SEEDS + 200;
        let ranges = [hot, misses, sweeps, probes];
        for pair in ranges.windows(2) {
            assert!(pair[0].end <= pair[1].start, "{pair:?} overlap");
        }
        assert!(
            ranges[3].end <= base + SEED_STRIDE,
            "probes leave the stride"
        );
    }

    #[test]
    fn field_lookup_handles_compact_and_pretty_json() {
        assert_eq!(json_u64_field("{\"seed\":42,\"x\":1}", "seed"), Some(42));
        assert_eq!(
            json_u64_field("{\n  \"cells_total\": 64,\n", "cells_total"),
            Some(64)
        );
        assert_eq!(json_u64_field("{\"seed\":\"x\"}", "seed"), None);
        assert_eq!(json_u64_field("{}", "seed"), None);
    }
}
