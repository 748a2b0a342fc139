//! The recorded real run every workload calibrates from, and the held-out
//! accuracy figure computed against it.
//!
//! `data/` holds one real execution of tile Cholesky at 12x12 tiles (the
//! fitting size) and the measured makespan at 16x16 tiles (the held-out
//! size). No real kernels run inside the benchmark: models are fitted from
//! the first file and judged against the second, so `sim.err_pct` repeats
//! exactly for a given `--seed`.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use supersim_calibrate::{calibrate, FitOptions};
use supersim_core::{ModelRegistry, SimConfig};
use supersim_trace::sink::{ndjson_line, parse_ndjson};
use supersim_workloads::{Algorithm, Backend, Scenario};

pub const FIT_TILES: usize = 12;
pub const HELDOUT_TILES: usize = 16;
/// 256-wide tiles: kernels of a millisecond or more. At 64 a kernel is 40 us,
/// shorter than a cross-vCPU wake-up on the recording host, and the real
/// run serialises — the error would measure the VM, not the method.
pub const TILE_SIZE: usize = 256;
pub const REAL_WORKERS: usize = 2;
const FIT_FILE: &str = "real_cholesky_t12_nb256_w2.ndjson";
const HELDOUT_FILE: &str = "real_cholesky_heldout_t16_nb256_w2.json";

/// Fitted models plus the held-out reference.
#[derive(Clone)]
pub struct Calib {
    pub models: Arc<ModelRegistry>,
    /// Real makespan at the held-out size (median of the recorded runs).
    pub heldout_real_s: f64,
    /// `parse_ndjson` + `calibrate` wall time.
    pub fit_ms: f64,
}

/// Parse the recorded trace and fit the kernel models.
pub fn load(data_dir: &Path) -> Result<Calib, String> {
    let read = |name: &str| {
        let path = data_dir.join(name);
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let text = read(FIT_FILE)?;
    let heldout: serde_json::Value =
        serde_json::from_str(&read(HELDOUT_FILE)?).map_err(|e| format!("{HELDOUT_FILE}: {e}"))?;
    let heldout_real_s = heldout
        .get("median_seconds")
        .and_then(serde_json::Value::as_f64)
        .filter(|s| *s > 0.0)
        .ok_or_else(|| format!("{HELDOUT_FILE}: no positive median_seconds"))?;

    let t0 = Instant::now();
    let trace = crate::spans::within("trace.parse_ndjson", || parse_ndjson(&text))?;
    let cal = crate::spans::within("calibrate.calibrate", || {
        calibrate(&trace, FitOptions::default())
    });
    let fit_ms = t0.elapsed().as_secs_f64() * 1e3;
    for label in Algorithm::Cholesky.labels() {
        if cal.registry.get(label).is_none() {
            return Err(format!("recorded trace yields no model for {label}"));
        }
    }
    Ok(Calib {
        models: Arc::new(cal.registry),
        heldout_real_s,
        fit_ms,
    })
}

/// The Cholesky scenario every DES/threaded op is built from.
pub fn scenario(
    calib: &Calib,
    tiles: usize,
    workers: usize,
    backend: Backend,
    seed: u64,
) -> Scenario {
    Scenario::new(Algorithm::Cholesky)
        .tiles(tiles)
        .tile_size(TILE_SIZE)
        .workers(workers)
        .scheduler(supersim_runtime::SchedulerKind::Quark)
        .backend(backend)
        .models_shared(calib.models.clone())
        .config(SimConfig {
            seed,
            ..SimConfig::default()
        })
}

/// `|sim - real| / real * 100` at the held-out size on `backend`.
pub fn sim_err_pct(calib: &Calib, backend: Backend, seed: u64) -> f64 {
    let sim = scenario(calib, HELDOUT_TILES, REAL_WORKERS, backend, seed).run_sim();
    (sim.predicted_seconds - calib.heldout_real_s).abs() / calib.heldout_real_s * 100.0
}

/// `record`: execute the real kernels once and (re)write `data/`. Run by
/// hand when the recording host changes; never by the benchmark itself.
pub fn record(data_dir: &Path) -> Result<(), String> {
    let real = |tiles: usize, seed: u64| {
        Scenario::new(Algorithm::Cholesky)
            .tiles(tiles)
            .tile_size(TILE_SIZE)
            .workers(REAL_WORKERS)
            .seed(seed)
            .run_real()
    };
    // The least disturbed of three runs: on a shared host a neighbour can
    // halve one run's speed, and the models should describe the kernels,
    // not the neighbour. The first run also pages the kernels in.
    let fit = (0..3)
        .map(|_| real(FIT_TILES, 1))
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .expect("three runs");
    let mut text = String::new();
    for e in fit.trace.spans() {
        text.push_str(&ndjson_line(e));
        text.push('\n');
    }
    std::fs::create_dir_all(data_dir).map_err(|e| e.to_string())?;
    std::fs::write(data_dir.join(FIT_FILE), text).map_err(|e| e.to_string())?;

    let runs: Vec<_> = (0..5).map(|_| real(HELDOUT_TILES, 1)).collect();
    let seconds: Vec<f64> = runs.iter().map(|r| r.seconds).collect();
    let residual = runs.iter().map(|r| r.residual).fold(0.0, f64::max);
    let doc = format!(
        "{{\"algorithm\":\"cholesky\",\"tiles\":{HELDOUT_TILES},\"tile_size\":{TILE_SIZE},\"workers\":{REAL_WORKERS},\
         \"seconds\":{seconds:?},\"median_seconds\":{:?},\"max_residual\":{residual:e}}}\n",
        crate::stats::median(&seconds)
    );
    std::fs::write(data_dir.join(HELDOUT_FILE), doc).map_err(|e| e.to_string())?;
    println!(
        "fit run: tiles {FIT_TILES}, {} spans, {:.6} s, {:.2} GFLOP/s, residual {:e}",
        fit.trace.len(),
        fit.seconds,
        fit.gflops,
        fit.residual
    );
    println!(
        "held-out runs: tiles {HELDOUT_TILES}, seconds {seconds:?}, max residual {residual:e}"
    );
    Ok(())
}
