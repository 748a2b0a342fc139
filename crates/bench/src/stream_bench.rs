//! The streaming-trace memory probe: replay a synthetic N-task stream on
//! the DES backend in either trace mode and report peak RSS — the
//! datapoint behind the `trace_stream_rss` perf gate and the CI
//! `trace-streaming` job. The `stream_bench` binary is its command line;
//! `perf_baseline --probe-stream-rss` calls it in a child process.

use supersim_core::{ModelRegistry, SimConfig, SimSession};
use supersim_dag::{Access, DataId};
use supersim_des::{ReplayBody, ReplayEngine, ReplayTask};
use supersim_runtime::RuntimeConfig;
use supersim_trace::sink::{NdjsonSink, NullSink};
use supersim_trace::TraceSink;

/// A lazily generated synthetic task stream: a handful of fixed-duration
/// kernel classes, writes rolling over a bounded data window (so the
/// hazard tracker stays bounded too) and reads reaching 256 tasks back
/// (real RAW chains inside the scheduling window, parallelism width 256).
/// A pure function of the index — no per-task state survives generation.
pub fn synthetic_stream(tasks: u64) -> impl Iterator<Item = ReplayTask> {
    const CELLS: u64 = 4096;
    (0..tasks).map(|i| ReplayTask {
        label: format!("k{}", i % 7),
        accesses: vec![
            Access::write(DataId(i % CELLS)),
            Access::read(DataId((i + CELLS - 256) % CELLS)),
        ],
        priority: 0,
        pin: None,
        body: ReplayBody::Fixed {
            duration: 1e-4 * ((i % 9) + 1) as f64,
        },
    })
}

/// Peak resident set size (VmHWM) of this process, in KiB. Linux-only;
/// 0 where /proc is unavailable.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// One probe run. In `streaming` mode the recorder drains to an ndjson
/// sink (`out`, or a null sink) at each `epoch` boundary; in buffered mode
/// it accumulates the whole trace and `out` receives the canonical
/// projection. The span set is identical either way.
#[derive(Debug, Clone)]
pub struct StreamBench {
    /// Tasks in the synthetic stream.
    pub tasks: u64,
    /// Simulated workers.
    pub workers: usize,
    /// Submission window.
    pub window: usize,
    /// Flush epoch in virtual seconds (streaming mode).
    pub epoch: f64,
    /// Session seed.
    pub seed: u64,
    /// Stream spans out per epoch instead of buffering the trace.
    pub streaming: bool,
    /// Where the spans (streaming: ndjson; buffered: canonical text) go.
    pub out: Option<String>,
}

impl Default for StreamBench {
    fn default() -> Self {
        StreamBench {
            tasks: 10_000,
            workers: 64,
            window: 1_024,
            epoch: 0.05,
            seed: 42,
            streaming: true,
            out: None,
        }
    }
}

/// What a probe run observed.
#[derive(Debug, Clone)]
pub struct StreamBenchReport {
    /// Predicted makespan (virtual seconds).
    pub makespan: f64,
    /// Tasks retired.
    pub completed: u64,
    /// Spans still resident in the recorder at the end of the run.
    pub resident_spans: usize,
    /// Spans drained to the sink during the run.
    pub streamed_spans: u64,
    /// Peak RSS of this process, in KiB.
    pub peak_rss_kb: u64,
}

impl StreamBench {
    /// Run the probe. Errors are I/O failures on `out` or in the sink.
    pub fn run(&self) -> Result<StreamBenchReport, String> {
        let session = SimSession::new(
            ModelRegistry::new(),
            SimConfig {
                seed: self.seed,
                ..SimConfig::default()
            },
        );
        if self.streaming {
            let sink: Box<dyn TraceSink> = match &self.out {
                Some(path) => Box::new(
                    NdjsonSink::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
                ),
                None => Box::new(NullSink),
            };
            session.trace_recorder().attach_sink(sink, self.epoch);
        }
        let mut cfg = RuntimeConfig::simple(self.workers);
        cfg.window = self.window;
        let engine = ReplayEngine::new(&cfg, session.clone()).expect("simple profile replays");
        let outcome = engine.run(synthetic_stream(self.tasks));
        if let Some(err) = session.trace_recorder().sink_error() {
            return Err(format!("trace sink error: {err}"));
        }
        let trace = session.finish_trace(self.workers);
        if let (false, Some(path)) = (self.streaming, &self.out) {
            std::fs::write(path, trace.canonical())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        Ok(StreamBenchReport {
            makespan: outcome.makespan,
            completed: outcome.completed,
            resident_spans: trace.len(),
            streamed_spans: session.trace_recorder().drained(),
            peak_rss_kb: peak_rss_kb(),
        })
    }

    /// The one-line JSON the `stream_bench` binary prints.
    pub fn json(&self, r: &StreamBenchReport) -> String {
        format!(
            "{{\"tasks\":{},\"mode\":\"{}\",\"workers\":{},\"window\":{},\"makespan\":{:?},\"completed\":{},\"resident_spans\":{},\"streamed_spans\":{},\"peak_rss_kb\":{}}}",
            self.tasks,
            if self.streaming { "streaming" } else { "buffered" },
            self.workers,
            self.window,
            r.makespan,
            r.completed,
            r.resident_spans,
            r.streamed_spans,
            r.peak_rss_kb,
        )
    }
}
