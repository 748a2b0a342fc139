//! `des-stream`: a lazily generated 200,000-task stream replayed on the DES
//! backend with an ndjson sink attached.
//!
//! The same `des` loop as `des-dense`, used differently: shallow
//! dependences and fixed durations (no sampling), but every span is
//! epoch-drained and serialised, so `trace::recorder` and `trace::sink`
//! float formatting dominate, and the bounded-memory claim of the
//! streaming pipeline shows in `peak_rss_mb`. A `des` win that costs the
//! sink path, or the reverse, shows as the two DES workloads diverging.

use super::Ctx;
use crate::calib;
use crate::driver::{probe_ns, probe_ns_with, Metrics, OpOutcome, TracedSections, Workload};
use crate::spans;
use crate::stats::{fnv1a, splitmix64, SimDigest};
use std::io::{self, BufWriter, Write};
use std::sync::{Arc, Mutex};
use supersim_core::{ModelRegistry, SimConfig, SimSession};
use supersim_dag::{Access, DataId};
use supersim_des::{ReplayBody, ReplayEngine, ReplayOutcome, ReplayTask};
use supersim_runtime::{HazardTracker, RuntimeConfig, RuntimeStats};
use supersim_trace::sink::{parse_ndjson, ChromeStreamSink, NdjsonSink, NullSink};
use supersim_trace::{TraceEvent, TraceRecorder, TraceSink};

pub const TASKS: u64 = 200_000;
const CELLS: u64 = 4_096;
const DEP_DISTANCE: u64 = 256;
const LANES: usize = 64;
const WINDOW: usize = 1_024;
const EPOCH: f64 = 0.05;
/// Reference ops run in set-up, one of them buffered.
const REFERENCE_OPS: usize = 8;

/// The stream generator. Its constants come from `--seed`; the structure
/// (cells, dependence distance) is fixed because the engine's behaviour
/// depends on it.
#[derive(Debug, Clone, Copy)]
struct Gen {
    label_mul: u64,
    label_add: u64,
    dur_mul: u64,
    dur_add: u64,
}

impl Gen {
    fn from_seed(seed: u64) -> Gen {
        let mut s = seed ^ fnv1a(b"des-stream");
        Gen {
            label_mul: splitmix64(&mut s) | 1,
            label_add: splitmix64(&mut s),
            dur_mul: splitmix64(&mut s) | 1,
            dur_add: splitmix64(&mut s),
        }
    }

    fn task(&self, i: u64) -> ReplayTask {
        let label = i.wrapping_mul(self.label_mul).wrapping_add(self.label_add) >> 32;
        let dur = i.wrapping_mul(self.dur_mul).wrapping_add(self.dur_add) >> 32;
        ReplayTask {
            label: format!("k{}", label % 7),
            accesses: vec![
                Access::write(DataId(i % CELLS)),
                Access::read(DataId((i + CELLS - DEP_DISTANCE) % CELLS)),
            ],
            priority: 0,
            pin: None,
            body: ReplayBody::Fixed {
                duration: 1e-4 * ((dur % 9) + 1) as f64,
            },
        }
    }

    fn stream(self) -> impl Iterator<Item = ReplayTask> {
        (0..TASKS).map(move |i| self.task(i))
    }
}

/// Byte count and a chunking-independent checksum of everything written.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Written {
    pub bytes: u64,
    pub checksum: u64,
}

/// A `Write` that counts and checksums instead of storing. The checksum
/// mixes eight bytes at a time (a byte-wise FNV over 16 MB per op would be
/// a tenth of the op); a carry buffer makes it independent of how the
/// caller chunks its writes.
struct ChecksumWriter {
    state: Written,
    carry: [u8; 8],
    carried: usize,
    /// Where the totals go when the stream is flushed.
    result: Arc<Mutex<Written>>,
    /// `Some`: also keep the bytes (set-up's round-trip check only).
    keep: Option<Arc<Mutex<Vec<u8>>>>,
}

impl ChecksumWriter {
    fn new(result: Arc<Mutex<Written>>, keep: Option<Arc<Mutex<Vec<u8>>>>) -> Self {
        ChecksumWriter {
            state: Written {
                bytes: 0,
                checksum: crate::stats::FNV_BASIS,
            },
            carry: [0; 8],
            carried: 0,
            result,
            keep,
        }
    }

    fn mix(&mut self, word: u64) {
        self.state.checksum = (self.state.checksum ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Write for ChecksumWriter {
    fn write(&mut self, mut buf: &[u8]) -> io::Result<usize> {
        let len = buf.len();
        self.state.bytes += len as u64;
        if let Some(keep) = &self.keep {
            keep.lock().expect("keep buffer").extend_from_slice(buf);
        }
        if self.carried > 0 {
            let take = (8 - self.carried).min(buf.len());
            self.carry[self.carried..self.carried + take].copy_from_slice(&buf[..take]);
            self.carried += take;
            buf = &buf[take..];
            if self.carried < 8 {
                return Ok(len);
            }
            self.mix(u64::from_le_bytes(self.carry));
            self.carried = 0;
        }
        let mut words = buf.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        self.carry[..rest.len()].copy_from_slice(rest);
        self.carried = rest.len();
        Ok(len)
    }

    /// Publishes the totals; the tail bytes are folded in without being
    /// consumed, so flushing twice is harmless.
    fn flush(&mut self) -> io::Result<()> {
        let mut total = self.state;
        let mut tail = [0u8; 8];
        tail[..self.carried].copy_from_slice(&self.carry[..self.carried]);
        total.checksum = (total.checksum ^ u64::from_le_bytes(tail) ^ self.carried as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        *self.result.lock().expect("result cell") = total;
        Ok(())
    }
}

/// Sink-side counters of the traced section.
#[derive(Debug, Default, Clone, Copy)]
struct SinkCounts {
    epochs: u64,
    batch_max: usize,
    resident_max: usize,
}

/// Wraps the product sink in the traced section: a span around every
/// `flush_epoch`, plus the counts only a sink can see.
struct ProbeSink<S: TraceSink> {
    inner: S,
    recorder: TraceRecorder,
    counts: Arc<Mutex<SinkCounts>>,
}

impl<S: TraceSink> TraceSink for ProbeSink<S> {
    fn flush_epoch(&mut self, batch: &[TraceEvent]) -> io::Result<()> {
        let _g = spans::enter("trace.sink.flush_epoch");
        {
            let mut c = self.counts.lock().expect("sink counts");
            c.epochs += 1;
            c.batch_max = c.batch_max.max(batch.len());
            // The batch was resident until this call drained it.
            c.resident_max = c.resident_max.max(self.recorder.len() + batch.len());
        }
        self.inner.flush_epoch(batch)
    }

    fn close(&mut self) -> io::Result<()> {
        let _g = spans::enter("trace.sink.close");
        self.inner.close()
    }
}

/// Keeps every epoch batch as delivered (the emit probes replay them).
struct BatchSink(Arc<Mutex<Vec<Vec<TraceEvent>>>>);

impl TraceSink for BatchSink {
    fn flush_epoch(&mut self, batch: &[TraceEvent]) -> io::Result<()> {
        self.0.lock().expect("batches").push(batch.to_vec());
        Ok(())
    }
}

/// What one streamed replay must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reference {
    written: Written,
    makespan_bits: u64,
    completed: u64,
}

pub struct DesStream {
    gen: Gen,
    reference: Reference,
    traced: bool,
    counts: Arc<Mutex<SinkCounts>>,
    traced_ops: u64,
    last_stats: Option<RuntimeStats>,
    calib: calib::Calib,
    seed: u64,
}

fn engine_config() -> RuntimeConfig {
    let mut cfg = RuntimeConfig::simple(LANES);
    cfg.window = WINDOW;
    cfg
}

fn fresh_session() -> Arc<SimSession> {
    SimSession::new(ModelRegistry::new(), SimConfig::default())
}

fn replay(session: &Arc<SimSession>, gen: Gen) -> ReplayOutcome {
    ReplayEngine::new(&engine_config(), session.clone())
        .expect("the simple profile replays")
        .run(gen.stream())
}

impl DesStream {
    /// Fit the models like every workload (so `setup_s` has the same
    /// floor everywhere), then run the reference ops: all must agree, and
    /// the streamed bytes must parse back into the buffered run's
    /// canonical trace.
    pub fn setup(ctx: &Ctx) -> Result<DesStream, String> {
        let calib = calib::load(&ctx.data_dir)?;
        let gen = Gen::from_seed(ctx.seed);
        let mut w = DesStream {
            gen,
            reference: Reference {
                written: Written::default(),
                makespan_bits: 0,
                completed: 0,
            },
            traced: false,
            counts: Arc::default(),
            traced_ops: 0,
            last_stats: None,
            calib,
            seed: ctx.seed,
        };

        let kept = Arc::new(Mutex::new(Vec::new()));
        let (first, _) = w.streamed(Some(kept.clone()));
        let text = String::from_utf8(std::mem::take(&mut *kept.lock().expect("kept bytes")))
            .map_err(|_| "ndjson stream is not UTF-8".to_string())?;
        let streamed = parse_ndjson(&text)?.canonical();
        drop(text);
        let session = fresh_session();
        let outcome = replay(&session, gen);
        let buffered = session.finish_trace(LANES);
        if streamed != buffered.canonical() {
            return Err(
                "streamed ndjson does not parse back to the buffered canonical trace".into(),
            );
        }
        if outcome.makespan.to_bits() != first.makespan_bits || buffered.len() as u64 != TASKS {
            return Err("buffered and streamed replays disagree on makespan or span count".into());
        }
        drop((streamed, buffered));
        for i in 2..REFERENCE_OPS {
            let (again, _) = w.streamed(None);
            if again != first {
                return Err(format!(
                    "reference op {i} differs from the first: {again:?} vs {first:?}"
                ));
            }
        }
        w.reference = first;
        Ok(w)
    }

    /// One streamed replay: session, sink over a checksumming writer
    /// behind a `BufWriter` (as `NdjsonSink::create` wraps its file),
    /// engine run, final flush.
    fn streamed(&mut self, keep: Option<Arc<Mutex<Vec<u8>>>>) -> (Reference, RuntimeStats) {
        let result = Arc::new(Mutex::new(Written::default()));
        let session = fresh_session();
        let sink = NdjsonSink::new(BufWriter::new(ChecksumWriter::new(result.clone(), keep)));
        let sink: Box<dyn TraceSink> = if self.traced {
            Box::new(ProbeSink {
                inner: sink,
                recorder: session.trace_recorder().clone(),
                counts: self.counts.clone(),
            })
        } else {
            Box::new(sink)
        };
        session.trace_recorder().attach_sink(sink, EPOCH);
        let gen = self.gen;
        let outcome = spans::within("des.replay.run", || replay(&session, gen));
        spans::within("trace.finish_stream", || session.finish_trace(LANES));
        let written = *result.lock().expect("result cell");
        (
            Reference {
                written,
                makespan_bits: outcome.makespan.to_bits(),
                completed: outcome.completed,
            },
            outcome.stats,
        )
    }
}

impl Workload for DesStream {
    /// Every op replays the same stream; four are plenty.
    fn counted_ops(&self) -> u64 {
        4
    }

    fn op(&mut self, _index: u64) -> OpOutcome {
        let (got, stats) = self.streamed(None);
        self.traced_ops += u64::from(self.traced);
        self.last_stats = Some(stats);
        OpOutcome {
            ok: got == self.reference,
            class: 0,
        }
    }

    fn sim_digest(&self) -> SimDigest {
        let r = &self.reference;
        let mut d = SimDigest::default();
        d.add(&[
            r.written.bytes,
            r.written.checksum,
            r.makespan_bits,
            r.completed,
        ]);
        d
    }

    fn sim_size(&self) -> (f64, f64) {
        (TASKS as f64, TASKS as f64)
    }

    /// The traced section wraps the product sink in [`ProbeSink`].
    fn trace_mode(&mut self, on: bool) {
        self.traced = on;
    }

    fn fit_ms(&self) -> f64 {
        self.calib.fit_ms
    }

    fn sim_err_pct(&self) -> f64 {
        calib::sim_err_pct(&self.calib, supersim_workloads::Backend::Des, self.seed)
    }

    fn layer_metrics(&mut self, sections: &TracedSections<'_>, out: &mut Metrics) {
        super::put_runtime_stats(out, self.last_stats.as_ref());
        let gen = self.gen;
        let n = TASKS as f64;
        const REPS: usize = 3;

        let counts = *self.counts.lock().expect("sink counts");
        let ops = self.traced_ops.max(1) as f64;
        out.put(
            "trace.ndjson_bytes_per_span",
            self.reference.written.bytes as f64 / n,
            "count",
        );
        out.put("trace.epochs_per_op", counts.epochs as f64 / ops, "count");
        out.put("trace.batch_spans_max", counts.batch_max as f64, "count");
        out.put(
            "trace.resident_spans_max",
            counts.resident_max as f64,
            "count",
        );

        let gen_ns = probe_ns("bench.gen", REPS, || gen.stream().count());
        let mut deps = 0usize;
        let hazards_ns = probe_ns("runtime.hazards", REPS, || {
            let mut tracker = HazardTracker::new();
            deps = 0;
            for (id, t) in gen.stream().enumerate() {
                deps += tracker.analyze(id as u64, &t.accesses).0.len();
            }
            deps
        });
        let nosink_ns = probe_ns_with("des.replay_nosink", REPS, fresh_session, |s| {
            let done = replay(&s, gen).completed;
            s.finish_trace(LANES);
            done
        });
        let nullsink_ns = probe_ns_with(
            "des.replay_nullsink",
            REPS,
            || {
                let s = fresh_session();
                s.trace_recorder().attach_sink(Box::new(NullSink), EPOCH);
                s
            },
            |s| {
                let done = replay(&s, gen).completed;
                s.finish_trace(LANES);
                done
            },
        );

        // The epoch batches exactly as the recorder delivers them.
        let batches = Arc::new(Mutex::new(Vec::new()));
        let session = fresh_session();
        session
            .trace_recorder()
            .attach_sink(Box::new(BatchSink(batches.clone())), EPOCH);
        replay(&session, gen);
        session.finish_trace(LANES);
        let batches = std::mem::take(&mut *batches.lock().expect("batches"));
        let discard = || BufWriter::new(io::sink());
        let ndjson_ns = probe_ns("trace.ndjson_emit", REPS, || {
            let mut sink = NdjsonSink::new(discard());
            for b in &batches {
                sink.flush_epoch(b).expect("io::sink never fails");
            }
            sink.close().expect("io::sink never fails");
        });
        let chrome_ns = probe_ns("trace.chrome_emit", REPS, || {
            let mut sink = ChromeStreamSink::new(discard());
            for b in &batches {
                sink.flush_epoch(b).expect("io::sink never fails");
            }
            sink.close().expect("io::sink never fails");
        });
        let mut text = Vec::new();
        {
            let mut sink = NdjsonSink::new(&mut text);
            for b in &batches {
                sink.flush_epoch(b).expect("Vec never fails");
            }
        }
        drop(batches);
        let text = String::from_utf8(text).expect("ndjson is UTF-8");
        let parse_ns = probe_ns("trace.parse_ndjson", REPS, || {
            parse_ndjson(&text).expect("own output parses").len()
        });

        let op_ns = sections.traced.p50_ms() * 1e6;
        out.put("bench.gen_ns_per_task", gen_ns / n, "ns");
        out.put(
            "runtime.hazards_ns_per_task",
            hazards_ns / n - gen_ns / n,
            "ns",
        );
        out.put("runtime.hazards_deps_per_task", deps as f64 / n, "count");
        out.put("des.replay_nosink_ns_per_task", nosink_ns / n, "ns");
        out.put("des.replay_nullsink_ns_per_task", nullsink_ns / n, "ns");
        out.put("trace.ndjson_emit_ns_per_span", ndjson_ns / n, "ns");
        out.put("trace.chrome_emit_ns_per_span", chrome_ns / n, "ns");
        out.put("trace.parse_ndjson_ns_per_span", parse_ns / n, "ns");
        out.put("trace.ndjson_emit_share_of_op", ndjson_ns / op_ns, "ratio");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checksum_of(chunks: &[&[u8]]) -> Written {
        let result = Arc::new(Mutex::new(Written::default()));
        let mut w = ChecksumWriter::new(result.clone(), None);
        for c in chunks {
            w.write_all(c).unwrap();
        }
        w.flush().unwrap();
        let r = *result.lock().unwrap();
        r
    }

    #[test]
    fn checksum_ignores_chunking_and_sees_every_byte() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let whole = checksum_of(&[&data]);
        let split = checksum_of(&[
            &data[..3],
            &data[3..4],
            &data[4..20],
            &data[20..999],
            &data[999..],
        ]);
        assert_eq!(whole, split);
        assert_eq!(whole.bytes, 1000);
        let mut flipped = data.clone();
        flipped[997] ^= 1;
        assert_ne!(whole, checksum_of(&[&flipped]), "a tail byte must count");
        flipped = data.clone();
        flipped[500] ^= 1;
        assert_ne!(whole, checksum_of(&[&flipped]));
        assert_ne!(whole, checksum_of(&[&data[..999]]), "length must count");
    }

    #[test]
    fn generator_depends_on_the_seed_only() {
        let a: Vec<ReplayTask> = Gen::from_seed(1).stream().take(50).collect();
        let b: Vec<ReplayTask> = Gen::from_seed(1).stream().take(50).collect();
        let c: Vec<ReplayTask> = Gen::from_seed(2).stream().take(50).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
