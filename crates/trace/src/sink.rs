//! Push-based streaming trace sinks.
//!
//! The buffered pipeline ([`crate::TraceRecorder::finish`]) holds every
//! span in memory until the run ends, so memory grows linearly with task
//! count — a wall for 10⁶–10⁷-task replay scenarios. A [`TraceSink`]
//! inverts the flow: the recorder *pushes* spans out in epoch-sized
//! batches as the virtual clock retires them (see
//! [`crate::TraceRecorder::attach_sink`]), and the run's peak memory is
//! bounded by the spans resident within one flush epoch.
//!
//! # Epoch rule and ordering guarantee
//!
//! Flush epoch `k` (for epoch length `ε`) contains exactly the spans
//! whose `end` falls in `((k-1)·ε, k·ε]`, delivered once the virtual
//! clock has advanced strictly past `k·ε`. Within one epoch the spans
//! are sorted by `(start, seq)` — the same total order the buffered
//! merge uses — so concatenating all epoch batches yields the buffered
//! event order exactly (up to the time-origin shift applied by
//! [`crate::Trace::normalize`], which is the identity for simulation
//! runs that start at virtual time 0).
//!
//! Sinks run on whichever engine thread happens to advance the clock
//! past an epoch boundary, hence `Send`. A slow sink slows the run that
//! feeds it, and never loses a span: `serve`'s streamed `/run` writes
//! each epoch straight to its client's socket, so a client that reads
//! slowly slows only its own run.

use crate::chrome::push_json_string;
pub use crate::chrome::ChromeStreamSink;
use crate::num::{push_f64, push_u64};
use crate::{NameTable, Trace, TraceEvent};
use std::io::{self, Write};

/// A destination for finalized trace spans, fed one flush epoch at a
/// time in deterministic `(start, seq)` order.
pub trait TraceSink: Send {
    /// Deliver one epoch's worth of finalized spans. The recorder never
    /// sends an empty batch.
    fn flush_epoch(&mut self, spans: &[TraceEvent]) -> io::Result<()>;

    /// The stream is complete; flush any buffered output. Called exactly
    /// once, after the final (possibly partial) epoch.
    fn close(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Streaming newline-delimited-JSON writer: one flat object per span.
///
/// The float fields use Rust's shortest-round-trip formatting, so a
/// parsed-back trace ([`parse_ndjson`]) reproduces the original `f64`
/// bits exactly and its [`Trace::canonical`] projection is
/// byte-identical to the buffered run's. Each line is built in one
/// reused buffer and handed to the writer whole.
#[derive(Debug)]
pub struct NdjsonSink<W: Write> {
    out: W,
    line: Vec<u8>,
}

impl NdjsonSink<io::BufWriter<std::fs::File>> {
    /// Create (truncate) `path` and stream ndjson spans into it.
    pub fn create(path: &str) -> io::Result<Self> {
        Ok(NdjsonSink::new(io::BufWriter::new(std::fs::File::create(
            path,
        )?)))
    }
}

impl<W: Write> NdjsonSink<W> {
    /// Wrap an arbitrary writer.
    pub fn new(out: W) -> Self {
        NdjsonSink {
            out,
            line: Vec::with_capacity(LINE_CAPACITY),
        }
    }
}

impl<W: Write + Send> TraceSink for NdjsonSink<W> {
    fn flush_epoch(&mut self, spans: &[TraceEvent]) -> io::Result<()> {
        for e in spans {
            self.line.clear();
            push_ndjson_line(&mut self.line, e);
            self.line.push(b'\n');
            self.out.write_all(&self.line)?;
        }
        Ok(())
    }

    fn close(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// A sink that discards everything — for memory benchmarking the
/// recorder's streaming path without I/O cost.
#[derive(Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn flush_epoch(&mut self, _spans: &[TraceEvent]) -> io::Result<()> {
        Ok(())
    }
}

/// Starting size of a sink's line buffer: a span line with a kernel
/// label of a few dozen bytes fits without growing it.
pub(crate) const LINE_CAPACITY: usize = 192;

/// Append the fields of one span's flat ndjson object, without braces:
/// `"worker":…,"kernel":…,"task_id":…,"start":…,"end":…`. The times are
/// written as `{:?}` writes them (shortest round trip).
pub fn push_ndjson_fields(out: &mut Vec<u8>, e: &TraceEvent) {
    out.extend_from_slice(br#""worker":"#);
    push_u64(out, e.worker as u64);
    out.extend_from_slice(br#","kernel":"#);
    push_json_string(out, &e.kernel);
    out.extend_from_slice(br#","task_id":"#);
    push_u64(out, e.task_id);
    out.extend_from_slice(br#","start":"#);
    push_f64(out, e.start);
    out.extend_from_slice(br#","end":"#);
    push_f64(out, e.end);
}

fn push_ndjson_line(out: &mut Vec<u8>, e: &TraceEvent) {
    out.push(b'{');
    push_ndjson_fields(out, e);
    out.push(b'}');
}

/// One span as a flat ndjson object (no newline).
pub fn ndjson_line(e: &TraceEvent) -> String {
    let mut line = Vec::with_capacity(LINE_CAPACITY);
    push_ndjson_line(&mut line, e);
    String::from_utf8(line).expect("a &str label and ASCII are UTF-8")
}

/// Parse an ndjson span stream (as written by [`NdjsonSink`]) back into
/// a trace — the bridge from a streamed file to the canonical
/// projection the CI determinism gates diff. The trace is *not*
/// normalized; workers is grown to cover every span. Each distinct
/// kernel name is made once and shared by its spans.
pub fn parse_ndjson(input: &str) -> Result<Trace, String> {
    let mut events = Vec::new();
    let mut workers = 0usize;
    let mut names = NameTable::new();
    for (idx, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let e = parse_span_line(line, &mut names)
            .map_err(|m| ["line ", &(idx + 1).to_string(), ": ", m].concat())?;
        workers = workers.max(e.worker + 1);
        events.push(e);
    }
    Ok(Trace::from_parts(workers, events))
}

/// Parse one `{"worker":..,"kernel":..,"task_id":..,"start":..,"end":..}`
/// object. Specialized to the flat shape [`ndjson_line`] emits: keys in
/// any order, unknown keys skipped, integers for `worker`/`task_id`, and
/// times through `str::parse::<f64>`, which round-trips `{:?}` exactly.
/// The kernel name comes from `names`.
fn parse_span_line(line: &str, names: &mut NameTable) -> Result<TraceEvent, &'static str> {
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("not a JSON object")?;
    let (mut worker, mut kernel, mut task_id, mut start, mut end) = (None, None, None, None, None);
    let mut rest = inner.trim_start();
    while !rest.is_empty() {
        let (key, after_key) = take_json_string(rest)?;
        let value = after_key
            .trim_start()
            .strip_prefix(':')
            .ok_or("missing ':' after key")?
            .trim_start();
        rest = if value.starts_with('"') {
            let (raw, tail) = take_json_string(value)?;
            if key == "kernel" {
                kernel = Some(if raw.contains('\\') {
                    names.intern_owned(unescape(raw)?)
                } else {
                    names.intern(raw)
                });
            }
            tail
        } else {
            let stop = value.find(',').unwrap_or(value.len());
            let raw = value[..stop].trim_end();
            match key {
                // Below `usize::MAX`, so the lane count `worker + 1` fits.
                "worker" => {
                    let w = raw.parse::<usize>().ok().filter(|&w| w < usize::MAX);
                    worker = Some(w.ok_or("bad worker")?);
                }
                "task_id" => task_id = Some(raw.parse::<u64>().map_err(|_| "bad task_id")?),
                "start" => start = Some(raw.parse::<f64>().map_err(|_| "bad start")?),
                "end" => end = Some(raw.parse::<f64>().map_err(|_| "bad end")?),
                _ => {}
            }
            &value[stop..]
        }
        .trim_start();
        if let Some(next) = rest.strip_prefix(',') {
            rest = next.trim_start();
        } else if !rest.is_empty() {
            return Err("expected ',' between fields");
        }
    }
    Ok(TraceEvent {
        worker: worker.ok_or("missing worker")?,
        kernel: kernel.ok_or("missing kernel")?,
        task_id: task_id.ok_or("missing task_id")?,
        start: start.ok_or("missing start")?,
        end: end.ok_or("missing end")?,
    })
}

/// Split a leading JSON string literal into its still-escaped body and
/// the text after the closing quote.
fn take_json_string(s: &str) -> Result<(&str, &str), &'static str> {
    let body = s.strip_prefix('"').ok_or("expected '\"'")?;
    let bytes = body.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Ok((&body[..i], &body[i + 1..])),
            b'\\' => i += 2,
            _ => i += 1,
        }
    }
    Err("unterminated string")
}

/// Decode a string body from [`take_json_string`].
fn unescape(raw: &str) -> Result<String, &'static str> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let mut code = 0u32;
                for _ in 0..4 {
                    let d = chars
                        .next()
                        .and_then(|c| c.to_digit(16))
                        .ok_or("bad \\u escape")?;
                    code = code * 16 + d;
                }
                out.push(char::from_u32(code).ok_or("bad \\u code point")?);
            }
            _ => return Err("bad escape"),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(worker: usize, kernel: &str, id: u64, start: f64, end: f64) -> TraceEvent {
        TraceEvent {
            worker,
            kernel: kernel.into(),
            task_id: id,
            start,
            end,
        }
    }

    #[test]
    fn ndjson_round_trip_is_exact() {
        let spans = vec![
            ev(0, "dgemm", 3, 0.001, 0.002),
            ev(7, "we\"ird\\k", 4, 1e-7, 2.5e-7),
            ev(1, "~backoff", 5, 12.25, 13.5),
        ];
        let mut buf = Vec::new();
        {
            let mut sink = NdjsonSink::new(&mut buf);
            sink.flush_epoch(&spans).unwrap();
            sink.close().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        let back = parse_ndjson(&text).unwrap();
        assert_eq!(back.spans(), &spans[..]);
        assert_eq!(back.workers, 8);
    }

    #[test]
    fn ndjson_parse_rejects_garbage() {
        assert!(parse_ndjson("not json\n").is_err());
        assert!(parse_ndjson("{\"worker\":0}\n").is_err());
        let err =
            parse_ndjson("{\"worker\":0,\"kernel\":\"k\",\"task_id\":1,\"start\":x,\"end\":1}")
                .unwrap_err();
        assert!(err.contains("line 1"), "got {err}");
    }

    /// Malformed input of every kind is an `Err`, never a panic.
    #[test]
    fn ndjson_parse_rejects_malformed_lines() {
        let good = ndjson_line(&ev(3, "dgemm", 7, 0.25, 0.5));
        for cut in 1..good.len() {
            assert!(parse_ndjson(&good[..cut]).is_err(), "{}", &good[..cut]);
        }
        let span = |worker: &str, kernel: &str, id: &str, start: &str| {
            format!(
                r#"{{"worker":{worker},"kernel":{kernel},"task_id":{id},"start":{start},"end":1.0}}"#
            )
        };
        for bad in [
            r#"{"worker":0,"kernel":"unterminated}"#.to_string(),
            span("0", r#""k\""#, "1", "0.5"),
            span("0", r#""\u12""#, "1", "0.5"),
            span("0", r#""\u12zz""#, "1", "0.5"),
            span("0", r#""\ud800""#, "1", "0.5"),
            span("0", r#""\q""#, "1", "0.5"),
            span("0", r#""k""#, "1", "0.5x"),
            span("0", r#""k""#, "1", "0.5 7"),
            span("0", r#""k""#, "1.5", "0.5"),
            span("-1", r#""k""#, "1", "0.5"),
            span("18446744073709551615", r#""k""#, "1", "0.5"),
            span("0 \"x\":1", r#""k""#, "1", "0.5"),
            span(&"9".repeat(1 << 20), r#""k""#, "1", "0.5"),
            span("0", r#""k""#, "1", &"7".repeat(1 << 20)).replace("\"end\":1.0", "\"end\":x"),
            format!(r#"{{"worker":0,"kernel":"{}"#, "a".repeat(1 << 20)),
        ] {
            assert!(parse_ndjson(&bad).is_err(), "{}", &bad[..bad.len().min(80)]);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2_000))]
        /// A valid line with JSON-significant bytes written over it and
        /// then truncated parses or fails, but never panics.
        #[test]
        fn ndjson_parse_never_panics(
            edits in proptest::prop::collection::vec(
                (proptest::prelude::any::<usize>(), proptest::prelude::any::<usize>()),
                0..6,
            ),
            cut in proptest::prelude::any::<usize>(),
        ) {
            const BYTES: &[u8] = b"\"\\{}:,u0e-. x9\n";
            let mut line = ndjson_line(&ev(3, "dg\"emm", 7, 0.25, 0.5)).into_bytes();
            for (at, b) in edits {
                let at = at % line.len();
                line[at] = BYTES[b % BYTES.len()];
            }
            line.truncate(cut % (line.len() + 1));
            let _ = parse_ndjson(std::str::from_utf8(&line).unwrap());
        }
    }

    #[test]
    fn chrome_stream_matches_buffered_export() {
        let spans = vec![
            ev(0, "dgemm", 3, 0.001, 0.002),
            ev(1, "trsm", 4, 0.0, 0.0005),
        ];
        let mut buf = Vec::new();
        {
            let mut sink = ChromeStreamSink::new(&mut buf);
            sink.flush_epoch(&spans[..1]).unwrap();
            sink.flush_epoch(&spans[1..]).unwrap();
            sink.close().unwrap();
        }
        let streamed = String::from_utf8(buf).unwrap();
        let buffered = crate::chrome::to_chrome_json(&Trace::from_parts(2, spans));
        assert_eq!(streamed, buffered);
    }

    #[test]
    fn chrome_stream_empty_is_empty_array() {
        let mut buf = Vec::new();
        {
            let mut sink = ChromeStreamSink::new(&mut buf);
            sink.close().unwrap();
        }
        assert_eq!(String::from_utf8(buf).unwrap(), "[]");
    }
}
