//! The benchmark's own span recorder.
//!
//! Spans are recorded here, around the calls the benchmark makes into each
//! layer's public functions — not inside the program under test. They stay
//! in memory and are written to `out/trace-<workload>.json` when the
//! workload ends. With no log installed (`--trace 0`) [`enter`] is one
//! uncontended mutex lock and a branch.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One closed or still-open span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// The op (or probe repetition) this span belongs to.
    pub op: u64,
}

/// In-memory span log with a nesting stack.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> u32 {
        let idx = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
        });
        self.stack.push(idx);
        idx
    }

    fn close(&mut self, idx: u32) {
        let now = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx as usize].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part its direct children
    /// cover (children never overlap: one thread, strict nesting).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Every child starts and ends inside its parent and carries its op id.
    pub fn check_nesting(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if s.parent != NO_PARENT {
                let p = &self.spans[s.parent as usize];
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.op != p.op {
                    return Err(format!(
                        "span {i} ({}) escapes its parent {} ({})",
                        s.name, s.parent, p.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// `{"workload":..,"spans":[{"name":..,"start_ns":..,"end_ns":..,"self_ns":..,"parent":..,"op":..},..]}`
    pub fn write_json(&self, workload: &str, out: &mut dyn Write) -> std::io::Result<()> {
        let own = self.self_times_ns();
        write!(out, "{{\"workload\":\"{workload}\",\"spans\":[")?;
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, own, parent, s.op
            )?;
        }
        out.write_all(b"\n]}\n")
    }
}

static LOG: Mutex<Option<SpanLog>> = Mutex::new(None);

fn log() -> std::sync::MutexGuard<'static, Option<SpanLog>> {
    // A panicking op is caught and counted as failed; the log stays valid
    // because every update is a single push/pop.
    LOG.lock().unwrap_or_else(|e| e.into_inner())
}

/// Start recording spans (the `--trace 1` run).
pub fn install() {
    *log() = Some(SpanLog::default());
}

/// Stop recording and hand the log back.
pub fn take() -> Option<SpanLog> {
    log().take()
}

/// Resume recording into a log taken out earlier.
pub fn put_back(l: SpanLog) {
    *log() = Some(l);
}

/// Tag the spans that follow with op id `op`.
pub fn set_op(op: u64) {
    if let Some(l) = log().as_mut() {
        l.op = op;
    }
}

/// Closes its span when dropped.
pub struct Guard(Option<u32>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            if let Some(l) = log().as_mut() {
                l.close(idx);
            }
        }
    }
}

/// Open a span named `name` under whichever span is open now.
pub fn enter(name: &'static str) -> Guard {
    Guard(log().as_mut().map(|l| l.open(name)))
}

/// Time `f` inside a span.
pub fn within<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = enter(name);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_nesting_holds() {
        let mut l = SpanLog {
            op: 7,
            ..SpanLog::default()
        };
        let a = l.open("op");
        let b = l.open("child");
        l.close(b);
        let c = l.open("child");
        l.close(c);
        l.close(a);
        // Make durations exact for the assertion.
        l.spans[0].start_ns = 0;
        l.spans[0].end_ns = 100;
        l.spans[1].start_ns = 10;
        l.spans[1].end_ns = 30;
        l.spans[2].start_ns = 40;
        l.spans[2].end_ns = 90;
        assert_eq!(l.self_times_ns(), vec![30, 20, 50]);
        l.check_nesting().unwrap();
        l.spans[2].end_ns = 101;
        assert!(l.check_nesting().is_err());
        let mut buf = Vec::new();
        l.write_json("w", &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"parent\":null") && text.contains("\"parent\":0"));
        assert!(text.contains("\"op\":7"));
    }
}
