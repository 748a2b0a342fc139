//! ASCII rendering of traces for terminals and quick example output.
//!
//! Each worker lane becomes one text row; time is discretized into columns.
//! Each kernel class gets a letter (first letter of its label, uppercased
//! and disambiguated); idle time is `.`. Fault-marked spans (see
//! [`crate::fault`]) use fixed lowercase/symbol glyphs — `x` failed
//! attempt, `?` lost work, `~` retry backoff — that can never collide
//! with the uppercase kernel glyphs.

use crate::fault::{span_kind, SpanKind};
use crate::{KernelName, Trace};

/// Render a trace as ASCII art, `cols` characters wide.
pub fn render(trace: &Trace, cols: usize) -> String {
    let (workers, spans) = (trace.workers, trace.spans());
    let cols = cols.max(4);
    let span = spans.iter().map(|e| e.end).fold(0.0, f64::max).max(1e-12);
    let mut labels: Vec<KernelName> = Vec::new();
    for e in spans {
        if span_kind(&e.kernel) == SpanKind::Normal && !labels.iter().any(|l| l == &e.kernel) {
            labels.push(e.kernel.clone());
        }
    }
    let glyphs = assign_glyphs(&labels);

    let mut rows: Vec<Vec<char>> = vec![vec!['.'; cols]; workers];
    let (mut any_failed, mut any_lost, mut any_backoff) = (false, false, false);
    for e in spans {
        if e.worker >= workers {
            continue;
        }
        let g = match span_kind(&e.kernel) {
            SpanKind::Normal => glyph_for(&glyphs, &labels, &e.kernel),
            SpanKind::Failed => {
                any_failed = true;
                'x'
            }
            SpanKind::Lost => {
                any_lost = true;
                '?'
            }
            SpanKind::Backoff => {
                any_backoff = true;
                '~'
            }
        };
        let c0 = ((e.start / span) * cols as f64).floor() as usize;
        let c1 = ((e.end / span) * cols as f64).ceil() as usize;
        let c0 = c0.min(cols - 1);
        let c1 = c1.clamp(c0 + 1, cols);
        for cell in rows[e.worker][c0..c1].iter_mut() {
            *cell = g;
        }
    }

    let width = workers.saturating_sub(1).to_string().len().max(3);
    let mut out = String::new();
    for (w, row) in rows.iter().enumerate() {
        out.push_str(&format!("{w:>width$} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    // Legend.
    out.push_str("    ");
    for (label, g) in labels.iter().zip(glyphs.iter()) {
        out.push_str(&format!(" {g}={label}"));
    }
    if any_failed {
        out.push_str(" x=failed");
    }
    if any_lost {
        out.push_str(" ?=lost");
    }
    if any_backoff {
        out.push_str(" ~=backoff");
    }
    out.push('\n');
    out
}

fn assign_glyphs(labels: &[KernelName]) -> Vec<char> {
    let mut used = Vec::new();
    let mut glyphs = Vec::with_capacity(labels.len());
    for label in labels {
        let mut g = label
            .chars()
            .find(|c| c.is_ascii_alphanumeric())
            .unwrap_or('#')
            .to_ascii_uppercase();
        if used.contains(&g) {
            // Walk the label for an unused letter, then fall back to digits.
            g = label
                .chars()
                .map(|c| c.to_ascii_uppercase())
                .find(|c| c.is_ascii_alphanumeric() && !used.contains(c))
                .or_else(|| ('0'..='9').find(|c| !used.contains(c)))
                .unwrap_or('#');
        }
        used.push(g);
        glyphs.push(g);
    }
    glyphs
}

fn glyph_for(glyphs: &[char], labels: &[KernelName], kernel: &str) -> char {
    labels
        .iter()
        .position(|l| l == kernel)
        .map(|i| glyphs[i])
        .unwrap_or('#')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEvent;

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
    fn renders_lanes_and_legend() {
        let mut t = Trace::new(2);
        t.push(ev(0, "gemm", 0, 0.0, 0.5));
        t.push(ev(1, "trsm", 1, 0.5, 1.0));
        let art = render(&t, 20);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3); // 2 lanes + legend
        assert!(lines[0].contains('G'));
        assert!(lines[1].contains('T'));
        assert!(lines[2].contains("G=gemm"));
        assert!(lines[2].contains("T=trsm"));
    }

    #[test]
    fn idle_time_is_dots() {
        let mut t = Trace::new(1);
        t.push(ev(0, "k", 0, 0.8, 1.0));
        let art = render(&t, 10);
        let lane = art.lines().next().unwrap();
        assert!(lane.contains('.'));
        assert!(lane.trim_end().ends_with('K'));
    }

    #[test]
    fn duplicate_first_letters_get_distinct_glyphs() {
        let mut t = Trace::new(1);
        t.push(ev(0, "geqrt", 0, 0.0, 0.3));
        t.push(ev(0, "gemm", 1, 0.3, 0.6));
        let art = render(&t, 12);
        let legend = art.lines().last().unwrap();
        // Two distinct glyphs assigned.
        let g1 = legend
            .split("=geqrt")
            .next()
            .unwrap()
            .chars()
            .last()
            .unwrap();
        let g2 = legend
            .split("=gemm")
            .next()
            .unwrap()
            .chars()
            .last()
            .unwrap();
        assert_ne!(g1, g2);
    }

    #[test]
    fn fault_marks_use_fixed_glyphs_and_legend_entries() {
        let mut t = Trace::new(2);
        t.push(ev(0, "dgemm", 0, 0.0, 0.3));
        t.push(ev(0, "dgemm!fail", 1, 0.3, 0.5));
        t.push(ev(0, "~backoff", 1, 0.5, 0.6));
        t.push(ev(1, "dpotrf!lost", 2, 0.0, 0.4));
        let art = render(&t, 20);
        let lines: Vec<&str> = art.lines().collect();
        assert!(lines[0].contains('x'));
        assert!(lines[0].contains('~'));
        assert!(lines[1].contains('?'));
        let legend = lines[2];
        assert!(legend.contains("D=dgemm"));
        assert!(legend.contains("x=failed"));
        assert!(legend.contains("?=lost"));
        assert!(legend.contains("~=backoff"));
        // Marked variants never get their own kernel legend entries.
        assert!(!legend.contains("dgemm!fail"));
    }

    #[test]
    fn empty_trace_renders_legend_only() {
        let art = render(&Trace::new(0), 10);
        assert_eq!(art.lines().count(), 1);
    }
}
