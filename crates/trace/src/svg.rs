//! SVG Gantt rendering of traces (paper Figs. 6–7).
//!
//! "After the completion of the algorithm, the trace can be converted to an
//! SVG file that visualizes the trace and may be rasterized at the
//! appropriate resolution" — §V-A. One horizontal lane per worker, one
//! colored rectangle per task, a time axis, and a kernel legend.
//!
//! To compare a real and a simulated trace side by side at the *same time
//! scale* (as Figs. 6 and 7 do), pass an explicit `time_span` in
//! [`SvgOptions`] covering both makespans.

use crate::color::ColorMap;
use crate::fault::{base_kernel, span_kind, SpanKind};
use crate::Trace;
use std::fmt::Write as _;

/// Rendering options.
#[derive(Debug, Clone)]
pub struct SvgOptions {
    /// Total drawing width in pixels (including margins).
    pub width: f64,
    /// Height of one worker lane in pixels.
    pub lane_height: f64,
    /// Vertical gap between lanes.
    pub lane_gap: f64,
    /// Fixed time span (seconds) for the x-axis. `None` uses the trace's
    /// own `t_max`, which is what you want for standalone renders.
    pub time_span: Option<f64>,
    /// Draw the kernel-color legend below the lanes.
    pub legend: bool,
    /// Chart title drawn above the lanes (empty = none).
    pub title: String,
    /// Number of x-axis tick marks.
    pub ticks: usize,
    /// Custom lane labels (e.g. `n0.w3` / `n1.nic0` for cluster traces).
    /// Lanes beyond the vector fall back to their numeric index; empty
    /// means all-numeric.
    pub lane_names: Vec<String>,
}

impl Default for SvgOptions {
    fn default() -> Self {
        SvgOptions {
            width: 1200.0,
            lane_height: 14.0,
            lane_gap: 2.0,
            time_span: None,
            legend: true,
            title: String::new(),
            ticks: 10,
            lane_names: Vec::new(),
        }
    }
}

const MARGIN_LEFT: f64 = 60.0;
const MARGIN_RIGHT: f64 = 20.0;
const MARGIN_TOP: f64 = 28.0;
const AXIS_HEIGHT: f64 = 30.0;
const LEGEND_ROW: f64 = 18.0;

/// Render a trace to an SVG document string.
pub fn render(trace: &Trace, opts: &SvgOptions) -> String {
    let (workers, spans) = (trace.workers, trace.spans());
    let span = opts
        .time_span
        .unwrap_or_else(|| spans.iter().map(|e| e.end).fold(0.0, f64::max))
        .max(1e-12);
    let plot_w = (opts.width - MARGIN_LEFT - MARGIN_RIGHT).max(10.0);
    let lanes_h = workers as f64 * (opts.lane_height + opts.lane_gap);
    // Color and legend by *base* kernel: fault-marked spans reuse their
    // kernel's color with distinct stroke/opacity styling, and backoff
    // spans have no kernel of their own. Fault-free traces render
    // byte-identically to the pre-fault renderer.
    let mut labels: Vec<String> = Vec::new();
    for e in spans {
        let b = base_kernel(&e.kernel);
        if !b.is_empty() && !labels.iter().any(|s| s == b) {
            labels.push(b.to_string());
        }
    }
    let legend_h = if opts.legend {
        LEGEND_ROW * ((labels.len() as f64 / 4.0).ceil().max(1.0)) + 8.0
    } else {
        0.0
    };
    let height = MARGIN_TOP + lanes_h + AXIS_HEIGHT + legend_h;
    let colors = ColorMap::from_labels(labels.iter().cloned());

    let mut s = String::with_capacity(4096 + spans.len() * 96);
    let _ = writeln!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{:.0}" height="{:.0}" viewBox="0 0 {:.0} {:.0}">"#,
        opts.width, height, opts.width, height
    );
    let _ = writeln!(s, r#"<rect width="100%" height="100%" fill="white"/>"#);
    if !opts.title.is_empty() {
        let _ = writeln!(
            s,
            r#"<text x="{:.1}" y="18" font-family="sans-serif" font-size="13" font-weight="bold">{}</text>"#,
            MARGIN_LEFT,
            escape(&opts.title)
        );
    }

    // Lane labels and background stripes.
    for w in 0..workers {
        let y = MARGIN_TOP + w as f64 * (opts.lane_height + opts.lane_gap);
        let _ = writeln!(
            s,
            r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="#f4f4f4"/>"##,
            MARGIN_LEFT, y, plot_w, opts.lane_height
        );
        let name = opts
            .lane_names
            .get(w)
            .map_or_else(|| w.to_string(), |n| n.clone());
        let _ = writeln!(
            s,
            r#"<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="9" text-anchor="end">{}</text>"#,
            MARGIN_LEFT - 4.0,
            y + opts.lane_height * 0.75,
            escape(&name)
        );
    }

    // Task rectangles.
    for e in spans {
        if e.worker >= workers {
            continue;
        }
        let x = MARGIN_LEFT + e.start / span * plot_w;
        let w_px = ((e.end - e.start) / span * plot_w).max(0.25);
        let y = MARGIN_TOP + e.worker as f64 * (opts.lane_height + opts.lane_gap);
        let kind = span_kind(&e.kernel);
        let fill = match kind {
            SpanKind::Backoff => "#e0e0e0",
            _ => colors.color(base_kernel(&e.kernel)),
        };
        let style = match kind {
            SpanKind::Normal => "",
            SpanKind::Failed => r##" fill-opacity="0.45" stroke="#c62828" stroke-width="1""##,
            SpanKind::Lost => {
                r##" fill-opacity="0.2" stroke="#757575" stroke-width="1" stroke-dasharray="3,2""##
            }
            SpanKind::Backoff => {
                r##" stroke="#9e9e9e" stroke-width="0.5" stroke-dasharray="1.5,1.5""##
            }
        };
        let _ = writeln!(
            s,
            r#"<rect x="{:.2}" y="{:.1}" width="{:.2}" height="{:.1}" fill="{}"{}><title>{} #{} [{:.6}, {:.6}]</title></rect>"#,
            x,
            y,
            w_px,
            opts.lane_height,
            fill,
            style,
            escape(&e.kernel),
            e.task_id,
            e.start,
            e.end
        );
    }

    // Time axis.
    let axis_y = MARGIN_TOP + lanes_h + 12.0;
    let _ = writeln!(
        s,
        r#"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="black" stroke-width="1"/>"#,
        MARGIN_LEFT,
        axis_y,
        MARGIN_LEFT + plot_w,
        axis_y
    );
    let ticks = opts.ticks.max(1);
    for i in 0..=ticks {
        let frac = i as f64 / ticks as f64;
        let x = MARGIN_LEFT + frac * plot_w;
        let t = frac * span;
        let _ = writeln!(
            s,
            r#"<line x1="{x:.1}" y1="{:.1}" x2="{x:.1}" y2="{:.1}" stroke="black" stroke-width="1"/>"#,
            axis_y,
            axis_y + 4.0
        );
        let _ = writeln!(
            s,
            r#"<text x="{x:.1}" y="{:.1}" font-family="sans-serif" font-size="9" text-anchor="middle">{}</text>"#,
            axis_y + 14.0,
            format_time(t)
        );
    }

    // Legend.
    if opts.legend {
        let base_y = MARGIN_TOP + lanes_h + AXIS_HEIGHT;
        for (i, label) in labels.iter().enumerate() {
            let col = i % 4;
            let row = i / 4;
            let x = MARGIN_LEFT + col as f64 * (plot_w / 4.0);
            let y = base_y + row as f64 * LEGEND_ROW;
            let _ = writeln!(
                s,
                r#"<rect x="{:.1}" y="{:.1}" width="12" height="12" fill="{}"/>"#,
                x,
                y,
                colors.color(label)
            );
            let _ = writeln!(
                s,
                r#"<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="10">{}</text>"#,
                x + 16.0,
                y + 10.0,
                escape(label)
            );
        }
    }

    s.push_str("</svg>\n");
    s
}

fn format_time(t: f64) -> String {
    if t == 0.0 {
        "0".to_string()
    } else if t < 1e-3 {
        format!("{:.0}µs", t * 1e6)
    } else if t < 1.0 {
        format!("{:.1}ms", t * 1e3)
    } else {
        format!("{t:.2}s")
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEvent;

    fn trace() -> Trace {
        let mut t = Trace::new(2);
        t.push(TraceEvent {
            worker: 0,
            kernel: "gemm".into(),
            task_id: 0,
            start: 0.0,
            end: 1.0,
        });
        t.push(TraceEvent {
            worker: 1,
            kernel: "trsm".into(),
            task_id: 1,
            start: 0.5,
            end: 2.0,
        });
        t
    }

    #[test]
    fn renders_valid_svg_shell() {
        let svg = render(&trace(), &SvgOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // One background + per-lane stripes + 2 task rects + legend swatches.
        assert!(svg.matches("<rect").count() >= 5);
    }

    #[test]
    fn contains_kernel_names_and_colors() {
        let svg = render(&trace(), &SvgOptions::default());
        assert!(svg.contains("gemm"));
        assert!(svg.contains("trsm"));
        assert!(svg.contains(crate::color::PALETTE[0]));
        assert!(svg.contains(crate::color::PALETTE[1]));
    }

    #[test]
    fn fixed_time_span_scales_positions() {
        let t = trace();
        let narrow = render(
            &t,
            &SvgOptions {
                time_span: Some(2.0),
                ..Default::default()
            },
        );
        let wide = render(
            &t,
            &SvgOptions {
                time_span: Some(4.0),
                ..Default::default()
            },
        );
        // Same events, different widths: documents must differ.
        assert_ne!(narrow, wide);
    }

    #[test]
    fn empty_trace_renders() {
        let svg = render(&Trace::new(3), &SvgOptions::default());
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn custom_lane_names_replace_numeric_labels() {
        let svg = render(
            &trace(),
            &SvgOptions {
                lane_names: vec!["n0.w0".into(), "n0.nic0".into()],
                ..Default::default()
            },
        );
        assert!(svg.contains(">n0.w0</text>"));
        assert!(svg.contains(">n0.nic0</text>"));
        assert!(!svg.contains(r#"text-anchor="end">0</text>"#));
    }

    #[test]
    fn fault_marked_spans_get_distinct_styling() {
        let mut t = Trace::new(2);
        t.push(TraceEvent {
            worker: 0,
            kernel: "dgemm".into(),
            task_id: 0,
            start: 0.0,
            end: 1.0,
        });
        t.push(TraceEvent {
            worker: 0,
            kernel: "dgemm!fail".into(),
            task_id: 1,
            start: 1.0,
            end: 1.5,
        });
        t.push(TraceEvent {
            worker: 1,
            kernel: "dpotrf!lost".into(),
            task_id: 2,
            start: 0.0,
            end: 0.5,
        });
        t.push(TraceEvent {
            worker: 1,
            kernel: "~backoff".into(),
            task_id: 1,
            start: 0.5,
            end: 0.75,
        });
        let svg = render(&t, &SvgOptions::default());
        // Failed attempts: kernel color, red stroke; lost work: dashed.
        assert!(svg.contains(r##"stroke="#c62828""##));
        assert!(svg.contains(r#"stroke-dasharray="3,2""#));
        assert!(svg.contains(r#"stroke-dasharray="1.5,1.5""#));
        // The legend shows base kernels only, never the marked variants.
        assert!(svg.contains(">dgemm</text>"));
        assert!(!svg.contains(">dgemm!fail</text>"));
        assert!(!svg.contains(">~backoff</text>"));
        // Failed span reuses its base kernel's color.
        let dgemm_color = crate::color::PALETTE[0];
        assert!(svg.matches(dgemm_color).count() >= 3);
    }

    #[test]
    fn escapes_markup_in_labels() {
        let mut t = Trace::new(1);
        t.push(TraceEvent {
            worker: 0,
            kernel: "a<b&c".into(),
            task_id: 0,
            start: 0.0,
            end: 1.0,
        });
        let svg = render(&t, &SvgOptions::default());
        assert!(svg.contains("a&lt;b&amp;c"));
        assert!(!svg.contains("a<b&c"));
    }

    #[test]
    fn time_format_picks_unit() {
        assert_eq!(format_time(0.0), "0");
        assert!(format_time(5e-6).ends_with("µs"));
        assert!(format_time(5e-3).ends_with("ms"));
        assert!(format_time(5.0).ends_with('s'));
    }
}
