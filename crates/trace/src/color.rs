//! Deterministic kernel-label → color assignment for trace rendering.

/// A categorical palette chosen for adjacent-lane contrast (hex RGB).
///
/// Order matters: labels are assigned palette slots in first-seen order, so
/// renders are stable run-to-run for the same workload.
pub const PALETTE: [&str; 12] = [
    "#4477aa", // blue
    "#ee6677", // red
    "#228833", // green
    "#ccbb44", // yellow
    "#66ccee", // cyan
    "#aa3377", // purple
    "#bbbbbb", // grey
    "#e07b39", // orange
    "#1d6996", // deep blue
    "#73af48", // leaf
    "#94346e", // plum
    "#6f4070", // violet
];

/// Stable mapping from kernel labels to colors.
#[derive(Debug, Clone, Default)]
pub struct ColorMap {
    labels: Vec<String>,
}

impl ColorMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a label list (first-seen order).
    pub fn from_labels<I: IntoIterator<Item = String>>(labels: I) -> Self {
        let mut m = Self::new();
        for l in labels {
            m.intern(&l);
        }
        m
    }

    /// Get (or assign) the palette index for `label`.
    pub fn intern(&mut self, label: &str) -> usize {
        if let Some(i) = self.labels.iter().position(|l| l == label) {
            return i;
        }
        self.labels.push(label.to_string());
        self.labels.len() - 1
    }

    /// Color for a label already interned; falls back to hashing unknown
    /// labels so lookups never fail.
    pub fn color(&self, label: &str) -> &'static str {
        match self.labels.iter().position(|l| l == label) {
            Some(i) => PALETTE[i % PALETTE.len()],
            // FNV-1a: deterministic across runs, unlike `DefaultHasher`.
            None => {
                let h = crate::fnv1a(crate::FNV1A_BASIS, label.as_bytes());
                PALETTE[h as usize % PALETTE.len()]
            }
        }
    }

    /// The interned labels in assignment order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable() {
        let mut m = ColorMap::new();
        assert_eq!(m.intern("gemm"), 0);
        assert_eq!(m.intern("trsm"), 1);
        assert_eq!(m.intern("gemm"), 0);
        assert_eq!(m.color("gemm"), PALETTE[0]);
        assert_eq!(m.color("trsm"), PALETTE[1]);
    }

    #[test]
    fn unknown_labels_get_deterministic_color() {
        let m = ColorMap::new();
        let c1 = m.color("mystery");
        let c2 = m.color("mystery");
        assert_eq!(c1, c2);
        assert!(PALETTE.contains(&c1));
    }

    #[test]
    fn palette_wraps() {
        let mut m = ColorMap::new();
        for i in 0..30 {
            m.intern(&format!("k{i}"));
        }
        assert_eq!(m.color("k0"), m.color("k12"));
        assert_ne!(m.color("k0"), m.color("k5"));
    }

    #[test]
    fn from_labels_preserves_order() {
        let m = ColorMap::from_labels(vec!["a".into(), "b".into()]);
        assert_eq!(m.labels(), &["a".to_string(), "b".to_string()]);
    }
}
