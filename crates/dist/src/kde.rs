//! Gaussian kernel density estimation.
//!
//! Produces the smooth "emp." density curve plotted alongside the fitted
//! parametric models in the Fig. 3/4 reproductions.

use crate::moments::Moments;

/// A Gaussian KDE over a fixed data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Kde {
    data: Vec<f64>,
    bandwidth: f64,
}

impl Kde {
    /// Build a KDE with Silverman's rule-of-thumb bandwidth:
    /// `0.9 * min(std, IQR/1.34) * n^(-1/5)`.
    ///
    /// Returns `None` for fewer than 2 finite points or degenerate spread.
    pub fn silverman(data: &[f64]) -> Option<Self> {
        let finite: Vec<f64> = data.iter().copied().filter(|x| x.is_finite()).collect();
        if finite.len() < 2 {
            return None;
        }
        let m = Moments::from_slice(&finite);
        let std = m.sample_std_dev();
        let iqr = crate::quantile::iqr(&finite);
        let spread = if iqr > 0.0 { std.min(iqr / 1.34) } else { std };
        if spread <= 0.0 {
            return None;
        }
        let n = finite.len() as f64;
        let bw = 0.9 * spread * n.powf(-0.2);
        Some(Kde {
            data: finite,
            bandwidth: bw,
        })
    }

    /// The bandwidth in use.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Number of data points.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the KDE has no data (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Density estimate at `x`.
    pub fn density(&self, x: f64) -> f64 {
        const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
        let h = self.bandwidth;
        let mut sum = 0.0;
        for &xi in &self.data {
            let z = (x - xi) / h;
            sum += (-0.5 * z * z).exp();
        }
        sum * INV_SQRT_2PI / (self.data.len() as f64 * h)
    }

    /// Evaluate the density on `n` evenly spaced points covering the data
    /// range extended by 3 bandwidths on each side.
    pub fn grid(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2, "grid needs at least 2 points");
        let lo = self.data.iter().copied().fold(f64::INFINITY, f64::min) - 3.0 * self.bandwidth;
        let hi = self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max) + 3.0 * self.bandwidth;
        let step = (hi - lo) / (n - 1) as f64;
        (0..n)
            .map(|i| {
                let x = lo + i as f64 * step;
                (x, self.density(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dist, Distribution};
    use rand::SeedableRng;

    #[test]
    fn rejects_degenerate_input() {
        assert!(Kde::silverman(&[]).is_none());
        assert!(Kde::silverman(&[1.0]).is_none());
        assert!(Kde::silverman(&[2.0, 2.0, 2.0]).is_none());
    }

    #[test]
    fn density_integrates_to_one() {
        let data: Vec<f64> = (0..200).map(|i| (i as f64 * 0.37).sin()).collect();
        let kde = Kde::silverman(&data).unwrap();
        let grid = kde.grid(2_000);
        let step = grid[1].0 - grid[0].0;
        let integral: f64 = grid.iter().map(|&(_, d)| d * step).sum();
        assert!((integral - 1.0).abs() < 0.01, "integral {integral}");
    }

    #[test]
    fn kde_approximates_true_density() {
        let truth = Dist::normal(0.0, 1.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let data: Vec<f64> = (0..5_000).map(|_| truth.sample(&mut rng)).collect();
        let kde = Kde::silverman(&data).unwrap();
        for &x in &[-1.0, 0.0, 1.0] {
            let est = kde.density(x);
            let exact = truth.pdf(x);
            assert!((est - exact).abs() < 0.05, "x={x}: {est} vs {exact}");
        }
    }

    #[test]
    fn density_peaks_near_data() {
        let kde = Kde::silverman(&[5.0, 5.1, 4.9]).unwrap();
        assert!(kde.density(5.0) > kde.density(3.0));
        assert!(kde.density(5.0) > kde.density(7.0));
    }
}
