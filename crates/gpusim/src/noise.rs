//! A seeded, deterministic measurement-noise model.
//!
//! Real GPU profiles are noisy: clocks throttle, the DVFS governor moves,
//! other tenants steal bandwidth, and hardware counters occasionally drop
//! or misreport. The simulator's timings are exact, so to exercise the
//! robust-measurement machinery end to end we perturb them with a
//! *deterministic* noise process: every sample is a pure function of
//! `(seed, repetition, launch seq, metric)`, so the same seed always
//! produces the same "noisy machine" — reproducible down to the byte, with
//! no global RNG state and no dependence on evaluation order.
//!
//! The model composes four effects, each independently seeded:
//! - **multiplicative jitter** — log-normal-ish scatter around the true
//!   value (Box-Muller on hashed uniforms);
//! - **heavy-tailed outliers** — occasional samples inflated by a large
//!   factor, modeling preemption or thermal events;
//! - **dropped counters** — a sample simply goes missing;
//! - **transient failures** — a whole profiling repetition errors out and
//!   must be retried.

/// Which profiled metric a noise sample perturbs. Each metric gets its own
/// decorrelated noise stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Modeled launch runtime, µs.
    RuntimeUs,
    /// Floating-point operations per execution.
    Flops,
    /// DRAM bytes read per execution.
    ReadBytes,
    /// DRAM bytes written per execution.
    WriteBytes,
}

impl Metric {
    /// All metrics the robust profiler aggregates.
    pub const ALL: [Metric; 4] = [
        Metric::RuntimeUs,
        Metric::Flops,
        Metric::ReadBytes,
        Metric::WriteBytes,
    ];

    fn salt(self) -> u64 {
        match self {
            Metric::RuntimeUs => 0x52_55_4e_54,
            Metric::Flops => 0x46_4c_4f_50,
            Metric::ReadBytes => 0x52_42_59_54,
            Metric::WriteBytes => 0x57_42_59_54,
        }
    }
}

/// A seeded, deterministic model of profiler measurement noise.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    /// Seed: the identity of the simulated "noisy machine".
    pub seed: u64,
    /// Relative standard deviation of the multiplicative jitter.
    pub jitter: f64,
    /// Probability a sample is a heavy-tailed outlier.
    pub outlier_rate: f64,
    /// Maximum inflation factor an outlier multiplies the value by (the
    /// actual factor is drawn uniformly from `[2, outlier_scale]`).
    pub outlier_scale: f64,
    /// Probability a counter sample is dropped (no value recorded).
    pub drop_rate: f64,
    /// Probability one profiling repetition fails transiently per attempt.
    pub transient_rate: f64,
}

impl NoiseModel {
    /// The standard noisy machine used by the acceptance tests and
    /// `sfc --noise-seed`: 10% jitter, 5% outliers (up to 6×), 2% dropped
    /// counters, 10% transient repetition failures.
    pub fn standard(seed: u64) -> NoiseModel {
        NoiseModel {
            seed,
            jitter: 0.10,
            outlier_rate: 0.05,
            outlier_scale: 6.0,
            drop_rate: 0.02,
            transient_rate: 0.10,
        }
    }

    /// A quiet machine: small jitter only. Useful in tests that want
    /// dispersion without outliers or failures.
    pub fn quiet(seed: u64) -> NoiseModel {
        NoiseModel {
            seed,
            jitter: 0.02,
            outlier_rate: 0.0,
            outlier_scale: 1.0,
            drop_rate: 0.0,
            transient_rate: 0.0,
        }
    }

    /// Hash the model seed with a list of stream coordinates (SplitMix64
    /// finalization over a running mix). Pure; no state.
    fn mix(&self, coords: &[u64]) -> u64 {
        let mut x = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for &c in coords {
            x = x.wrapping_add(c.wrapping_mul(0xbf58_476d_1ce4_e5b9));
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
        }
        x
    }

    /// Uniform in [0, 1) from a hashed stream.
    fn uniform(&self, coords: &[u64]) -> f64 {
        (self.mix(coords) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal via Box-Muller on two hashed uniforms.
    fn gaussian(&self, coords: &[u64]) -> f64 {
        let u1 = self.uniform(coords).max(1e-12);
        let mut c2 = coords.to_vec();
        c2.push(0x6761_7573_7332);
        let u2 = self.uniform(&c2);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Perturb one true metric value for repetition `rep` of launch `seq`.
    /// Returns `None` when the counter was dropped.
    pub fn sample(&self, rep: u32, seq: usize, metric: Metric, true_value: f64) -> Option<f64> {
        let base = [rep as u64, seq as u64, metric.salt()];
        if self.uniform(&[base[0], base[1], base[2], 0xd209]) < self.drop_rate {
            return None;
        }
        let mut v = true_value * (1.0 + self.jitter * self.gaussian(&base)).max(0.05);
        if self.uniform(&[base[0], base[1], base[2], 0x0071e2]) < self.outlier_rate {
            let f = 2.0
                + (self.outlier_scale - 2.0).max(0.0)
                    * self.uniform(&[base[0], base[1], base[2], 0x0071e3]);
            v *= f;
        }
        Some(v)
    }

    /// Whether repetition `rep`'s `attempt`-th try fails transiently.
    pub fn rep_fails(&self, rep: u32, attempt: u32) -> bool {
        self.uniform(&[rep as u64, attempt as u64, 0x7261_6e73]) < self.transient_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_deterministic() {
        let n = NoiseModel::standard(7);
        for rep in 0..10 {
            for seq in 0..4 {
                for m in Metric::ALL {
                    assert_eq!(n.sample(rep, seq, m, 100.0), n.sample(rep, seq, m, 100.0));
                }
            }
        }
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a = NoiseModel::standard(1);
        let b = NoiseModel::standard(2);
        let va: Vec<_> = (0..32)
            .map(|r| a.sample(r, 0, Metric::RuntimeUs, 100.0))
            .collect();
        let vb: Vec<_> = (0..32)
            .map(|r| b.sample(r, 0, Metric::RuntimeUs, 100.0))
            .collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn jitter_scatters_around_the_truth() {
        let n = NoiseModel::quiet(3);
        let vals: Vec<f64> = (0..200)
            .filter_map(|r| n.sample(r, 0, Metric::RuntimeUs, 100.0))
            .collect();
        assert_eq!(vals.len(), 200, "quiet model drops nothing");
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean - 100.0).abs() < 2.0, "mean {mean} far from truth");
        assert!(vals.iter().any(|v| (v - 100.0).abs() > 0.1), "no scatter");
    }

    #[test]
    fn standard_model_produces_outliers_drops_and_transients() {
        let n = NoiseModel::standard(11);
        let mut outliers = 0;
        let mut drops = 0;
        for rep in 0..400 {
            match n.sample(rep, 0, Metric::RuntimeUs, 100.0) {
                None => drops += 1,
                Some(v) if v > 160.0 => outliers += 1,
                Some(_) => {}
            }
        }
        assert!(
            outliers > 5,
            "expected heavy-tailed outliers, got {outliers}"
        );
        assert!(drops > 1, "expected dropped counters, got {drops}");
        let transients = (0..400).filter(|&r| n.rep_fails(r, 0)).count();
        assert!(
            transients > 15,
            "expected transient failures, got {transients}"
        );
    }

    #[test]
    fn metric_streams_are_independent() {
        let n = NoiseModel::standard(5);
        let rt = n.sample(0, 0, Metric::RuntimeUs, 100.0);
        let fl = n.sample(0, 0, Metric::Flops, 100.0);
        assert_ne!(rt, fl);
    }
}
