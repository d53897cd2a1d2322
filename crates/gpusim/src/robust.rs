//! Robust profiling: repeated measurements, median/MAD aggregation,
//! deterministic retry with a virtual backoff clock, and per-launch
//! confidence classification.
//!
//! The paper's stage 1 trusts a single `nvprof` run. On a real cluster that
//! single run can be jittered, preempted, or lose counters, silently
//! skewing the projection model downstream. [`RobustProfiler`] wraps the
//! exact [`Profiler`] and, when repetitions or a [`NoiseModel`] are
//! configured, runs `k` measurement repetitions per program:
//!
//! 1. one exact inner profile supplies the analytic fallback values;
//! 2. each repetition draws noisy samples per launch and metric (a
//!    repetition can fail transiently and is retried on the one
//!    [`sf_core::retry`] schedule, whose backoff clock is *virtual* — no
//!    wall-time sleeps, fully deterministic);
//! 3. per launch and metric, samples are aggregated with a median + MAD
//!    outlier rejection ([`robust_aggregate`]); when too many samples are
//!    rejected the metric collapses to the analytic estimate;
//! 4. each launch is classified [`Confidence::Stable`] /
//!    [`Confidence::Noisy`] / [`Confidence::Unreliable`] from its worst
//!    relative dispersion, and tagged with a [`Provenance`].

use crate::memory::GlobalMemory;
use crate::noise::{Metric, NoiseModel};
use crate::profiler::{ProfileError, Profiler, ProgramProfile};
use sf_analysis::metadata::{Confidence, MeasureQuality, Provenance};
use sf_minicuda::ast::Program;
use sf_minicuda::host::ExecutablePlan;

/// Reject samples farther than this many robust sigmas from the median.
const OUTLIER_MADS: f64 = 3.5;
/// When more than this fraction of samples is rejected, the aggregate is
/// not trustworthy and collapses to the analytic estimate.
const MAX_OUTLIER_FRACTION: f64 = 0.30;
/// Relative dispersion at or below which a launch is [`Confidence::Stable`].
const STABLE_DISPERSION: f64 = 0.05;
/// Relative dispersion above which a launch is [`Confidence::Unreliable`].
const NOISY_DISPERSION: f64 = 0.30;

/// The result of robustly aggregating one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// The aggregated value (median of surviving samples, or the analytic
    /// estimate when the aggregation fell back).
    pub value: f64,
    /// Relative dispersion: robust sigma (1.4826 × MAD) over the median.
    pub dispersion: f64,
    /// Lower bound of the ~95% confidence interval on the value.
    pub ci_low: f64,
    /// Upper bound of the ~95% confidence interval on the value.
    pub ci_high: f64,
    /// Samples that survived outlier rejection.
    pub samples: u32,
    /// Samples rejected as outliers.
    pub rejected: u32,
    /// Whether the aggregate collapsed to the analytic estimate.
    pub fell_back: bool,
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Median + MAD robust aggregation of one metric's samples.
///
/// Samples farther than `OUTLIER_MADS` robust sigmas from the median are
/// rejected; if more than `MAX_OUTLIER_FRACTION` of the samples go, or no
/// sample survives at all, the aggregate collapses to `analytic` and is
/// flagged `fell_back`. The MAD is robust up to a 50% breakdown point, so
/// contamination beyond the fraction cap is still *detected* (rejected
/// fraction too high) even though the median itself would survive it.
pub fn robust_aggregate(samples: &[f64], analytic: f64) -> Aggregate {
    if samples.is_empty() {
        return Aggregate {
            value: analytic,
            dispersion: 0.0,
            ci_low: analytic,
            ci_high: analytic,
            samples: 0,
            rejected: 0,
            fell_back: true,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let med = median(&sorted);
    let mut dev: Vec<f64> = sorted.iter().map(|v| (v - med).abs()).collect();
    dev.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let mad = median(&dev);
    // MAD of 0 (e.g. all-equal samples) would reject any sample differing
    // at all; floor the scale at a tiny relative epsilon instead.
    let sigma = (1.4826 * mad).max(1e-9 * med.abs());
    let survivors: Vec<f64> = sorted
        .iter()
        .copied()
        .filter(|v| (v - med).abs() <= OUTLIER_MADS * sigma)
        .collect();
    let rejected = (sorted.len() - survivors.len()) as u32;
    let rejected_fraction = rejected as f64 / sorted.len() as f64;
    // With few repetitions the fraction cap alone is too twitchy: at 5
    // reps, two honest heavy-tail outliers already exceed 30% and would
    // quarantine a perfectly measurable launch. Always tolerate up to two
    // rejections; the fraction cap takes over once n is large enough for
    // the fraction to be meaningful.
    let max_fraction = MAX_OUTLIER_FRACTION.max(2.0 / sorted.len() as f64);
    if survivors.is_empty() || rejected_fraction > max_fraction {
        return Aggregate {
            value: analytic,
            dispersion: 0.0,
            ci_low: analytic,
            ci_high: analytic,
            samples: survivors.len() as u32,
            rejected,
            fell_back: true,
        };
    }
    let value = median(&survivors);
    let mut sdev: Vec<f64> = survivors.iter().map(|v| (v - value).abs()).collect();
    sdev.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let ssigma = 1.4826 * median(&sdev);
    let dispersion = if value.abs() > 0.0 {
        ssigma / value.abs()
    } else {
        0.0
    };
    // Standard error of a median ≈ 1.2533 σ/√n; ±1.96 SE gives ~95%.
    let half = 1.96 * 1.2533 * ssigma / (survivors.len() as f64).sqrt();
    Aggregate {
        value,
        dispersion,
        ci_low: value - half,
        ci_high: value + half,
        samples: survivors.len() as u32,
        rejected,
        fell_back: false,
    }
}

/// A [`ProgramProfile`] plus the measurement bookkeeping of the robust run.
#[derive(Debug, Clone)]
pub struct RobustProfile {
    /// The aggregated profile (metadata carries per-launch [`MeasureQuality`]).
    pub profile: ProgramProfile,
    /// Repetitions requested.
    pub reps: u32,
    /// Repetitions abandoned after exhausting retries.
    pub lost_reps: u32,
    /// Transient repetition failures observed (before retry).
    pub transient_failures: u32,
    /// Repetitions that needed at least one retry and then succeeded.
    pub remeasured_reps: u32,
    /// Total virtual backoff accumulated across retries, µs.
    pub virtual_backoff_us: u64,
    /// Final memory image of the one functional run (repetitions only
    /// resample its counters); `None` for an analytic profile.
    pub image: Option<GlobalMemory>,
}

impl RobustProfile {
    /// `(stable, noisy, unreliable)` launch counts.
    pub fn confidence_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for p in &self.profile.metadata.perf {
            match p.measure.confidence {
                Confidence::Stable => counts.0 += 1,
                Confidence::Noisy => counts.1 += 1,
                Confidence::Unreliable => counts.2 += 1,
            }
        }
        counts
    }
}

/// The robust measurement wrapper around [`Profiler`].
#[derive(Debug, Clone)]
pub struct RobustProfiler {
    /// The exact profiler being wrapped.
    pub inner: Profiler,
    /// Measurement repetitions per program (1 = single-shot).
    pub reps: u32,
    /// Synthetic measurement noise, if any.
    pub noise: Option<NoiseModel>,
    /// Fault injection: fail this many repetition attempts (consumed
    /// first, before the noise model's own transient draws) per profile
    /// call. Used by the pipeline's `FaultPlan`.
    pub forced_transients: u32,
}

impl RobustProfiler {
    /// Wrap `inner`, running `reps` repetitions under `noise`.
    pub fn new(inner: Profiler, reps: u32, noise: Option<NoiseModel>) -> RobustProfiler {
        RobustProfiler {
            inner,
            reps: reps.max(1),
            noise,
            forced_transients: 0,
        }
    }

    /// Inject `n` forced transient repetition failures per profile call.
    pub fn with_forced_transients(mut self, n: u32) -> RobustProfiler {
        self.forced_transients = n;
        self
    }

    /// Whether this profiler does anything beyond a single exact profile.
    pub fn is_active(&self) -> bool {
        self.reps > 1 || self.noise.is_some() || self.forced_transients > 0
    }

    /// Robustly profile a program.
    pub fn profile(&self, program: &Program) -> Result<RobustProfile, ProfileError> {
        let plan =
            ExecutablePlan::from_program(program).map_err(|e| ProfileError::msg(e.to_string()))?;
        self.profile_with_plan(program, &plan)
    }

    /// Robustly profile with a pre-computed executable plan.
    pub fn profile_with_plan(
        &self,
        program: &Program,
        plan: &ExecutablePlan,
    ) -> Result<RobustProfile, ProfileError> {
        // The exact inner profile doubles as the analytic fallback.
        let (base, image) = self.inner.profile_with_image(program, plan)?;
        if !self.is_active() {
            return Ok(RobustProfile {
                profile: base,
                reps: 1,
                lost_reps: 0,
                transient_failures: 0,
                remeasured_reps: 0,
                virtual_backoff_us: 0,
                image,
            });
        }

        let n_launches = plan.launches.len();
        let mut transient_failures = 0u32;
        let mut remeasured_reps = 0u32;
        let mut lost_reps = 0u32;
        let mut virtual_backoff_us = 0u64;
        let mut forced = self.forced_transients;
        // samples[seq][metric] — metric index matches `Metric::ALL`.
        let mut samples: Vec<[Vec<f64>; 4]> = vec![Default::default(); n_launches];

        for rep in 0..self.reps {
            // An attempt either fails transiently (forced fault or
            // noise-model draw) or yields a full set of per-launch samples.
            let retried = sf_core::retry::run(
                |attempt| {
                    let fails = if forced > 0 {
                        forced -= 1;
                        true
                    } else {
                        self.noise
                            .as_ref()
                            .is_some_and(|n| n.rep_fails(rep, attempt))
                    };
                    if fails {
                        Err(())
                    } else {
                        Ok(())
                    }
                },
                |_| true,
            );
            virtual_backoff_us += retried.virtual_backoff_us;
            if retried.result.is_err() {
                transient_failures += retried.attempts;
                lost_reps += 1;
                continue;
            }
            transient_failures += retried.attempts - 1;
            if retried.attempts > 1 {
                remeasured_reps += 1;
            }
            for (seq, perf) in base.metadata.perf.iter().enumerate() {
                let truths = [
                    perf.runtime_us,
                    perf.flops as f64,
                    perf.dram_read_bytes as f64,
                    perf.dram_write_bytes as f64,
                ];
                for (mi, metric) in Metric::ALL.into_iter().enumerate() {
                    let sample = match &self.noise {
                        Some(n) => n.sample(rep, seq, metric, truths[mi]),
                        None => Some(truths[mi]),
                    };
                    if let Some(v) = sample {
                        samples[seq][mi].push(v);
                    }
                }
            }
        }

        if lost_reps == self.reps {
            return Err(ProfileError::msg(format!(
                "all {} profiling repetition(s) failed transiently (retries exhausted, {} µs virtual backoff)",
                self.reps, virtual_backoff_us
            )));
        }

        let mut profile = base;
        let mut total_us = 0.0;
        for (seq, launch) in plan.launches.iter().enumerate() {
            let perf = &mut profile.metadata.perf[seq];
            let truths = [
                perf.runtime_us,
                perf.flops as f64,
                perf.dram_read_bytes as f64,
                perf.dram_write_bytes as f64,
            ];
            let aggs: Vec<Aggregate> = (0..4)
                .map(|mi| robust_aggregate(&samples[seq][mi], truths[mi]))
                .collect();
            let fell_back = aggs.iter().any(|a| a.fell_back);
            let rejected: u32 = aggs.iter().map(|a| a.rejected).sum();
            let rt = &aggs[0];
            // Confidence keys on the *runtime* dispersion — that is the
            // quantity the search optimizes and the penalty widens on.
            // The secondary metrics still matter, but only through the
            // fallback flag: a counter that cannot be aggregated at all
            // makes the launch unreliable regardless of runtime scatter.
            let dispersion = rt.dispersion;
            let confidence = if fell_back || dispersion > NOISY_DISPERSION {
                Confidence::Unreliable
            } else if dispersion > STABLE_DISPERSION {
                Confidence::Noisy
            } else {
                Confidence::Stable
            };
            let provenance = if fell_back {
                Provenance::AnalyticFallback
            } else if confidence == Confidence::Unreliable {
                Provenance::Quarantined
            } else if remeasured_reps > 0 {
                Provenance::Remeasured
            } else {
                Provenance::Measured
            };
            perf.runtime_us = rt.value;
            perf.flops = aggs[1].value.round().max(0.0) as u64;
            perf.dram_read_bytes = aggs[2].value.round().max(0.0) as u64;
            perf.dram_write_bytes = aggs[3].value.round().max(0.0) as u64;
            perf.gflops = perf.flops as f64 / rt.value.max(1e-12) / 1e3;
            perf.eff_bw_gbps =
                (perf.dram_read_bytes + perf.dram_write_bytes) as f64 / rt.value.max(1e-12) / 1e3;
            perf.measure = MeasureQuality {
                samples: rt.samples,
                outliers_rejected: rejected,
                dispersion,
                ci_low_us: rt.ci_low,
                ci_high_us: rt.ci_high,
                confidence,
                provenance,
            };
            total_us += rt.value * launch.repeat as f64;
        }
        profile.total_runtime_us = total_us;

        Ok(RobustProfile {
            profile,
            reps: self.reps,
            lost_reps,
            transient_failures,
            remeasured_reps,
            virtual_backoff_us,
            image,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use proptest::prelude::*;
    use sf_minicuda::builder::{jacobi3d_kernel, simple_host};

    fn jacobi_program() -> Program {
        Program {
            kernels: vec![
                jacobi3d_kernel("step1", "u", "v"),
                jacobi3d_kernel("step2", "v", "w"),
            ],
            host: simple_host(
                &["u", "v", "w"],
                &[("step1", vec!["u", "v"]), ("step2", vec!["v", "w"])],
                (64, 32, 16),
                (16, 8),
            ),
        }
    }

    #[test]
    fn single_shot_passthrough_matches_inner_profiler() {
        let p = jacobi_program();
        let inner = Profiler::new(DeviceSpec::k20x());
        let exact = inner.profile(&p).unwrap();
        let robust = RobustProfiler::new(inner, 1, None).profile(&p).unwrap();
        assert_eq!(robust.reps, 1);
        assert_eq!(robust.profile.total_runtime_us, exact.total_runtime_us);
        for (a, b) in robust
            .profile
            .metadata
            .perf
            .iter()
            .zip(&exact.metadata.perf)
        {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn noisy_aggregate_stays_near_the_exact_profile() {
        let p = jacobi_program();
        let inner = Profiler::new(DeviceSpec::k20x());
        let exact = inner.profile(&p).unwrap();
        let robust = RobustProfiler::new(inner, 9, Some(NoiseModel::standard(3)))
            .profile(&p)
            .unwrap();
        for (noisy, truth) in robust
            .profile
            .metadata
            .perf
            .iter()
            .zip(&exact.metadata.perf)
        {
            let rel = (noisy.runtime_us - truth.runtime_us).abs() / truth.runtime_us;
            assert!(
                rel < 0.15,
                "aggregated runtime {} drifted {rel:.2} from exact {}",
                noisy.runtime_us,
                truth.runtime_us
            );
            assert!(noisy.measure.samples > 0);
            assert!(noisy.measure.dispersion > 0.0);
            assert!(noisy.measure.ci_low_us <= noisy.runtime_us);
            assert!(noisy.measure.ci_high_us >= noisy.runtime_us);
        }
        // Noise resamples counters, never the run: the image is the exact one.
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let (_, exact_image) = Profiler::new(DeviceSpec::k20x())
            .profile_with_image(&p, &plan)
            .unwrap();
        assert!(exact_image.is_some());
        assert_eq!(robust.image, exact_image);
    }

    #[test]
    fn robust_profiles_are_seed_deterministic() {
        let p = jacobi_program();
        let mk = || {
            RobustProfiler::new(
                Profiler::new(DeviceSpec::k20x()),
                7,
                Some(NoiseModel::standard(9)),
            )
            .profile(&p)
            .unwrap()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.profile.total_runtime_us, b.profile.total_runtime_us);
        assert_eq!(a.profile.metadata.perf, b.profile.metadata.perf);
        assert_eq!(a.transient_failures, b.transient_failures);
        assert_eq!(a.virtual_backoff_us, b.virtual_backoff_us);
    }

    #[test]
    fn forced_transients_are_retried_with_virtual_backoff() {
        let p = jacobi_program();
        let robust = RobustProfiler::new(Profiler::new(DeviceSpec::k20x()), 3, None)
            .with_forced_transients(2)
            .profile(&p)
            .unwrap();
        assert_eq!(robust.transient_failures, 2);
        assert!(robust.remeasured_reps >= 1);
        assert!(robust.virtual_backoff_us > 0);
        assert_eq!(robust.lost_reps, 0);
    }

    #[test]
    fn exhausted_retries_on_every_rep_lose_the_profile() {
        let p = jacobi_program();
        // One rep, 3 retries → 4 forced failures exhaust it.
        let err = RobustProfiler::new(Profiler::new(DeviceSpec::k20x()), 1, None)
            .with_forced_transients(4)
            .profile(&p)
            .unwrap_err();
        assert!(
            err.message.starts_with(
                "all 1 profiling repetition(s) failed transiently (retries exhausted, 700 µs"
            ),
            "{err}"
        );
    }

    #[test]
    fn aggregation_rejects_outliers() {
        let mut samples = vec![100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8];
        samples.push(600.0); // one wild outlier in 8 samples
        let agg = robust_aggregate(&samples, 42.0);
        assert!(!agg.fell_back);
        assert_eq!(agg.rejected, 1);
        assert!((agg.value - 100.0).abs() < 1.0, "value {}", agg.value);
    }

    #[test]
    fn empty_samples_collapse_to_analytic() {
        let agg = robust_aggregate(&[], 42.0);
        assert!(agg.fell_back);
        assert_eq!(agg.value, 42.0);
        assert_eq!(agg.samples, 0);
    }

    #[test]
    fn all_equal_samples_have_zero_dispersion() {
        let agg = robust_aggregate(&[5.0; 6], 1.0);
        assert!(!agg.fell_back);
        assert_eq!(agg.value, 5.0);
        assert_eq!(agg.dispersion, 0.0);
        assert_eq!(agg.rejected, 0);
    }

    proptest! {
        /// Satellite: with outlier contamination under 30% the aggregation
        /// recovers the true value within tolerance; well beyond 30% it
        /// collapses to the analytic estimate instead of reporting a
        /// contaminated "measurement".
        #[test]
        fn aggregation_recovers_truth_or_falls_back(
            seed in 0u64..500,
            n in 8usize..32,
            // Stay clear of the 30% boundary on both sides so rounding a
            // fraction to a sample count never straddles it (and keep the
            // high case under the median's 50% breakdown point).
            contam in 0u8..2,
        ) {
            let low_contamination = contam == 0;
            let truth = 100.0;
            let analytic = 77.0;
            let noise = NoiseModel::quiet(seed);
            let frac = if low_contamination { 0.15 } else { 0.40 };
            let n_out = ((n as f64) * frac).round() as usize;
            let mut samples: Vec<f64> = (0..n as u32)
                .map(|r| noise.sample(r, 0, Metric::RuntimeUs, truth).unwrap())
                .collect();
            for s in samples.iter_mut().take(n_out) {
                *s *= 8.0; // unmistakable outliers
            }
            let agg = robust_aggregate(&samples, analytic);
            if low_contamination {
                prop_assert!(!agg.fell_back, "fell back at {n_out}/{n} outliers");
                prop_assert!(
                    (agg.value - truth).abs() / truth < 0.10,
                    "recovered {} from truth {truth}", agg.value
                );
            } else {
                prop_assert!(agg.fell_back, "no fallback at {n_out}/{n} outliers");
                prop_assert_eq!(agg.value, analytic);
            }
        }
    }
}
