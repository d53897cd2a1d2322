//! Domain scenario: the Fluam filtering anomaly (§6.2.2, Figure 8).
//!
//! ```sh
//! cargo run --release --example guided_filtering
//! ```
//!
//! A handful of Fluam kernels have "latency problems (poor computation and
//! memory overlapping)": the roofline test sees low operational intensity
//! and keeps them as fusion targets, inflating the search space. The
//! programmer-guided transformation amends the filter decisions — exactly
//! the intervention hook the pipeline exposes — and recovers convergence.

use sf_analysis::filter::FilterReason;
use sf_analysis::roofline;
use sf_apps::{fluam, AppConfig};
use sf_gpusim::device::DeviceSpec;
use stencilfuse::{Interventions, Pipeline, PipelineConfig};

fn main() {
    let app = fluam::build(&AppConfig::test());

    // Automated filter: latency-bound kernels slip through.
    let auto = Pipeline::new(
        app.program.clone(),
        PipelineConfig::quick(DeviceSpec::k20x()),
    )
    .expect("valid program")
    .run()
    .expect("automated run");
    let auto_targets = auto.decisions.iter().filter(|d| d.is_target()).count();
    let md = auto.metadata.as_ref().expect("metadata");
    let slipped: Vec<&str> = auto
        .decisions
        .iter()
        .zip(&md.perf)
        .filter(|(d, p)| d.is_target() && roofline::is_latency_bound(p, &md.device, 4.0))
        .map(|(d, _)| d.kernel.as_str())
        .collect();
    println!(
        "automated filter kept {auto_targets} targets; latency-bound kernels that \
         slipped through: {slipped:?}"
    );

    // Programmer-guided: amend the decisions file before the search stage.
    let hooks = Interventions {
        amend_decisions: Some(Box::new(|ds| {
            for d in ds.iter_mut() {
                if d.kernel.starts_with("bond_") {
                    d.reason = FilterReason::LatencyBound;
                }
            }
        })),
        ..Interventions::default()
    };
    let guided = Pipeline::new(
        app.program.clone(),
        PipelineConfig::quick(DeviceSpec::k20x()),
    )
    .expect("valid program")
    .run_with(&hooks)
    .expect("guided run");
    let guided_targets = guided.decisions.iter().filter(|d| d.is_target()).count();

    println!(
        "guided filter kept {guided_targets} targets; speedup {:.3}x vs automated {:.3}x",
        guided.speedup, auto.speedup
    );
    assert!(guided_targets < auto_targets);
    assert!(auto.verification.unwrap().passed());
    assert!(guided.verification.unwrap().passed());
}
