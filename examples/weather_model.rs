//! Domain scenario: transforming a weather-model dynamical core.
//!
//! ```sh
//! cargo run --release --example weather_model
//! ```
//!
//! Uses the SCALE-LES analog (the paper's headline application: 142
//! kernels, 63 arrays at full scale) and demonstrates the programmer-guided
//! workflow of §3.2: run stage by stage, inspect the DOT graphs and stage
//! reports, amend the GA parameter file, and compare automated vs guided
//! outcomes.

use sf_apps::{scale_les, AppConfig};
use sf_gpusim::device::DeviceSpec;
use stencilfuse::{Interventions, Pipeline, PipelineConfig, Stage};

fn main() {
    // Scaled-down instance so the example runs in seconds.
    let app = scale_les::build(&AppConfig::test());
    println!(
        "app: {} ({} kernels, analog of the paper's 142-kernel model)",
        app.paper.name,
        app.program.kernels.len()
    );

    // --- Step 1: run only the analysis stages (metadata → graphs) and look
    // at what the framework learned, exactly as a programmer would.
    let mut probe_cfg = PipelineConfig::quick(DeviceSpec::k20x());
    probe_cfg.run_until = Some(Stage::Graphs);
    let probe = Pipeline::new(app.program.clone(), probe_cfg).expect("valid program");
    let partial = probe.run().expect("analysis stages run");
    for r in &partial.reports {
        print!("{r}");
    }
    println!(
        "DDG DOT is {} bytes; render it with `dot -Tpng` to inspect dependencies",
        partial.ddg_dot.len()
    );

    // --- Step 2: fully automated transformation.
    let auto = Pipeline::new(
        app.program.clone(),
        PipelineConfig::quick(DeviceSpec::k20x()),
    )
    .expect("valid program")
    .run()
    .expect("automated run");
    println!(
        "automated:          speedup {:.3}x, {} launches -> {}",
        auto.speedup,
        app.program.static_launches().len(),
        auto.program.static_launches().len()
    );

    // --- Step 3: programmer-guided run: give the GA a larger budget via
    // the parameter file and use the expert code generator (the §6.2.2
    // interventions that closed the auto-vs-manual gap).
    let guided_cfg = PipelineConfig::quick(DeviceSpec::k20x()).manual_oracle();
    let hooks = Interventions {
        amend_search_config: Some(Box::new(|sc: &mut sf_search::SearchConfig| {
            sc.population = 48;
            sc.generations = 120;
        })),
        ..Interventions::default()
    };
    let guided = Pipeline::new(app.program.clone(), guided_cfg)
        .expect("valid program")
        .run_with(&hooks)
        .expect("guided run");
    println!(
        "programmer-guided:  speedup {:.3}x, {} launches -> {}",
        guided.speedup,
        app.program.static_launches().len(),
        guided.program.static_launches().len()
    );

    assert!(auto.verification.unwrap().passed());
    assert!(guided.verification.unwrap().passed());
    println!(
        "guided / automated speedup ratio: {:.2}",
        guided.speedup / auto.speedup
    );
}
