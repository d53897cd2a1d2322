//! Sanity of the generated application programs: they are valid minicuda
//! (round-trip through the printer), every kernel is analyzable by the
//! access analysis, and the filter sees the intended kernel classes.

use sf_analysis::filter::{identify_targets, FilterConfig, FilterReason};
use sf_apps::{all_apps, AppConfig};
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::profiler::Profiler;
use sf_minicuda::host::ExecutablePlan;

#[test]
fn all_apps_round_trip_through_printer() {
    for cfg in [AppConfig::test(), AppConfig::full()] {
        for app in all_apps(&cfg) {
            let back = sf_minicuda::reparse(&app.program)
                .unwrap_or_else(|e| panic!("{}: {e}", app.paper.name));
            assert_eq!(back, app.program, "{}", app.paper.name);
        }
    }
}

#[test]
fn all_kernels_are_analyzable() {
    for app in all_apps(&AppConfig::full()) {
        for k in &app.program.kernels {
            sf_analysis::access::KernelAccess::analyze(k)
                .unwrap_or_else(|e| panic!("{}::{}: {e}", app.paper.name, k.name));
        }
    }
}

#[test]
fn apps_execute_functionally_without_hazards() {
    for app in all_apps(&AppConfig::test()) {
        let plan = ExecutablePlan::from_program(&app.program).expect("plan");
        let mut mem = sf_gpusim::GlobalMemory::from_plan(&plan);
        mem.seed_all(3);
        let stats = sf_gpusim::Interpreter::new(&app.program)
            .run_plan(&plan, &mut mem)
            .unwrap_or_else(|e| panic!("{}: {e}", app.paper.name));
        for s in &stats {
            assert!(s.hazards.is_empty(), "{}: {:?}", app.paper.name, s.hazards);
        }
    }
}

#[test]
fn filter_sees_intended_kernel_classes() {
    let device = DeviceSpec::k20x();
    for app in all_apps(&AppConfig::test()) {
        let plan = ExecutablePlan::from_program(&app.program).expect("plan");
        let profile = Profiler::new(device.clone())
            .profile_with_plan(&app.program, &plan)
            .expect("profile");
        let decisions = identify_targets(
            &profile.metadata.perf,
            &profile.metadata.ops,
            &profile.metadata.device,
            &FilterConfig::default(),
        );
        // Every compute_bound archetype must be classified ComputeBound;
        // every boundary archetype Boundary.
        for d in &decisions {
            let k = &d.kernel;
            if k.starts_with("mp_")
                || k.starts_with("noise_")
                || k.starts_with("eos_")
                || k.starts_with("phys_")
                || k.starts_with("disp_")
                || k.starts_with("stf")
                || k.starts_with("media")
            {
                assert_eq!(
                    d.reason,
                    FilterReason::ComputeBound,
                    "{}::{k} should be compute-bound (OI {:.2})",
                    app.paper.name,
                    d.oi
                );
            }
            if k.starts_with("bnd_")
                || k.starts_with("pack_")
                || k.starts_with("cell_")
                || k.starts_with("wall_")
                || k.starts_with("obc_")
                || k.starts_with("pml_")
                || k.starts_with("abc_")
            {
                assert_eq!(
                    d.reason,
                    FilterReason::Boundary,
                    "{}::{k} should be a boundary kernel",
                    app.paper.name
                );
            }
        }
    }
}

#[test]
fn fluam_latency_kernels_fool_only_the_auto_filter() {
    let device = DeviceSpec::k20x();
    let app = sf_apps::fluam::build(&AppConfig::full());
    let plan = ExecutablePlan::from_program(&app.program).expect("plan");
    let profile = Profiler::analytic(device.clone())
        .profile_with_plan(&app.program, &plan)
        .expect("profile");
    let auto = identify_targets(
        &profile.metadata.perf,
        &profile.metadata.ops,
        &profile.metadata.device,
        &FilterConfig::default(),
    );
    let guided = identify_targets(
        &profile.metadata.perf,
        &profile.metadata.ops,
        &profile.metadata.device,
        &FilterConfig {
            detect_latency_bound: true,
        },
    );
    let bond_auto = auto
        .iter()
        .filter(|d| d.kernel.starts_with("bond_") && d.is_target())
        .count();
    let bond_guided = guided
        .iter()
        .filter(|d| d.kernel.starts_with("bond_") && d.is_target())
        .count();
    assert!(bond_auto > 0, "auto filter must keep the latency kernels");
    assert_eq!(bond_guided, 0, "guided filter must exclude them");
}
