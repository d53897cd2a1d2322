//! Golden fixture for the functional interpreter: everything a run of
//! [`Interpreter`] lets a caller observe — every numeric [`LaunchStats`]
//! field per static launch, the hazard strings, `steps_used`, and a hash
//! of every array's bits — for the original *and* the transformed program
//! of all eight application analogs (`PipelineConfig::quick` on the K20X,
//! degree cap 4 on the `-ts` pair), with `detect_hazards` off and on and
//! `track_footprint` on.
//!
//! The timing model, the verifier and the step budget are all fed from
//! these values, so an interpreter change that is meant to be a pure
//! speed-up must leave `tests/golden/interp/*.json` untouched.
//!
//! To regenerate after an intentional change to what the interpreter
//! counts: `UPDATE_GOLDEN=1 cargo test --test interp_golden`

use serde_json::{json, Map, Value};
use sf_apps::{AppConfig, APP_NAMES};
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::{GlobalMemory, Interpreter, LaunchStats};
use sf_minicuda::host::ExecutablePlan;
use sf_minicuda::Program;
use std::path::PathBuf;
use stencilfuse::{Pipeline, PipelineConfig};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/interp")
}

/// FNV-1a over the little-endian bit patterns of an array's elements.
fn hash_bits(data: &[f64]) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    format!("{h:016x}")
}

fn launch_json(kernel: &str, s: &LaunchStats) -> Value {
    json!({
        "kernel": kernel,
        "flops": s.flops,
        "global_reads": s.global_reads,
        "global_writes": s.global_writes,
        "shared_reads": s.shared_reads,
        "shared_writes": s.shared_writes,
        "warp_instructions": s.warp_instructions,
        "branch_evals": s.branch_evals,
        "divergent_evals": s.divergent_evals,
        "threads": s.threads,
        "footprint_read_elems": s.footprint_read_elems,
        "footprint_write_elems": s.footprint_write_elems,
        "hazards": s.hazards,
    })
}

/// One functional run of `program` from seeded inputs.
fn run_json(program: &Program, detect_hazards: bool) -> Value {
    let plan = ExecutablePlan::from_program(program).expect("executable plan");
    let mut mem = GlobalMemory::from_plan(&plan);
    mem.seed_all(42);
    let mut interp = Interpreter::new(program);
    interp.track_footprint = true;
    interp.detect_hazards = detect_hazards;
    let stats = interp.run_plan(&plan, &mut mem).expect("program runs");
    let launches: Vec<Value> = plan
        .launches
        .iter()
        .zip(&stats)
        .map(|(l, s)| launch_json(&l.kernel, s))
        .collect();
    let mut arrays = Map::new();
    for name in mem.names() {
        let hash = hash_bits(&mem.get(&name).expect("named array").data);
        arrays.insert(name, Value::String(hash));
    }
    json!({
        "steps_used": interp.steps_used(),
        "launches": launches,
        "arrays": Value::Object(arrays),
    })
}

fn program_json(program: &Program) -> Value {
    json!({
        "hazards_off": run_json(program, false),
        "hazards_on": run_json(program, true),
    })
}

/// Collect `path: golden != actual` for every leaf that differs.
fn diff(path: &str, golden: &Value, actual: &Value, out: &mut Vec<String>) {
    match (golden, actual) {
        (Value::Object(g), Value::Object(a)) => {
            for key in g.keys().chain(a.keys().filter(|k| !g.contains_key(*k))) {
                let at = format!("{path}.{key}");
                match (g.get(key), a.get(key)) {
                    (Some(gv), Some(av)) => diff(&at, gv, av, out),
                    (Some(_), None) => out.push(format!("{at}: missing from this run")),
                    (None, _) => out.push(format!("{at}: not in the golden")),
                }
            }
        }
        (Value::Array(g), Value::Array(a)) => {
            if g.len() != a.len() {
                out.push(format!("{path}: {} entries, golden has {}", a.len(), g.len()));
            }
            for (n, (gv, av)) in g.iter().zip(a).enumerate() {
                diff(&format!("{path}[{n}]"), gv, av, out);
            }
        }
        _ if golden != actual => out.push(format!("{path}: golden {golden}, this run {actual}")),
        _ => {}
    }
}

/// One analog's observables against its golden (or the golden rewritten).
fn check_app(name: &str, update: bool) -> Vec<String> {
    let app = sf_apps::app_by_name(name, &AppConfig::test()).expect("registered analog");
    let mut config = PipelineConfig::quick(DeviceSpec::k20x());
    if name.ends_with("-ts") {
        config = config.with_max_temporal(4);
    }
    let result = Pipeline::new(app.program.clone(), config)
        .expect("valid program")
        .run()
        .expect("pipeline completes");
    let actual = json!({
        "app": name,
        "original": program_json(&app.program),
        "transformed": program_json(&result.program),
    });

    let path = golden_dir().join(format!("{name}.json"));
    if update {
        std::fs::create_dir_all(golden_dir()).expect("mkdir tests/golden/interp");
        let text = serde_json::to_string_pretty(&actual).expect("serializable");
        std::fs::write(&path, text + "\n").expect("write golden");
        return Vec::new();
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden `{}` unreadable ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let golden: Value = serde_json::from_str(&text).expect("golden parses");
    let mut failures = Vec::new();
    diff(name, &golden, &actual, &mut failures);
    failures
}

#[test]
fn interpreter_observables_match_goldens() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    // The analogs are independent: one thread each.
    let failures: Vec<String> = std::thread::scope(|scope| {
        let apps: Vec<_> = APP_NAMES
            .iter()
            .map(|name| scope.spawn(move || check_app(name, update)))
            .collect();
        apps.into_iter()
            .flat_map(|app| app.join().expect("analog thread panicked"))
            .collect()
    });
    assert!(
        failures.is_empty(),
        "the interpreter's observables moved ({} field(s)):\n{}",
        failures.len(),
        failures.iter().take(40).cloned().collect::<Vec<_>>().join("\n")
    );
}
