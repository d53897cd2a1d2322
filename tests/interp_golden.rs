//! Golden fixture for the functional interpreter: everything a run of
//! [`Interpreter`] lets a caller observe — every numeric [`LaunchStats`]
//! field per static launch, the hazard strings, `steps_used`, and a hash
//! of every array's bits — for the original *and* the transformed program
//! of all eight application analogs (`PipelineConfig::quick` on the K20X,
//! degree cap 4 on the `-ts` pair), with `detect_hazards` off and on and
//! `track_footprint` on.
//!
//! `edges.json` pins the same observables — plus the trap message and the
//! memory image a trapping run leaves — for small kernels built around the
//! corners the analogs never reach: a fault at a non-lowest lane, loads
//! under an untaken ternary arm, more than 16 hazards in one launch, shared
//! races inside one statement, compound stores, a name declared with two
//! types, integer negation, mixed int/float arithmetic and NaN-producing
//! intrinsics.
//!
//! The timing model, the verifier and the step budget are all fed from
//! these values, so an interpreter change that is meant to be a pure
//! speed-up must leave `tests/golden/interp/*.json` untouched. (A change
//! to the transformed programs moves their half: the block tuner's move to
//! modelled time re-blessed the six spatial analogs.)
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

/// One functional run of `program` from seeded inputs. A run that traps
/// records the message in place of the launches (and the image it left).
fn run_json(program: &Program, detect_hazards: bool) -> Value {
    let plan = ExecutablePlan::from_program(program).expect("executable plan");
    let mut mem = GlobalMemory::from_plan(&plan);
    mem.seed_all(42);
    let mut interp = Interpreter::new(program);
    interp.track_footprint = true;
    interp.detect_hazards = detect_hazards;
    let outcome = match interp.run_plan(&plan, &mut mem) {
        Ok(stats) => {
            let launches: Vec<Value> = plan
                .launches
                .iter()
                .zip(&stats)
                .map(|(l, s)| launch_json(&l.kernel, s))
                .collect();
            ("launches", Value::Array(launches))
        }
        Err(e) => ("error", Value::String(e.to_string())),
    };
    let mut arrays = Map::new();
    for name in mem.names() {
        let hash = hash_bits(&mem.get(&name).expect("named array").data);
        arrays.insert(name, Value::String(hash));
    }
    let mut run = Map::new();
    run.insert("steps_used".into(), json!(interp.steps_used()));
    run.insert(outcome.0.into(), outcome.1);
    run.insert("arrays".into(), Value::Object(arrays));
    Value::Object(run)
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
                out.push(format!(
                    "{path}: {} entries, golden has {}",
                    a.len(),
                    g.len()
                ));
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
    check_golden(name, &actual, update)
}

/// `actual` against `tests/golden/interp/<name>.json` (or the golden
/// rewritten); returns the differing fields.
fn check_golden(name: &str, actual: &Value, update: bool) -> Vec<String> {
    let path = golden_dir().join(format!("{name}.json"));
    if update {
        std::fs::create_dir_all(golden_dir()).expect("mkdir tests/golden/interp");
        let text = serde_json::to_string_pretty(actual).expect("serializable");
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
    diff(name, &golden, actual, &mut failures);
    failures
}

/// The edge-case kernels: `(case, body, launch, n)`. Every body runs as
/// `k(double* a, double* b, double* c, int n, double x)` over three
/// `n`-element arrays with `x = 0.5`; `i` is the global thread index.
const EDGES: &[(&str, &str, &str, usize)] = &[
    (
        "oob_store_at_a_non_lowest_lane_in_a_divergent_if",
        "c[i] = 2.0 * i;\n  if (i % 3 == 1) { a[i + 50] = b[i] + 1.0; }",
        "1, 64",
        64,
    ),
    (
        "oob_load_at_a_non_lowest_lane_in_a_divergent_if",
        "c[i] = -1.0;\n  if (i > 20 && i % 2 == 0) { c[i] = a[i] * a[i + 41]; }",
        "1, 64",
        64,
    ),
    (
        "oob_under_a_false_ternary_arm",
        "a[i] = (i < 60) ? b[i + 4] : b[i - 60];\n  \
         c[i] = (i >= 64) ? b[i - 64] : -b[i];\n  \
         b[(i < 32) ? i : i + 64 - 64] = (a[i] > 0.0) ? a[i] : c[(i > 70) ? i + 1000 : 0];\n  \
         c[i] += (a[i] > 2.0) ? a[i + 1000] : ((i < 99) ? a[i] : a[-1]);",
        "1, 64",
        64,
    ),
    (
        "shared_oob_at_the_last_lane",
        "__shared__ double s[64];\n  s[i + 1] = a[i];",
        "1, 64",
        64,
    ),
    (
        "int_division_by_zero_at_a_non_lowest_lane",
        "a[i] = 70 % (i + 1);\n  int q = 70 / (i - 9);\n  b[i] = q;",
        "1, 32",
        32,
    ),
    (
        "float_index_traps",
        "if (i > 3) { a[x] = 1.0; }",
        "1, 32",
        32,
    ),
    (
        "logical_op_on_float_traps",
        "b[i] = a[i] * 2.0;\n  if (i == 5) { c[i] = a[i] && 1; }",
        "1, 32",
        32,
    ),
    (
        "more_than_16_cross_block_hazards",
        "a[i] += a[(i + 96) % n] + a[(i + 97) % n];\n  b[i] = a[(i + 64) % n];",
        "4, 32",
        128,
    ),
    (
        "shared_raw_and_war_inside_one_statement",
        "__shared__ double s[64];\n  s[i] = a[i];\n  __syncthreads();\n  \
         s[63 - i] = s[i] + 1.0;\n  __syncthreads();\n  b[i] = s[i];",
        "1, 64",
        64,
    ),
    (
        "shared_write_write_inside_one_statement",
        "__shared__ double s[64];\n  s[i % 32] = a[i];\n  __syncthreads();\n  \
         s[i] = 0.0;\n  __syncthreads();\n  s[(i + 1) % 64] += s[i % 32] * 2.0;\n  \
         __syncthreads();\n  b[i] = s[i];",
        "1, 64",
        64,
    ),
    (
        "compound_assignment_on_global_and_shared",
        "__shared__ double s[64];\n  a[i] += b[i];\n  a[i] -= 0.25;\n  b[i % 16] *= 2.0;\n  \
         a[i] += i;\n  s[i] = a[i];\n  s[i] += 1.0;\n  s[i] -= b[i % 16];\n  s[i] *= 3;\n  \
         __syncthreads();\n  c[i] = s[63 - i];",
        "1, 64",
        64,
    ),
    (
        "a_name_declared_int_and_double",
        "int m = i + 1;\n  m = m * 2.5;\n  a[m % 64] = m;\n  \
         if (i > 10) { double m = 0.5 * i; m += 1; b[i] = m; }\n  c[i] = m;",
        "1, 64",
        64,
    ),
    (
        "unary_minus_on_an_int_counts_a_flop",
        "int k = -i;\n  a[i] = -k + -(i * 2);\n  b[i] = -a[i];\n  c[-k] = -(-x);",
        "1, 64",
        64,
    ),
    (
        "mixed_int_and_float_arithmetic",
        "double h = x * i + (i / 3) - 2 * b[i];\n  \
         a[i] = h / (i + 1) + (i % 5) * 0.5 - (i < 32) + !(h > 0.0);\n  \
         c[i] = 7 / 2 * x + 1.5 % 1.0 + (h != h) + !h + (b[i] <= i);\n  \
         double t = (i > 16) ? h : 3;\n  b[i] = t * 2;",
        "1, 64",
        64,
    ),
    (
        "nan_producing_intrinsics",
        "a[i] = sqrt(-1.0 - i) + a[i];\n  \
         b[i] = log(0.0 * i) + pow(b[i], 0.5) + pow(2.0, i) + pow(b[i], -1.0 * i);\n  \
         c[i] = fma(a[i], b[i], c[i]) + min(a[i], 1.0) + max(1.0, a[i]);\n  \
         double nan = 0.0 / 0.0;\n  \
         b[i] = fabs(-c[i]) + exp(b[i] * 100.0) + sin(x * i) * cos(nan) + min(nan, 2.0);\n  \
         a[i] = (nan > 0.0) ? 1.0 : ((nan != nan) ? 2.0 + fma(x, i, 1.0) : 3.0);",
        "1, 64",
        64,
    ),
    (
        "nan_signs_through_commutative_ops_and_compound_stores",
        "__shared__ double s[64];\n  double p = 0.0 / 0.0;\n  double q = -p;\n  \
         a[i] = (i % 2 == 0) ? p + q : q * p;\n  b[i] = (i % 3 == 0) ? p : q;\n  \
         b[i] += (i % 2 == 0) ? q : p;\n  c[i] = p;\n  c[i] *= q;\n  c[i] -= p;\n  \
         s[i] = q;\n  s[i] += p;\n  s[i] *= (i < 32) ? q : p;\n  __syncthreads();\n  \
         a[i] += s[63 - i] + min(p, q) + max(q, p) + fma(p, q, a[i]) + x * p;\n  \
         c[i] = (i > 40) ? c[i] * b[i] : b[i] * c[i];",
        "1, 64",
        64,
    ),
    (
        "float_locals_and_a_reassigned_float_parameter",
        "double d;\n  d += x;\n  x = x * i + d;\n  float f = x;\n  f *= 2;\n  \
         d = i / 2;\n  if (i % 4 == 0) { f = -f; x = a[i]; }\n  a[i] = x + f + d;\n  \
         b[i] = (f < d) ? f : d;",
        "2, 32",
        64,
    ),
    (
        "loops_float_conditions_and_early_return",
        "if (i >= n - 5) { return; }\n  double acc = 0.0;\n  \
         for (int k = 0; k < 4; k++) { acc += a[(i + k) % n] * x; }\n  \
         if (a[i]) { b[i] = acc; } else { b[i] = -acc; }\n  \
         if (acc > 0.0) { return; }\n  c[i] = acc * acc;",
        "1, 64",
        64,
    ),
];

fn edge_program(body: &str, launch: &str, n: usize) -> Program {
    let source = format!(
        "__global__ void k(double* a, double* b, double* c, int n, double x) {{\n  \
         int i = blockIdx.x * blockDim.x + threadIdx.x;\n  {body}\n}}\n\
         void host() {{\n  int n = {n};\n  double* a = cudaAlloc1D(n);\n  \
         double* b = cudaAlloc1D(n);\n  double* c = cudaAlloc1D(n);\n  \
         k<<<{launch}>>>(a, b, c, n, 0.5);\n}}\n"
    );
    sf_minicuda::parse_program(&source)
        .unwrap_or_else(|e| panic!("edge case parses: {e}\n{source}"))
}

#[test]
fn edge_cases_match_golden() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut cases = Map::new();
    for (case, body, launch, n) in EDGES {
        cases.insert(
            case.to_string(),
            program_json(&edge_program(body, launch, *n)),
        );
    }
    let failures = check_golden("edges", &Value::Object(cases), update);
    assert!(
        failures.is_empty(),
        "the interpreter's edge-case observables moved ({} field(s)):\n{}",
        failures.len(),
        failures
            .iter()
            .take(40)
            .cloned()
            .collect::<Vec<_>>()
            .join("\n")
    );
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
        failures
            .iter()
            .take(40)
            .cloned()
            .collect::<Vec<_>>()
            .join("\n")
    );
}
