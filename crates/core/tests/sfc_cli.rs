//! End-to-end tests of the `sfc` command-line transformer.

use std::process::Command;

const DEMO: &str = r#"
__global__ void flux(const double* __restrict__ q, double* f, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) { f[k][j][i] = 0.5 * q[k][j][i] * q[k][j][i]; }
  }
}
__global__ void upd(const double* __restrict__ f, double* d, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
    for (int k = 0; k < nz; k++) { d[k][j][i] = f[k][j][i+1] - f[k][j][i-1]; }
  }
}
void host() {
  int nx = 64; int ny = 32; int nz = 8;
  double* q = cudaAlloc3D(nz, ny, nx);
  double* f = cudaAlloc3D(nz, ny, nx);
  double* d = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(q);
  flux<<<dim3(4, 4), dim3(16, 8)>>>(q, f, nx, ny, nz);
  upd<<<dim3(4, 4), dim3(16, 8)>>>(f, d, nx, ny, nz);
  cudaMemcpyD2H(d);
}
"#;

fn sfc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sfc"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sfc-cli-tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

#[test]
fn transforms_emits_artifacts_and_verifies() {
    let input = tmp("demo.cu");
    std::fs::write(&input, DEMO).unwrap();
    let out_cu = tmp("demo_fused.cu");
    let ddg = tmp("demo_ddg.dot");
    let md = tmp("demo_md.json");
    let status = sfc()
        .args([
            input.to_str().unwrap(),
            "--quick",
            "-o",
            out_cu.to_str().unwrap(),
            "--emit-ddg",
            ddg.to_str().unwrap(),
            "--emit-metadata",
            md.to_str().unwrap(),
        ])
        .status()
        .expect("sfc runs");
    assert!(status.success());
    let fused = std::fs::read_to_string(&out_cu).unwrap();
    assert!(fused.contains("__global__ void fused_0"));
    // Generated source is valid minicuda.
    sf_minicuda::parse_program(&fused).expect("emitted source parses");
    let dot = std::fs::read_to_string(&ddg).unwrap();
    assert!(dot.starts_with("digraph DDG"));
    let bundle: sf_analysis::metadata::MetadataBundle =
        serde_json::from_str(&std::fs::read_to_string(&md).unwrap()).unwrap();
    assert_eq!(bundle.perf.len(), 2);
}

/// Runs `sfc` on DEMO with `args` and returns its `-o` output.
fn demo_output(name: &str, args: &[&str]) -> String {
    let input = tmp(&format!("{name}.cu"));
    std::fs::write(&input, DEMO).unwrap();
    let out = tmp(&format!("{name}_out.cu"));
    let status = sfc()
        .arg(&input)
        .args(args)
        .arg("-o")
        .arg(&out)
        .status()
        .expect("sfc runs");
    assert!(status.success(), "sfc {args:?}");
    std::fs::read_to_string(&out).unwrap()
}

#[test]
fn metadata_round_trip_via_cli() {
    let md = tmp("demo2_md.json");
    let md = md.to_str().unwrap();
    let direct = demo_output("demo2_direct", &["--quick"]);
    // First run: metadata only. Second run: from the emitted metadata.
    demo_output(
        "demo2_md",
        &["--quick", "--until", "metadata", "--emit-metadata", md],
    );
    let replayed = demo_output("demo2_replay", &["--quick", "--metadata", md]);
    assert_eq!(replayed, direct, "the round trip changed the output");
    // A bundle an older build wrote, with operations metadata fields this
    // build no longer reads, still loads and gives the same output.
    let frozen = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/compat/demo.metadata.json"
    );
    let old = demo_output("demo2_frozen", &["--quick", "--metadata", frozen]);
    assert_eq!(old, direct, "the frozen bundle changed the output");
}

#[test]
fn rejects_bad_input_with_parse_exit_code() {
    let input = tmp("bad.cu");
    std::fs::write(&input, "__global__ void broken(").unwrap();
    let status = sfc()
        .arg(input.to_str().unwrap())
        .output()
        .expect("sfc runs");
    assert_eq!(status.status.code(), Some(3), "parse errors exit with 3");
    let err = String::from_utf8_lossy(&status.stderr);
    assert!(err.contains("sfc:"), "{err}");
    // The diagnostic includes a caret snippet pointing into the source.
    assert!(err.contains("-->"), "{err}");
    assert!(err.contains('^'), "{err}");
}

#[test]
fn usage_errors_exit_with_2() {
    let status = sfc().arg("--no-such-flag").output().expect("sfc runs");
    assert_eq!(status.status.code(), Some(2));

    let status = sfc()
        .arg(tmp("does-not-exist.cu").to_str().unwrap())
        .output()
        .expect("sfc runs");
    assert_eq!(
        status.status.code(),
        Some(2),
        "unreadable input exits with 2"
    );
}

#[test]
fn strict_flag_is_accepted_on_a_clean_program() {
    let input = tmp("demo_strict.cu");
    std::fs::write(&input, DEMO).unwrap();
    let out = sfc()
        .args([
            input.to_str().unwrap(),
            "--quick",
            "--strict",
            "-o",
            tmp("demo_strict_fused.cu").to_str().unwrap(),
        ])
        .output()
        .expect("sfc runs");
    assert_eq!(out.status.code(), Some(0));
    // A clean run degrades nothing, so strict mode reports nothing.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("degraded"), "{err}");
}

#[test]
fn plan_replay_reproduces_output_byte_for_byte() {
    let input = tmp("demo_plan.cu");
    std::fs::write(&input, DEMO).unwrap();
    let direct = tmp("demo_plan_direct.cu");
    let plan = tmp("demo_plan.json");
    // Direct run: search, transform, and emit the as-executed plan.
    let status = sfc()
        .args([
            input.to_str().unwrap(),
            "--quick",
            "-o",
            direct.to_str().unwrap(),
            "--emit-plan",
            plan.to_str().unwrap(),
        ])
        .status()
        .expect("sfc runs");
    assert!(status.success());
    // The emitted plan parses, validates, and records the transformation.
    let tplan = sf_codegen::TransformPlan::from_json(&std::fs::read_to_string(&plan).unwrap())
        .expect("emitted plan parses");
    assert!(!tplan.groups.is_empty());
    // Replay: no search, byte-identical output.
    let replay = tmp("demo_plan_replay.cu");
    let status = sfc()
        .args([
            input.to_str().unwrap(),
            "--quick",
            "--from-plan",
            plan.to_str().unwrap(),
            "-o",
            replay.to_str().unwrap(),
        ])
        .status()
        .expect("sfc runs");
    assert!(status.success());
    assert_eq!(
        std::fs::read_to_string(&direct).unwrap(),
        std::fs::read_to_string(&replay).unwrap(),
        "replayed output must be byte-identical to the direct run"
    );

    // A corrupt plan file is a usage error (exit 2).
    let bad = tmp("demo_plan_bad.json");
    std::fs::write(&bad, "{ not json").unwrap();
    let out = sfc()
        .args([
            input.to_str().unwrap(),
            "--from-plan",
            bad.to_str().unwrap(),
        ])
        .output()
        .expect("sfc runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn emit_params_writes_what_a_default_run_searches_with() {
    use sf_gpusim::device::DeviceSpec;
    use stencilfuse::{Pipeline, PipelineConfig};
    let path = tmp("params.json");
    let status = sfc()
        .args(["--emit-params", path.to_str().unwrap()])
        .status()
        .expect("sfc runs");
    assert!(status.success());
    let cfg: sf_search::SearchConfig =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let default = PipelineConfig::automated(DeviceSpec::k20x());
    assert_eq!(cfg, default.search_config());
    // The stamped settings are the ones the plan of a default run carries.
    let program = sf_minicuda::parse_program(DEMO).unwrap();
    let run = Pipeline::new(program, default).unwrap().run().unwrap();
    let plan = run.planned().expect("a default run searches");
    assert_eq!((cfg.block_tuning, cfg.mode), (plan.block_tuning, plan.mode));
    assert!(cfg.block_tuning, "a default run tunes");
}

#[test]
fn noisy_profiling_is_deterministic_across_cli_runs() {
    let input = tmp("demo_noise.cu");
    std::fs::write(&input, DEMO).unwrap();
    let mut outputs = Vec::new();
    let mut plans = Vec::new();
    for run in 0..2 {
        let out = tmp(&format!("demo_noise_{run}.cu"));
        let plan = tmp(&format!("demo_noise_{run}_plan.json"));
        let status = sfc()
            .args([
                input.to_str().unwrap(),
                "--quick",
                "--profile-reps",
                "5",
                "--noise-seed",
                "1234",
                "-o",
                out.to_str().unwrap(),
                "--emit-plan",
                plan.to_str().unwrap(),
            ])
            .status()
            .expect("sfc runs");
        assert!(status.success());
        outputs.push(std::fs::read_to_string(&out).unwrap());
        plans.push(std::fs::read_to_string(&plan).unwrap());
    }
    assert_eq!(
        outputs[0], outputs[1],
        "same noise seed, different programs"
    );
    assert_eq!(plans[0], plans[1], "same noise seed, different plans");

    // Bad values are usage errors.
    let out = sfc()
        .args([input.to_str().unwrap(), "--profile-reps", "lots"])
        .output()
        .expect("sfc runs");
    assert_eq!(out.status.code(), Some(2));
    let out = sfc()
        .args([input.to_str().unwrap(), "--noise-seed", "-3"])
        .output()
        .expect("sfc runs");
    assert_eq!(out.status.code(), Some(2));
}

/// `--cache-dir` runs the batch driver's ladder: a cold run publishes, a
/// warm run replays the same bytes, a damaged entry is quarantined and
/// recompiled (exit 8), and a store that cannot be opened only costs the
/// cache, never the compile.
#[test]
fn cache_dir_serves_recovers_and_degrades() {
    let input = tmp("cache_demo.cu");
    std::fs::write(&input, DEMO).unwrap();
    let cache = tmp("cache_demo_store");
    let _ = std::fs::remove_dir_all(&cache);
    let compile = |tag: &str, cache_dir: &std::path::Path| {
        let out = tmp(&format!("cache_demo_{tag}.cu"));
        let plan = tmp(&format!("cache_demo_{tag}.json"));
        let run = sfc()
            .args([input.to_str().unwrap(), "--quick", "--cache-dir"])
            .arg(cache_dir)
            .arg("-o")
            .arg(&out)
            .arg("--emit-plan")
            .arg(&plan)
            .output()
            .expect("sfc runs");
        let stderr = String::from_utf8_lossy(&run.stderr).into_owned();
        let bytes = (std::fs::read(&out).unwrap(), std::fs::read(&plan).unwrap());
        (run.status.code(), bytes, stderr)
    };

    let (code, cold, stderr) = compile("cold", &cache);
    assert_eq!(code, Some(0), "{stderr}");
    let entries: Vec<_> = std::fs::read_dir(cache.join("entries"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 1, "the cold run published one entry");

    let (code, warm, stderr) = compile("warm", &cache);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(warm, cold, "a warm run replays the cold run's bytes");

    // Flip one bit in the middle of the entry: checksum-detected, the
    // entry is quarantined and the program recompiled to the same bytes.
    let mut bytes = std::fs::read(&entries[0]).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x01;
    std::fs::write(&entries[0], bytes).unwrap();
    let (code, recovered, stderr) = compile("flipped", &cache);
    assert_eq!(code, Some(8), "{stderr}");
    assert!(stderr.contains("sfc: quarantined cache entry"), "{stderr}");
    assert_eq!(recovered, cold);
    assert_eq!(
        std::fs::read_dir(cache.join("quarantine")).unwrap().count(),
        1
    );
    // The recompile republished: the next run is a clean hit again.
    let (code, again, _) = compile("again", &cache);
    assert_eq!((code, again), (Some(0), cold.clone()));

    // A store path under a regular file cannot be created.
    let (code, uncached, stderr) = compile("nostore", &input.join("store"));
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("sfc: cannot open cache"), "{stderr}");
    assert_eq!(uncached, cold);
}

/// One precedence rule: the preset (`--quick`) < the parameter file
/// (`--params`) < explicit flags, wherever on the command line each sits.
/// The `--islands` case ran the file's one island before the front end
/// had a single config builder.
#[test]
fn explicit_flags_override_the_parameter_file_which_overrides_quick() {
    let input = tmp("demo_precedence.cu");
    std::fs::write(&input, DEMO).unwrap();
    // The default parameter file with a budget neither preset has.
    let params = tmp("demo_precedence_ga.json");
    let file = sf_search::SearchConfig {
        generations: 7,
        stagnation_window: 0,
        max_temporal: 2,
        ..sf_search::SearchConfig::default()
    };
    std::fs::write(&params, serde_json::to_string_pretty(&file).unwrap()).unwrap();
    // The report names the islands and generations that ran; the search
    // checkpoint's fingerprint renders the whole resolved `SearchConfig`.
    let ckpt = tmp("demo_precedence.ckpt");
    let resolved = |flags: &[&str]| {
        let out = sfc()
            .args([
                input.to_str().unwrap(),
                "--until",
                "search",
                "--report",
                "-o",
                "/dev/null",
            ])
            .args(["--checkpoint", ckpt.to_str().unwrap()])
            .args(flags)
            .output()
            .expect("sfc runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "{flags:?}: {stderr}");
        stderr + &std::fs::read_to_string(&ckpt).expect("a checkpoint was written")
    };
    let params = params.to_str().unwrap();

    // --params alone still overrides --quick's search budget.
    let seen = resolved(&["--quick", "--params", params]);
    assert!(seen.contains("GGA ran 7 generations"), "{seen}");
    assert!(seen.contains("search: 1 island(s)"), "{seen}");
    assert!(seen.contains("population: 100, generations: 7,"), "{seen}");
    assert!(seen.contains("max_temporal: 2 }"), "{seen}");

    // Explicit flags win over the file, before or after it.
    for flags in [
        ["--quick", "--islands", "3", "--params", params],
        ["--quick", "--params", params, "--islands", "3"],
    ] {
        let seen = resolved(&flags);
        assert!(seen.contains("search: 3 island(s)"), "{flags:?}: {seen}");
        assert!(seen.contains("GGA ran 7 generations"), "{flags:?}: {seen}");
    }
    let seen = resolved(&["--max-temporal", "4", "--no-fission", "--params", params]);
    assert!(seen.contains("max_temporal: 4 }"), "{seen}");
    assert!(seen.contains("p_fission: 0.0, p_defission: 0.0,"), "{seen}");
    assert!(seen.contains("generations: 7,"), "{seen}");
}

/// Front-end validation says the same thing for every flag of a kind, and
/// says it before the input is read.
#[test]
fn zero_counts_extra_inputs_and_bad_sizes_are_usage_errors() {
    for (args, complaint) in [
        (
            &["never-read.cu", "--profile-reps", "0"][..],
            "sfc: repetition count must be at least 1\n",
        ),
        (
            &["never-read.cu", "--islands", "0"],
            "sfc: island count must be at least 1\n",
        ),
        (
            &["a.cu", "--quick", "b.cu"],
            "sfc: takes one input file, got `a.cu` and `b.cu`\n",
        ),
        (
            &["never-read.cu", "--mem-budget", "12Q"],
            "sfc: bad memory budget `12Q` (digits with optional K/M/G)\n",
        ),
        (
            &["never-read.cu", "--device"],
            "sfc: missing value for --device\n",
        ),
    ] {
        let out = sfc().args(args).output().expect("sfc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(complaint), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: sfc INPUT.cu"), "{args:?}: {stderr}");
    }
}

/// `--help` is generated from the option tables: it exits 0 before an
/// input is required and documents every flag.
#[test]
fn help_lists_every_flag_and_the_precedence_rule() {
    let out = sfc()
        .args(["--help", "--no-such-flag"])
        .output()
        .expect("sfc runs");
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8_lossy(&out.stdout);
    for flag in [
        "-o FILE",
        "--params FILE",
        "--islands N",
        "--mem-budget SIZE",
        "--strict",
    ] {
        assert!(help.contains(&format!("\n  {flag}")), "{flag}: {help}");
    }
    assert!(
        help.contains("the preset (--quick) < the parameter file"),
        "{help}"
    );
}
