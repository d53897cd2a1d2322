//! Graceful-shutdown and per-request checkpointing tests for the batch
//! driver behind `sfd`.

use sf_gpusim::device::DeviceSpec;
use stencilfuse::{BatchDriver, BatchOptions, BatchRequest, BatchStatus, PipelineConfig};

/// A small two-kernel flux/update chain; `scale` varies a literal so each
/// variant canonicalizes to distinct source (distinct cache keys).
fn demo(scale: &str) -> String {
    format!(
        r#"
__global__ void flux(const double* __restrict__ q, double* f, int nx, int ny, int nz) {{
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {{
    for (int k = 0; k < nz; k++) {{ f[k][j][i] = {scale} * q[k][j][i] * q[k][j][i]; }}
  }}
}}
__global__ void upd(const double* __restrict__ f, double* d, int nx, int ny, int nz) {{
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {{
    for (int k = 0; k < nz; k++) {{ d[k][j][i] = f[k][j][i+1] - f[k][j][i-1]; }}
  }}
}}
void host() {{
  int nx = 64; int ny = 32; int nz = 8;
  double* q = cudaAlloc3D(nz, ny, nx);
  double* f = cudaAlloc3D(nz, ny, nx);
  double* d = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(q);
  flux<<<dim3(4, 4), dim3(16, 8)>>>(q, f, nx, ny, nz);
  upd<<<dim3(4, 4), dim3(16, 8)>>>(f, d, nx, ny, nz);
  cudaMemcpyD2H(d);
}}
"#
    )
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sf-batch-shutdown-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

fn driver(cache: &std::path::Path, options: BatchOptions) -> BatchDriver {
    let config = PipelineConfig::quick(DeviceSpec::k20x());
    BatchDriver::new(cache, config, options).expect("driver opens")
}

fn submit_all(d: &mut BatchDriver, n: usize) {
    for i in 0..n {
        let scale = format!("0.{}", i + 3);
        d.submit(BatchRequest::new(format!("prog{i}"), demo(&scale)))
            .expect("admitted");
    }
}

/// The shutdown flag is process-global, so everything that raises it lives
/// in this one test function (integration-test binaries run each file's
/// tests in one process).
#[test]
fn shutdown_mid_batch_keeps_the_report_complete_and_the_cache_untorn() {
    let cache = tmp_dir("cache");
    stencilfuse::reset_shutdown_request();

    // Warm one entry first so the store has committed state a shutdown
    // could conceivably tear (it must not).
    let mut d = driver(
        &cache,
        BatchOptions {
            honor_shutdown: true,
            ..BatchOptions::default()
        },
    );
    submit_all(&mut d, 1);
    let warm = d.run();
    assert_eq!(warm.outcomes.len(), 1);
    assert_eq!(warm.failures(), 0);
    assert_eq!(warm.cancelled(), 0);

    // Shutdown raised *before* the batch runs: every request is reported
    // as cancelled — the report stays complete, nothing compiles, the
    // store is untouched.
    submit_all(&mut d, 3);
    stencilfuse::request_shutdown();
    let report = d.run();
    assert_eq!(report.outcomes.len(), 3, "one outcome per request");
    assert_eq!(report.cancelled(), 3, "nothing had started; all cancelled");
    assert_eq!(report.failures(), 0, "cancellation is not a failure");
    assert!(
        report.summary().contains("cancelled by shutdown"),
        "summary: {}",
        report.summary()
    );
    for o in &report.outcomes {
        assert_eq!(o.status, BatchStatus::Cancelled);
        assert!(o.output.is_none(), "a cancelled request compiled nothing");
    }

    // Shutdown raised mid-batch from another thread: whichever requests
    // were in flight drain to completion, the rest cancel. Either way the
    // report covers every request and no cache entry is torn.
    stencilfuse::reset_shutdown_request();
    submit_all(&mut d, 4);
    let killer = std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_millis(30));
        stencilfuse::request_shutdown();
    });
    let report = d.run();
    killer.join().unwrap();
    assert_eq!(report.outcomes.len(), 4, "complete report despite shutdown");
    for o in &report.outcomes {
        match &o.status {
            BatchStatus::Hit | BatchStatus::Compiled | BatchStatus::Recovered(_) => {
                assert!(
                    o.output.is_some(),
                    "{}: drained requests finish fully",
                    o.name
                );
            }
            BatchStatus::Cancelled => assert!(o.output.is_none()),
            other => panic!("{}: unexpected status {other:?}", o.name),
        }
    }

    // No torn entries: the integrity scan quarantines nothing.
    let (valid, quarantined) = d.store().verify_integrity().expect("scan");
    assert_eq!(quarantined, 0, "shutdown must never tear a cache entry");
    assert!(valid >= 1, "the pre-shutdown publish is still committed");

    // Drivers that did not opt in never see the flag.
    stencilfuse::request_shutdown();
    let mut plain = driver(&cache, BatchOptions::default());
    submit_all(&mut plain, 1);
    let report = plain.run();
    assert_eq!(report.cancelled(), 0);
    assert_eq!(report.failures(), 0);

    stencilfuse::reset_shutdown_request();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn checkpoint_dir_gives_every_request_its_own_resumable_checkpoint() {
    let cache = tmp_dir("ckpt-cache");
    let ckpts = tmp_dir("ckpts");
    let mut d = driver(
        &cache,
        BatchOptions {
            checkpoint_dir: Some(ckpts.clone()),
            ..BatchOptions::default()
        },
    );
    submit_all(&mut d, 2);
    let report = d.run();
    assert_eq!(report.failures(), 0);
    let plans: Vec<_> = report
        .outcomes
        .iter()
        .map(|o| o.plan_json.clone().expect("plan"))
        .collect();
    for i in 0..2 {
        assert!(
            ckpts.join(format!("prog{i}.ckpt")).exists(),
            "prog{i} checkpointed under the checkpoint dir"
        );
    }

    // A rerun against the same checkpoint dir resumes from the final
    // snapshots (and hits the cache) — either way the plans are
    // byte-identical to the first batch.
    let mut d = driver(
        &cache,
        BatchOptions {
            checkpoint_dir: Some(ckpts.clone()),
            ..BatchOptions::default()
        },
    );
    submit_all(&mut d, 2);
    let rerun = d.run();
    assert_eq!(rerun.failures(), 0);
    for (o, first) in rerun.outcomes.iter().zip(&plans) {
        assert_eq!(
            o.plan_json.as_deref(),
            Some(first.as_str()),
            "{}: resumed/warm plan matches the first batch",
            o.name
        );
    }

    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_dir_all(&ckpts);
}
