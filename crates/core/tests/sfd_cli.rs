//! End-to-end tests of the `sfd` batch driver's command line.

use std::process::Command;

/// Numeric flags parse into their own types: a value that does not fit is
/// a usage error (exit 2), never a silent wrap to a small number —
/// `--max-temporal 4294967297` used to be accepted as degree 1.
#[test]
fn out_of_range_numeric_flags_are_usage_errors() {
    let past_u32 = "4294967297";
    let past_u64 = "18446744073709551617";
    for (flag, value, complaint) in [
        ("--max-temporal", past_u32, "bad temporal degree"),
        ("--breaker", past_u32, "bad breaker threshold"),
        ("--jobs", past_u64, "bad job count"),
        ("--islands", past_u64, "bad island count"),
        ("--queue-limit", past_u64, "bad queue limit"),
        ("--budget-secs", past_u64, "bad budget"),
        ("--breaker-cooldown-ms", past_u64, "bad breaker cooldown"),
        ("--max-temporal", "-1", "bad temporal degree"),
        ("--max-temporal", "0", "temporal degree must be at least 1"),
        ("--breaker", "0", "breaker threshold must be at least 1"),
        ("--islands", "0", "island count must be at least 1"),
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_sfd"))
            .args([flag, value, "never-read.cu"])
            .output()
            .expect("sfd runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.starts_with(&format!("sfd: {complaint}")),
            "{flag} {value}: {stderr}"
        );
    }

    // The largest values that do fit are still accepted.
    let store = std::env::temp_dir().join(format!("sfd-cli-tests-{}", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_sfd"))
        .args(["--max-temporal", "4294967295", "--breaker", "4294967295"])
        .arg("--cache-dir")
        .arg(&store)
        .arg("--verify-store")
        .output()
        .expect("sfd runs");
    assert_eq!(
        run.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let _ = std::fs::remove_dir_all(&store);
}

/// Every flag is checked where it is parsed, in the words `sfc` uses: a
/// zero count is not clamped, a size error keeps the suffix hint, and a
/// `--device` is resolved even when no input follows it (it used to be
/// looked up only when an input needed it, so a misspelt trailing one
/// exited 0).
#[test]
fn zero_jobs_bad_sizes_and_unused_device_names_are_usage_errors() {
    let store = std::env::temp_dir().join(format!("sfd-cli-devices-{}", std::process::id()));
    for (args, complaint) in [
        (
            &["--jobs", "0", "never-read.cu"][..],
            "sfd: job count must be at least 1\n",
        ),
        (
            &["--mem-budget", "12Q", "never-read.cu"],
            "sfd: bad memory budget `12Q` (digits with optional K/M/G)\n",
        ),
        (
            &["--cache-quota", "lots", "never-read.cu"],
            "sfd: bad cache quota `lots` (digits with optional K/M/G)\n",
        ),
        (
            &["never-read.cu", "--device", "nosuch"],
            "sfd: unknown device `nosuch` (available: k20x, k40, hawaii, v100)\n",
        ),
        (
            &["--verify-store", "--device", "nosuch"],
            "sfd: unknown device `nosuch`",
        ),
        (
            &["never-read.cu", "--device"],
            "sfd: missing value for --device\n",
        ),
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_sfd"))
            .arg("--cache-dir")
            .arg(&store)
            .args(args)
            .output()
            .expect("sfd runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(complaint), "{args:?}: {stderr}");
    }
    assert!(!store.exists(), "nothing was opened on a usage error");
}
