//! The `sf-bench` command line: every subcommand and experiment is in
//! `--help`, and a command it does not know exits 2 before running
//! anything.

use std::process::Command;

fn sf_bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sf-bench"))
        .args(args)
        .output()
        .expect("sf-bench runs")
}

#[test]
fn the_help_lists_every_subcommand_flag_and_experiment() {
    let out = sf_bench(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8(out.stdout).unwrap();
    let mut words = vec!["paper", "inspect", "all", "--scale", "--device", "--kernel"];
    words.extend(sf_bench::paper::EXPERIMENTS.iter().map(|e| e.0));
    for word in words {
        assert!(help.contains(word), "`{word}` missing from:\n{help}");
    }
}

#[test]
fn an_unknown_subcommand_or_flag_exits_2() {
    for args in [
        &["report"][..],
        &["paper"],
        &["paper", "fig9", "--scale", "test"],
        &["paper", "table1", "--frob"],
        &["paper", "table1", "--scale=test"],
        &["paper", "table1", "--scale", "huge"],
        &["paper", "table1", "--device", "gtx480"],
        &["paper", "table1", "--kernel", "fused_0"],
        &["inspect", "no-such-app", "--scale", "test"],
        &[],
    ] {
        let out = sf_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("sf-bench: "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}
