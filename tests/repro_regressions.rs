//! Replay checked-in fuzzer reproducers (`tests/repros/*.sfir`) through
//! the full oracle. A reproducer fails this test until the bug it pins
//! is fixed — after that it keeps guarding against reintroduction. An
//! empty corpus passes vacuously.

use sf_fuzz::check_program;
use sf_minicuda::parse_program;
use std::path::PathBuf;

fn repro_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/repros")
}

#[test]
fn checked_in_reproducers_pass_the_oracle() {
    let dir = repro_dir();
    let mut failures = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/repros exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "sfir"))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        let seed: u64 = name
            .parse()
            .unwrap_or_else(|_| panic!("repro file `{}` is not named <seed>.sfir", path.display()));
        let src = std::fs::read_to_string(&path).expect("readable repro");
        let program = parse_program(&src)
            .unwrap_or_else(|e| panic!("repro `{}` no longer parses: {e}", path.display()));
        if let Err(f) = check_program(&program, seed) {
            failures.push(format!("{}: [{}] {}", path.display(), f.check, f.detail));
        }
    }
    assert!(
        failures.is_empty(),
        "reproducers still failing:\n{}",
        failures.join("\n")
    );
}
