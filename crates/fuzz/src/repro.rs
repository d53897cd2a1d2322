//! Reproducer emission: write a failing (shrunk) program as a
//! self-contained `.sfir` file plus the offending `TransformPlan` JSON.
//!
//! The `.sfir` file is plain minicuda source with a `//` comment header
//! (the lexer skips comments), so it parses back directly and documents
//! how to replay the failure:
//!
//! ```text
//! // sf-fuzz reproducer
//! // seed:   42
//! // check:  differential
//! // detail: transformed program diverges from the original: ...
//! // replay: cargo run -p sf-fuzz -- --seed 42
//! __global__ void k0(...) { ... }
//! void host() { ... }
//! ```

use sf_minicuda::ast::Program;
use sf_minicuda::printer::print_program;
use std::io;
use std::path::{Path, PathBuf};

/// Render the `.sfir` reproducer text (comment header + program).
pub fn render_repro(seed: u64, check: &str, detail: &str, program: &Program) -> String {
    let detail_one_line = detail.replace('\n', " ");
    format!(
        "// sf-fuzz reproducer\n\
         // seed:   {seed}\n\
         // check:  {check}\n\
         // detail: {detail_one_line}\n\
         // replay: cargo run -p sf-fuzz -- --seed {seed}\n\
         \n{}",
        print_program(program)
    )
}

/// Paths a written reproducer occupies.
#[derive(Debug, Clone)]
pub struct ReproPaths {
    /// The `.sfir` program file.
    pub source: PathBuf,
    /// The `.plan.json` file, when a plan was captured.
    pub plan: Option<PathBuf>,
}

/// Write `<seed>.sfir` (and `<seed>.plan.json` when `plan_json` is
/// given) under `dir`, creating the directory if needed.
pub fn write_repro(
    dir: &Path,
    seed: u64,
    check: &str,
    detail: &str,
    program: &Program,
    plan_json: Option<&str>,
) -> io::Result<ReproPaths> {
    std::fs::create_dir_all(dir)?;
    let source = dir.join(format!("{seed}.sfir"));
    std::fs::write(&source, render_repro(seed, check, detail, program))?;
    let plan = match plan_json {
        Some(json) => {
            let path = dir.join(format!("{seed}.plan.json"));
            std::fs::write(&path, json)?;
            Some(path)
        }
        None => None,
    };
    Ok(ReproPaths { source, plan })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use sf_minicuda::parse_program;

    #[test]
    fn repro_text_parses_back_to_the_same_program() {
        let g = generate(17, &GenConfig::default());
        let text = render_repro(
            17,
            "differential",
            "max abs diff 1e0 in \"a1\"\nsecond line",
            &g.program,
        );
        assert!(text.contains("// seed:   17"));
        assert!(text.contains("--seed 17"));
        assert!(
            text.contains("// detail: max abs diff 1e0 in \"a1\" second line"),
            "newlines in the detail are collapsed into the comment line"
        );
        let parsed = parse_program(&text).expect("header comments are skipped by the lexer");
        assert_eq!(parsed, g.program);
    }

    #[test]
    fn write_repro_creates_both_files() {
        let g = generate(23, &GenConfig::default());
        let dir = std::env::temp_dir().join("sf-fuzz-repro-test");
        let _ = std::fs::remove_dir_all(&dir);
        let paths =
            write_repro(&dir, 23, "plan-roundtrip", "detail", &g.program, Some("{}")).unwrap();
        assert!(paths.source.exists());
        assert!(paths.plan.as_ref().unwrap().exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
