//! Hostile program archetypes — compile bombs the resource governor must
//! reject with structured attribution, plus the degenerate-but-legitimate
//! shapes it must *not* reject.
//!
//! Each archetype is a deterministic program builder (no seeds: a bomb is
//! a fixed shape, not a random draw). [`check`] runs one archetype through
//! the full pipeline under the service budget ([`sf_core::Limits::service`])
//! and asserts the contract:
//!
//! - a bomb fails with [`ErrorKind::ResourceExhausted`] naming the exact
//!   budget it tripped (never an OOM, a hang, or an unstructured error) —
//!   and fails *fast*: every archetype is turned away from a static count
//!   (chain depth, trace length, cells, launch geometry), not by running
//!   it until a budget is gone;
//! - a degenerate-but-legal program (the 1-cell domain) runs to completion.
//!
//! `sf-fuzz --hostile` drives every archetype; `sf-fuzz --emit-hostile N`
//! prints one archetype's source so CI can pipe it through `sfc` and
//! assert the resource exit code (10) end to end.

use sf_core::ResourceKind;
use sf_minicuda::ast::{Dim3Expr, HostStmt, Kernel, Program};
use sf_minicuda::builder as b;
use sf_minicuda::printer::print_program;
use stencilfuse::{ErrorKind, Pipeline};

/// One hostile (or deliberately benign-degenerate) program shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Archetype {
    /// A producer→consumer chain of 300 pointwise kernels: the precedence
    /// depth (300) exceeds the service cap (256) and must be rejected at
    /// the graphs stage, before the search builds a space over it.
    DeepChain,
    /// A time loop launching 8 kernels × 200 iterations = 1600 dynamic
    /// launches, over the 512-launch service cap: rejected at admission,
    /// before any profiling work.
    ThousandLaunches,
    /// A near-`u32::MAX`-cell domain (65536 × 65536 × 1): the allocation
    /// footprint must be rejected at admission, before the profiler or
    /// verifier would try to materialize it.
    HugeDomain,
    /// 64 cells of data under a 65535 × 65535 grid of 32 × 32 blocks:
    /// 8.8·10¹² guarded threads, all but 128 of them idle. No array is
    /// large and nothing is deep, so only the interpreter-step budget can
    /// turn it away — at admission, from the launch geometry, before the
    /// functional profile would spend hours executing it.
    HugeGrid,
    /// The opposite pole: a degenerate 1×1×1 domain. Legal, tiny, and the
    /// pipeline must *survive* it (no division-by-zero, no empty-domain
    /// panic) — rejecting it would be a governor false positive.
    OneCellDomain,
}

/// Every archetype, in the order `--hostile` checks them.
pub const ARCHETYPES: [Archetype; 5] = [
    Archetype::DeepChain,
    Archetype::ThousandLaunches,
    Archetype::HugeDomain,
    Archetype::HugeGrid,
    Archetype::OneCellDomain,
];

impl Archetype {
    /// Stable kebab-case name (CLI argument, report label).
    pub fn name(self) -> &'static str {
        match self {
            Archetype::DeepChain => "deep-chain",
            Archetype::ThousandLaunches => "thousand-launches",
            Archetype::HugeDomain => "huge-domain",
            Archetype::HugeGrid => "huge-grid",
            Archetype::OneCellDomain => "one-cell-domain",
        }
    }

    /// Parse a CLI name back to the archetype.
    pub fn from_name(name: &str) -> Option<Archetype> {
        ARCHETYPES.into_iter().find(|a| a.name() == name)
    }

    /// The budget this archetype must trip, or `None` when the contract
    /// is that it *survives*.
    pub fn expected_rejection(self) -> Option<ResourceKind> {
        match self {
            Archetype::DeepChain => Some(ResourceKind::PrecedenceDepth),
            Archetype::ThousandLaunches => Some(ResourceKind::Launches),
            Archetype::HugeDomain => Some(ResourceKind::DomainCells),
            Archetype::HugeGrid => Some(ResourceKind::InterpreterSteps),
            Archetype::OneCellDomain => None,
        }
    }
}

/// Pointwise chain link `write[c] = 0.5 * read[c] + 0.25` in the standard
/// kernel frame (thread mapping, radius-0 guard, full vertical sweep).
fn chain_kernel(name: &str, read: &str, write: &str) -> Kernel {
    let e = b::add(b::mul(b::flt(0.5), b::at3(read, 0, 0, 0)), b::flt(0.25));
    let mut body = b::thread_mapping_2d();
    body.push(b::interior_guard(
        0,
        vec![b::vertical_loop(0, vec![b::store3(write, e)])],
    ));
    Kernel {
        name: name.into(),
        params: b::params_3d(&[read], &[write]),
        body,
    }
}

/// Build one archetype's program. Deterministic: same archetype, same
/// program, byte for byte.
pub fn program(archetype: Archetype) -> Program {
    match archetype {
        Archetype::DeepChain => {
            const LINKS: usize = 300;
            let arrays: Vec<String> = (0..=LINKS).map(|i| format!("a{i}")).collect();
            let mut kernels = Vec::with_capacity(LINKS);
            let mut launches: Vec<(String, Vec<&str>)> = Vec::with_capacity(LINKS);
            for i in 0..LINKS {
                let name = format!("k{i}");
                kernels.push(chain_kernel(&name, &arrays[i], &arrays[i + 1]));
                launches.push((name, vec![&arrays[i], &arrays[i + 1]]));
            }
            let array_refs: Vec<&str> = arrays.iter().map(String::as_str).collect();
            let launch_refs: Vec<(&str, Vec<&str>)> = launches
                .iter()
                .map(|(k, args)| (k.as_str(), args.clone()))
                .collect();
            let host = b::simple_host(&array_refs, &launch_refs, (16, 16, 4), (8, 8));
            Program { kernels, host }
        }
        Archetype::ThousandLaunches => {
            // Eight ping-pong kernels per iteration, 200 iterations: the
            // unrolled trace is 1600 launches.
            let kernels: Vec<Kernel> = (0..8)
                .map(|i| {
                    let (read, write) = if i % 2 == 0 { ("a", "b") } else { ("b", "a") };
                    chain_kernel(&format!("k{i}"), read, write)
                })
                .collect();
            let body: Vec<(&str, Vec<&str>)> = kernels
                .iter()
                .enumerate()
                .map(|(i, k)| {
                    let args = if i % 2 == 0 {
                        vec!["a", "b"]
                    } else {
                        vec!["b", "a"]
                    };
                    (k.name.as_str(), args)
                })
                .collect();
            let host = b::looped_host(&["a", "b"], &[], 200, &body, &[], (16, 16, 4), (8, 8));
            Program { kernels, host }
        }
        Archetype::HugeDomain => {
            // 65536 × 65536 × 1 = 2^32 cells per array — just past
            // u32::MAX, and 256× the service domain-cells cap.
            let kernels = vec![
                chain_kernel("fill", "a", "b"),
                chain_kernel("relax", "b", "c"),
            ];
            let host = b::simple_host(
                &["a", "b", "c"],
                &[("fill", vec!["a", "b"]), ("relax", vec!["b", "c"])],
                (65_536, 65_536, 1),
                (16, 8),
            );
            Program { kernels, host }
        }
        Archetype::HugeGrid => {
            let kernels = vec![
                chain_kernel("fill", "a", "b"),
                chain_kernel("relax", "b", "c"),
            ];
            let mut host = b::simple_host(
                &["a", "b", "c"],
                &[("fill", vec!["a", "b"]), ("relax", vec!["b", "c"])],
                (8, 8, 1),
                (32, 32),
            );
            // The domain needs one block; launch the largest 2-D grid.
            for stmt in &mut host {
                if let HostStmt::Launch { grid, .. } = stmt {
                    *grid = Dim3Expr::literal(65_535, 65_535, 1);
                }
            }
            Program { kernels, host }
        }
        Archetype::OneCellDomain => {
            let kernels = vec![
                chain_kernel("first", "a", "b"),
                chain_kernel("second", "b", "c"),
            ];
            let host = b::simple_host(
                &["a", "b", "c"],
                &[("first", vec!["a", "b"]), ("second", vec!["b", "c"])],
                (1, 1, 1),
                (1, 1),
            );
            Program { kernels, host }
        }
    }
}

/// The archetype's source text (what `--emit-hostile` prints and what CI
/// feeds to `sfc --mem-budget` expecting exit code 10).
pub fn source(archetype: Archetype) -> String {
    print_program(&program(archetype))
}

/// Run one archetype through the full pipeline under the service budget
/// and check its contract. `Ok(detail)` carries a human-readable line for
/// the report; `Err(detail)` says exactly which expectation broke.
pub fn check(archetype: Archetype) -> Result<String, String> {
    let program = program(archetype);
    let config = crate::oracle::config(0).with_budget(sf_core::Limits::service());
    let pipeline = Pipeline::new(program, config)
        .map_err(|e| format!("{}: pipeline construction failed: {e}", archetype.name()))?;
    let result = pipeline.run();
    match (archetype.expected_rejection(), result) {
        (Some(kind), Err(e)) => match &e.kind {
            ErrorKind::ResourceExhausted {
                resource,
                used,
                limit,
            } if resource == kind.name() => Ok(format!(
                "{}: rejected as expected — `{resource}` budget ({used} needed, limit {limit})",
                archetype.name()
            )),
            ErrorKind::ResourceExhausted { resource, .. } => Err(format!(
                "{}: rejected by the wrong budget: got `{resource}`, expected `{}`",
                archetype.name(),
                kind.name()
            )),
            _ => Err(format!(
                "{}: failed, but not with a structured resource rejection: {e}",
                archetype.name()
            )),
        },
        (Some(kind), Ok(_)) => Err(format!(
            "{}: ran to completion but must trip the `{}` budget",
            archetype.name(),
            kind.name()
        )),
        (None, Ok(r)) => Ok(format!(
            "{}: survived as expected (speedup {:.2}x, {} degradation(s))",
            archetype.name(),
            r.speedup,
            r.degradations().len()
        )),
        (None, Err(e)) => Err(format!(
            "{}: must survive the service budget but failed: {e}",
            archetype.name()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_minicuda::reparse;

    #[test]
    fn archetype_names_round_trip() {
        for a in ARCHETYPES {
            assert_eq!(Archetype::from_name(a.name()), Some(a));
        }
        assert_eq!(Archetype::from_name("frobnicate"), None);
    }

    #[test]
    fn archetype_sources_print_and_reparse() {
        for a in ARCHETYPES {
            let p = program(a);
            let p2 = reparse(&p).unwrap_or_else(|e| panic!("{}: reparse: {e}", a.name()));
            assert_eq!(p, p2, "{}: printer→parser round trip", a.name());
            assert_eq!(source(a), source(a), "{}: deterministic source", a.name());
        }
    }

    #[test]
    fn every_archetype_keeps_its_contract() {
        for a in ARCHETYPES {
            check(a).unwrap_or_else(|detail| panic!("{detail}"));
        }
        // The grid bomb is turned away from its geometry, not by running
        // it until the budget is gone.
        let started = std::time::Instant::now();
        check(Archetype::HugeGrid).expect("rejected");
        assert!(started.elapsed().as_secs() < 5, "huge-grid took {:?}", started.elapsed());
    }

    #[test]
    fn bombs_run_clean_under_an_unlimited_budget() {
        // The cheap bombs are hostile only to a *budgeted* service; with no
        // budget the launches bomb still compiles (it is a legal, if
        // enormous, time loop). This pins the rejection on the governor,
        // not on some incidental pipeline limit.
        let config = crate::oracle::config(0);
        let pipeline =
            Pipeline::new(program(Archetype::ThousandLaunches), config).expect("constructible");
        pipeline.run().expect("legal under an unlimited budget");
    }
}
