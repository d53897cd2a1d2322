//! Greedy automatic shrinking: remove launches, kernels, and statements
//! while the failure keeps reproducing, until a fixed point.
//!
//! The shrinker is deliberately simple — delta debugging on two axes:
//!
//! * **Pass A** removes one kernel launch (plus any kernels and host
//!   allocations/copies that become unreferenced).
//! * **Pass B** removes one assignment statement from a kernel body
//!   (only while the kernel keeps at least one assignment, so it stays
//!   a well-formed launch).
//!
//! After any successful removal the search restarts from the first
//! candidate, so the result is 1-minimal with respect to these two
//! operations: no single launch or statement can be removed without
//! losing the failure.

use sf_minicuda::ast::{HostStmt, LaunchArg, Program, Stmt};

/// Remove the `n`-th launch from the host section, then garbage-collect
/// kernels and host statements that no remaining launch references.
/// Returns `None` when the program has no `n`-th launch.
fn remove_launch(program: &Program, n: usize) -> Option<Program> {
    let mut p = program.clone();
    let mut seen = 0usize;
    let mut removed = false;
    p.host.retain(|s| {
        if removed {
            return true;
        }
        if matches!(s, HostStmt::Launch { .. }) {
            if seen == n {
                removed = true;
                seen += 1;
                return false;
            }
            seen += 1;
        }
        true
    });
    if !removed {
        return None;
    }
    Some(gc(p))
}

/// Drop kernels no launch names and Alloc/H2D/D2H statements for arrays
/// no remaining launch passes. Scalar `let`s stay (grid math uses them).
fn gc(mut p: Program) -> Program {
    let mut live_kernels: Vec<String> = Vec::new();
    let mut live_arrays: Vec<String> = Vec::new();
    for s in &p.host {
        if let HostStmt::Launch { kernel, args, .. } = s {
            if !live_kernels.contains(kernel) {
                live_kernels.push(kernel.clone());
            }
            for a in args {
                if let LaunchArg::Array(name) = a {
                    if !live_arrays.contains(name) {
                        live_arrays.push(name.clone());
                    }
                }
            }
        }
    }
    p.kernels.retain(|k| live_kernels.contains(&k.name));
    p.host.retain(|s| match s {
        HostStmt::Alloc { name, .. } => live_arrays.contains(name),
        HostStmt::CopyToDevice { array } | HostStmt::CopyToHost { array } => {
            live_arrays.contains(array)
        }
        _ => true,
    });
    p
}

fn count_assigns(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Assign { .. } => 1,
            Stmt::If {
                then_body,
                else_body,
                ..
            } => count_assigns(then_body) + count_assigns(else_body),
            Stmt::For { body, .. } => count_assigns(body),
            _ => 0,
        })
        .sum()
}

/// Remove the `n`-th assignment (pre-order) from `stmts`. Returns true
/// when the removal happened; `n` is decremented in place while walking.
fn remove_assign(stmts: &mut Vec<Stmt>, n: &mut usize) -> bool {
    let mut i = 0;
    while i < stmts.len() {
        if matches!(stmts[i], Stmt::Assign { .. }) {
            if *n == 0 {
                stmts.remove(i);
                return true;
            }
            *n -= 1;
        } else {
            let removed = match &mut stmts[i] {
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => remove_assign(then_body, n) || remove_assign(else_body, n),
                Stmt::For { body, .. } => remove_assign(body, n),
                _ => false,
            };
            if removed {
                return true;
            }
        }
        i += 1;
    }
    false
}

/// Shrink `program` while `still_fails` keeps returning true, bounded by
/// `max_attempts` predicate evaluations. Returns the smallest failing
/// program found (possibly the input itself).
pub fn shrink_with(
    program: &Program,
    still_fails: impl Fn(&Program) -> bool,
    max_attempts: usize,
) -> Program {
    let mut current = program.clone();
    let mut attempts = 0usize;
    'restart: loop {
        if attempts >= max_attempts {
            return current;
        }
        // Pass A: drop one launch at a time.
        let launches = current
            .host
            .iter()
            .filter(|s| matches!(s, HostStmt::Launch { .. }))
            .count();
        if launches > 1 {
            for n in 0..launches {
                if attempts >= max_attempts {
                    return current;
                }
                if let Some(candidate) = remove_launch(&current, n) {
                    attempts += 1;
                    if still_fails(&candidate) {
                        current = candidate;
                        continue 'restart;
                    }
                }
            }
        }
        // Pass B: drop one assignment from a multi-assignment kernel.
        for ki in 0..current.kernels.len() {
            let total = count_assigns(&current.kernels[ki].body);
            if total < 2 {
                continue;
            }
            for n in 0..total {
                if attempts >= max_attempts {
                    return current;
                }
                let mut candidate = current.clone();
                let mut idx = n;
                if remove_assign(&mut candidate.kernels[ki].body, &mut idx) {
                    attempts += 1;
                    if still_fails(&candidate) {
                        current = candidate;
                        continue 'restart;
                    }
                }
            }
        }
        return current;
    }
}

/// Shrink a program that fails oracle check `check` at `seed`: removals
/// are kept only while the *same* check keeps failing, so the minimized
/// reproducer still demonstrates the original bug rather than a
/// different one uncovered along the way.
pub fn shrink(program: &Program, seed: u64, check: &str) -> Program {
    shrink_with(
        program,
        |p| {
            crate::oracle::check_program(p, seed)
                .err()
                .is_some_and(|f| f.check == check)
        },
        200,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use sf_minicuda::host::ExecutablePlan;

    /// Synthetic predicate: "fails" while the program still launches `k1`.
    /// The shrinker must strip everything else and keep the result
    /// executable.
    #[test]
    fn shrinks_to_the_single_relevant_launch() {
        let g = generate(3, &GenConfig::default());
        let launches_k1 = |p: &Program| {
            p.host
                .iter()
                .any(|s| matches!(s, HostStmt::Launch { kernel, .. } if kernel == "k1"))
        };
        assert!(launches_k1(&g.program), "seed 3 must launch k1");
        let small = shrink_with(&g.program, launches_k1, 500);
        let remaining: Vec<&str> = small
            .host
            .iter()
            .filter_map(|s| match s {
                HostStmt::Launch { kernel, .. } => Some(kernel.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(remaining, vec!["k1"], "only the relevant launch survives");
        assert_eq!(small.kernels.len(), 1, "unlaunched kernels are collected");
        ExecutablePlan::from_program(&small).expect("shrunk program stays executable");
    }

    #[test]
    fn shrinking_respects_the_attempt_budget() {
        let g = generate(5, &GenConfig::default());
        let always = |_: &Program| true;
        // Budget 0: no predicate calls, input returned untouched.
        let same = shrink_with(&g.program, always, 0);
        assert_eq!(same, g.program);
    }

    #[test]
    fn statement_removal_keeps_one_assignment() {
        let g = generate(11, &GenConfig::default());
        let small = shrink_with(&g.program, |_| true, 10_000);
        for k in &small.kernels {
            assert!(
                count_assigns(&k.body) >= 1,
                "kernel `{}` lost all assignments",
                k.name
            );
        }
        // A tautological failure shrinks to a single launch.
        let launches = small
            .host
            .iter()
            .filter(|s| matches!(s, HostStmt::Launch { .. }))
            .count();
        assert_eq!(launches, 1);
    }
}
