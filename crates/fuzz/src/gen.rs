//! Seeded random stencil-program generator over the `sf-minicuda` builder.
//!
//! Every program is a pure function of `(seed, GenConfig)`: the generator
//! draws from one `SmallRng` stream and the builder combinators are
//! deterministic, so a failing seed reproduces exactly. The generated
//! space deliberately stays inside the subset the access analysis
//! supports (affine `var ± const` indices, the standard 2-D thread
//! mapping, interior guards, vertical sweeps) — a program the pipeline
//! rejects at the graphs stage would be a generator bug, and the oracle
//! treats it as one.
//!
//! Covered dimensions: kernel count, array-pool size, stencil radii and
//! per-ring offsets, lateral vs volumetric stencils, boundary-plane
//! kernels, fat (fissionable) multi-statement kernels, in-place updates
//! (self dependence cycles), producer→consumer precedence chains
//! (reads biased toward recently written arrays), shared-array reuse
//! (several consumers of one producer), and filter-excluded
//! compute-/latency-bound kernels.

use rand::prelude::*;
use sf_minicuda::ast::{Expr, Intrinsic, Kernel, Program, ScalarType, Stmt};
use sf_minicuda::builder as b;

/// Program-space knobs for [`generate`].
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Minimum number of kernels (= launches; one launch per kernel).
    pub min_kernels: usize,
    /// Maximum number of kernels.
    pub max_kernels: usize,
    /// Size of the device-array pool (`a0..aN`).
    pub max_arrays: usize,
    /// Largest stencil radius drawn.
    pub max_radius: i64,
    /// Probability that a read is drawn from recently written arrays
    /// (builds producer→consumer precedence chains).
    pub p_chain: f64,
    /// Candidate `(nx, ny, nz)` domains. Must satisfy
    /// `nx, ny > 2 * max_radius` and `nz > 2 * max_radius` so interior
    /// guards and vertical sweeps stay non-empty.
    pub domains: Vec<(i64, i64, i64)>,
    /// Candidate `(bx, by)` thread blocks.
    pub blocks: Vec<(i64, i64)>,
    /// Probability that the program is generated as a *time-loop* program:
    /// a recorded host loop whose body is drawn from the temporal
    /// archetypes (foldable ping-pong stencil pairs, pointwise ping-pong,
    /// in-place and boundary members, three-stage rotations). 0 keeps the
    /// classic straight-line corpus byte for byte.
    pub p_time_loop: f64,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            min_kernels: 2,
            max_kernels: 5,
            max_arrays: 5,
            max_radius: 2,
            p_chain: 0.65,
            domains: vec![(32, 16, 6), (24, 24, 8), (48, 8, 6), (16, 16, 10)],
            blocks: vec![(16, 8), (8, 8), (16, 4), (32, 4)],
            p_time_loop: 0.0,
        }
    }
}

impl GenConfig {
    /// The `--temporal` corpus: every program carries a host time loop,
    /// with thread blocks large enough that folded halos stay legal
    /// (`2·T·Σr < block edge`) at degrees up to 4, and domains wide enough
    /// that the folded interior is non-trivial.
    pub fn temporal() -> GenConfig {
        GenConfig {
            p_time_loop: 1.0,
            domains: vec![(64, 32, 6), (48, 48, 6), (96, 32, 6)],
            blocks: vec![(32, 32), (32, 16)],
            ..GenConfig::default()
        }
    }
}

/// One generated program, tagged with the seed that produced it.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The generator seed (replay with `cargo run -p sf-fuzz -- --seed N`).
    pub seed: u64,
    /// The program.
    pub program: Program,
}

/// Launch arguments matching [`b::params_3d`]'s parameter order exactly:
/// deduplicated reads that are not also writes (const), then writes.
fn launch_args(reads: &[String], writes: &[String]) -> Vec<String> {
    let mut args: Vec<String> = Vec::new();
    for r in reads {
        if !writes.contains(r) && !args.contains(r) {
            args.push(r.clone());
        }
    }
    for w in writes {
        args.push(w.clone());
    }
    args
}

/// The standard kernel frame: thread mapping + interior guard around `inner`.
fn standard_body(radius: i64, inner: Vec<Stmt>) -> Vec<Stmt> {
    let mut body = b::thread_mapping_2d();
    body.push(b::interior_guard(radius, inner));
    body
}

struct Gen<'c> {
    rng: SmallRng,
    cfg: &'c GenConfig,
    arrays: Vec<String>,
    /// Arrays written so far, most recent last (chain bias source).
    recent: Vec<String>,
}

impl Gen<'_> {
    fn coef(&mut self) -> f64 {
        // Two-decimal coefficients keep printed repros readable.
        self.rng.gen_range(5u32..95) as f64 / 100.0
    }

    /// Draw a read array, preferring recently written arrays (precedence
    /// chains and shared-array reuse), excluding `not`.
    fn pick_read(&mut self, not: &[&String]) -> String {
        let chain: Vec<&String> = self
            .recent
            .iter()
            .rev()
            .take(3)
            .filter(|a| !not.contains(a))
            .collect();
        if !chain.is_empty() && self.rng.gen_bool(self.cfg.p_chain) {
            return (*chain.choose(&mut self.rng).unwrap()).clone();
        }
        self.pick_any(not)
    }

    fn pick_write(&mut self, not: &[&String]) -> String {
        self.pick_any(not)
    }

    /// Uniform draw from the pool, preferring arrays outside `not` but
    /// falling back to the full pool when the exclusions exhaust it
    /// (pointwise same-offset reuse of a written array is well-defined).
    fn pick_any(&mut self, not: &[&String]) -> String {
        let pool: Vec<&String> = self.arrays.iter().filter(|a| !not.contains(a)).collect();
        if pool.is_empty() {
            return self
                .arrays
                .choose(&mut self.rng)
                .expect("non-empty array pool")
                .clone();
        }
        (*pool.choose(&mut self.rng).unwrap()).clone()
    }

    fn note_write(&mut self, array: &str) {
        self.recent.retain(|a| a != array);
        self.recent.push(array.to_string());
    }

    /// Weighted pointwise combination of `reads` at the center point.
    fn pointwise_expr(&mut self, reads: &[String]) -> Expr {
        let mut e = b::flt(self.coef());
        for r in reads {
            let c = self.coef();
            e = b::add(e, b::mul(b::flt(c), b::at3(r, 0, 0, 0)));
        }
        e
    }

    fn finish(
        &mut self,
        name: &str,
        reads: Vec<String>,
        writes: Vec<String>,
        radius: i64,
        inner: Vec<Stmt>,
    ) -> (Kernel, Vec<String>) {
        let read_refs: Vec<&str> = reads.iter().map(String::as_str).collect();
        let write_refs: Vec<&str> = writes.iter().map(String::as_str).collect();
        let kernel = Kernel {
            name: name.into(),
            params: b::params_3d(&read_refs, &write_refs),
            body: standard_body(radius, inner),
        };
        let args = launch_args(&reads, &writes);
        for w in &writes {
            self.note_write(w);
        }
        (kernel, args)
    }

    /// A foldable time-loop step: lateral star stencil of `radius` that
    /// reads only the current k-plane of `read` and writes the interior of
    /// `write` — the shape the temporal transform can fold.
    fn lateral_step(
        &mut self,
        name: &str,
        read: &str,
        write: &str,
        radius: i64,
    ) -> (Kernel, Vec<String>) {
        let mut e = b::mul(b::flt(self.coef()), b::at3(read, 0, 0, 0));
        for d in 1..=radius {
            let ring = [
                b::at3(read, 0, 0, d),
                b::at3(read, 0, 0, -d),
                b::at3(read, 0, d, 0),
                b::at3(read, 0, -d, 0),
            ]
            .into_iter()
            .reduce(b::add)
            .expect("four ring points");
            e = b::add(e, b::mul(b::flt(self.coef() / d as f64), ring));
        }
        self.finish(
            name,
            vec![read.to_string()],
            vec![write.to_string()],
            radius,
            vec![b::vertical_loop(0, vec![b::store3(write, e)])],
        )
    }

    /// A pointwise time-loop step `write = f(read)` (radius-1 guard,
    /// offset-0 reads): foldable with no halo growth.
    fn pointwise_step(&mut self, name: &str, read: &str, write: &str) -> (Kernel, Vec<String>) {
        let reads = vec![read.to_string()];
        let e = self.pointwise_expr(&reads);
        self.finish(
            name,
            reads,
            vec![write.to_string()],
            1,
            vec![b::vertical_loop(0, vec![b::store3(write, e)])],
        )
    }

    fn kernel(&mut self, name: &str) -> (Kernel, Vec<String>) {
        match self.rng.gen_range(0u32..100) {
            // Pointwise update, 1–3 inputs (fusion fodder, reuse of chains).
            0..=24 => {
                let write = self.pick_write(&[]);
                let n = self.rng.gen_range(1usize..=3);
                let mut reads = Vec::new();
                for _ in 0..n {
                    reads.push(self.pick_read(&[&write]));
                }
                reads.dedup();
                let e = self.pointwise_expr(&reads);
                self.finish(
                    name,
                    reads,
                    vec![write.clone()],
                    0,
                    vec![b::vertical_loop(0, vec![b::store3(&write, e)])],
                )
            }
            // Volumetric star stencil, radius 1..=max_radius.
            25..=44 => {
                let write = self.pick_write(&[]);
                let main = self.pick_read(&[&write]);
                let radius = self.rng.gen_range(1..=self.cfg.max_radius);
                let e = b::stencil_cross(&main, radius, self.coef(), self.coef() / 6.0);
                self.finish(
                    name,
                    vec![main],
                    vec![write.clone()],
                    radius,
                    vec![b::vertical_loop(radius, vec![b::store3(&write, e)])],
                )
            }
            // Lateral (x/y-only) stencil: interior guard, full vertical range.
            45..=56 => {
                let write = self.pick_write(&[]);
                let main = self.pick_read(&[&write]);
                let radius = self.rng.gen_range(1..=self.cfg.max_radius);
                let mut e = b::mul(b::flt(self.coef()), b::at3(&main, 0, 0, 0));
                for d in 1..=radius {
                    let ring = [
                        b::at3(&main, 0, 0, d),
                        b::at3(&main, 0, 0, -d),
                        b::at3(&main, 0, d, 0),
                        b::at3(&main, 0, -d, 0),
                    ]
                    .into_iter()
                    .reduce(b::add)
                    .expect("four ring points");
                    e = b::add(e, b::mul(b::flt(self.coef() / d as f64), ring));
                }
                self.finish(
                    name,
                    vec![main],
                    vec![write.clone()],
                    radius,
                    vec![b::vertical_loop(0, vec![b::store3(&write, e)])],
                )
            }
            // Interior pointwise: radius-1 guard, no stencil offsets.
            57..=64 => {
                let write = self.pick_write(&[]);
                let read = self.pick_read(&[&write]);
                let e = self.pointwise_expr(std::slice::from_ref(&read));
                self.finish(
                    name,
                    vec![read],
                    vec![write.clone()],
                    1,
                    vec![b::vertical_loop(0, vec![b::store3(&write, e)])],
                )
            }
            // Fat kernel: two independent pointwise parts (fission fodder).
            65..=76 => {
                let w1 = self.pick_write(&[]);
                let w2 = self.pick_write(&[&w1]);
                let r1 = self.pick_read(&[&w1, &w2]);
                let r2 = self.pick_read(&[&w1, &w2]);
                let e1 = self.pointwise_expr(std::slice::from_ref(&r1));
                let e2 = self.pointwise_expr(std::slice::from_ref(&r2));
                let mut reads = vec![r1, r2];
                reads.dedup();
                self.finish(
                    name,
                    reads,
                    vec![w1.clone(), w2.clone()],
                    0,
                    vec![b::vertical_loop(
                        0,
                        vec![b::store3(&w1, e1), b::store3(&w2, e2)],
                    )],
                )
            }
            // In-place pointwise update: a self dependence cycle. Reads
            // stay at offset 0 so the update is race-free within a launch.
            77..=84 => {
                let a = self.pick_write(&[]);
                let e = b::add(
                    b::mul(b::flt(self.coef()), b::at3(&a, 0, 0, 0)),
                    b::flt(self.coef()),
                );
                self.finish(
                    name,
                    vec![a.clone()],
                    vec![a.clone()],
                    0,
                    vec![b::vertical_loop(0, vec![b::store3(&a, e)])],
                )
            }
            // Boundary kernel: writes the k=0 plane from the k=1 plane of
            // the same array (no vertical sweep).
            85..=91 => {
                let a = self.pick_write(&[]);
                let c = self.coef();
                let stmt = b::store3_plane(&a, 0, b::mul(b::flt(c), b::at3_plane(&a, 1, 0, 0)));
                self.finish(name, vec![a.clone()], vec![a.clone()], 0, vec![stmt])
            }
            // Compute-bound kernel: transcendental-heavy, operational
            // intensity above the ridge, so the filter stage excludes it.
            92..=95 => {
                let write = self.pick_write(&[]);
                let read = self.pick_read(&[&write]);
                let mut e = b::at3(&read, 0, 0, 0);
                for _ in 0..6 {
                    e = Expr::Call {
                        fun: Intrinsic::Exp,
                        args: vec![b::mul(b::flt(0.01), e)],
                    };
                    e = Expr::Call {
                        fun: Intrinsic::Log,
                        args: vec![b::add(
                            b::flt(1.5),
                            Expr::Call {
                                fun: Intrinsic::Fabs,
                                args: vec![e],
                            },
                        )],
                    };
                }
                self.finish(
                    name,
                    vec![read],
                    vec![write.clone()],
                    0,
                    vec![b::vertical_loop(0, vec![b::store3(&write, e)])],
                )
            }
            // Latency-bound kernel: a chain of flop-free locals.
            _ => {
                let write = self.pick_write(&[]);
                let read = self.pick_read(&[&write]);
                let locals = self.rng.gen_range(2usize..=5);
                let mut stmts = Vec::new();
                let mut acc = b::at3(&read, 0, 0, 0);
                for l in 0..locals {
                    let t = format!("v{l}");
                    stmts.push(Stmt::VarDecl {
                        name: t.clone(),
                        ty: ScalarType::F64,
                        init: Some(acc),
                    });
                    acc = b::var(&t);
                }
                stmts.push(b::store3(&write, acc));
                self.finish(
                    name,
                    vec![read],
                    vec![write.clone()],
                    0,
                    vec![b::vertical_loop(0, stmts)],
                )
            }
        }
    }
}

/// Generate one program from a seed.
pub fn generate(seed: u64, cfg: &GenConfig) -> Generated {
    let mut g = Gen {
        rng: SmallRng::seed_from_u64(seed),
        cfg,
        arrays: Vec::new(),
        recent: Vec::new(),
    };
    let n_arrays = g.rng.gen_range(2usize..=cfg.max_arrays.max(2));
    g.arrays = (0..n_arrays).map(|i| format!("a{i}")).collect();
    let n_kernels = g
        .rng
        .gen_range(cfg.min_kernels..=cfg.max_kernels.max(cfg.min_kernels));
    let domain = *cfg.domains.choose(&mut g.rng).expect("non-empty domains");
    let block = *cfg.blocks.choose(&mut g.rng).expect("non-empty blocks");
    // Guarded so a zero probability draws nothing: the classic corpus
    // stays byte-for-byte identical under the default configuration.
    if cfg.p_time_loop > 0.0 && g.rng.gen_bool(cfg.p_time_loop.min(1.0)) {
        return generate_looped(g, seed, domain, block);
    }

    let mut kernels = Vec::new();
    let mut launches: Vec<(String, Vec<String>)> = Vec::new();
    for ki in 0..n_kernels {
        let name = format!("k{ki}");
        let (kernel, args) = g.kernel(&name);
        kernels.push(kernel);
        launches.push((name, args));
    }

    // Only arrays some launch actually touches are allocated and copied.
    let used: Vec<&str> = g
        .arrays
        .iter()
        .filter(|a| launches.iter().any(|(_, args)| args.contains(a)))
        .map(String::as_str)
        .collect();
    let launch_refs: Vec<(&str, Vec<&str>)> = launches
        .iter()
        .map(|(k, args)| (k.as_str(), args.iter().map(String::as_str).collect()))
        .collect();
    let host = b::simple_host(&used, &launch_refs, domain, (block.0, block.1));
    Generated {
        seed,
        program: Program { kernels, host },
    }
}

/// Build a time-loop program: an optional pointwise prologue, a loop body
/// drawn from the temporal archetypes, and an optional pointwise epilogue,
/// assembled with [`b::looped_host`]. The body archetypes cover both the
/// foldable shapes (ping-pong pairs, rotations) and the shapes the
/// legality analysis must reject with a safe degradation (in-place
/// members, boundary-plane members).
fn generate_looped(mut g: Gen, seed: u64, domain: (i64, i64, i64), block: (i64, i64)) -> Generated {
    // Trip counts exercise the divisibility rule (2T must divide the trip
    // count): 8 admits degrees 2 and 4, 12 admits only 2, 4 admits only 2,
    // and 6 admits neither even degree.
    let steps = *[4i64, 6, 8, 12]
        .choose(&mut g.rng)
        .expect("non-empty steps");
    // The loop nucleus ping-pongs between up to three arrays.
    while g.arrays.len() < 3 {
        let next = format!("a{}", g.arrays.len());
        g.arrays.push(next);
    }
    let (p, q, r) = (
        g.arrays[0].clone(),
        g.arrays[1].clone(),
        g.arrays[2].clone(),
    );

    let mut kernels: Vec<Kernel> = Vec::new();
    let mut body: Vec<(String, Vec<String>)> = Vec::new();
    let emit = |kernels: &mut Vec<Kernel>,
                list: &mut Vec<(String, Vec<String>)>,
                (k, args): (Kernel, Vec<String>)| {
        list.push((k.name.clone(), args));
        kernels.push(k);
    };
    match g.rng.gen_range(0u32..100) {
        // Foldable lateral ping-pong pair (the production time-step shape).
        0..=44 => {
            let radius = g.rng.gen_range(1..=g.cfg.max_radius);
            let s0 = g.lateral_step("step_ab", &p, &q, radius);
            let s1 = g.lateral_step("step_ba", &q, &p, radius);
            emit(&mut kernels, &mut body, s0);
            emit(&mut kernels, &mut body, s1);
        }
        // Pointwise ping-pong: folds with no halo growth at all.
        45..=59 => {
            let s0 = g.pointwise_step("mix_ab", &p, &q);
            let s1 = g.pointwise_step("mix_ba", &q, &p);
            emit(&mut kernels, &mut body, s0);
            emit(&mut kernels, &mut body, s1);
        }
        // In-place member rides in the loop: the fold must be rejected
        // (loop-carried self dependence) and the ladder must degrade.
        60..=74 => {
            let e = b::add(
                b::mul(b::flt(g.coef()), b::at3(&p, 0, 0, 0)),
                b::flt(g.coef()),
            );
            let decay = g.finish(
                "decay",
                vec![p.clone()],
                vec![p.clone()],
                0,
                vec![b::vertical_loop(0, vec![b::store3(&p, e)])],
            );
            let s1 = g.lateral_step("smooth", &p, &q, 1);
            emit(&mut kernels, &mut body, decay);
            emit(&mut kernels, &mut body, s1);
        }
        // Boundary-plane member inside the loop: off-plane self dependence,
        // also rejected by the fold legality rules.
        75..=87 => {
            let s0 = g.lateral_step("step_ab", &p, &q, 1);
            let c = g.coef();
            let stmt = b::store3_plane(&q, 0, b::mul(b::flt(c), b::at3_plane(&q, 1, 0, 0)));
            let bc = g.finish("bc", vec![q.clone()], vec![q.clone()], 0, vec![stmt]);
            let s2 = g.lateral_step("step_ba", &q, &p, 1);
            emit(&mut kernels, &mut body, s0);
            emit(&mut kernels, &mut body, bc);
            emit(&mut kernels, &mut body, s2);
        }
        // Three-stage rotation p→q→r→p: a longer foldable cycle.
        _ => {
            let s0 = g.lateral_step("rot_pq", &p, &q, 1);
            let s1 = g.lateral_step("rot_qr", &q, &r, 1);
            let s2 = g.lateral_step("rot_rp", &r, &p, 1);
            emit(&mut kernels, &mut body, s0);
            emit(&mut kernels, &mut body, s1);
            emit(&mut kernels, &mut body, s2);
        }
    }

    let mut prologue: Vec<(String, Vec<String>)> = Vec::new();
    if g.rng.gen_bool(0.5) {
        let read = g.pick_read(&[&p]);
        let warm = g.pointwise_step("warm", &read, &p);
        emit(&mut kernels, &mut prologue, warm);
    }
    let mut epilogue: Vec<(String, Vec<String>)> = Vec::new();
    if g.rng.gen_bool(0.5) {
        let write = g.pick_write(&[&p]);
        let tail = g.pointwise_step("tail", &p, &write);
        emit(&mut kernels, &mut epilogue, tail);
    }

    let used: Vec<&str> = g
        .arrays
        .iter()
        .filter(|a| {
            prologue
                .iter()
                .chain(&body)
                .chain(&epilogue)
                .any(|(_, args)| args.contains(a))
        })
        .map(String::as_str)
        .collect();
    let pro_refs: Vec<(&str, Vec<&str>)> = prologue
        .iter()
        .map(|(k, a)| (k.as_str(), a.iter().map(String::as_str).collect()))
        .collect();
    let body_refs: Vec<(&str, Vec<&str>)> = body
        .iter()
        .map(|(k, a)| (k.as_str(), a.iter().map(String::as_str).collect()))
        .collect();
    let epi_refs: Vec<(&str, Vec<&str>)> = epilogue
        .iter()
        .map(|(k, a)| (k.as_str(), a.iter().map(String::as_str).collect()))
        .collect();
    let host = b::looped_host(
        &used,
        &pro_refs,
        steps,
        &body_refs,
        &epi_refs,
        domain,
        (block.0, block.1),
    );
    Generated {
        seed,
        program: Program { kernels, host },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_minicuda::host::ExecutablePlan;
    use sf_minicuda::printer::print_program;
    use sf_minicuda::reparse;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        for seed in [0u64, 1, 7, 42, 999] {
            let a = generate(seed, &cfg);
            let b = generate(seed, &cfg);
            assert_eq!(a.program, b.program, "seed {seed}");
            assert_eq!(print_program(&a.program), print_program(&b.program));
        }
    }

    #[test]
    fn seeds_cover_distinct_programs() {
        let cfg = GenConfig::default();
        let mut printed: Vec<String> = (0..20)
            .map(|s| print_program(&generate(s, &cfg).program))
            .collect();
        printed.sort();
        printed.dedup();
        assert!(
            printed.len() > 10,
            "only {} distinct programs in 20 seeds",
            printed.len()
        );
    }

    #[test]
    fn default_corpus_has_no_time_loops() {
        let cfg = GenConfig::default();
        for seed in 0..20u64 {
            let g = generate(seed, &cfg);
            assert!(
                !g.program
                    .host
                    .iter()
                    .any(|s| matches!(s, sf_minicuda::ast::HostStmt::Repeat { .. })),
                "seed {seed}: default corpus grew a time loop"
            );
        }
    }

    #[test]
    fn temporal_corpus_is_deterministic_and_looped() {
        let cfg = GenConfig::temporal();
        for seed in 0..20u64 {
            let a = generate(seed, &cfg);
            let b = generate(seed, &cfg);
            assert_eq!(a.program, b.program, "seed {seed}");
            let repeats = a
                .program
                .host
                .iter()
                .filter(|s| matches!(s, sf_minicuda::ast::HostStmt::Repeat { .. }))
                .count();
            assert_eq!(repeats, 1, "seed {seed}: expected exactly one time loop");
        }
    }

    #[test]
    fn temporal_corpus_is_executable_and_round_trips() {
        let cfg = GenConfig::temporal();
        for seed in 0..40u64 {
            let g = generate(seed, &cfg);
            let plan = ExecutablePlan::from_program(&g.program)
                .unwrap_or_else(|e| panic!("seed {seed}: not executable: {e}"));
            assert!(!plan.launches.is_empty(), "seed {seed}: no launches");
            let p2 = reparse(&g.program).unwrap_or_else(|e| panic!("seed {seed}: reparse: {e}"));
            assert_eq!(g.program, p2, "seed {seed}: printer→parser round trip");
        }
    }

    #[test]
    fn temporal_corpus_covers_the_archetypes() {
        let cfg = GenConfig::temporal();
        let mut saw_pingpong = false;
        let mut saw_inplace = false;
        let mut saw_boundary = false;
        let mut saw_rotation = false;
        for seed in 0..60u64 {
            let g = generate(seed, &cfg);
            let names: Vec<&str> = g.program.kernels.iter().map(|k| k.name.as_str()).collect();
            saw_pingpong |=
                names.contains(&"step_ab") && names.contains(&"step_ba") && !names.contains(&"bc");
            saw_inplace |= names.contains(&"decay");
            saw_boundary |= names.contains(&"bc");
            saw_rotation |= names.contains(&"rot_pq");
        }
        assert!(saw_pingpong, "no ping-pong pair in 60 seeds");
        assert!(saw_inplace, "no in-place member in 60 seeds");
        assert!(saw_boundary, "no boundary member in 60 seeds");
        assert!(saw_rotation, "no rotation in 60 seeds");
    }

    #[test]
    fn generated_programs_are_executable_and_round_trip() {
        let cfg = GenConfig::default();
        for seed in 0..40u64 {
            let g = generate(seed, &cfg);
            let plan = ExecutablePlan::from_program(&g.program)
                .unwrap_or_else(|e| panic!("seed {seed}: not executable: {e}"));
            assert!(!plan.launches.is_empty(), "seed {seed}: no launches");
            let p2 = reparse(&g.program).unwrap_or_else(|e| panic!("seed {seed}: reparse: {e}"));
            assert_eq!(g.program, p2, "seed {seed}: printer→parser round trip");
        }
    }
}
