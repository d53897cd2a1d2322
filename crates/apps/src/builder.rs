//! Shared machinery for the application generators: a small DSL over the
//! minicuda AST builders producing the kernel archetypes found in
//! production stencil codes.

use sf_minicuda::ast::*;
use sf_minicuda::builder as b;

/// Generation parameters.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct AppConfig {
    /// Domain extents (x fastest).
    pub nx: i64,
    pub ny: i64,
    pub nz: i64,
    /// Default thread block.
    pub bx: i64,
    pub by: i64,
    /// Scales the number of repeated stages (1.0 = the paper-sized kernel
    /// counts; tests use smaller factors).
    pub stage_scale: f64,
}

impl AppConfig {
    /// Paper-sized kernel counts on a domain large enough that launch
    /// overhead is a realistic fraction of kernel runtime.
    pub fn full() -> AppConfig {
        AppConfig {
            nx: 256,
            ny: 32,
            nz: 16,
            bx: 32,
            by: 8,
            stage_scale: 1.0,
        }
    }

    /// Scaled-down instance for tests: fewer stages, smaller domain.
    pub fn test() -> AppConfig {
        AppConfig {
            nx: 64,
            ny: 16,
            nz: 16,
            bx: 16,
            by: 8,
            stage_scale: 0.25,
        }
    }

    /// Scale a stage count.
    pub fn stages(&self, full: usize) -> usize {
        ((full as f64 * self.stage_scale).round() as usize).max(1)
    }
}

/// The paper's published attributes for an application (Table 1 plus the
/// speedup band of Figures 4–5), which `sf-bench paper`
/// (`crates/bench/src/paper.rs`) compares its measured rows against.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct PaperRow {
    pub name: &'static str,
    pub original_kernels: usize,
    pub arrays: usize,
    pub target_kernels: usize,
    pub new_kernels: usize,
    /// Expected speedup band (fusion+fission+tuning, automated).
    pub speedup_low: f64,
    pub speedup_high: f64,
    /// Whether fission (not fusion) is expected to drive the speedup.
    pub fission_driven: bool,
}

/// A generated application.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct App {
    pub paper: PaperRow,
    pub program: Program,
    pub config: AppConfig,
}

/// The generator: accumulates arrays, kernels and launches.
pub struct AppBuilder {
    cfg: AppConfig,
    arrays3: Vec<String>,
    arrays4: Vec<(String, i64)>,
    kernels: Vec<Kernel>,
    launches: Vec<(String, Vec<String>)>,
    /// Deterministic coefficient stream (LCG).
    state: u64,
    /// Launch-index range wrapped in a recorded host time loop, with its
    /// trip count.
    time_loop: Option<(usize, usize, i64)>,
    /// Open marker set by [`AppBuilder::begin_time_loop`].
    loop_mark: Option<usize>,
}

impl AppBuilder {
    /// Start building an app.
    pub fn new(cfg: &AppConfig, seed: u64) -> AppBuilder {
        AppBuilder {
            cfg: cfg.clone(),
            arrays3: Vec::new(),
            arrays4: Vec::new(),
            kernels: Vec::new(),
            launches: Vec::new(),
            state: seed.wrapping_mul(0x9E3779B97F4A7C15) | 1,
            time_loop: None,
            loop_mark: None,
        }
    }

    /// Start recording a host time loop: every launch registered until the
    /// matching [`AppBuilder::end_time_loop`] lands inside the loop body.
    pub fn begin_time_loop(&mut self) {
        assert!(
            self.loop_mark.is_none() && self.time_loop.is_none(),
            "one time loop per app"
        );
        self.loop_mark = Some(self.launches.len());
    }

    /// Close the time loop opened by [`AppBuilder::begin_time_loop`] with
    /// the given trip count.
    pub fn end_time_loop(&mut self, steps: i64) {
        let start = self.loop_mark.take().expect("begin_time_loop first");
        assert!(self.launches.len() > start, "empty time loop body");
        self.time_loop = Some((start, self.launches.len(), steps));
    }

    /// Next deterministic coefficient in (0.05, 0.95).
    pub fn coef(&mut self) -> f64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        0.05 + 0.9 * ((self.state >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Register (or reuse) a 3-D array.
    pub fn array(&mut self, name: &str) -> String {
        if !self.arrays3.iter().any(|a| a == name) {
            self.arrays3.push(name.to_string());
        }
        name.to_string()
    }

    /// Register a 4-D array with the given innermost (slowest) extent.
    pub fn array4(&mut self, name: &str, m: i64) -> String {
        if !self.arrays4.iter().any(|(a, _)| a == name) {
            self.arrays4.push((name.to_string(), m));
        }
        name.to_string()
    }

    /// Number of kernels so far.
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// Number of arrays so far.
    pub fn array_count(&self) -> usize {
        self.arrays3.len() + self.arrays4.len()
    }

    /// Register a kernel; the launch's array arguments are derived from the
    /// kernel's own parameter list (so read/write overlaps and duplicate
    /// reads bind each array exactly once).
    fn add(&mut self, kernel: Kernel, _arrays: Vec<String>) {
        let arrays: Vec<String> = kernel
            .array_params()
            .iter()
            .map(|s| s.to_string())
            .collect();
        self.launches.push((kernel.name.clone(), arrays));
        self.kernels.push(kernel);
    }

    /// Register a hand-built kernel and its launch. App modules use this
    /// for archetypes the DSL lacks; every array parameter must be a
    /// registered device array.
    pub fn custom(&mut self, kernel: Kernel, arrays: Vec<String>) {
        for a in &arrays {
            self.array(a);
        }
        self.add(kernel, arrays);
    }

    fn standard_body(&self, radius: i64, stmts: Vec<Stmt>) -> Vec<Stmt> {
        let mut body = b::thread_mapping_2d();
        body.push(b::interior_guard(radius, stmts));
        body
    }

    /// A weighted sum of the reads at zero offset plus a constant.
    fn pointwise_expr(&mut self, reads: &[&str]) -> Expr {
        let mut e = b::flt(self.coef());
        for r in reads {
            e = b::add(e, b::mul(b::flt(self.coef()), b::at3(r, 0, 0, 0)));
        }
        e
    }

    /// Full-domain pointwise producer: `write = Σ ci·readi + c`.
    pub fn pointwise(&mut self, name: &str, reads: &[&str], write: &str) {
        for r in reads {
            self.array(r);
        }
        self.array(write);
        let expr = self.pointwise_expr(reads);
        let body = self.standard_body(0, vec![b::vertical_loop(0, vec![b::store3(write, expr)])]);
        let kernel = Kernel {
            name: name.into(),
            params: b::params_3d(reads, &[write]),
            body,
        };
        let mut arrays: Vec<String> = reads.iter().map(|s| s.to_string()).collect();
        arrays.push(write.to_string());
        self.add(kernel, arrays);
    }

    /// Lateral (x/y) star stencil on `main` plus pointwise extras: interior
    /// guard in x/y, full vertical range, no vertical offsets — the shape of
    /// flux-divergence consumers, and the one complex fusion supports.
    pub fn lateral_stencil(
        &mut self,
        name: &str,
        main: &str,
        extras: &[&str],
        write: &str,
        radius: i64,
    ) {
        self.array(main);
        for r in extras {
            self.array(r);
        }
        self.array(write);
        let mut e = b::mul(b::flt(self.coef()), b::at3(main, 0, 0, 0));
        for d in 1..=radius {
            let w = self.coef() / d as f64;
            let ring = [
                b::at3(main, 0, 0, d),
                b::at3(main, 0, 0, -d),
                b::at3(main, 0, d, 0),
                b::at3(main, 0, -d, 0),
            ]
            .into_iter()
            .reduce(b::add)
            .expect("four ring points");
            e = b::add(e, b::mul(b::flt(w), ring));
        }
        for r in extras {
            e = b::add(e, b::mul(b::flt(self.coef()), b::at3(r, 0, 0, 0)));
        }
        let body = self.standard_body(radius, vec![b::vertical_loop(0, vec![b::store3(write, e)])]);
        let mut reads: Vec<&str> = vec![main];
        reads.extend(extras);
        let kernel = Kernel {
            name: name.into(),
            params: b::params_3d(&reads, &[write]),
            body,
        };
        self.add(kernel, vec![]);
    }

    /// Pointwise update over the interior (guard radius 1, full vertical
    /// range): the consumer shape that matches a lateral-stencil producer's
    /// write domain, so chains stay fusable.
    pub fn interior_pointwise(&mut self, name: &str, reads: &[&str], write: &str) {
        for r in reads {
            self.array(r);
        }
        self.array(write);
        let expr = self.pointwise_expr(reads);
        let body = self.standard_body(1, vec![b::vertical_loop(0, vec![b::store3(write, expr)])]);
        let kernel = Kernel {
            name: name.into(),
            params: b::params_3d(reads, &[write]),
            body,
        };
        self.add(kernel, vec![]);
    }

    /// Star stencil of the given radius on `main` plus pointwise extras:
    /// interior guard, vertical loop.
    pub fn stencil(&mut self, name: &str, main: &str, extras: &[&str], write: &str, radius: i64) {
        self.array(main);
        for r in extras {
            self.array(r);
        }
        self.array(write);
        let mut e = b::mul(b::flt(self.coef()), b::at3(main, 0, 0, 0));
        for d in 1..=radius {
            let w = self.coef() / d as f64;
            let ring = [
                b::at3(main, 0, 0, d),
                b::at3(main, 0, 0, -d),
                b::at3(main, 0, d, 0),
                b::at3(main, 0, -d, 0),
                b::at3(main, d, 0, 0),
                b::at3(main, -d, 0, 0),
            ]
            .into_iter()
            .reduce(b::add)
            .expect("six ring points");
            e = b::add(e, b::mul(b::flt(w), ring));
        }
        for r in extras {
            e = b::add(e, b::mul(b::flt(self.coef()), b::at3(r, 0, 0, 0)));
        }
        let body = self.standard_body(
            radius,
            vec![b::vertical_loop(radius, vec![b::store3(write, e)])],
        );
        let mut reads: Vec<&str> = vec![main];
        reads.extend(extras);
        let kernel = Kernel {
            name: name.into(),
            params: b::params_3d(&reads, &[write]),
            body,
        };
        let mut arrays: Vec<String> = reads.iter().map(|s| s.to_string()).collect();
        arrays.push(write.to_string());
        self.add(kernel, arrays);
    }

    /// A "fat", fissionable kernel: several independent (reads → write)
    /// parts aggregated in one body (the AWP-ODC / B-CALM shape). Extra
    /// locals model the register pressure of the real fat kernels.
    pub fn fat(&mut self, name: &str, parts: &[(Vec<&str>, String)], extra_locals: usize) {
        let mut stmts = Vec::new();
        let mut all_reads: Vec<&str> = Vec::new();
        let mut all_writes: Vec<&str> = Vec::new();
        for (pi, (reads, write)) in parts.iter().enumerate() {
            for r in reads {
                self.array(r);
                if !all_reads.contains(r) {
                    all_reads.push(r);
                }
            }
            self.array(write);
            all_writes.push(write.as_str());
            // A chain of locals per part (register pressure).
            let locals = extra_locals / parts.len().max(1);
            let mut acc = self.pointwise_expr(reads);
            for l in 0..locals {
                let t = format!("t{pi}_{l}");
                stmts.push(Stmt::VarDecl {
                    name: t.clone(),
                    ty: ScalarType::F64,
                    init: Some(acc),
                });
                acc = b::add(b::var(&t), b::flt(self.coef()));
            }
            stmts.push(b::store3(write, acc));
        }
        let body = self.standard_body(0, vec![b::vertical_loop(0, stmts)]);
        let reads_only: Vec<&str> = all_reads
            .iter()
            .filter(|r| !all_writes.contains(r))
            .copied()
            .collect();
        let kernel = Kernel {
            name: name.into(),
            params: b::params_3d(&reads_only, &all_writes),
            body,
        };
        let mut arrays: Vec<String> = reads_only.iter().map(|s| s.to_string()).collect();
        arrays.extend(all_writes.iter().map(|s| s.to_string()));
        self.add(kernel, arrays);
    }

    /// A deep-nested kernel over 4-D arrays (tracer fields): the structure
    /// the paper's automatic code generator fails to merge (§6.2.2).
    pub fn deep(&mut self, name: &str, read4: &str, extra3: &str, write4: &str, m: i64) {
        self.array4(read4, m);
        self.array4(write4, m);
        self.array(extra3);
        let l = "l";
        let inner = Stmt::For {
            var: l.into(),
            init: b::int(0),
            cond: b::lt(b::var(l), b::int(m)),
            step: b::int(1),
            body: vec![Stmt::Assign {
                target: LValue::Index {
                    array: write4.into(),
                    indices: vec![b::var(l), b::var("k"), b::var("j"), b::var("i")],
                },
                op: AssignOp::Assign,
                value: b::add(
                    b::mul(
                        b::flt(self.coef()),
                        Expr::idx(
                            read4,
                            vec![b::var(l), b::var("k"), b::var("j"), b::var("i")],
                        ),
                    ),
                    b::mul(b::flt(self.coef()), b::at3(extra3, 0, 0, 0)),
                ),
            }],
        };
        let body = self.standard_body(0, vec![b::vertical_loop(0, vec![inner])]);
        let params = vec![
            Param::Array {
                name: read4.into(),
                elem: ScalarType::F64,
                is_const: true,
            },
            Param::Array {
                name: extra3.into(),
                elem: ScalarType::F64,
                is_const: true,
            },
            Param::Array {
                name: write4.into(),
                elem: ScalarType::F64,
                is_const: false,
            },
            Param::Scalar {
                name: "nx".into(),
                ty: ScalarType::I32,
            },
            Param::Scalar {
                name: "ny".into(),
                ty: ScalarType::I32,
            },
            Param::Scalar {
                name: "nz".into(),
                ty: ScalarType::I32,
            },
        ];
        let kernel = Kernel {
            name: name.into(),
            params,
            body,
        };
        self.add(
            kernel,
            vec![read4.to_string(), extra3.to_string(), write4.to_string()],
        );
    }

    /// Boundary kernel: writes one plane (k = 0) from the plane above it —
    /// small iteration count over an array subset (filtered, §3.2.2).
    pub fn boundary(&mut self, name: &str, array: &str) {
        self.array(array);
        let c = self.coef();
        let stmt = Stmt::Assign {
            target: LValue::Index {
                array: array.into(),
                indices: vec![b::int(0), b::var("j"), b::var("i")],
            },
            op: AssignOp::Assign,
            value: b::mul(
                b::flt(c),
                Expr::idx(array, vec![b::int(1), b::var("j"), b::var("i")]),
            ),
        };
        let body = self.standard_body(0, vec![stmt]);
        let kernel = Kernel {
            name: name.into(),
            params: b::params_3d(&[], &[array]),
            body,
        };
        self.add(kernel, vec![array.to_string()]);
    }

    /// Compute-bound kernel: transcendental-heavy pointwise update whose
    /// operational intensity exceeds the Kepler ridge (excluded, §3.2.2).
    pub fn compute_bound(&mut self, name: &str, read: &str, write: &str) {
        self.array(read);
        self.array(write);
        // 12 exp/pow-class calls ≈ 96+ flops against 16 bytes/site.
        let mut e = b::at3(read, 0, 0, 0);
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
        let body = self.standard_body(0, vec![b::vertical_loop(0, vec![b::store3(write, e)])]);
        let kernel = Kernel {
            name: name.into(),
            params: b::params_3d(&[read], &[write]),
            body,
        };
        self.add(kernel, vec![read.to_string(), write.to_string()]);
    }

    /// Latency-bound kernel (the Fluam anomaly, §6.2.2): long chains of
    /// dependent loads through many locals crush the register budget and
    /// with it occupancy; the roofline test still says "memory-bound".
    pub fn latency_bound(&mut self, name: &str, read: &str, write: &str, locals: usize) {
        self.array(read);
        self.array(write);
        let mut stmts = Vec::new();
        let mut acc = b::at3(read, 0, 0, 0);
        for l in 0..locals {
            let t = format!("v{l}");
            stmts.push(Stmt::VarDecl {
                name: t.clone(),
                ty: ScalarType::F64,
                init: Some(acc),
            });
            // Pure data movement: no flops, so the operational intensity
            // stays below the ridge.
            acc = b::var(&t);
        }
        stmts.push(b::store3(write, acc));
        let body = self.standard_body(0, vec![b::vertical_loop(0, stmts)]);
        let kernel = Kernel {
            name: name.into(),
            params: b::params_3d(&[read], &[write]),
            body,
        };
        self.add(kernel, vec![read.to_string(), write.to_string()]);
    }

    /// Finish: assemble the program with allocations, H2D copies for every
    /// array, the launch sequence, and D2H copies.
    pub fn build(self, paper: PaperRow) -> App {
        let cfg = self.cfg.clone();
        let mut host = vec![
            HostStmt::LetInt {
                name: "nx".into(),
                value: b::int(cfg.nx),
            },
            HostStmt::LetInt {
                name: "ny".into(),
                value: b::int(cfg.ny),
            },
            HostStmt::LetInt {
                name: "nz".into(),
                value: b::int(cfg.nz),
            },
        ];
        for a in &self.arrays3 {
            host.push(HostStmt::Alloc {
                name: a.clone(),
                elem: ScalarType::F64,
                extents: vec![b::var("nz"), b::var("ny"), b::var("nx")],
            });
        }
        for (a, m) in &self.arrays4 {
            host.push(HostStmt::Alloc {
                name: a.clone(),
                elem: ScalarType::F64,
                extents: vec![b::int(*m), b::var("nz"), b::var("ny"), b::var("nx")],
            });
        }
        for a in self
            .arrays3
            .iter()
            .chain(self.arrays4.iter().map(|(a, _)| a))
        {
            host.push(HostStmt::CopyToDevice { array: a.clone() });
        }
        let launch_stmt = |kernel: &String, arrays: &Vec<String>| {
            let mut args: Vec<LaunchArg> =
                arrays.iter().map(|a| LaunchArg::Array(a.clone())).collect();
            for n in ["nx", "ny", "nz"] {
                args.push(LaunchArg::Scalar(b::var(n)));
            }
            HostStmt::Launch {
                kernel: kernel.clone(),
                grid: Dim3Expr {
                    x: b::div(b::add(b::var("nx"), b::int(cfg.bx - 1)), b::int(cfg.bx)),
                    y: b::div(b::add(b::var("ny"), b::int(cfg.by - 1)), b::int(cfg.by)),
                    z: b::int(1),
                },
                block: Dim3Expr::literal(cfg.bx, cfg.by, 1),
                args,
            }
        };
        assert!(self.loop_mark.is_none(), "unclosed time loop");
        match self.time_loop {
            None => {
                for (kernel, arrays) in &self.launches {
                    host.push(launch_stmt(kernel, arrays));
                }
            }
            Some((start, end, steps)) => {
                for (kernel, arrays) in &self.launches[..start] {
                    host.push(launch_stmt(kernel, arrays));
                }
                host.push(HostStmt::Repeat {
                    var: "t".into(),
                    count: b::int(steps),
                    body: self.launches[start..end]
                        .iter()
                        .map(|(k, a)| launch_stmt(k, a))
                        .collect(),
                });
                for (kernel, arrays) in &self.launches[end..] {
                    host.push(launch_stmt(kernel, arrays));
                }
            }
        }
        for a in self
            .arrays3
            .iter()
            .chain(self.arrays4.iter().map(|(a, _)| a))
        {
            host.push(HostStmt::CopyToHost { array: a.clone() });
        }
        App {
            paper,
            program: Program {
                kernels: self.kernels,
                host,
            },
            config: cfg,
        }
    }
}
