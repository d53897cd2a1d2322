//! Fusion code generation (§5.5).
//!
//! Given an ordered group of member kernels (with their launch records),
//! generate one new kernel that aggregates their code:
//!
//! - **merged** path: all members are single-sweep stencils; their bodies
//!   move into one shared vertical loop. Arrays read by several members are
//!   staged through `__shared__` tiles (+halo); arrays *produced* by one
//!   member and consumed by a later one (complex fusion) additionally get
//!   halo *recomputation* — the temporal-blocking scheme of §5.5.3 — and
//!   `__syncthreads()` barriers.
//! - **fallback** path: members that cannot merge (deep nested loops,
//!   multiple sweeps — exactly the cases §6.2.2 blames for the automated
//!   framework's performance gap) are concatenated sweep-after-sweep into
//!   one kernel: launch overhead is saved but inter-member reuse is not.
//!
//! The **manual oracle** mode ([`CodegenMode::Manual`]) applies the two
//! hand optimizations the paper credits the expert with: merging members
//! with deep nests into the shared loop anyway, and coalescing consecutive
//! segments with identical guards into a single branch (fewer divergent
//! warp branches).
//!
//! [`FusedKernel`] is the one kernel code generation emits: a temporal fold
//! ([`crate::temporal`]) is one more with its [`PingPong`] data set.

use crate::canon::{self, CanonMember, MemberStructure};
use crate::legality::{self, ArrayIds, Decision, Form, MemberFacts};
use sf_minicuda::ast::*;
use sf_minicuda::builder as b;
use sf_minicuda::host::{Dim3, HostValue, LaunchRecord, ResolvedArg};
use sf_minicuda::visit;
use std::collections::{BTreeMap, BTreeSet};

/// Codegen failure: the group cannot be fused soundly (the caller treats
/// the group as infeasible and falls back to unfused kernels).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenError(pub String);

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codegen error: {}", self.0)
    }
}

impl std::error::Error for CodegenError {}

impl From<canon::CanonError> for CodegenError {
    fn from(e: canon::CanonError) -> Self {
        CodegenError(e.0)
    }
}

pub use sf_plan::CodegenMode;

/// A staged array's tile description.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct StagedArray {
    pub array: String,
    pub rx: i64,
    pub ry: i64,
    pub tile_bytes: usize,
    /// Produced within the group (complex fusion) vs read-only staging.
    pub flow: bool,
    /// Producing member index (for flow arrays).
    pub producer: Option<usize>,
}

/// Report describing what the generator did for one group.
#[derive(Debug, Clone, PartialEq, Default)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct FusionReport {
    pub members: Vec<usize>,
    pub staged: Vec<StagedArray>,
    /// Complex fusion (barriers + halo recomputation) was required.
    pub complex: bool,
    /// Members merged into one shared sweep (vs fallback concatenation).
    pub merged: bool,
    pub smem_bytes: usize,
    /// Human-readable notes for the stage report.
    pub notes: Vec<String>,
}

/// The generated kernel plus its launch configuration — the one kernel
/// both generators emit, spatial fusion and a temporal fold alike.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct FusedKernel {
    pub kernel: Kernel,
    pub grid: Dim3,
    pub block: Dim3,
    /// The launch's arguments; a fold's odd launch (originals → shadows).
    pub args: Vec<ResolvedArg>,
    pub report: FusionReport,
    /// Set when the kernel folds a host time loop ([`crate::temporal`]).
    pub fold: Option<PingPong>,
}

/// What a temporal fold launches besides [`FusedKernel::args`]: the host
/// runs `R / 2T` iterations of the odd launch and an even one.
#[derive(Debug, Clone, PartialEq)]
pub struct PingPong {
    /// Arguments of the even launches (shadows → originals).
    pub args_even: Vec<ResolvedArg>,
    /// Shadow arrays the host must allocate: `(name, extents)`. The odd
    /// launch writes them fully, so no H2D copy is needed.
    pub shadows: Vec<(String, Vec<usize>)>,
}

/// Everything about a fusion group that does not depend on the thread-block
/// shape: canonicalized members, staging radii, and the verdict of every
/// block-independent legality rule, decided once in [`GroupAnalysis::new`]
/// by [`crate::legality::check`].
/// What remains per block is the tile footprint and three legality rules
/// ([`GroupAnalysis::smem_bytes`]) and the code itself
/// ([`GroupAnalysis::emit`]), so the tuner can price every candidate block
/// without generating a kernel for it.
#[derive(Debug)]
pub struct GroupAnalysis {
    name: String,
    mode: CodegenMode,
    smem_limit: usize,
    cms: Vec<CanonMember>,
    /// The fused kernel's parameters and the arguments binding them.
    params: Vec<Param>,
    args: Vec<ResolvedArg>,
    /// Thread coverage the members' own launches need.
    need_x: i64,
    need_y: i64,
    decision: Decision,
    /// Names of the arrays `decision`'s tiles stage.
    ids: ArrayIds,
}

/// Bytes of an `f64` tile covering `block` plus `rx`/`ry` halo cells per side.
pub(crate) fn tile_bytes(block: Dim3, rx: i64, ry: i64) -> usize {
    ((block.x as i64 + 2 * rx) * (block.y as i64 + 2 * ry) * 8) as usize
}

/// The fused launch grid for `block`, and the thread coverage after
/// rounding it up — guards must be emitted against the coverage, or a
/// retuned (larger) block would run threads past the domain.
pub(crate) fn grid_and_cover(need_x: i64, need_y: i64, block: Dim3) -> (Dim3, i64, i64) {
    let grid = Dim3::new(
        (need_x as u32).div_ceil(block.x),
        (need_y as u32).div_ceil(block.y),
        1,
    );
    (grid, (grid.x * block.x) as i64, (grid.y * block.y) as i64)
}

impl GroupAnalysis {
    /// Check every legality rule that holds or fails regardless of the
    /// block shape ([`crate::legality`]), then canonicalize the members.
    pub fn new(
        members: &[(&Kernel, &LaunchRecord)],
        mode: CodegenMode,
        name: &str,
        smem_limit: usize,
    ) -> Result<GroupAnalysis, CodegenError> {
        if members.len() < 2 {
            return Err(CodegenError("fusion group needs at least 2 members".into()));
        }
        // Decide from the members' facts; canonicalize only a group the
        // decision accepts.
        let bound: Vec<_> = members.iter().map(|(k, l)| canon::bind(k, l)).collect();
        let mut ids = ArrayIds::default();
        let mut facts: Vec<MemberFacts> = members
            .iter()
            .zip(&bound)
            .map(|((k, _), b)| MemberFacts::bound(k, b, &mut ids))
            .collect();
        ids.sort(&mut facts);
        let decision = legality::check(&facts.iter().collect::<Vec<_>>(), mode, &ids)?;
        let mut canon_scalars: BTreeMap<String, HostValue> = BTreeMap::new();
        let cms: Vec<CanonMember> = members
            .iter()
            .zip(bound)
            .enumerate()
            .map(|(idx, ((k, l), b))| {
                let b = b.expect("the decision refuses a member that does not bind");
                canon::canonicalize_bound(k, l, b, idx, &mut canon_scalars)
            })
            .collect();
        let (params, args) = build_params(&cms, &canon_scalars);
        Ok(GroupAnalysis {
            name: name.into(),
            mode,
            smem_limit,
            need_x: cms.iter().map(|m| m.launch_x).max().unwrap_or(1),
            need_y: cms.iter().map(|m| m.launch_y).max().unwrap_or(1),
            cms,
            params,
            args,
            decision,
            ids,
        })
    }

    /// Static shared memory of the kernel [`GroupAnalysis::emit`] generates
    /// for `block` — `Σ (bx+2rx)(by+2ry)·8` over the staged tiles — or the
    /// block-dependent legality rule `block` breaks: a halo wider than half
    /// the block, a footprint over the device cap, or a member whose
    /// barriers would need a bounds guard under the padded coverage.
    pub fn smem_bytes(&self, block: Dim3) -> Result<usize, CodegenError> {
        match &self.decision.form {
            Form::Merged { tiles, .. } => {
                let (bx, by) = (block.x as i64, block.y as i64);
                // Halo must fit in half a block on each side.
                for t in tiles {
                    if t.rx * 2 > bx || t.ry * 2 > by {
                        return Err(CodegenError(format!(
                            "halo radius of `{}` too large for block {}x{}",
                            self.ids.name(t.array),
                            bx,
                            by
                        )));
                    }
                }
                let smem_bytes = self.decision.footprint(block);
                if smem_bytes > self.smem_limit {
                    return Err(CodegenError(format!(
                        "group needs {smem_bytes} B shared memory, device limit {} B",
                        self.smem_limit
                    )));
                }
                Ok(smem_bytes)
            }
            Form::Concat {
                has_barrier,
                member_smem,
            } => {
                let (_, cover_x, cover_y) = grid_and_cover(self.need_x, self.need_y, block);
                for (m, &barrier) in self.cms.iter().zip(has_barrier) {
                    // A barrier cannot live inside a guard (it would
                    // diverge), and without the guard a padded coverage
                    // would run threads out of bounds.
                    if barrier && m.guard.condition(cover_x, cover_y).is_some() {
                        return Err(CodegenError(format!(
                            "member `{}` contains barriers but needs a bounds guard under \
                             the fused coverage; unfusable",
                            m.name
                        )));
                    }
                }
                Ok(*member_smem)
            }
        }
    }

    /// The launch grid of the kernel [`GroupAnalysis::emit`] generates for
    /// `block`.
    pub fn grid(&self, block: Dim3) -> Dim3 {
        grid_and_cover(self.need_x, self.need_y, block).0
    }

    /// Generate the fused kernel for one block shape.
    pub fn emit(&self, block: Dim3) -> Result<FusedKernel, CodegenError> {
        let smem_bytes = self.smem_bytes(block)?;
        let (grid, cover_x, cover_y) = grid_and_cover(self.need_x, self.need_y, block);
        let members = self.cms.iter().map(|m| m.seq).collect();
        let complex = self.decision.complex;
        let (body, report) = match &self.decision.form {
            Form::Merged { ranges, tiles } => {
                let staged: Vec<StagedArray> = tiles
                    .iter()
                    .map(|t| StagedArray {
                        array: self.ids.name(t.array).to_string(),
                        rx: t.rx,
                        ry: t.ry,
                        tile_bytes: tile_bytes(block, t.rx, t.ry),
                        flow: t.producer.is_some(),
                        producer: t.producer,
                    })
                    .collect();
                let body = self.merged_body(ranges, &staged, block, cover_x, cover_y)?;
                let report = FusionReport {
                    members,
                    complex,
                    merged: true,
                    smem_bytes,
                    notes: vec![format!(
                        "{} fusion of {} members; {} staged arrays, {} B shared memory",
                        if complex { "complex" } else { "simple" },
                        self.cms.len(),
                        staged.len(),
                        smem_bytes
                    )],
                    staged,
                };
                (body, report)
            }
            Form::Concat { .. } => {
                let report = FusionReport {
                    members,
                    staged: Vec::new(),
                    complex,
                    merged: false,
                    smem_bytes: 0,
                    notes: vec![
                        "members concatenated sweep-after-sweep (structures not mergeable); \
                         launch overhead saved but no inter-member reuse"
                            .into(),
                    ],
                };
                (self.concat_body(cover_x, cover_y), report)
            }
        };
        Ok(FusedKernel {
            kernel: Kernel {
                name: self.name.clone(),
                params: self.params.clone(),
                body,
            },
            grid,
            block,
            args: self.args.clone(),
            report,
            fold: None,
        })
    }

    /// Concatenated body: each member's full sweeps, one after another.
    fn concat_body(&self, cover_x: i64, cover_y: i64) -> Vec<Stmt> {
        let mut body = b::thread_mapping_2d();
        for m in &self.cms {
            // Re-impose the member's evaluated guard against the (possibly
            // padded) fused coverage: the member's own textual guard may
            // assume an exact-fit launch. (`smem_bytes` rejected the blocks
            // under which a member with barriers would need one.)
            match m.guard.condition(cover_x, cover_y) {
                Some(cond) => body.push(Stmt::If {
                    cond,
                    then_body: m.full_body.clone(),
                    else_body: Vec::new(),
                }),
                None => body.extend(m.full_body.iter().cloned()),
            }
        }
        body
    }

    /// Merged body: prologue, tile declarations, and the shared vertical
    /// loop with staging loads, member segments and barriers.
    fn merged_body(
        &self,
        ranges: &[(i64, i64)],
        staged: &[StagedArray],
        block: Dim3,
        cover_x: i64,
        cover_y: i64,
    ) -> Result<Vec<Stmt>, CodegenError> {
        let (cms, mode) = (&self.cms, self.mode);
        let (bx, by) = (block.x as i64, block.y as i64);
        // Shared vertical range.
        let k_lo = ranges.iter().map(|r| r.0).min().expect("non-empty group");
        let k_hi = ranges.iter().map(|r| r.1).max().expect("non-empty group");

        // Array extents for bounds clamping come from the canonical accesses
        // at traffic time; codegen clamps against the member coverage instead
        // (arrays in the supported class span the full domain).
        let mut body: Vec<Stmt> = b::thread_mapping_2d();
        body.push(decl_int("tx", Expr::Builtin(Builtin::ThreadIdx(Axis::X))));
        body.push(decl_int("ty", Expr::Builtin(Builtin::ThreadIdx(Axis::Y))));
        for m in cms {
            body.extend(m.hoisted.iter().cloned());
        }
        for st in staged {
            body.push(Stmt::SharedDecl {
                name: tile_name(&st.array),
                ty: ScalarType::F64,
                extents: vec![(by + 2 * st.ry) as usize, (bx + 2 * st.rx) as usize],
            });
        }

        let mut loop_body: Vec<Stmt> = Vec::new();

        // Stage read-only shared arrays.
        let read_staged: Vec<&StagedArray> = staged.iter().filter(|s| !s.flow).collect();
        for st in &read_staged {
            loop_body.extend(stage_loads(st, bx, by, self.need_x, self.need_y));
        }
        if !read_staged.is_empty() {
            loop_body.push(Stmt::SyncThreads);
        }

        // Member segments.
        let mut pending: Vec<(Option<Expr>, Vec<Stmt>)> = Vec::new();
        let flush_pending = |pending: &mut Vec<(Option<Expr>, Vec<Stmt>)>, out: &mut Vec<Stmt>| {
            for (cond, stmts) in pending.drain(..) {
                match cond {
                    Some(c) => out.push(Stmt::If {
                        cond: c,
                        then_body: stmts,
                        else_body: Vec::new(),
                    }),
                    None => out.extend(stmts),
                }
            }
        };

        for (mi, m) in cms.iter().enumerate() {
            let MemberStructure::SingleSweep { body: sbody, .. } = &m.structure else {
                unreachable!("merged form requires single sweeps")
            };
            let (m_klo, m_khi) = ranges[mi];
            // Transform the sweep body: tile reads, producer instrumentation.
            let mut seg = sbody.clone();
            // Producer instrumentation first (operates on global-read form).
            let mut halo_stmts: Vec<Stmt> = Vec::new();
            for st in staged.iter().filter(|s| s.flow && s.producer == Some(mi)) {
                instrument_producer(&mut seg, st, mi, m, bx, by, &mut halo_stmts)?;
            }
            // Tile-read rewriting (all staged arrays this member consumes).
            for st in staged {
                // A producer's own segment must not read its tile (it writes
                // it this iteration); consumers after the barrier may.
                if st.producer == Some(mi) {
                    continue;
                }
                rewrite_tile_reads(&mut seg, st);
            }

            let mut cond_parts = Vec::new();
            if let Some(g) = m.guard.condition(cover_x, cover_y) {
                cond_parts.push(g);
            }
            if m_klo > k_lo {
                cond_parts.push(b::ge(b::var("k"), b::int(m_klo)));
            }
            if m_khi < k_hi {
                cond_parts.push(b::lt(b::var("k"), b::int(m_khi)));
            }
            let cond = if cond_parts.is_empty() {
                None
            } else {
                Some(b::all(cond_parts))
            };

            let is_producer =
                !halo_stmts.is_empty() || staged.iter().any(|s| s.flow && s.producer == Some(mi));

            match mode {
                CodegenMode::Manual => {
                    // Merge into the previous pending segment when the guard
                    // is identical and no barrier intervenes.
                    if let Some((prev_cond, prev_stmts)) = pending.last_mut() {
                        if *prev_cond == cond {
                            prev_stmts.extend(seg);
                        } else {
                            pending.push((cond.clone(), seg));
                        }
                    } else {
                        pending.push((cond.clone(), seg));
                    }
                }
                CodegenMode::Auto => pending.push((cond.clone(), seg)),
            }

            if is_producer {
                flush_pending(&mut pending, &mut loop_body);
                loop_body.extend(halo_stmts);
                loop_body.push(Stmt::SyncThreads);
            }
        }
        flush_pending(&mut pending, &mut loop_body);

        // Close the k-iteration with a barrier: the next iteration's staging
        // (or producer) writes overwrite tile cells the consumer segments
        // just read, and without this sync that is a cross-warp
        // write-after-read race on real hardware — invisible to lockstep
        // value comparison, but flagged by the interpreter's hazard detector.
        if !staged.is_empty() && !matches!(loop_body.last(), Some(Stmt::SyncThreads)) {
            loop_body.push(Stmt::SyncThreads);
        }

        body.push(Stmt::For {
            var: "k".into(),
            init: b::int(k_lo),
            cond: b::lt(b::var("k"), b::int(k_hi)),
            step: b::int(1),
            body: loop_body,
        });
        Ok(body)
    }
}

pub(crate) fn tile_name(array: &str) -> String {
    format!("s_{array}")
}

pub(crate) fn decl_int(name: &str, init: Expr) -> Stmt {
    Stmt::VarDecl {
        name: name.into(),
        ty: ScalarType::I32,
        init: Some(init),
    }
}

/// Parameters and launch args: arrays in first-use order, then scalars.
fn build_params(
    cms: &[CanonMember],
    canon_scalars: &BTreeMap<String, HostValue>,
) -> (Vec<Param>, Vec<ResolvedArg>) {
    let mut order: Vec<String> = Vec::new();
    let mut written: BTreeSet<String> = BTreeSet::new();
    for m in cms {
        for ab in &m.arrays {
            if !order.contains(&ab.actual) {
                order.push(ab.actual.clone());
            }
            if ab.written {
                written.insert(ab.actual.clone());
            }
        }
    }
    let mut params: Vec<Param> = order
        .iter()
        .map(|a| Param::Array {
            name: a.clone(),
            elem: ScalarType::F64,
            is_const: !written.contains(a),
        })
        .collect();
    let mut args: Vec<ResolvedArg> = order
        .iter()
        .map(|a| ResolvedArg::Array(a.clone()))
        .collect();
    let (scalar_params, scalar_args) = scalar_params(canon_scalars);
    params.extend(scalar_params);
    args.extend(scalar_args);
    (params, args)
}

/// The shared scalar environment as trailing kernel parameters and the
/// launch arguments binding them.
pub(crate) fn scalar_params(
    canon_scalars: &BTreeMap<String, HostValue>,
) -> (Vec<Param>, Vec<ResolvedArg>) {
    let param = |(name, v): (&String, &HostValue)| {
        let ty = match v {
            HostValue::Int(_) => ScalarType::I32,
            HostValue::Float(_) => ScalarType::F64,
        };
        let name = name.clone();
        (Param::Scalar { name, ty }, ResolvedArg::Scalar(*v))
    };
    canon_scalars.iter().map(param).unzip()
}

/// Bounds-clamped global read `(0 <= idx < cover) ? A[kk][jj][ii] : 0.0`.
pub(crate) fn clamped_read(
    array: &str,
    kk: Expr,
    jj: Expr,
    ii: Expr,
    cover_x: i64,
    cover_y: i64,
    needs_clamp: (bool, bool, bool, bool),
) -> Expr {
    let (left, right, low, high) = needs_clamp;
    let mut conds = Vec::new();
    if left {
        conds.push(b::ge(ii.clone(), b::int(0)));
    }
    if right {
        conds.push(b::lt(ii.clone(), b::int(cover_x)));
    }
    if low {
        conds.push(b::ge(jj.clone(), b::int(0)));
    }
    if high {
        conds.push(b::lt(jj.clone(), b::int(cover_y)));
    }
    let read = Expr::Index {
        array: array.into(),
        indices: vec![kk, jj, ii],
    };
    if conds.is_empty() {
        read
    } else {
        Expr::Ternary {
            cond: Box::new(b::all(conds)),
            then_val: Box::new(read),
            else_val: Box::new(b::flt(0.0)),
        }
    }
}

/// The up-to-eight halo bands of a `wx`×`wy` halo around a `bx`×`by` block,
/// edges before corners, as `(cx, cy, conds)`: the band's side per axis (−1,
/// 0, +1) and the thread-index conditions selecting the block-edge threads
/// that fill it. Every halo cell has exactly one writer.
pub(crate) fn halo_bands(wx: i64, wy: i64, bx: i64, by: i64) -> Vec<(i64, i64, Vec<Expr>)> {
    let side = |t: &str, c: i64, w: i64, extent: i64| match c {
        0 => None,
        c if c < 0 => Some(b::lt(b::var(t), b::int(w))),
        _ => Some(b::ge(b::var(t), b::int(extent - w))),
    };
    halo_sides(wx, wy)
        .map(|(cx, cy)| {
            let conds = side("tx", cx, wx, bx)
                .into_iter()
                .chain(side("ty", cy, wy, by));
            (cx, cy, conds.collect())
        })
        .collect()
}

/// The sides `(cx, cy)` of [`halo_bands`], which do not depend on the
/// block: edges before corners, only those a `wx`×`wy` halo has.
pub(crate) fn halo_sides(wx: i64, wy: i64) -> impl Iterator<Item = (i64, i64)> {
    const SIDES: [(i64, i64); 8] = [
        (-1, 0),
        (1, 0),
        (0, -1),
        (0, 1),
        (-1, -1),
        (-1, 1),
        (1, -1),
        (1, 1),
    ];
    SIDES
        .into_iter()
        .filter(move |&(cx, cy)| (cx == 0 || wx > 0) && (cy == 0 || wy > 0))
}

/// Staging loads (main + halo) for one read-only shared array.
pub(crate) fn stage_loads(
    st: &StagedArray,
    bx: i64,
    by: i64,
    cover_x: i64,
    cover_y: i64,
) -> Vec<Stmt> {
    let (rx, ry) = (st.rx, st.ry);
    // `s[ty+ry+cy·ry][tx+rx+cx·rx] = A[k][j+cy·ry][i+cx·rx]`, clamped on the
    // sides of the grid that site can fall off.
    let load = |cx: i64, cy: i64, clamp: (bool, bool, bool, bool)| Stmt::Assign {
        target: LValue::Index {
            array: tile_name(&st.array),
            indices: vec![
                b::offset(b::var("ty"), (cy + 1) * ry),
                b::offset(b::var("tx"), (cx + 1) * rx),
            ],
        },
        op: AssignOp::Assign,
        value: clamped_read(
            &st.array,
            b::var("k"),
            b::offset(b::var("j"), cy * ry),
            b::offset(b::var("i"), cx * rx),
            cover_x,
            cover_y,
            clamp,
        ),
    };
    let mut out = vec![load(0, 0, (false, true, false, true))];
    for (cx, cy, conds) in halo_bands(rx, ry, bx, by) {
        let corner = cx != 0 && cy != 0;
        let clamp = (
            cx < 0 || corner,
            cx >= 0 || corner,
            cy < 0 || corner,
            cy >= 0 || corner,
        );
        out.push(Stmt::If {
            cond: b::all(conds),
            then_body: vec![load(cx, cy, clamp)],
            else_body: Vec::new(),
        });
    }
    out
}

/// Rewrite `A[k][j+dj][i+di]` reads of a staged array into tile accesses
/// `s_A[ty+ry+dj][tx+rx+di]` (current-plane reads only).
fn rewrite_tile_reads(stmts: &mut [Stmt], st: &StagedArray) {
    let tile = tile_name(&st.array);
    visit::rewrite_exprs(stmts, &mut |e| {
        let Expr::Index { array, indices } = e else {
            return None;
        };
        if array != &st.array || indices.len() != 3 {
            return None;
        }
        // Current plane: first index is exactly `k`.
        if indices[0] != Expr::Var("k".into()) {
            return None;
        }
        let dj = affine_off(&indices[1], "j")?;
        let di = affine_off(&indices[2], "i")?;
        if dj.abs() > st.ry || di.abs() > st.rx {
            return None;
        }
        Some(Expr::Index {
            array: tile.clone(),
            indices: vec![
                b::offset(b::var("ty"), st.ry + dj),
                b::offset(b::var("tx"), st.rx + di),
            ],
        })
    });
}

/// `v + c` / `v - c` / `v` → offset c, for the given base variable.
pub(crate) fn affine_off(e: &Expr, base: &str) -> Option<i64> {
    match e {
        Expr::Var(v) if v == base => Some(0),
        Expr::Binary { op, lhs, rhs } => {
            let Expr::Var(v) = &**lhs else { return None };
            if v != base {
                return None;
            }
            let Expr::Int(c) = &**rhs else { return None };
            match op {
                BinaryOp::Add => Some(*c),
                BinaryOp::Sub => Some(-*c),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Instrument the producer of a staged flow array: mirror its global write
/// into the tile's main cell and emit halo *recomputation* statements (the
/// temporal-blocking scheme: boundary threads recompute the producer's
/// expression at shifted sites, guarded by the producer's domain).
fn instrument_producer(
    seg: &mut Vec<Stmt>,
    st: &StagedArray,
    mi: usize,
    m: &CanonMember,
    bx: i64,
    by: i64,
    halo_out: &mut Vec<Stmt>,
) -> Result<(), CodegenError> {
    // Find the unique statement writing the array at [k][j][i].
    let mut rhs: Option<Expr> = None;
    let mut count = 0usize;
    find_write(seg, &st.array, &mut rhs, &mut count);
    if count != 1 {
        return Err(CodegenError(format!(
            "producer `{}` writes `{}` {count} times; complex fusion needs exactly one",
            m.name, st.array
        )));
    }
    let rhs = rhs.expect("counted above");
    // Halo recomputation re-evaluates the producer's expression at shifted
    // sites. Locals computed inside the segment hold *center-site* values,
    // so every segment-local reference in the RHS must be inlined (its
    // definition substituted, transitively) before shifting. Reassigned
    // locals cannot be inlined soundly.
    let mut local_defs: Vec<(String, Expr)> = Vec::new();
    let mut reassigned: Vec<String> = Vec::new();
    visit::walk_stmts(seg, &mut |s| match s {
        Stmt::VarDecl {
            name,
            init: Some(e),
            ..
        } => local_defs.push((name.clone(), e.clone())),
        Stmt::Assign {
            target: LValue::Var(n),
            ..
        } => reassigned.push(n.clone()),
        _ => {}
    });
    let mut rhs = rhs;
    inline_locals(&mut rhs, &local_defs, &reassigned);
    let mut unresolved = None;
    visit::walk_expr(&rhs, &mut |e| {
        if let Expr::Var(n) = e {
            if reassigned.contains(n) && local_defs.iter().any(|(name, _)| name == n) {
                unresolved = Some(n.clone());
            }
        }
    });
    if let Some(n) = unresolved {
        return Err(CodegenError(format!(
            "producer `{}` feeds `{}` through reassigned local `{n}`; halo \
             recomputation cannot inline it",
            m.name, st.array
        )));
    }
    let tmp = format!("t_{}_m{mi}", st.array);
    replace_write(seg, &st.array, &tmp, st);

    // Halo recomputation: for each halo region, recompute the producer RHS
    // at the shifted site when that site is inside the producer's domain.
    let g = &m.guard;
    let (rx, ry) = (st.rx, st.ry);
    for (cx, cy, conds) in halo_bands(rx, ry, bx, by) {
        let (di, dj) = (cx * rx, cy * ry);
        let ii = b::offset(b::var("i"), di);
        let jj = b::offset(b::var("j"), dj);
        let dom = b::all(vec![
            b::ge(ii.clone(), b::int(g.x_lo)),
            b::lt(ii.clone(), b::int(g.x_hi)),
            b::ge(jj.clone(), b::int(g.y_lo)),
            b::lt(jj.clone(), b::int(g.y_hi)),
        ]);
        let val = Expr::Ternary {
            cond: Box::new(dom),
            then_val: Box::new(shift_expr(&rhs, di, dj)),
            else_val: Box::new(b::flt(0.0)),
        };
        halo_out.push(Stmt::If {
            cond: b::all(conds),
            then_body: vec![Stmt::Assign {
                target: LValue::Index {
                    array: tile_name(&st.array),
                    indices: vec![
                        b::offset(b::var("ty"), (cy + 1) * ry),
                        b::offset(b::var("tx"), (cx + 1) * rx),
                    ],
                },
                op: AssignOp::Assign,
                value: val,
            }],
            else_body: Vec::new(),
        });
    }
    Ok(())
}

/// Substitute local definitions into `rhs`, transitively, leaving
/// `reassigned` locals alone (their declaration is not their value).
pub(crate) fn inline_locals(rhs: &mut Expr, local_defs: &[(String, Expr)], reassigned: &[String]) {
    let def_of = |n: &String| {
        let def = local_defs.iter().find(|(name, _)| name == n);
        def.filter(|_| !reassigned.contains(n)).map(|(_, def)| def)
    };
    for _ in 0..=local_defs.len() {
        visit::rewrite_expr(rhs, &mut |e| match e {
            Expr::Var(n) => def_of(n).cloned(),
            _ => None,
        });
        let mut still = false;
        visit::walk_expr(rhs, &mut |e| {
            still |= matches!(e, Expr::Var(n) if def_of(n).is_some());
        });
        if !still {
            break;
        }
    }
}

pub(crate) fn find_write(stmts: &[Stmt], array: &str, rhs: &mut Option<Expr>, count: &mut usize) {
    for s in stmts {
        match s {
            Stmt::Assign {
                target: LValue::Index { array: a, indices },
                op: AssignOp::Assign,
                value,
            } if a == array => {
                // Must be the canonical [k][j][i] site.
                if indices.len() == 3
                    && indices[0] == Expr::Var("k".into())
                    && indices[1] == Expr::Var("j".into())
                    && indices[2] == Expr::Var("i".into())
                {
                    *rhs = Some(value.clone());
                }
                *count += 1;
            }
            Stmt::Assign {
                target: LValue::Index { array: a, .. },
                ..
            } if a == array => *count += 1,
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                find_write(then_body, array, rhs, count);
                find_write(else_body, array, rhs, count);
            }
            Stmt::For { body, .. } => find_write(body, array, rhs, count),
            _ => {}
        }
    }
}

/// Replace `W[k][j][i] = rhs;` by temp + global store + tile main store.
fn replace_write(stmts: &mut Vec<Stmt>, array: &str, tmp: &str, st: &StagedArray) {
    let mut i = 0;
    while i < stmts.len() {
        let replace = matches!(
            &stmts[i],
            Stmt::Assign {
                target: LValue::Index { array: a, indices },
                op: AssignOp::Assign,
                ..
            } if a == array
                && indices.len() == 3
                && indices[0] == Expr::Var("k".into())
                && indices[1] == Expr::Var("j".into())
                && indices[2] == Expr::Var("i".into())
        );
        if replace {
            let Stmt::Assign { value, .. } = stmts.remove(i) else {
                unreachable!()
            };
            stmts.insert(
                i,
                Stmt::VarDecl {
                    name: tmp.into(),
                    ty: ScalarType::F64,
                    init: Some(value),
                },
            );
            stmts.insert(
                i + 1,
                Stmt::Assign {
                    target: LValue::Index {
                        array: array.into(),
                        indices: vec![b::var("k"), b::var("j"), b::var("i")],
                    },
                    op: AssignOp::Assign,
                    value: b::var(tmp),
                },
            );
            stmts.insert(
                i + 2,
                Stmt::Assign {
                    target: LValue::Index {
                        array: tile_name(array),
                        indices: vec![
                            b::offset(b::var("ty"), st.ry),
                            b::offset(b::var("tx"), st.rx),
                        ],
                    },
                    op: AssignOp::Assign,
                    value: b::var(tmp),
                },
            );
            i += 3;
            continue;
        }
        if let Stmt::If {
            then_body,
            else_body,
            ..
        } = &mut stmts[i]
        {
            replace_write(then_body, array, tmp, st);
            replace_write(else_body, array, tmp, st);
        } else if let Stmt::For { body, .. } = &mut stmts[i] {
            replace_write(body, array, tmp, st);
        }
        i += 1;
    }
}

/// Substitute `i → i+di`, `j → j+dj` in an expression.
pub(crate) fn shift_expr(e: &Expr, di: i64, dj: i64) -> Expr {
    let mut out = e.clone();
    shift_in_place(&mut out, di, dj);
    out
}

/// [`shift_expr`] in place. The rewrite replaces each `i`/`j` after visiting
/// it, so an inserted `i`/`j` is never substituted again.
pub(crate) fn shift_in_place(e: &mut Expr, di: i64, dj: i64) {
    if (di, dj) == (0, 0) {
        return;
    }
    visit::rewrite_expr(e, &mut |n| match n {
        Expr::Var(v) if v == "i" => Some(b::offset(b::var("i"), di)),
        Expr::Var(v) if v == "j" => Some(b::offset(b::var("j"), dj)),
        _ => None,
    });
}
