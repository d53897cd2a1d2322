//! Temporal blocking as a first-class transform (§5.5.3 taken to degree
//! T > 1): fold T iterations of a recorded host time loop into one fused
//! kernel invocation.
//!
//! The generated kernel computes, per vertical plane, the state of every
//! group-written array after T applications of the member chain, entirely
//! from the entry state in global memory. Written arrays are staged through
//! shared-memory tiles widened by the *accumulated* stencil radius
//! `D = T · Σ_m r_m`; each folded member-step recomputes a shrinking halo
//! band redundantly (threads at the block edge evaluate the member's
//! expression at laterally shifted sites), so no block ever consumes a cell
//! another block produced. Results land in freshly allocated *shadow*
//! arrays (`X__tb`), and the host runs `R / 2T` iterations of a ping-pong
//! pair — originals → shadows, shadows → originals — which requires the
//! fold to divide the trip count evenly as `2T | R` so the final state ends
//! in the original arrays. The kernel is a [`FusedKernel`] like any fused
//! group's: its `args` bind the odd launch, and its `fold` ([`PingPong`])
//! holds the even launch's arguments and the shadows the host allocates.
//!
//! Legality here is stricter than spatial fusion: every member must be a
//! flat single-sweep stencil that writes exactly one array at the canonical
//! `[k][j][i]` site, never reads its own target (in-place updates carry a
//! loop dependence the redundant scheme cannot fold), never accumulates
//! across iterations (compound assignment), and reads only current-plane
//! lateral neighborhoods. Boundary-excluded guards are allowed: sites a
//! member's guard excludes pass the entry value through unchanged, exactly
//! as the original loop leaves them untouched.

use crate::canon::{self, CanonMember, MemberStructure};
use crate::fuse::{
    affine_off, decl_int, grid_and_cover, halo_bands, halo_sides, inline_locals, scalar_params,
    shift_in_place, stage_loads, tile_bytes, tile_name, CodegenError, FusedKernel, FusionReport,
    PingPong, StagedArray,
};
use sf_gpusim::timing::TemporalFold;
use sf_minicuda::ast::*;
use sf_minicuda::builder as b;
use sf_minicuda::host::{AllocInfo, Dim3, HostValue, LaunchRecord, ResolvedArg};
use sf_minicuda::visit;
use std::collections::BTreeMap;

/// One member of the temporal chain after legality extraction.
struct Step {
    /// Index of the written array in the touched-array order.
    target: String,
    /// Fully inlined right-hand side (locals and hoisted decls substituted).
    rhs: Expr,
    guard: canon::EvalGuard,
    k_lo: i64,
    k_hi: i64,
}

/// One member-step of the fold and the halo it must still produce.
struct FoldedStep {
    /// Index into the member steps.
    step: usize,
    wx: i64,
    wy: i64,
}

impl FoldedStep {
    /// The regions [`emit_step`] generates: the main site, then one per
    /// side of [`halo_sides`].
    fn regions(&self) -> usize {
        1 + halo_sides(self.wx, self.wy).count()
    }
}

/// What a temporal fold of a member chain stages, known without its code,
/// its degree or its block. [`TemporalAnalysis`] emits from it and the
/// search prices it, through one halo and footprint rule
/// ([`TemporalChain::smem_bytes`]) and one statement of the folded steps'
/// halo widths ([`TemporalChain::geometry`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemporalChain {
    /// Per member step, in chain order, the lateral radii `(rx, ry)` of its
    /// reads of group-written arrays (global reads of read-only inputs are
    /// exact at any shift).
    pub radii: Vec<(i64, i64)>,
    /// Arrays some member writes, in first-use order: one tile each.
    pub written: Vec<String>,
}

impl TemporalChain {
    /// The chain [`TemporalAnalysis::new`] folds `members` (given in
    /// loop-body order, their arguments bound to the storage they execute
    /// on) by at any degree, or its refusal.
    pub fn new(
        members: &[(&Kernel, &LaunchRecord)],
        allocs: &[AllocInfo],
    ) -> Result<TemporalChain, CodegenError> {
        Ok(extract(members, allocs)?.chain)
    }

    /// The accumulated halo `D = T · Σ r` per axis at degree `fold`.
    pub fn halo(&self, fold: u32) -> (i64, i64) {
        let rx: i64 = self.radii.iter().map(|r| r.0).sum();
        let ry: i64 = self.radii.iter().map(|r| r.1).sum();
        (i64::from(fold) * rx, i64::from(fold) * ry)
    }

    /// Static shared memory of the fold at degree `fold` for `block` — one
    /// `(bx+2dx)(by+2dy)·8` tile per written array — or the rule `block`
    /// breaks: an accumulated halo wider than half the block on an axis
    /// (`2·D > b`), or a footprint over the device's `cap`.
    pub fn smem_bytes(&self, fold: u32, block: Dim3, cap: usize) -> Result<usize, CodegenError> {
        let (bx, by) = (block.x as i64, block.y as i64);
        let (dx, dy) = self.halo(fold);
        if 2 * dx > bx || 2 * dy > by {
            return Err(CodegenError(format!(
                "accumulated temporal halo {dx}x{dy} too large for block {bx}x{by}"
            )));
        }
        let smem_bytes = self.written.len() * tile_bytes(block, dx, dy);
        if smem_bytes > cap {
            return Err(CodegenError(format!(
                "temporal group needs {smem_bytes} B shared memory, device limit {cap} B"
            )));
        }
        Ok(smem_bytes)
    }

    /// The `fold · steps` member-steps of the fold at degree `fold`, in
    /// execution order. Step s must produce values out to the sum of all
    /// *later* steps' tile-read radii — what is left of the accumulated
    /// halo after its own.
    fn folded(&self, fold: u32) -> impl Iterator<Item = FoldedStep> + '_ {
        let (mut wx, mut wy) = self.halo(fold);
        let n = self.radii.len();
        (0..fold as usize * n).map(move |s| {
            let (rx, ry) = self.radii[s % n];
            (wx, wy) = (wx - rx, wy - ry);
            FoldedStep {
                step: s % n,
                wx,
                wy,
            }
        })
    }

    /// The cost geometry of the fold at degree `fold` for `block`: the
    /// staged reads' halo-area ratio at the accumulated halo, the mean
    /// widened region its folded steps recompute (the per-step halo widths
    /// [`TemporalAnalysis`] emits them at), and [`Self::smem_bytes`] — or
    /// the rule `block` breaks.
    pub fn geometry(
        &self,
        fold: u32,
        block: Dim3,
        cap: usize,
    ) -> Result<TemporalFold, CodegenError> {
        let smem_per_block = self.smem_bytes(fold, block, cap)?;
        let (bx, by) = (i64::from(block.x), i64::from(block.y));
        let area = |wx: i64, wy: i64| ((bx + 2 * wx) * (by + 2 * wy)) as f64;
        let base_area = area(0, 0);
        let (dx, dy) = self.halo(fold);
        let recomputed: f64 = self.folded(fold).map(|f| area(f.wx, f.wy)).sum();
        let steps = fold as usize * self.radii.len();
        Ok(TemporalFold {
            fold,
            halo_read_ratio: area(dx, dy) / base_area,
            recompute_ratio: recomputed / (steps as f64 * base_area),
            smem_per_block,
        })
    }
}

/// Everything about a temporal group that does not depend on the
/// thread-block shape — its [`TemporalChain`], member steps, every
/// block-independent legality rule — computed once by [`Self::new`]. Per
/// block there remain the tile footprint with its two legality rules
/// ([`Self::smem_bytes`]) and the code ([`Self::emit`]).
pub struct TemporalAnalysis {
    name: String,
    fold: u32,
    smem_limit: usize,
    /// Launch sequence numbers of the members, in chain order.
    members: Vec<usize>,
    /// Parameters (touched arrays, an `__out` per written array, scalars),
    /// their arguments on the odd launch (originals → shadows), and the
    /// even launch's with the shadows of the uniform domain.
    params: Vec<Param>,
    args: Vec<ResolvedArg>,
    pingpong: PingPong,
    chain: TemporalChain,
    /// The uniform `[kz, ny, nx]` extents of every touched array.
    domain: [i64; 3],
    steps: Vec<Step>,
    /// The `fold · steps` member-steps in execution order.
    folded: Vec<FoldedStep>,
}

impl TemporalAnalysis {
    /// Canonicalize the members, extract their step forms and check every
    /// legality rule that holds or fails regardless of the block shape.
    pub fn new(
        members: &[(&Kernel, &LaunchRecord)],
        name: &str,
        smem_limit: usize,
        fold: u32,
        allocs: &[AllocInfo],
    ) -> Result<TemporalAnalysis, CodegenError> {
        if fold < 2 {
            return Err(CodegenError(format!(
                "temporal fold degree must be >= 2, got {fold}"
            )));
        }
        let parts = extract(members, allocs)?;
        let (touched, extents) = (&parts.touched, &parts.extents);
        let (kz, ny, nx) = (extents[0] as i64, extents[1] as i64, extents[2] as i64);
        let folded = parts.chain.folded(fold).collect();

        let written = &parts.chain.written;
        let array = |name: String, is_const| Param::Array {
            name,
            elem: ScalarType::F64,
            is_const,
        };
        let shadow = |a: &String| format!("{a}__tb");
        let entry_b = |a: &String| {
            if written.contains(a) {
                shadow(a)
            } else {
                a.clone()
            }
        };
        let (scalar_params, scalar_args) = scalar_params(&parts.canon_scalars);
        let mut params: Vec<Param> = touched.iter().map(|a| array(a.clone(), true)).collect();
        params.extend(written.iter().map(|a| array(format!("{a}__out"), false)));
        params.extend(scalar_params);
        let args = |entry: Vec<String>, out: Vec<String>| -> Vec<ResolvedArg> {
            let arrays = entry.into_iter().chain(out).map(ResolvedArg::Array);
            arrays.chain(scalar_args.iter().cloned()).collect()
        };

        Ok(TemporalAnalysis {
            name: name.into(),
            fold,
            smem_limit,
            members: parts.seqs,
            params,
            args: args(touched.clone(), written.iter().map(shadow).collect()),
            pingpong: PingPong {
                args_even: args(touched.iter().map(entry_b).collect(), written.clone()),
                shadows: written
                    .iter()
                    .map(|a| (shadow(a), extents.clone()))
                    .collect(),
            },
            domain: [kz, ny, nx],
            steps: parts.steps,
            folded,
            chain: parts.chain,
        })
    }

    /// Static shared memory of the kernel [`TemporalAnalysis::emit`]
    /// generates for `block`, or the rule `block` breaks: its chain's
    /// [`TemporalChain::smem_bytes`] at the analysis' degree and device cap.
    pub fn smem_bytes(&self, block: Dim3) -> Result<usize, CodegenError> {
        self.chain.smem_bytes(self.fold, block, self.smem_limit)
    }

    /// The launch grid of the kernel [`TemporalAnalysis::emit`] generates
    /// for `block`: it covers the domain, which the write-out must reach
    /// even where a member's own launch under-covered it. A block lying
    /// wholly past the domain would stage halo cells its clamps do not
    /// guard, so none is launched.
    pub fn grid(&self, block: Dim3) -> Dim3 {
        let [_, ny, nx] = self.domain;
        grid_and_cover(nx, ny, block).0
    }

    /// Generate the temporal kernel for one block shape: a [`FusedKernel`]
    /// whose `fold` holds the even launch and the shadows.
    pub fn emit(&self, block: Dim3) -> Result<FusedKernel, CodegenError> {
        self.emit_reusing(block, None)
    }

    /// [`Self::emit`], copying the folded right-hand sides — the bulk of the
    /// kernel, and independent of the block — from `from`, a kernel this
    /// analysis emitted at another block, instead of building them again.
    pub(crate) fn emit_reusing(
        &self,
        block: Dim3,
        from: Option<&FusedKernel>,
    ) -> Result<FusedKernel, CodegenError> {
        let reused = from.map(|k| self.folded_values(k));
        debug_assert!(
            !matches!(reused, Some(None)),
            "a kernel this analysis emitted holds its right-hand sides where it put them"
        );
        let mut reused = reused.flatten().map(Vec::into_iter);
        let smem_bytes = self.smem_bytes(block)?;
        let (fold, written, steps) = (self.fold, &self.chain.written, &self.steps);
        let (dx, dy) = self.chain.halo(fold);
        let (bx, by) = (block.x as i64, block.y as i64);
        let [kz, ny, nx] = self.domain;
        let grid = self.grid(block);

        let staged: Vec<StagedArray> = written
            .iter()
            .map(|a| StagedArray {
                array: a.clone(),
                rx: dx,
                ry: dy,
                tile_bytes: tile_bytes(block, dx, dy),
                flow: true,
                producer: None,
            })
            .collect();

        // ----- body -----
        let mut body: Vec<Stmt> = b::thread_mapping_2d();
        body.push(decl_int("tx", Expr::Builtin(Builtin::ThreadIdx(Axis::X))));
        body.push(decl_int("ty", Expr::Builtin(Builtin::ThreadIdx(Axis::Y))));
        for st in &staged {
            body.push(Stmt::SharedDecl {
                name: tile_name(&st.array),
                ty: ScalarType::F64,
                extents: vec![(by + 2 * dy) as usize, (bx + 2 * dx) as usize],
            });
        }

        let mut loop_body: Vec<Stmt> = Vec::new();
        // Stage every written array's entry state, clamped at the true domain.
        for st in &staged {
            loop_body.extend(stage_loads(st, bx, by, nx, ny));
        }
        loop_body.push(Stmt::SyncThreads);

        for f in &self.folded {
            let step = &steps[f.step];
            let value = |sx, sy| match &mut reused {
                Some(values) => values.next().expect("one value per region"),
                None => shifted_rhs(&step.rhs, written, sx, sy, dx, dy),
            };
            loop_body.extend(emit_step(step, f, value, (dx, dy), (bx, by), kz));
            loop_body.push(Stmt::SyncThreads);
        }

        // Write-out: tile centers hold the folded state (or the staged entry
        // value at sites every guard excluded — exact passthrough).
        let mut writes = Vec::new();
        for a in written {
            writes.push(Stmt::Assign {
                target: LValue::Index {
                    array: format!("{a}__out"),
                    indices: vec![b::var("k"), b::var("j"), b::var("i")],
                },
                op: AssignOp::Assign,
                value: Expr::Index {
                    array: tile_name(a),
                    indices: vec![b::offset(b::var("ty"), dy), b::offset(b::var("tx"), dx)],
                },
            });
        }
        loop_body.push(Stmt::If {
            cond: b::and(
                b::lt(b::var("i"), b::int(nx)),
                b::lt(b::var("j"), b::int(ny)),
            ),
            then_body: writes,
            else_body: Vec::new(),
        });
        // The next plane's staging overwrites the cells this plane consumed.
        loop_body.push(Stmt::SyncThreads);

        body.push(Stmt::For {
            var: "k".into(),
            init: b::int(0),
            cond: b::lt(b::var("k"), b::int(kz)),
            step: b::int(1),
            body: loop_body,
        });

        let report = FusionReport {
            members: self.members.clone(),
            staged: staged.clone(),
            complex: true,
            merged: true,
            smem_bytes,
            notes: vec![format!(
                "temporal fold of degree {fold} over {} members; halo {dx}x{dy}, \
                 {} staged arrays, {smem_bytes} B shared memory",
                self.members.len(),
                staged.len(),
            )],
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
            fold: Some(self.pingpong.clone()),
        })
    }

    /// Copies of the folded right-hand sides of `from`, region by region,
    /// as [`Self::emit_reusing`] consumes them: the time loop's body is the
    /// staging, a barrier, each folded step's regions and a barrier, then
    /// the write-out and a barrier. `None` if `from` is not laid out so.
    fn folded_values(&self, from: &FusedKernel) -> Option<Vec<Expr>> {
        let Some(Stmt::For { body, .. }) = from.kernel.body.last() else {
            return None;
        };
        let steps: usize = self.folded.iter().map(|f| f.regions() + 1).sum();
        let start = body.len().checked_sub(steps + 2)?;
        let mut stmts = body.iter().skip(start);
        let mut values = Vec::new();
        for f in &self.folded {
            for _ in 0..f.regions() {
                let Stmt::If { then_body, .. } = stmts.next()? else {
                    return None;
                };
                let Some(Stmt::Assign { value, .. }) = then_body.first() else {
                    return None;
                };
                values.push(value.clone());
            }
            stmts.next()?;
        }
        Some(values)
    }
}

/// A member chain canonicalized and checked against every rule that holds
/// or fails regardless of the fold degree and the block: what
/// [`TemporalChain::new`] and [`TemporalAnalysis::new`] both start from.
struct Extracted {
    /// Launch sequence numbers of the members, in chain order.
    seqs: Vec<usize>,
    canon_scalars: BTreeMap<String, HostValue>,
    /// Arrays some member touches, in first-use order.
    touched: Vec<String>,
    /// The uniform `[kz, ny, nx]` extents of every touched array.
    extents: Vec<usize>,
    steps: Vec<Step>,
    chain: TemporalChain,
}

/// Canonicalize `members`, collect the arrays they touch and write, check
/// the uniform rank-3 extents and the shadow names, and extract each
/// member's step form.
fn extract(
    members: &[(&Kernel, &LaunchRecord)],
    allocs: &[AllocInfo],
) -> Result<Extracted, CodegenError> {
    if members.len() < 2 {
        return Err(CodegenError(
            "temporal group needs at least 2 members".into(),
        ));
    }
    let mut canon_scalars: BTreeMap<String, HostValue> = BTreeMap::new();
    let mut cms: Vec<CanonMember> = Vec::new();
    for (idx, (k, l)) in members.iter().enumerate() {
        cms.push(canon::canonicalize(k, l, idx, &mut canon_scalars)?);
    }

    // Touched arrays in first-use order; written subset.
    let mut touched: Vec<String> = Vec::new();
    let mut written: Vec<String> = Vec::new();
    for m in &cms {
        for ab in &m.arrays {
            if !touched.contains(&ab.actual) {
                touched.push(ab.actual.clone());
            }
            if ab.written && !written.contains(&ab.actual) {
                written.push(ab.actual.clone());
            }
        }
    }

    // Uniform rank-3 extents across every touched array.
    let mut extents: Option<Vec<usize>> = None;
    for a in &touched {
        let info = allocs
            .iter()
            .find(|al| &al.name == a)
            .ok_or_else(|| CodegenError(format!("no allocation for array `{a}`")))?;
        if info.extents.len() != 3 {
            return Err(CodegenError(format!(
                "array `{a}` is rank-{}; temporal folding needs rank-3 domains",
                info.extents.len()
            )));
        }
        match &extents {
            None => extents = Some(info.extents.clone()),
            Some(e) if *e == info.extents => {}
            Some(e) => {
                return Err(CodegenError(format!(
                    "array `{a}` extents {:?} differ from {:?}; temporal folding \
                     needs a uniform domain",
                    info.extents, e
                )))
            }
        }
    }
    let extents = extents.expect("non-empty group");
    let kz = extents[0] as i64;
    for a in &written {
        let shadow = format!("{a}__tb");
        if allocs.iter().any(|al| al.name == shadow) {
            return Err(CodegenError(format!(
                "shadow array name `{shadow}` collides with an existing allocation"
            )));
        }
    }

    // Extract each member's step form.
    let (steps, radii): (Vec<Step>, _) = cms
        .iter()
        .map(|m| extract_step(m, &written, &canon_scalars, kz))
        .collect::<Result<_, _>>()?;
    let chain = TemporalChain { radii, written };
    Ok(Extracted {
        seqs: cms.iter().map(|m| m.seq).collect(),
        canon_scalars,
        touched,
        extents,
        steps,
        chain,
    })
}

/// Validate one member against the temporal legality rules and extract its
/// step form (fully inlined RHS) and its lateral tile-read radii `(rx, ry)`.
fn extract_step(
    m: &CanonMember,
    written: &[String],
    canon_scalars: &BTreeMap<String, HostValue>,
    kz: i64,
) -> Result<(Step, (i64, i64)), CodegenError> {
    let MemberStructure::SingleSweep {
        k_lo,
        k_hi,
        body,
        has_inner,
    } = &m.structure
    else {
        return Err(CodegenError(format!(
            "member `{}` is not a single-sweep stencil; temporal folding \
             needs flat members",
            m.name
        )));
    };
    if *has_inner {
        return Err(CodegenError(format!(
            "member `{}` has inner loops; temporal folding needs flat sweeps",
            m.name
        )));
    }
    if !(0 <= *k_lo && *k_lo <= *k_hi && *k_hi <= kz) {
        return Err(CodegenError(format!(
            "member `{}` sweeps k in [{k_lo}, {k_hi}) outside the domain [0, {kz})",
            m.name
        )));
    }
    // The sweep body must be a flat sequence of local declarations and one
    // array store; everything else carries structure the fold cannot shift.
    let mut local_defs: Vec<(String, Expr)> = Vec::new();
    let mut store: Option<(&str, &[Expr], &Expr)> = None;
    for s in body {
        match s {
            Stmt::VarDecl {
                name,
                init: Some(e),
                ..
            } => {
                if local_defs.iter().any(|(n, _)| n == name) {
                    return Err(CodegenError(format!(
                        "member `{}` redeclares local `{name}`",
                        m.name
                    )));
                }
                local_defs.push((name.clone(), e.clone()));
            }
            Stmt::VarDecl {
                name, init: None, ..
            } => {
                return Err(CodegenError(format!(
                    "member `{}` declares uninitialized local `{name}`; cannot inline",
                    m.name
                )));
            }
            Stmt::Assign {
                target: LValue::Index { array, indices },
                op: AssignOp::Assign,
                value,
            } => {
                if store.is_some() {
                    return Err(CodegenError(format!(
                        "member `{}` has multiple array stores; temporal folding \
                         needs exactly one",
                        m.name
                    )));
                }
                store = Some((array.as_str(), indices.as_slice(), value));
            }
            Stmt::Assign {
                target: LValue::Index { array, .. },
                ..
            } => {
                return Err(CodegenError(format!(
                    "member `{}` accumulates into `{array}` (compound assignment \
                     is a cross-timestep reduction); temporal folding is illegal",
                    m.name
                )));
            }
            Stmt::Assign {
                target: LValue::Var(n),
                ..
            } => {
                return Err(CodegenError(format!(
                    "member `{}` reassigns local `{n}`; cannot inline for halo \
                     recomputation",
                    m.name
                )));
            }
            other => {
                return Err(CodegenError(format!(
                    "member `{}` contains {:?}-class statements; temporal folding \
                     needs flat stencil bodies",
                    m.name,
                    std::mem::discriminant(other)
                )));
            }
        }
    }
    let Some((target, indices, value)) = store else {
        return Err(CodegenError(format!(
            "member `{}` has no array store",
            m.name
        )));
    };
    if indices.len() != 3
        || indices[0] != Expr::Var("k".into())
        || indices[1] != Expr::Var("j".into())
        || indices[2] != Expr::Var("i".into())
    {
        return Err(CodegenError(format!(
            "member `{}` writes `{target}` off the canonical [k][j][i] site \
             (boundary-plane or irregular store); temporal folding is illegal",
            m.name
        )));
    }
    // Hoisted declarations join the inlinable locals.
    for h in &m.hoisted {
        if let Stmt::VarDecl {
            name,
            init: Some(e),
            ..
        } = h
        {
            if !local_defs.iter().any(|(n, _)| n == name) {
                local_defs.push((name.clone(), e.clone()));
            }
        }
    }
    let mut rhs = value.clone();
    inline_locals(&mut rhs, &local_defs, &[]);
    // The inlined RHS may reference only the canonical site variables,
    // shared scalars, and array reads; anything else cannot be shifted.
    let mut bad: Option<String> = None;
    visit::walk_expr(&rhs, &mut |e| match e {
        Expr::Var(n) if n != "i" && n != "j" && n != "k" && !canon_scalars.contains_key(n) => {
            bad.get_or_insert_with(|| format!("variable `{n}`"));
        }
        Expr::Builtin(_) => {
            bad.get_or_insert_with(|| "a thread builtin".to_string());
        }
        _ => {}
    });
    if let Some(what) = bad {
        return Err(CodegenError(format!(
            "member `{}` feeds `{target}` through {what}; temporal halo \
             recomputation cannot shift it",
            m.name
        )));
    }
    // Classify reads: current-plane lateral neighborhoods only; the target
    // itself must not appear (in-place update).
    let mut rx = 0i64;
    let mut ry = 0i64;
    let mut err: Option<String> = None;
    visit::walk_expr(&rhs, &mut |e| {
        let Expr::Index { array, indices } = e else {
            return;
        };
        if array == target {
            err.get_or_insert_with(|| {
                format!(
                    "member `{}` updates `{target}` in place; the loop-carried \
                     dependence cannot be folded",
                    m.name
                )
            });
            return;
        }
        if indices.len() != 3 {
            err.get_or_insert_with(|| {
                format!(
                    "member `{}` reads `{array}` at rank {}; temporal folding \
                     needs rank-3 reads",
                    m.name,
                    indices.len()
                )
            });
            return;
        }
        if indices[0] != Expr::Var("k".into()) {
            err.get_or_insert_with(|| {
                format!(
                    "member `{}` reads `{array}` off the current k-plane; \
                     vertical dependences cannot be folded laterally",
                    m.name
                )
            });
            return;
        }
        let (Some(dj), Some(di)) = (affine_off(&indices[1], "j"), affine_off(&indices[2], "i"))
        else {
            err.get_or_insert_with(|| {
                format!("member `{}` reads `{array}` at a non-affine site", m.name)
            });
            return;
        };
        if written.iter().any(|w| w == array) {
            rx = rx.max(di.abs());
            ry = ry.max(dj.abs());
        }
    });
    if let Some(e) = err {
        return Err(CodegenError(e));
    }
    let step = Step {
        target: target.to_string(),
        rhs,
        guard: m.guard,
        k_lo: *k_lo,
        k_hi: *k_hi,
    };
    Ok((step, (rx, ry)))
}

/// Emit one folded member-step: the main region plus up to eight shrinking
/// halo-band regions, each computing the member's value at a laterally
/// shifted site when that site lies inside the member's guard.
/// `value(sx, sy)` is the member's right-hand side at the site shifted by
/// `(sx, sy)`, asked for region by region.
fn emit_step(
    step: &Step,
    folded: &FoldedStep,
    mut value: impl FnMut(i64, i64) -> Expr,
    (dx, dy): (i64, i64),
    (bx, by): (i64, i64),
    kz: i64,
) -> Vec<Stmt> {
    let mut out = Vec::new();
    let (wx, wy) = (folded.wx, folded.wy);
    // (x-shift, y-shift, thread-side conditions selecting the region's
    // writer threads): the main region, then the halo bands.
    let bands = halo_bands(wx, wy, bx, by).into_iter();
    let regions = std::iter::once((0, 0, Vec::new()))
        .chain(bands.map(|(cx, cy, conds)| (cx * wx, cy * wy, conds)));

    let g = &step.guard;
    for (sx, sy, thread_conds) in regions {
        let ii = b::offset(b::var("i"), sx);
        let jj = b::offset(b::var("j"), sy);
        let mut conds = thread_conds;
        conds.push(b::ge(ii.clone(), b::int(g.x_lo)));
        conds.push(b::lt(ii.clone(), b::int(g.x_hi)));
        conds.push(b::ge(jj.clone(), b::int(g.y_lo)));
        conds.push(b::lt(jj.clone(), b::int(g.y_hi)));
        if step.k_lo > 0 {
            conds.push(b::ge(b::var("k"), b::int(step.k_lo)));
        }
        if step.k_hi < kz {
            conds.push(b::lt(b::var("k"), b::int(step.k_hi)));
        }
        let value = value(sx, sy);
        out.push(Stmt::If {
            cond: b::all(conds),
            then_body: vec![Stmt::Assign {
                target: LValue::Index {
                    array: tile_name(&step.target),
                    indices: vec![
                        b::offset(b::var("ty"), dy + sy),
                        b::offset(b::var("tx"), dx + sx),
                    ],
                },
                op: AssignOp::Assign,
                value,
            }],
            else_body: Vec::new(),
        });
    }
    out
}

/// Rewrite a step's RHS for evaluation at site `(i+sx, j+sy)`: reads of
/// group-written arrays become tile accesses (absorbing the shift into the
/// tile index), then the remaining global reads shift laterally.
fn shifted_rhs(rhs: &Expr, written: &[String], sx: i64, sy: i64, dx: i64, dy: i64) -> Expr {
    let mut out = rhs.clone();
    visit::rewrite_expr(&mut out, &mut |e| {
        let Expr::Index { array, indices } = e else {
            return None;
        };
        if !written.iter().any(|w| w == array) || indices.len() != 3 {
            return None;
        }
        let dj = affine_off(&indices[1], "j")?;
        let di = affine_off(&indices[2], "i")?;
        Some(Expr::Index {
            array: tile_name(array),
            indices: vec![
                b::offset(b::var("ty"), dy + sy + dj),
                b::offset(b::var("tx"), dx + sx + di),
            ],
        })
    });
    shift_in_place(&mut out, sx, sy);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_minicuda::host::ExecutablePlan;
    use sf_minicuda::{parse_program, Program};

    /// A radius-1 ping-pong chain: `b = avg(a)` then `a = relax(b)`.
    fn pingpong_src(steps: i64) -> String {
        format!(
            r#"
__global__ void blur(const double* __restrict__ a, double* b, int nx, int ny, int nz) {{
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {{
    for (int k = 0; k < nz; k++) {{
      b[k][j][i] = 0.25 * (a[k][j][i - 1] + a[k][j][i + 1] + a[k][j - 1][i] + a[k][j + 1][i]);
    }}
  }}
}}
__global__ void relax(const double* __restrict__ b, double* a, int nx, int ny, int nz) {{
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {{
    for (int k = 0; k < nz; k++) {{
      a[k][j][i] = 0.5 * a0_read(b, k, j, i) + 1.0;
    }}
  }}
}}
void host() {{
  int nx = 32; int ny = 16; int nz = 4;
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(a);
  cudaMemcpyH2D(b);
  for (int t = 0; t < {steps}; t++) {{
    blur<<<dim3(2, 2), dim3(16, 8)>>>(a, b, nx, ny, nz);
    relax<<<dim3(2, 2), dim3(16, 8)>>>(b, a, nx, ny, nz);
  }}
  cudaMemcpyD2H(a);
  cudaMemcpyD2H(b);
}}
"#
        )
        .replace("a0_read(b, k, j, i)", "b[k][j][i]")
    }

    fn setup(steps: i64) -> (Program, ExecutablePlan) {
        let p = parse_program(&pingpong_src(steps)).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        (p, plan)
    }

    fn group<'a>(p: &'a Program, plan: &'a ExecutablePlan) -> Vec<(&'a Kernel, &'a LaunchRecord)> {
        plan.loops[0]
            .seqs
            .iter()
            .map(|&s| {
                let l = &plan.launches[s];
                (p.kernel(&l.kernel).unwrap(), l)
            })
            .collect()
    }

    /// Re-emitting from a kernel emitted at another block takes its
    /// right-hand sides instead of building them, and must generate exactly
    /// what a fresh emission does.
    #[test]
    fn emitting_from_another_blocks_kernel_matches_a_fresh_emission() {
        let (p, plan) = setup(8);
        let members = group(&p, &plan);
        let blocks = [
            Dim3::new(16, 8, 1),
            Dim3::new(8, 8, 1),
            Dim3::new(32, 16, 1),
        ];
        for fold in [2u32, 4] {
            let analysis =
                TemporalAnalysis::new(&members, "temporal_0", 48 * 1024, fold, &plan.allocs)
                    .unwrap();
            let regions: usize = analysis.folded.iter().map(FoldedStep::regions).sum();
            for from in blocks {
                let values = analysis.folded_values(&analysis.emit(from).unwrap());
                assert_eq!(values.map(|v| v.len()), Some(regions), "{from}");
                for to in blocks {
                    let reused = analysis.emit_reusing(to, Some(&analysis.emit(from).unwrap()));
                    assert_eq!(
                        reused.unwrap(),
                        analysis.emit(to).unwrap(),
                        "{from} -> {to}"
                    );
                }
            }
        }
    }

    #[test]
    fn folds_a_pingpong_pair() {
        let (p, plan) = setup(4);
        let members = group(&p, &plan);
        let tk = TemporalAnalysis::new(&members, "temporal_0", 48 * 1024, 2, &plan.allocs)
            .and_then(|a| a.emit(Dim3::new(16, 8, 1)))
            .unwrap();
        // Fold 2 of a (radius-1 + radius-1... the relax step is pointwise
        // on b): accumulated halo = 2 * (1 + 0) = 2 in each axis.
        assert_eq!(tk.report.staged.len(), 2);
        assert_eq!(tk.report.staged[0].rx, 2);
        assert_eq!(tk.report.staged[0].ry, 2);
        let pingpong = tk.fold.as_ref().unwrap();
        assert_eq!(pingpong.shadows.len(), 2);
        assert!(pingpong.shadows.iter().any(|(n, _)| n == "a__tb"));
        assert!(pingpong.shadows.iter().any(|(n, _)| n == "b__tb"));
        // Both arg vectors bind the same params with swapped storage.
        assert_eq!(tk.args.len(), pingpong.args_even.len());
        let txt = sf_minicuda::printer::print_kernel(&tk.kernel);
        assert!(txt.contains("s_a"), "{txt}");
        assert!(txt.contains("s_b"), "{txt}");
        assert!(txt.contains("b__out"), "{txt}");
        assert!(txt.contains("__syncthreads"), "{txt}");
    }

    #[test]
    fn rejects_inplace_and_oversized_folds() {
        // Every member shape the fold cannot inline into a pure per-plane
        // step — kernel-level declarations and the body of the guarded
        // k-sweep of the loop's first kernel — with what the rejection names.
        let illegal_first_members = [
            ("", "a[k][j][i] = a[k][j][i - 1] + c[k][j][i];", "in place"),
            ("", "a[k][j][i] += c[k][j][i];", "compound assignment"),
            (
                "",
                "a[k][j][i] = c[k - 1][j][i] + c[k + 1][j][i];",
                "off the current k-plane",
            ),
            ("", "a[k][j][i] = c[0][j][i];", "off the current k-plane"),
            (
                "",
                "a[0][j][i] = c[k][j][i];",
                "off the canonical [k][j][i] site",
            ),
            (
                "",
                "a[k][j][i] = c[k][j][i]; a[k][j][i] = 2.0 * c[k][j][i];",
                "multiple array stores",
            ),
            (
                "",
                "double t = c[k][j][i]; t = t * 2.0; a[k][j][i] = t;",
                "reassigns local",
            ),
            (
                "",
                "if (c[k][j][i] > 0.0) { a[k][j][i] = 1.0; } else { a[k][j][i] = 2.0; }",
                "needs flat stencil bodies",
            ),
            (
                "__shared__ double tile[8][16];",
                "tile[threadIdx.y][threadIdx.x] = c[k][j][i]; __syncthreads(); \
                 a[k][j][i] = tile[threadIdx.y][threadIdx.x];",
                "needs flat members",
            ),
        ];
        for (decls, body, why) in illegal_first_members {
            let src = format!(
                r#"
__global__ void first(double* a, const double* __restrict__ c, int nx, int ny, int nz) {{
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  {decls}
  if (i >= 1 && i < nx - 1 && j < ny) {{ for (int k = 1; k < nz - 1; k++) {{ {body} }} }}
}}
__global__ void copy(const double* __restrict__ a, double* d, int nx, int ny, int nz) {{
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {{
    for (int k = 0; k < nz; k++) {{
      d[k][j][i] = a[k][j][i];
    }}
  }}
}}
void host() {{
  int nx = 32; int ny = 16; int nz = 4;
  double* a = cudaAlloc3D(nz, ny, nx);
  double* c = cudaAlloc3D(nz, ny, nx);
  double* d = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(a);
  cudaMemcpyH2D(c);
  for (int t = 0; t < 4; t++) {{
    first<<<dim3(2, 2), dim3(16, 8)>>>(a, c, nx, ny, nz);
    copy<<<dim3(2, 2), dim3(16, 8)>>>(a, d, nx, ny, nz);
  }}
  cudaMemcpyD2H(a);
  cudaMemcpyD2H(d);
}}
"#
            );
            let p = parse_program(&src).unwrap();
            let plan = ExecutablePlan::from_program(&p).unwrap();
            let members = group(&p, &plan);
            let err = TemporalAnalysis::new(&members, "temporal_0", 48 * 1024, 2, &plan.allocs)
                .and_then(|a| a.emit(Dim3::new(16, 8, 1)))
                .unwrap_err();
            assert!(
                err.0.contains(why),
                "`{body}`: expected `{why}`, got: {err}"
            );
        }

        // A fold whose accumulated halo exceeds half the block is rejected.
        let (p, plan) = setup(16);
        let members = group(&p, &plan);
        let err = TemporalAnalysis::new(&members, "temporal_0", 48 * 1024, 8, &plan.allocs)
            .and_then(|a| a.emit(Dim3::new(16, 8, 1)))
            .unwrap_err();
        assert!(err.0.contains("halo"), "{err}");
    }

    /// The folded kernel pair must reproduce the original loop bit-exactly:
    /// run the original plan and a hand-built ping-pong host around the
    /// temporal kernel, and compare every array. The last case launches
    /// the members over twice the domain's rows and folds at a block whose
    /// grid covers the domain only: blocks past it would stage halo rows
    /// out of bounds.
    #[test]
    fn folded_pingpong_matches_the_original_loop() {
        use sf_gpusim::{GlobalMemory, Interpreter};
        use sf_minicuda::ast::{Dim3Expr, HostStmt, LaunchArg};

        let exact = ("dim3(2, 2), dim3(16, 8)", Dim3::new(16, 8, 1));
        let over = ("dim3(1, 1), dim3(32, 32)", Dim3::new(32, 4, 1));
        for (fold, (launch, block)) in [(2u32, exact), (4, exact), (2, over)] {
            let steps = 8i64;
            let src = pingpong_src(steps).replace(exact.0, launch);
            let p = parse_program(&src).unwrap();
            let plan = ExecutablePlan::from_program(&p).unwrap();
            let members = group(&p, &plan);
            let tk = TemporalAnalysis::new(&members, "temporal_0", 48 * 1024, fold, &plan.allocs)
                .and_then(|a| a.emit(block))
                .unwrap();
            assert_eq!(tk.grid, Dim3::new(32 / block.x, 16 / block.y, 1));

            // Original result.
            let mut mem = GlobalMemory::from_plan(&plan);
            mem.fill_with("a", |x| (x % 17) as f64 * 0.25);
            mem.fill_with("b", |x| (x % 13) as f64 * 0.5);
            let a0: Vec<f64> = mem.get("a").unwrap().data.clone();
            let b0: Vec<f64> = mem.get("b").unwrap().data.clone();
            Interpreter::new(&p).run_plan(&plan, &mut mem).unwrap();
            let a_ref = mem.get("a").unwrap().data.clone();
            let b_ref = mem.get("b").unwrap().data.clone();

            // Temporal program: same allocs + shadows, ping-pong loop.
            let launch = |args: &[ResolvedArg]| HostStmt::Launch {
                kernel: "temporal_0".into(),
                grid: Dim3Expr::literal(tk.grid.x as i64, tk.grid.y as i64, 1),
                block: Dim3Expr::literal(tk.block.x as i64, tk.block.y as i64, 1),
                args: args
                    .iter()
                    .map(|a| match a {
                        ResolvedArg::Array(n) => LaunchArg::Array(n.clone()),
                        ResolvedArg::Scalar(HostValue::Int(v)) => LaunchArg::Scalar(Expr::Int(*v)),
                        ResolvedArg::Scalar(HostValue::Float(v)) => {
                            LaunchArg::Scalar(Expr::Float(*v))
                        }
                    })
                    .collect(),
            };
            let mut host: Vec<HostStmt> = Vec::new();
            for a in &plan.allocs {
                host.push(HostStmt::Alloc {
                    name: a.name.clone(),
                    elem: a.elem,
                    extents: a.extents.iter().map(|&e| Expr::Int(e as i64)).collect(),
                });
            }
            let pingpong = tk.fold.as_ref().unwrap();
            for (n, ex) in &pingpong.shadows {
                host.push(HostStmt::Alloc {
                    name: n.clone(),
                    elem: ScalarType::F64,
                    extents: ex.iter().map(|&e| Expr::Int(e as i64)).collect(),
                });
            }
            host.push(HostStmt::CopyToDevice { array: "a".into() });
            host.push(HostStmt::CopyToDevice { array: "b".into() });
            host.push(HostStmt::Repeat {
                var: "t".into(),
                count: Expr::Int(steps / (2 * fold as i64)),
                body: vec![launch(&tk.args), launch(&pingpong.args_even)],
            });
            host.push(HostStmt::CopyToHost { array: "a".into() });
            host.push(HostStmt::CopyToHost { array: "b".into() });
            let tp = Program {
                kernels: vec![tk.kernel.clone()],
                host,
            };
            let tplan = ExecutablePlan::from_program(&tp).unwrap();
            let mut tmem = GlobalMemory::from_plan(&tplan);
            tmem.get_mut("a").unwrap().data.copy_from_slice(&a0);
            tmem.get_mut("b").unwrap().data.copy_from_slice(&b0);
            let stats = Interpreter::new(&tp).run_plan(&tplan, &mut tmem).unwrap();
            for s in &stats {
                assert!(s.hazards.is_empty(), "fold {fold}: hazards {:?}", s.hazards);
            }
            assert_eq!(
                tmem.get("a").unwrap().data,
                a_ref,
                "fold {fold}: array a diverged"
            );
            assert_eq!(
                tmem.get("b").unwrap().data,
                b_ref,
                "fold {fold}: array b diverged"
            );
        }
    }
}
