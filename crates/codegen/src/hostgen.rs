//! Whole-program assembly (§5.5.4): apply a transformation plan — groups of
//! launches to fuse, kernels to fission, block tuning — and emit the new
//! program: generated kernels plus a rewritten host section invoking them
//! in the new order.
//!
//! The generator is defensive: a group the fusion code generator rejects
//! (unsupported structure, oversized halo, shared-memory overflow) falls
//! back to emitting its members unfused, with a note in the report — the
//! transformed program is always valid.
//!
//! Each multi-member group gets one isolated attempt per fusion kind —
//! temporal (when the plan folds it), then spatial — and is emitted unfused
//! when every attempt fails. An attempt tunes the block when the plan asks
//! for it; a tuner that fails keeps the kernel emitted at the initial
//! block ([`tune_block`]). No attempt is repeated: analysis and emission
//! are deterministic, so a second try would fail the same way.
//!
//! The `codegen.transform` injection site reads the run's
//! [`FaultPlan`] in place: `reject_groups` and `panic_groups` fire at the
//! start of each isolated attempt and `reject_tuned_groups` inside the
//! tuner, so every step of the ladder can be driven from a seed.

use crate::fission::{fission_kernel, FissionProduct};
use crate::fuse::{CodegenError, FusedKernel, FusionReport, GroupAnalysis};
use crate::temporal::{TemporalAnalysis, TemporalKernel};
use crate::tuning::{tune_block, Analysis, TuneNote, Tuned};
use sf_core::FaultPlan;
use sf_gpusim::isolate::isolated;
use sf_graphs::{Ddg, Precedence};
use sf_minicuda::ast::*;
use sf_minicuda::host::{
    instance_name, parse_instance, AllocInfo, Dim3, ExecutablePlan, HostValue, LaunchRecord,
    ResolvedArg, TransferRecord,
};
use sf_minicuda::visit;
use sf_plan::{BlockDims, MemberRef, PrecedenceClass, TransformPlan};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// How a fusion attempt for one group failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupFailure {
    /// The fusion generator returned an error (infeasible structure,
    /// oversized halo, shared-memory overflow, injected rejection).
    Rejected,
    /// The fusion generator panicked; the panic was caught at the per-group
    /// isolation boundary.
    Panicked,
}

/// One recorded step down the degradation ladder for a fusion group:
/// temporal → spatial fusion, tuned → untuned block, or unfused copies.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupDegradation {
    /// Group index in the transformation plan.
    pub group: usize,
    /// What the generator emitted instead of what failed.
    pub action: String,
    /// Why the first attempt, or the tuner, failed.
    pub reason: String,
    /// Failure mode of the first failure.
    pub failure: GroupFailure,
}

/// How an emitted launch relates to a recorded host time loop.
#[derive(Debug, Clone, PartialEq)]
enum LoopCtx {
    /// The launch executes once per iteration of the recorded loop; the
    /// host regenerator wraps the contiguous run of launches sharing a
    /// loop id in a `Repeat` with the original trip count.
    Plain { loop_id: usize },
    /// The launch is the first half of a temporally folded ping-pong pair:
    /// the regenerator emits `R / 2T` iterations of this launch followed by
    /// the same kernel with `args_b` (shadows → originals).
    TemporalPair {
        loop_id: usize,
        args_b: Vec<ResolvedArg>,
        iterations: u64,
    },
}

/// One launch of the transformed program, before host regeneration.
#[derive(Debug, Clone, PartialEq)]
struct EmittedLaunch {
    kernel: String,
    grid: Dim3,
    block: Dim3,
    args: Vec<ResolvedArg>,
    ctx: Option<LoopCtx>,
}

impl EmittedLaunch {
    /// A member launch emitted as recorded (unfused).
    fn of(l: LaunchRecord, ctx: Option<LoopCtx>) -> EmittedLaunch {
        EmittedLaunch {
            kernel: l.kernel,
            grid: l.grid,
            block: l.block,
            args: l.args,
            ctx,
        }
    }
}

/// A resolved group member: the original kernel and launch, borrowed unless
/// fission or instance renaming had to build new ones.
type Member<'a> = (Cow<'a, Kernel>, Cow<'a, LaunchRecord>);

/// A fusion kind a group is attempted as, in ladder order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Temporal,
    Spatial,
}

/// What a successful fusion attempt produced.
enum Fusion {
    Spatial(FusedKernel),
    /// Temporal kernel and the `R / 2T` host iteration count.
    Temporal(Box<TemporalKernel>, u64),
}

/// Emit `analysis` at `initial_block`, and tune the block when the plan
/// asks for it (`veto` rejects the tuned kernel by injection). `None` when
/// the plan does not tune.
fn emit_group<A: Analysis>(
    analysis: &A,
    initial_block: Dim3,
    tplan: &TransformPlan,
    alloc_of: &dyn Fn(&str) -> Option<AllocInfo>,
    veto: Option<CodegenError>,
) -> Result<(A::Kernel, Option<Tuned>), CodegenError> {
    if !tplan.block_tuning {
        return Ok((analysis.emit_from(initial_block, None)?, None));
    }
    let (kernel, tuned) = tune_block(analysis, initial_block, &tplan.device, alloc_of, veto)?;
    Ok((kernel, Some(tuned)))
}

/// The transformed program plus reports.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct TransformOutput {
    pub program: Program,
    /// One report per fused group (singletons produce no report).
    pub reports: Vec<FusionReport>,
    /// Block-tuning notes per fused kernel.
    pub tuning: Vec<TuneNote>,
    /// Groups the fusion generator rejected, with the reason; their members
    /// were emitted unfused.
    pub fallbacks: Vec<(usize, String)>,
    /// Every step down the degradation ladder taken while generating code
    /// (includes the groups in `fallbacks`, plus tuned→untuned descents).
    pub degradations: Vec<GroupDegradation>,
    /// Number of kernels in the new program that replace the targets (the
    /// Table 1 "new kernels" count).
    pub new_kernel_count: usize,
    /// The as-executed plan: the input plan with each group annotated with
    /// what the generator actually did — staged shared arrays, the block the
    /// tuner settled on, and the observed precedence class. Groups that fell
    /// back to unfused members have their fusion annotations cleared.
    pub plan: TransformPlan,
}

/// Where each launch's arrays live under a DDG's redundant-instance
/// numbering (§3.2.3). Which arrays have more than one instance is decided
/// where the numbering is built (`sf_graphs::precedence`), not here. Every
/// instance but an array's last is its own allocation `{name}__i{inst}`;
/// the *last* keeps the base name, so host D2H copies (and verification)
/// observe the final values unchanged.
pub struct Storage<'d> {
    instances: &'d Ddg,
    /// Highest instance of each array.
    max_inst: BTreeMap<String, usize>,
}

impl<'d> Storage<'d> {
    /// The storage `instances` numbers.
    pub fn new(instances: &'d Ddg) -> Storage<'d> {
        let mut max_inst: BTreeMap<String, usize> = BTreeMap::new();
        for ((_, name), &inst) in instances
            .read_instance
            .iter()
            .chain(instances.write_instance.iter())
        {
            let e = max_inst.entry(name.clone()).or_insert(0);
            *e = (*e).max(inst);
        }
        Storage {
            instances,
            max_inst,
        }
    }

    /// Rewrite a launch of `kernel` to the storage its array arguments
    /// execute on — what the code generator reads a member as. The launch
    /// is cloned only if some argument actually moves.
    pub fn bind(&self, kernel: &Kernel, launch: &mut Cow<'_, LaunchRecord>) {
        let written = visit::arrays_written(&kernel.body);
        for (pi, p) in kernel.params.iter().enumerate().take(launch.args.len()) {
            let (Param::Array { name, .. }, ResolvedArg::Array(actual)) = (p, &launch.args[pi])
            else {
                continue;
            };
            let instance_of = if written.contains(name) {
                &self.instances.write_instance
            } else {
                &self.instances.read_instance
            };
            let inst = instance_of
                .get(&(launch.seq, actual.clone()))
                .copied()
                .unwrap_or(0);
            if self.max_inst.get(actual).copied().unwrap_or(0) != inst {
                launch.to_mut().args[pi] = ResolvedArg::Array(instance_name(actual, inst));
            }
        }
    }
}

/// What the generator reads a plan member as: its kernel (a fission
/// product's own) and its launch, bound to [`Storage`]. Members borrow the
/// original kernels and launches; only fission products, split once per
/// kernel, are owned.
pub struct Resolver<'p> {
    original: &'p Program,
    plan: &'p ExecutablePlan,
    storage: &'p Storage<'p>,
    fissions: BTreeMap<String, Vec<FissionProduct>>,
}

impl<'p> Resolver<'p> {
    /// Resolve members of `plan`'s launches of `original`.
    pub fn new(
        original: &'p Program,
        plan: &'p ExecutablePlan,
        storage: &'p Storage<'p>,
    ) -> Resolver<'p> {
        Resolver {
            original,
            plan,
            storage,
            fissions: BTreeMap::new(),
        }
    }

    /// The kernel and bound launch codegen fuses for `mref`.
    pub fn resolve(
        &mut self,
        mref: &MemberRef,
    ) -> Result<(Cow<'p, Kernel>, Cow<'p, LaunchRecord>), CodegenError> {
        let launch = self
            .plan
            .launches
            .get(mref.seq)
            .ok_or_else(|| CodegenError(format!("unknown launch seq {}", mref.seq)))?;
        let kernel = self
            .original
            .kernel(&launch.kernel)
            .ok_or_else(|| CodegenError(format!("unknown kernel `{}`", launch.kernel)))?;
        match mref.fission_component {
            None => {
                let mut l = Cow::Borrowed(launch);
                self.storage.bind(kernel, &mut l);
                Ok((Cow::Borrowed(kernel), l))
            }
            Some(c) => {
                let prods = self
                    .fissions
                    .entry(kernel.name.clone())
                    .or_insert_with(|| fission_kernel(kernel).unwrap_or_default());
                let p = prods.get(c).ok_or_else(|| {
                    CodegenError(format!(
                        "kernel `{}` has no fission component {c}",
                        kernel.name
                    ))
                })?;
                let args: Vec<ResolvedArg> = p
                    .kept_params
                    .iter()
                    .map(|&i| launch.args[i].clone())
                    .collect();
                let mut l = Cow::Owned(LaunchRecord {
                    seq: launch.seq,
                    kernel: p.kernel.name.clone(),
                    grid: launch.grid,
                    block: launch.block,
                    args,
                    repeat: launch.repeat,
                });
                self.storage.bind(&p.kernel, &mut l);
                Ok((Cow::Owned(p.kernel.clone()), l))
            }
        }
    }
}

/// Apply a transformation plan to a program, deriving the instance
/// numbering from the program itself.
pub fn transform_program(
    original: &Program,
    plan: &ExecutablePlan,
    tplan: &TransformPlan,
) -> Result<TransformOutput, CodegenError> {
    let instances = Precedence::instances(original, plan).map_err(CodegenError)?;
    transform_program_with(original, plan, tplan, &instances, &FaultPlan::none())
}

/// Apply a transformation plan under the array-instance numbering of
/// `instances` (the program's DDG, as [`Precedence`] builds it), with the
/// codegen faults of `faults` injected at the per-group isolation boundary
/// (production callers pass [`FaultPlan::none`]). Each multi-member group
/// walks the degradation ladder: temporal fusion (when the plan folds the
/// group) → spatial fusion → unfused members, one isolated attempt per
/// kind, each tuned when the plan asks and kept at its initial block when
/// the tuner fails. A panic or rejection drops to the next kind, and every
/// step down is recorded in [`TransformOutput::degradations`]. The emitted
/// program is always valid.
pub fn transform_program_with(
    original: &Program,
    plan: &ExecutablePlan,
    tplan: &TransformPlan,
    instances: &Ddg,
    faults: &FaultPlan,
) -> Result<TransformOutput, CodegenError> {
    tplan
        .validate(plan.launches.len())
        .map_err(|e| CodegenError(e.to_string()))?;
    if plan.opaque_loops {
        return Err(CodegenError(
            "host contains loops the transform cannot preserve \
             (non-launch statements or nesting inside a time loop)"
                .into(),
        ));
    }
    // seq → index of the recorded host time loop containing that launch.
    let loop_of: BTreeMap<usize, usize> = plan
        .loops
        .iter()
        .enumerate()
        .flat_map(|(li, l)| l.seqs.iter().map(move |&s| (s, li)))
        .collect();
    // Redundant array instances (§3.2.3), materialized as real
    // allocations so relaxed anti/output dependences stay sound.
    let storage = Storage::new(instances);
    let mut resolver = Resolver::new(original, plan, &storage);
    let mut resolve = |mref: &MemberRef| resolver.resolve(mref);

    let mut new_kernels: Vec<Kernel> = Vec::new();
    let mut new_launches: Vec<EmittedLaunch> = Vec::new();
    let mut shadow_allocs: Vec<(String, Vec<usize>)> = Vec::new();
    let mut reports = Vec::new();
    let mut tuning = Vec::new();
    let mut fallbacks = Vec::new();
    let mut degradations: Vec<GroupDegradation> = Vec::new();
    // The as-executed plan starts as the input and is re-annotated group by
    // group with what the generator actually emitted.
    let mut exec_plan = tplan.clone();

    let push_kernel = |kernels: &mut Vec<Kernel>, k: Cow<'_, Kernel>| {
        if !kernels.iter().any(|e| e.name == k.name) {
            kernels.push(k.into_owned());
        }
    };

    for (gi, group) in tplan.groups.iter().enumerate() {
        if group.members.is_empty() {
            continue;
        }
        if group.members.len() == 1 {
            let (k, l) = resolve(&group.members[0])?;
            let ctx = loop_of
                .get(&group.members[0].seq)
                .map(|&li| LoopCtx::Plain { loop_id: li });
            push_kernel(&mut new_kernels, k);
            new_launches.push(EmittedLaunch::of(l.into_owned(), ctx));
            continue;
        }
        // Multi-member group: fuse. A group may not straddle a host time
        // loop boundary — either every member sits in the same recorded
        // loop (the fused kernel launches once per iteration, or the loop
        // is temporally folded) or none does.
        let member_loops: BTreeSet<Option<usize>> = group
            .members
            .iter()
            .map(|m| loop_of.get(&m.seq).copied())
            .collect();
        if member_loops.len() > 1 {
            return Err(CodegenError(format!(
                "group {gi} mixes launches inside and outside a host time loop"
            )));
        }
        let group_loop: Option<usize> = member_loops.into_iter().next().flatten();
        let resolved: Vec<Member<'_>> = group
            .members
            .iter()
            .map(&mut resolve)
            .collect::<Result<_, _>>()?;
        let member_refs: Vec<(&Kernel, &LaunchRecord)> =
            resolved.iter().map(|(k, l)| (&**k, &**l)).collect();
        let name = format!("fused_{gi}");
        let initial_block = resolved[0].1.block;
        // Preconditions for temporal folding: the group must cover an
        // entire recorded host time loop, member order must match the loop
        // body, and the ping-pong pair must divide the trip count.
        let fold = group.temporal.max(1);
        let temporal_check = || -> Result<u64, CodegenError> {
            let li = group_loop.ok_or_else(|| {
                CodegenError(format!(
                    "group {gi} requests temporal degree {fold} but its \
                     members are not inside a host time loop"
                ))
            })?;
            let rec = &plan.loops[li];
            let member_seqs: Vec<usize> = group.members.iter().map(|m| m.seq).collect();
            if member_seqs != rec.seqs {
                return Err(CodegenError(format!(
                    "group {gi} requests temporal degree {fold} but does not \
                     cover host loop `{}` exactly (group seqs {member_seqs:?}, \
                     loop seqs {:?})",
                    rec.var, rec.seqs
                )));
            }
            let pair = 2 * fold as u64;
            if !rec.count.is_multiple_of(pair) {
                return Err(CodegenError(format!(
                    "temporal degree {fold} needs the ping-pong pair (2T = \
                     {pair} steps) to divide the trip count {} of loop `{}`",
                    rec.count, rec.var
                )));
            }
            Ok(rec.count / pair)
        };
        // One isolated attempt per fusion kind: injected faults fire here,
        // and a panic anywhere below poisons only this attempt.
        let alloc_of = |array: &str| declared_alloc(plan, array);
        let smem_limit = tplan.device.smem_per_block_max;
        let attempt = |kind: Kind| -> Result<(Fusion, Option<Tuned>), (GroupFailure, String)> {
            let run = isolated(|| {
                if faults.panic_groups.contains(&gi) {
                    panic!("injected codegen panic in group {gi}");
                }
                if faults.reject_groups.contains(&gi) {
                    return Err(CodegenError(format!(
                        "injected codegen rejection in group {gi}"
                    )));
                }
                let veto = faults.reject_tuned_groups.contains(&gi).then(|| {
                    CodegenError(format!("injected tuned-fusion rejection in group {gi}"))
                });
                match kind {
                    Kind::Temporal => {
                        let iters = temporal_check()?;
                        let analysis = TemporalAnalysis::new(
                            &member_refs,
                            &name,
                            smem_limit,
                            fold,
                            &plan.allocs,
                        )?;
                        let (tk, tuned) =
                            emit_group(&analysis, initial_block, tplan, &alloc_of, veto)?;
                        Ok((Fusion::Temporal(Box::new(tk), iters), tuned))
                    }
                    Kind::Spatial => {
                        let analysis =
                            GroupAnalysis::new(&member_refs, tplan.mode, &name, smem_limit)?;
                        let (fk, tuned) =
                            emit_group(&analysis, initial_block, tplan, &alloc_of, veto)?;
                        Ok((Fusion::Spatial(fk), tuned))
                    }
                }
            });
            match run {
                Ok(Ok(v)) => Ok(v),
                Ok(Err(e)) => Err((GroupFailure::Rejected, e.0)),
                Err(panic_msg) => Err((GroupFailure::Panicked, panic_msg)),
            }
        };

        // Walk the ladder: temporal fusion → spatial fusion → unfused.
        let kinds: &[Kind] = if fold > 1 {
            &[Kind::Temporal, Kind::Spatial]
        } else {
            &[Kind::Spatial]
        };
        let mut first_failure: Option<(GroupFailure, String)> = None;
        let mut fused: Option<(Fusion, Option<Tuned>)> = None;
        for &kind in kinds {
            match attempt(kind) {
                Ok(v) => {
                    fused = Some(v);
                    break;
                }
                Err(f) => {
                    first_failure.get_or_insert(f);
                }
            }
        }
        let (fused, tuned) = fused.map_or((None, None), |(f, t)| (Some(f), t));
        let (note, untuned) = match tuned {
            Some(Ok(note)) => (Some(note), None),
            Some(Err(why)) => (None, Some(why.0)),
            None => (None, None),
        };
        // A fused group records one step: the failed attempt above it, or
        // else the tuner's failure. An unfused one records its own below.
        let step = match (&fused, &first_failure, untuned) {
            (None, ..) | (Some(_), None, None) => None,
            (Some(_), Some(failed), _) if note.is_some() => {
                Some(("fell back to spatial (tuned) fusion", failed.clone()))
            }
            (Some(_), Some(failed), _) => {
                Some(("fell back to simple (untuned) fusion", failed.clone()))
            }
            (Some(Fusion::Temporal(..)), None, Some(why)) => Some((
                "fell back to untuned temporal fusion",
                (GroupFailure::Rejected, why),
            )),
            (Some(Fusion::Spatial(_)), None, Some(why)) => Some((
                "fell back to simple (untuned) fusion",
                (GroupFailure::Rejected, why),
            )),
        };
        if let Some((action, (failure, reason))) = step {
            degradations.push(GroupDegradation {
                group: gi,
                action: action.into(),
                reason,
                failure,
            });
        }
        match fused {
            Some(Fusion::Temporal(tk, iterations)) => {
                let li = group_loop.expect("the temporal attempt validated loop membership");
                let g = &mut exec_plan.groups[gi];
                g.staged_arrays = tk.report.staged.iter().map(|s| s.array.clone()).collect();
                g.precedence = PrecedenceClass::PrecedenceAware;
                g.tuned_block = Some(BlockDims {
                    x: tk.block.x,
                    y: tk.block.y,
                    z: tk.block.z,
                });
                reports.push(tk.report.clone());
                if let Some(n) = note {
                    tuning.push(n);
                }
                for (sname, extents) in &tk.shadows {
                    if !shadow_allocs.iter().any(|(n, _)| n == sname) {
                        shadow_allocs.push((sname.clone(), extents.clone()));
                    }
                }
                push_kernel(&mut new_kernels, Cow::Owned(tk.kernel));
                new_launches.push(EmittedLaunch {
                    kernel: name,
                    grid: tk.grid,
                    block: tk.block,
                    args: tk.args_a,
                    ctx: Some(LoopCtx::TemporalPair {
                        loop_id: li,
                        args_b: tk.args_b,
                        iterations,
                    }),
                });
            }
            Some(Fusion::Spatial(fk)) => {
                let g = &mut exec_plan.groups[gi];
                // The as-executed plan reflects what was emitted: a group
                // that requested temporal folding but was fused spatially
                // replays as spatial.
                g.temporal = 1;
                g.staged_arrays = fk.report.staged.iter().map(|s| s.array.clone()).collect();
                g.precedence = if fk.report.complex || fk.report.staged.iter().any(|s| s.flow) {
                    PrecedenceClass::PrecedenceAware
                } else {
                    PrecedenceClass::Simple
                };
                g.tuned_block = Some(BlockDims {
                    x: fk.block.x,
                    y: fk.block.y,
                    z: fk.block.z,
                });
                reports.push(fk.report.clone());
                if let Some(n) = note {
                    tuning.push(n);
                }
                push_kernel(&mut new_kernels, Cow::Owned(fk.kernel));
                new_launches.push(EmittedLaunch {
                    kernel: name,
                    grid: fk.grid,
                    block: fk.block,
                    args: fk.args,
                    ctx: group_loop.map(|li| LoopCtx::Plain { loop_id: li }),
                });
            }
            None => {
                // Every attempt failed: emit members unfused, in host (seq)
                // order.
                let g = &mut exec_plan.groups[gi];
                g.temporal = 1;
                g.staged_arrays.clear();
                g.tuned_block = None;
                let (failure, reason) = first_failure.expect("every attempt failed");
                fallbacks.push((gi, reason.clone()));
                degradations.push(GroupDegradation {
                    group: gi,
                    action: "emitted members unfused".into(),
                    reason,
                    failure,
                });
                let mut resolved = resolved;
                resolved.sort_by_key(|(_, l)| l.seq);
                for (k, l) in resolved {
                    let ctx = loop_of
                        .get(&l.seq)
                        .map(|&li| LoopCtx::Plain { loop_id: li });
                    push_kernel(&mut new_kernels, k);
                    new_launches.push(EmittedLaunch::of(l.into_owned(), ctx));
                }
            }
        }
    }

    let new_kernel_count = new_launches.len();
    let host = build_host(plan, &new_launches, &storage.max_inst, &shadow_allocs)?;
    Ok(TransformOutput {
        program: Program {
            kernels: new_kernels,
            host,
        },
        reports,
        tuning,
        fallbacks,
        degradations,
        new_kernel_count,
        plan: exec_plan,
    })
}

/// The allocation [`build_host`] declares for `array`: a literal one, or a
/// redundant instance `{base}__i{n}` or temporal shadow `{base}__tb`, each
/// shaped like its base.
fn declared_alloc(plan: &ExecutablePlan, array: &str) -> Option<AllocInfo> {
    if let Some(a) = plan.alloc(array) {
        return Some(a.clone());
    }
    let base = match array.strip_suffix("__tb") {
        Some(base) => base,
        None => parse_instance(array)?.0,
    };
    let base = plan.alloc(base)?;
    Some(AllocInfo {
        name: array.to_string(),
        ..base.clone()
    })
}

/// Rebuild the host section: literal allocations (plus instance and
/// temporal-shadow allocations), H2D copies, the new launches in plan
/// order — with recorded host time loops reconstructed as `Repeat`
/// statements (temporally folded loops collapse to `R / 2T` iterations of
/// a ping-pong launch pair) — and D2H copies.
fn build_host(
    plan: &ExecutablePlan,
    launches: &[EmittedLaunch],
    max_inst: &BTreeMap<String, usize>,
    shadows: &[(String, Vec<usize>)],
) -> Result<Vec<HostStmt>, CodegenError> {
    let mut host = Vec::new();
    for a in &plan.allocs {
        host.push(HostStmt::Alloc {
            name: a.name.clone(),
            elem: a.elem,
            extents: a.extents.iter().map(|&e| Expr::Int(e as i64)).collect(),
        });
        // Redundant instances share the base array's extents.
        let n = max_inst.get(&a.name).copied().unwrap_or(0);
        for inst in 0..n {
            host.push(HostStmt::Alloc {
                name: instance_name(&a.name, inst),
                elem: a.elem,
                extents: a.extents.iter().map(|&e| Expr::Int(e as i64)).collect(),
            });
        }
    }
    // Temporal ping-pong shadows: fully written by the first half of every
    // folded pair before being read, so no H2D copy is needed. The element
    // type is inherited from the shadowed base array.
    for (sname, extents) in shadows {
        let base = sname.strip_suffix("__tb").unwrap_or(sname);
        let elem = plan
            .allocs
            .iter()
            .find(|a| a.name == base)
            .map(|a| a.elem)
            .ok_or_else(|| {
                CodegenError(format!("temporal shadow `{sname}` has no base allocation"))
            })?;
        host.push(HostStmt::Alloc {
            name: sname.clone(),
            elem,
            extents: extents.iter().map(|&e| Expr::Int(e as i64)).collect(),
        });
    }
    for t in &plan.transfers {
        if let TransferRecord::ToDevice { array, .. } = t {
            // Initial data lands in the first instance (the one the first
            // readers consume); the base name holds the final instance.
            let n = max_inst.get(array).copied().unwrap_or(0);
            let target = if n == 0 {
                array.clone()
            } else {
                instance_name(array, 0)
            };
            host.push(HostStmt::CopyToDevice { array: target });
        }
    }
    let stmt = |l: &EmittedLaunch, args: &[ResolvedArg]| HostStmt::Launch {
        kernel: l.kernel.clone(),
        grid: dim3_expr(l.grid),
        block: dim3_expr(l.block),
        args: args
            .iter()
            .map(|a| match a {
                ResolvedArg::Array(n) => LaunchArg::Array(n.clone()),
                ResolvedArg::Scalar(HostValue::Int(v)) => LaunchArg::Scalar(Expr::Int(*v)),
                ResolvedArg::Scalar(HostValue::Float(v)) => LaunchArg::Scalar(Expr::Float(*v)),
            })
            .collect(),
    };
    let mut done: BTreeSet<usize> = BTreeSet::new();
    let mut i = 0;
    while i < launches.len() {
        let l = &launches[i];
        match &l.ctx {
            None => {
                host.push(stmt(l, &l.args));
                i += 1;
            }
            Some(LoopCtx::TemporalPair {
                loop_id,
                args_b,
                iterations,
            }) => {
                if !done.insert(*loop_id) {
                    return Err(CodegenError(format!(
                        "launches of host loop `{}` are scattered in the \
                         emitted order",
                        plan.loops[*loop_id].var
                    )));
                }
                host.push(HostStmt::Repeat {
                    var: plan.loops[*loop_id].var.clone(),
                    count: Expr::Int(*iterations as i64),
                    body: vec![stmt(l, &l.args), stmt(l, args_b)],
                });
                i += 1;
            }
            Some(LoopCtx::Plain { loop_id }) => {
                let li = *loop_id;
                if !done.insert(li) {
                    return Err(CodegenError(format!(
                        "launches of host loop `{}` are scattered in the \
                         emitted order",
                        plan.loops[li].var
                    )));
                }
                let mut body = Vec::new();
                while i < launches.len()
                    && matches!(&launches[i].ctx,
                        Some(LoopCtx::Plain { loop_id }) if *loop_id == li)
                {
                    body.push(stmt(&launches[i], &launches[i].args));
                    i += 1;
                }
                host.push(HostStmt::Repeat {
                    var: plan.loops[li].var.clone(),
                    count: Expr::Int(plan.loops[li].count as i64),
                    body,
                });
            }
        }
    }
    for t in &plan.transfers {
        if let TransferRecord::ToHost { array, .. } = t {
            host.push(HostStmt::CopyToHost {
                array: array.clone(),
            });
        }
    }
    Ok(host)
}

fn dim3_expr(d: Dim3) -> Dim3Expr {
    Dim3Expr::literal(d.x as i64, d.y as i64, d.z as i64)
}
