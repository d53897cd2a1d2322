//! Block-independent fusion legality: one pure predicate over per-member
//! facts.
//!
//! A member's [`MemberFacts`] are what its own launch fixes — the arrays
//! it reads and writes with their canonical read offsets, its evaluated
//! guard and vertical range, its sweep structure, its barriers and shared
//! declarations, or why it does not canonicalize. [`check`] decides from
//! the members' facts alone whether the code generator fuses them:
//! member order, producers, the merged-versus-concatenated choice and
//! every rule of either form. [`crate::fuse::GroupAnalysis::new`] takes
//! its staging decisions from the same decision, and the search asks
//! [`check`] of facts it computed once per unit, so a group the search
//! prices is a group codegen emits. What is left per block shape (tile
//! footprint, halo width, barrier guards) is
//! [`crate::fuse::GroupAnalysis::smem_bytes`]'s.

use crate::canon::{self, EvalGuard, SweepShape};
use crate::fuse::CodegenError;
use sf_analysis::access::{IdxBase, IdxPat};
use sf_minicuda::ast::{Kernel, Stmt};
use sf_minicuda::host::LaunchRecord;
use sf_minicuda::visit;
use sf_plan::CodegenMode;
use std::collections::HashMap;

/// Dense ids for the actual arrays a set of members touches.
#[derive(Debug, Clone, Default)]
pub struct ArrayIds {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl ArrayIds {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// The array an id stands for.
    pub(crate) fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Renumber the ids in name order and rewrite `members` to match.
    /// [`check`] walks arrays in id order, so it then reports the same
    /// first rejection and stages tiles in the same order however the
    /// arrays were first met.
    pub fn sort<'m>(&mut self, members: impl IntoIterator<Item = &'m mut MemberFacts>) {
        let mut order: Vec<u32> = (0..self.names.len() as u32).collect();
        order.sort_by(|&a, &b| self.names[a as usize].cmp(&self.names[b as usize]));
        let mut renumber = vec![0u32; order.len()];
        for (new, &old) in order.iter().enumerate() {
            renumber[old as usize] = new as u32;
        }
        for m in members {
            if let Ok(shape) = &mut m.shape {
                for u in &mut shape.arrays {
                    u.id = renumber[u.id as usize];
                }
            }
        }
        self.names = order
            .iter()
            .map(|&old| self.names[old as usize].clone())
            .collect();
        for (id, name) in self.names.iter().enumerate() {
            self.index.insert(name.clone(), id as u32);
        }
    }
}

/// Per-read classification of a 3-D stencil access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ReadOffset {
    pub(crate) dk: i64,
    pub(crate) dj: i64,
    pub(crate) di: i64,
    /// dk is an offset from the vertical loop variable (vs const plane).
    pub(crate) vert: bool,
}

impl ReadOffset {
    fn lateral(&self) -> bool {
        self.di != 0 || self.dj != 0
    }

    /// A read of the current plane of the vertical sweep.
    fn current_plane(&self) -> bool {
        self.vert && self.dk == 0
    }
}

pub(crate) fn classify_3d(pats: &[IdxPat]) -> Option<ReadOffset> {
    // Rank 3 (k, j, i) or rank 4 with a leading inner-loop / constant axis
    // (deep-nested tracer arrays): the stencil offsets live on the last
    // three axes either way.
    let tail = match pats.len() {
        3 => pats,
        4 => {
            if !matches!(pats[0].base, IdxBase::Inner(_) | IdxBase::Const) {
                return None;
            }
            &pats[1..]
        }
        _ => return None,
    };
    let (k, j, i) = (&tail[0], &tail[1], &tail[2]);
    let vert = match k.base {
        IdxBase::Vert => true,
        IdxBase::Const => false,
        _ => return None,
    };
    if j.base != IdxBase::Y || i.base != IdxBase::X {
        return None;
    }
    Some(ReadOffset {
        dk: k.off,
        dj: j.off,
        di: i.off,
        vert,
    })
}

/// What fusion legality needs to know about one member, computed from its
/// kernel and launch alone.
#[derive(Debug, Clone)]
pub struct MemberFacts {
    /// The kernel's name, for rejection messages.
    name: String,
    /// The member's shape, or why it does not canonicalize.
    shape: Result<Shape, String>,
}

#[derive(Debug, Clone)]
struct Shape {
    /// Every array the member touches, in first-access order.
    arrays: Vec<ArrayUse>,
    guard: EvalGuard,
    /// `None`: not a single sweep; the member can only be concatenated.
    sweep: Option<SweepShape>,
    has_barrier: bool,
    /// Bytes of the member's own `__shared__` declarations.
    shared_bytes: usize,
}

/// One member's accesses to one array.
#[derive(Debug, Clone)]
struct ArrayUse {
    id: u32,
    written: bool,
    /// Position of the member's first read among its accesses, if it
    /// reads the array at all.
    first_read: Option<usize>,
    /// Every access to the array has exactly three indices.
    rank3: bool,
    /// The reads' offsets in access order, `None` when some read is not
    /// a canonical 3-D stencil access.
    reads: Option<Vec<ReadOffset>>,
}

impl ArrayUse {
    fn read(&self) -> bool {
        self.first_read.is_some()
    }
}

impl MemberFacts {
    /// The facts of `kernel` launched by `launch`, its arrays interned in
    /// `ids`. Codegen reads a member with its array arguments bound to
    /// the storage it executes on, so `launch` must carry those.
    pub fn of(kernel: &Kernel, launch: &LaunchRecord, ids: &mut ArrayIds) -> MemberFacts {
        MemberFacts::bound(kernel, &canon::bind(kernel, launch), ids)
    }

    /// The facts of a member [`canon::bind`] already bound (or refused).
    pub(crate) fn bound(
        kernel: &Kernel,
        binding: &Result<canon::Binding<'_>, canon::CanonError>,
        ids: &mut ArrayIds,
    ) -> MemberFacts {
        let shape = match binding {
            Ok(b) => Ok(Shape::of(kernel, b, ids)),
            Err(e) => Err(e.0.clone()),
        };
        MemberFacts {
            name: kernel.name.clone(),
            shape,
        }
    }
}

impl Shape {
    fn of(kernel: &Kernel, b: &canon::Binding<'_>, ids: &mut ArrayIds) -> Shape {
        let mut arrays: Vec<ArrayUse> = Vec::new();
        let accesses = b.ka.sweeps.iter().flat_map(|s| &s.accesses);
        for (pos, acc) in accesses.enumerate() {
            let id = ids.intern(b.actual(&acc.array));
            let u = match arrays.iter().position(|u| u.id == id) {
                Some(i) => &mut arrays[i],
                None => {
                    arrays.push(ArrayUse {
                        id,
                        written: false,
                        first_read: None,
                        rank3: true,
                        reads: Some(Vec::new()),
                    });
                    arrays.last_mut().expect("just pushed")
                }
            };
            u.rank3 &= acc.pats.len() == 3;
            if acc.is_write {
                u.written = true;
                continue;
            }
            u.first_read.get_or_insert(pos);
            let offset = classify_3d(&acc.pats);
            match (&mut u.reads, offset) {
                (Some(reads), Some(r)) => reads.push(r),
                (reads, _) => *reads = None,
            }
        }
        let mut has_barrier = false;
        let mut shared_bytes = 0;
        visit::walk_stmts(&kernel.body, &mut |s| match s {
            Stmt::SyncThreads => has_barrier = true,
            Stmt::SharedDecl { ty, extents, .. } => {
                shared_bytes += extents.iter().product::<usize>() * ty.size_bytes();
            }
            _ => {}
        });
        Shape {
            arrays,
            guard: b.guard,
            sweep: b.sweep,
            has_barrier,
            shared_bytes,
        }
    }
}

/// A staged array before a block shape sizes its tile.
#[derive(Debug)]
pub(crate) struct Tile {
    pub(crate) array: u32,
    pub(crate) rx: i64,
    pub(crate) ry: i64,
    /// Producing member index for flow arrays; `None` = read-only staging.
    pub(crate) producer: Option<usize>,
}

/// How the members combine, with what each form needs at emit time.
#[derive(Debug)]
pub(crate) enum Form {
    /// All members share one vertical sweep; `ranges` holds each member's
    /// `[k_lo, k_hi)`.
    Merged {
        ranges: Vec<(i64, i64)>,
        tiles: Vec<Tile>,
    },
    /// Sweep-after-sweep concatenation: per member, whether its body
    /// contains a barrier, and the shared memory the members declare
    /// themselves (the generator adds none).
    Concat {
        has_barrier: Vec<bool>,
        member_smem: usize,
    },
}

/// Whether the code generator fuses `members`, given in execution order:
/// `Ok` exactly when [`crate::fuse::GroupAnalysis::new`] accepts their
/// kernels and launches, otherwise its rejection.
pub fn check(
    members: &[&MemberFacts],
    mode: CodegenMode,
    ids: &ArrayIds,
) -> Result<(), CodegenError> {
    let group = Group::of(members, ids)?;
    let flows = group.flows()?;
    if flows.is_empty() {
        // No array flows between members: only canonicalization and the
        // ordering rule (checked above) can refuse the group.
        return Ok(());
    }
    group.form(&flows, mode).map(drop)
}

/// [`check`], and on success the form the members combine in and whether
/// some array flows between them (complex fusion).
pub(crate) fn form(
    members: &[&MemberFacts],
    mode: CodegenMode,
    ids: &ArrayIds,
) -> Result<(Form, bool), CodegenError> {
    let group = Group::of(members, ids)?;
    let flows = group.flows()?;
    Ok((group.form(&flows, mode)?, !flows.is_empty()))
}

/// A member whose facts canonicalized.
struct Member<'f> {
    name: &'f str,
    shape: &'f Shape,
}

/// One member's use of one array.
struct Access<'f> {
    member: usize,
    array: &'f ArrayUse,
}

/// The members in execution order, and every array use ordered by
/// (array, member).
struct Group<'f> {
    members: Vec<Member<'f>>,
    uses: Vec<Access<'f>>,
    ids: &'f ArrayIds,
}

impl<'f> Group<'f> {
    fn of(facts: &[&'f MemberFacts], ids: &'f ArrayIds) -> Result<Group<'f>, CodegenError> {
        let mut members = Vec::with_capacity(facts.len());
        for f in facts {
            match &f.shape {
                Ok(shape) => members.push(Member {
                    name: &f.name,
                    shape,
                }),
                Err(e) => return Err(CodegenError(e.clone())),
            }
        }
        let mut uses: Vec<Access<'f>> = members
            .iter()
            .enumerate()
            .flat_map(|(member, m)| {
                m.shape
                    .arrays
                    .iter()
                    .map(move |array| Access { member, array })
            })
            .collect();
        uses.sort_unstable_by_key(|u| (u.array.id, u.member));
        Ok(Group { members, uses, ids })
    }

    /// Each array's uses, in array id order, members ascending.
    fn arrays(&self) -> impl Iterator<Item = &[Access<'f>]> {
        self.uses.chunk_by(|a, b| a.array.id == b.array.id)
    }

    fn written(&self, id: u32) -> bool {
        let at = self.uses.partition_point(|u| u.array.id < id);
        self.uses[at..]
            .iter()
            .take_while(|u| u.array.id == id)
            .any(|u| u.array.written)
    }

    /// Flow arrays — written by one member, read by a *later* member —
    /// with their producers, in array id order. A read by an *earlier*
    /// member would observe pre-launch values in the original program but
    /// mid-launch values here — the caller must order members
    /// producer-first (anti-ordered groups are unfusable).
    fn flows(&self) -> Result<Vec<(u32, usize)>, CodegenError> {
        let mut flows = Vec::new();
        for uses in self.arrays() {
            let a = self.ids.name(uses[0].array.id);
            let writers = uses.iter().filter(|u| u.array.written);
            let several = writers.clone().nth(1).is_some();
            for w in writers {
                let w = w.member;
                if uses.iter().any(|r| r.array.read() && r.member < w) {
                    return Err(CodegenError(format!(
                        "member {w} overwrites `{a}` read by an earlier member; \
                         anti-ordered group is unfusable"
                    )));
                }
                if uses.iter().any(|r| r.array.read() && r.member > w) {
                    if several {
                        return Err(CodegenError(format!(
                            "array `{a}` produced by multiple members; unfusable"
                        )));
                    }
                    flows.push((uses[0].array.id, w));
                }
            }
        }
        Ok(flows)
    }

    /// Member `m`'s reads of array `a`, classified.
    fn read_offsets(&self, m: usize, a: u32) -> Result<&'f [ReadOffset], CodegenError> {
        let member = &self.members[m];
        let Some(u) = member.shape.arrays.iter().find(|u| u.id == a) else {
            return Ok(&[]);
        };
        match &u.reads {
            Some(reads) => Ok(reads),
            None => Err(CodegenError(format!(
                "access to `{}` in `{}` is not a canonical 3-D stencil access",
                self.ids.name(a),
                member.name
            ))),
        }
    }

    fn use_of(&self, m: usize, a: u32) -> Option<&'f ArrayUse> {
        self.members[m].shape.arrays.iter().find(|u| u.id == a)
    }

    fn form(&self, flows: &[(u32, usize)], mode: CodegenMode) -> Result<Form, CodegenError> {
        let merged = self.members.iter().all(|m| {
            m.shape
                .sweep
                .is_some_and(|s| mode == CodegenMode::Manual || !s.has_inner)
        });
        if merged {
            self.merged(flows)
        } else {
            self.concat(flows)
        }
    }

    /// Block-independent legality of sweep-after-sweep concatenation.
    fn concat(&self, flows: &[(u32, usize)]) -> Result<Form, CodegenError> {
        // Safety: inter-member flow is only column-local (di == dj == 0),
        // since members execute their full sweeps one after another per
        // thread.
        for &(a, producer) in flows {
            for mi in producer + 1..self.members.len() {
                if self.read_offsets(mi, a)?.iter().any(ReadOffset::lateral) {
                    return Err(CodegenError(format!(
                        "flow array `{}` read with lateral offsets by `{}` cannot be \
                         fused by concatenation",
                        self.ids.name(a),
                        self.members[mi].name
                    )));
                }
            }
        }
        Ok(Form::Concat {
            has_barrier: self.members.iter().map(|m| m.shape.has_barrier).collect(),
            member_smem: self.members.iter().map(|m| m.shape.shared_bytes).sum(),
        })
    }

    /// Block-independent legality and staging decisions of merged fusion.
    fn merged(&self, flows: &[(u32, usize)]) -> Result<Form, CodegenError> {
        let members = &self.members;
        let ranges: Vec<(i64, i64)> = members
            .iter()
            .map(|m| {
                let s = m.shape.sweep.expect("merged form requires single sweeps");
                (s.k_lo, s.k_hi)
            })
            .collect();

        // ----- legality of flow (complex fusion) -----
        for &(a, p) in flows {
            let name = self.ids.name(a);
            let g_p = &members[p].shape.guard;
            let (p_klo, p_khi) = ranges[p];
            for (ci, cons) in members.iter().enumerate().skip(p + 1) {
                if !self.use_of(ci, a).is_some_and(ArrayUse::read) {
                    continue;
                }
                let (c_klo, c_khi) = ranges[ci];
                for r in self.read_offsets(ci, a)? {
                    if !r.vert {
                        return Err(CodegenError(format!(
                            "flow array `{name}` read at constant plane by `{}`; unfusable",
                            cons.name
                        )));
                    }
                    if r.dk > 0 {
                        return Err(CodegenError(format!(
                            "flow array `{name}` read at future plane (k+{}) by `{}`; unfusable",
                            r.dk, cons.name
                        )));
                    }
                    if r.dk < 0 && r.lateral() {
                        return Err(CodegenError(format!(
                            "flow array `{name}` read at lateral offset of an earlier plane \
                             by `{}`; unfusable",
                            cons.name
                        )));
                    }
                    if r.lateral() {
                        // Consumer's halo-shifted sites must lie inside the
                        // producer's write domain.
                        let g_c = &cons.shape.guard;
                        let inside = g_c.x_lo + r.di.min(0) >= g_p.x_lo
                            && g_c.x_hi + r.di.max(0) <= g_p.x_hi
                            && g_c.y_lo + r.dj.min(0) >= g_p.y_lo
                            && g_c.y_hi + r.dj.max(0) <= g_p.y_hi;
                        if !inside {
                            return Err(CodegenError(format!(
                                "consumer `{}` reads `{name}` outside producer domain; unfusable",
                                cons.name
                            )));
                        }
                    }
                    // Producer must be active whenever the consumer needs it.
                    if c_klo + r.dk.min(0) < p_klo || c_khi > p_khi {
                        return Err(CodegenError(format!(
                            "consumer `{}` needs `{name}` outside producer's vertical range",
                            cons.name
                        )));
                    }
                }
            }
            // No second-level halo: the producer may not read any
            // group-produced array at a lateral offset.
            for &(other, _) in flows {
                if self.read_offsets(p, other)?.iter().any(ReadOffset::lateral) {
                    return Err(CodegenError(format!(
                        "producer `{}` reads produced array `{}` laterally; \
                         second-level halo unsupported",
                        members[p].name,
                        self.ids.name(other)
                    )));
                }
            }
        }

        // ----- staging decisions -----
        let mut tiles: Vec<Tile> = Vec::new();
        let lateral_radius = |a: u32| -> Result<(i64, i64), CodegenError> {
            let (mut rx, mut ry) = (0, 0);
            for m in 0..members.len() {
                for r in self.read_offsets(m, a)? {
                    if r.current_plane() {
                        rx = rx.max(r.di.abs());
                        ry = ry.max(r.dj.abs());
                    }
                }
            }
            Ok((rx, ry))
        };
        // Flow arrays with lateral consumers must be staged.
        for &(a, p) in flows {
            let needs_tile = (p + 1..members.len()).any(|m| {
                self.read_offsets(m, a)
                    .is_ok_and(|rs| rs.iter().any(|r| r.current_plane() && r.lateral()))
            });
            if !needs_tile {
                continue;
            }
            // Tiling is only generated for rank-3 arrays.
            let rank3 = (0..members.len()).all(|m| self.use_of(m, a).is_none_or(|u| u.rank3));
            if !rank3 {
                return Err(CodegenError(format!(
                    "flow array `{}` is not rank-3; lateral complex fusion unsupported",
                    self.ids.name(a)
                )));
            }
            // Halo recomputation re-evaluates the producer's expression at
            // laterally shifted sites. If the producer reads an array that
            // some group member *writes*, the shifted read would cross
            // into sites a neighboring block has not produced yet —
            // unfusable. That includes the staged array itself: an
            // in-place producer (`a = f(a)`) races with neighboring blocks'
            // global updates when its halo sites are re-evaluated.
            let crossing = members[p]
                .shape
                .arrays
                .iter()
                .filter(|u| u.read() && self.written(u.id))
                .min_by_key(|u| u.first_read);
            if let Some(u) = crossing {
                return Err(CodegenError(format!(
                    "producer `{}` of staged flow array `{}` reads \
                     group-written array `{}`; halo recomputation would \
                     cross block boundaries — unfusable",
                    members[p].name,
                    self.ids.name(a),
                    self.ids.name(u.id)
                )));
            }
            let (rx, ry) = lateral_radius(a)?;
            tiles.push(Tile {
                array: a,
                rx,
                ry,
                producer: Some(p),
            });
        }
        // Read-shared arrays (not written in the group) with ≥2 readers.
        for uses in self.arrays() {
            let a = uses[0].array.id;
            let readers = uses.iter().filter(|u| u.array.read()).count();
            if readers < 2 || uses.iter().any(|u| u.array.written) {
                continue;
            }
            // Only stage canonical rank-3 stencil reads at the current
            // plane (4-D tracer arrays are never tiled).
            let stageable = uses
                .iter()
                .all(|u| u.array.rank3 && u.array.reads.is_some());
            let any_current_plane = uses.iter().any(|u| {
                u.array
                    .reads
                    .as_ref()
                    .is_some_and(|rs| rs.iter().any(ReadOffset::current_plane))
            });
            if stageable && any_current_plane {
                let (rx, ry) = lateral_radius(a)?;
                tiles.push(Tile {
                    array: a,
                    rx,
                    ry,
                    producer: None,
                });
            }
        }
        Ok(Form::Merged { ranges, tiles })
    }
}
