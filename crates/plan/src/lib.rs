#![warn(missing_docs)]
//! # sf-plan
//!
//! The typed, serializable **TransformPlan IR**: a complete, first-class
//! description of one chosen kernel transformation — which launches are
//! fissioned, which groups are fused (and whether the group is a *simple*
//! or a *precedence-aware* fusion), which arrays the generator is expected
//! to stage in shared memory, the per-group tuning outcome, and the
//! search's projected cost.
//!
//! Every pipeline stage speaks this IR:
//!
//! - `sf-search` **produces** a plan (genome → plan lowering),
//! - `sf-codegen` **consumes** one and annotates it with what was actually
//!   generated (staged tiles, tuned blocks),
//! - `stencilfuse` (verify/report) **records** one in its results,
//! - the `sfc` CLI **exchanges** plans as JSON (`--emit-plan` /
//!   `--from-plan`), so a transformation is inspectable and replayable
//!   without re-running the search.
//!
//! The JSON encoding is stable across runs for a given plan value
//! (`serde_json` emits maps in declaration order), which is what makes the
//! plan-replay determinism check possible: replaying an emitted plan must
//! regenerate byte-identical CUDA.

use serde::{Content, Deserialize, Serialize};
use sf_gpusim::device::DeviceSpec;
use std::collections::BTreeSet;
use std::fmt;

/// Schema version of the serialized plan. Bumped on incompatible changes;
/// [`TransformPlan::from_json`] rejects other versions.
///
/// Version history: 1 = the original IR; 2 = the device descriptor gained
/// timing knobs and the plan records its target device's registry
/// fingerprint (`device_fingerprint`), so replay on a mismatched device is
/// a structured rejection instead of a silent wrong-device projection;
/// 3 = groups gained a temporal-blocking degree (`GroupPlan::temporal`).
/// Version-2 plans still decode: [`TransformPlan::from_json`] upgrades them
/// by stamping every group with the identity degree `temporal = 1`.
pub const PLAN_VERSION: u32 = 3;

/// The previous schema version, still accepted by
/// [`TransformPlan::from_json`] through the in-place v2 → v3 upgrade.
pub const PLAN_VERSION_COMPAT: u32 = 2;

/// One member of a fusion group: an original launch, or one fission product
/// of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MemberRef {
    /// Static launch id in the original plan.
    pub seq: usize,
    /// `Some(c)` selects component `c` of the kernel's fission.
    pub fission_component: Option<usize>,
}

impl MemberRef {
    /// An unfissioned original launch.
    pub fn original(seq: usize) -> MemberRef {
        MemberRef {
            seq,
            fission_component: None,
        }
    }

    /// A fission product.
    pub fn product(seq: usize, component: usize) -> MemberRef {
        MemberRef {
            seq,
            fission_component: Some(component),
        }
    }
}

impl fmt::Display for MemberRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.fission_component {
            None => write!(f, "#{}", self.seq),
            Some(c) => write!(f, "#{}.{c}", self.seq),
        }
    }
}

/// Automated vs manual-oracle code generation (§6.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CodegenMode {
    /// The automated generator, reproducing the paper's two documented
    /// deficiencies (no deep-nest merging; per-segment guard branches).
    Auto,
    /// The expert-oracle generator the paper compares against.
    Manual,
}

/// How the members of a fused group relate (§5.5.2 vs §5.5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PrecedenceClass {
    /// *Simple fusion*: no flow dependence between members; shared-memory
    /// staging of commonly-read arrays is enough.
    #[default]
    Simple,
    /// *Precedence-aware fusion*: a member consumes another member's
    /// output, so the generator needs barriers + halo recomputation
    /// (complex fusion) or flow staging.
    PrecedenceAware,
}

impl PrecedenceClass {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PrecedenceClass::Simple => "simple",
            PrecedenceClass::PrecedenceAware => "precedence-aware",
        }
    }
}

/// The search's projected cost of one group (from the codeless objective).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // fields carry descriptive names; see the type doc
pub struct GroupProjection {
    pub time_us: f64,
    pub flops: u64,
    pub smem_bytes: u64,
}

/// A fused-kernel thread block chosen by the tuner (recorded by codegen).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)] // fields carry descriptive names; see the type doc
pub struct BlockDims {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl fmt::Display for BlockDims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// One group of the plan: members to fuse into one kernel (singletons pass
/// through unchanged), plus everything the pipeline knows or learned about
/// the group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupPlan {
    /// Members in execution order within the group.
    pub members: Vec<MemberRef>,
    /// Temporal-blocking degree `T`: how many host time-loop iterations the
    /// fused kernel folds into one launch. `1` (the identity) everywhere a
    /// group is not temporally blocked; degrees above 1 are only legal for
    /// fusion groups that cover an entire recorded host time loop.
    pub temporal: u32,
    /// Simple vs precedence-aware fusion (meaningful for multi-member
    /// groups; singletons are trivially [`PrecedenceClass::Simple`]).
    pub precedence: PrecedenceClass,
    /// Arrays projected / generated to be staged in shared-memory tiles.
    pub staged_arrays: Vec<String>,
    /// Thread block the tuner settled on (recorded by codegen; `None`
    /// until the group has been generated, or for singletons).
    pub tuned_block: Option<BlockDims>,
    /// The search's projected cost (filled by genome → plan lowering;
    /// `None` for hand-written plans).
    pub projection: Option<GroupProjection>,
}

impl Default for GroupPlan {
    fn default() -> GroupPlan {
        GroupPlan {
            members: Vec::new(),
            temporal: 1,
            precedence: PrecedenceClass::default(),
            staged_arrays: Vec::new(),
            tuned_block: None,
            projection: None,
        }
    }
}

impl GroupPlan {
    /// A bare group over `members` (no annotations).
    pub fn of(members: Vec<MemberRef>) -> GroupPlan {
        GroupPlan {
            members,
            ..GroupPlan::default()
        }
    }

    /// A singleton group.
    pub fn singleton(m: MemberRef) -> GroupPlan {
        GroupPlan::of(vec![m])
    }

    /// Whether this group fuses two or more members.
    pub fn is_fusion(&self) -> bool {
        self.members.len() > 1
    }
}

/// A malformed or inconsistent plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(pub String);

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid transform plan: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

/// The complete chosen transformation, in execution order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransformPlan {
    /// Schema version ([`PLAN_VERSION`]).
    pub version: u32,
    /// Device the plan was searched / is generated for.
    pub device: DeviceSpec,
    /// Registry fingerprint of that device
    /// ([`DeviceSpec::fingerprint`]) — the identity the pipeline checks
    /// before replaying the plan on a configured device.
    pub device_fingerprint: String,
    /// Code generator flavor.
    pub mode: CodegenMode,
    /// Tune thread-block sizes of fused kernels (§4.2).
    pub block_tuning: bool,
    /// Original launch seqs replaced by their fission products (derived
    /// from the members, kept explicit so a plan is self-describing).
    pub fissions: Vec<usize>,
    /// The groups, in execution order.
    pub groups: Vec<GroupPlan>,
    /// Projected end-to-end device time of the planned program, µs.
    pub projected_time_us: Option<f64>,
    /// Projected performance of the planned program, GFLOPS.
    pub projected_gflops: Option<f64>,
}

impl TransformPlan {
    /// Build a plan from groups; `fissions` is derived from the members.
    pub fn new(
        device: DeviceSpec,
        mode: CodegenMode,
        block_tuning: bool,
        groups: Vec<GroupPlan>,
    ) -> TransformPlan {
        let fissions: BTreeSet<usize> = groups
            .iter()
            .flat_map(|g| &g.members)
            .filter(|m| m.fission_component.is_some())
            .map(|m| m.seq)
            .collect();
        let device_fingerprint = device.fingerprint();
        TransformPlan {
            version: PLAN_VERSION,
            device,
            device_fingerprint,
            mode,
            block_tuning,
            fissions: fissions.into_iter().collect(),
            groups,
            projected_time_us: None,
            projected_gflops: None,
        }
    }

    /// All members across all groups, in plan order.
    pub fn members(&self) -> impl Iterator<Item = &MemberRef> {
        self.groups.iter().flat_map(|g| g.members.iter())
    }

    /// Number of multi-member (fusion) groups.
    pub fn fusion_group_count(&self) -> usize {
        self.groups.iter().filter(|g| g.is_fusion()).count()
    }

    /// Structural consistency against a program with `launch_count`
    /// original launches:
    ///
    /// - every member's `seq` names an existing launch,
    /// - no member appears twice,
    /// - fission is all-or-nothing per launch: a seq appears either as one
    ///   unfissioned original or only as products, never both,
    /// - `fissions` matches exactly the seqs whose members are products,
    /// - no empty groups.
    pub fn validate(&self, launch_count: usize) -> Result<(), PlanError> {
        if self.version != PLAN_VERSION {
            return Err(PlanError(format!(
                "plan version {} (this build speaks {PLAN_VERSION})",
                self.version
            )));
        }
        // The recorded fingerprint must describe the embedded descriptor: a
        // plan whose device was hand-edited after emission carries a stale
        // identity and must not replay as if nothing changed.
        if self.device_fingerprint != self.device.fingerprint() {
            return Err(PlanError(format!(
                "device fingerprint `{}` does not match the embedded `{}` descriptor \
                 (expected `{}`)",
                self.device_fingerprint,
                self.device.name,
                self.device.fingerprint()
            )));
        }
        let mut seen: BTreeSet<MemberRef> = BTreeSet::new();
        let mut as_original: BTreeSet<usize> = BTreeSet::new();
        let mut as_product: BTreeSet<usize> = BTreeSet::new();
        for (gi, g) in self.groups.iter().enumerate() {
            if g.members.is_empty() {
                return Err(PlanError(format!("group {gi} is empty")));
            }
            if g.temporal == 0 {
                return Err(PlanError(format!(
                    "group {gi} has temporal degree 0 (the identity is 1)"
                )));
            }
            if g.temporal > 1 && !g.is_fusion() {
                return Err(PlanError(format!(
                    "group {gi} is a singleton but has temporal degree {}",
                    g.temporal
                )));
            }
            for m in &g.members {
                if m.seq >= launch_count {
                    return Err(PlanError(format!(
                        "member {m} names launch {} but the program has {launch_count}",
                        m.seq
                    )));
                }
                if !seen.insert(*m) {
                    return Err(PlanError(format!("member {m} appears twice")));
                }
                match m.fission_component {
                    None => {
                        as_original.insert(m.seq);
                    }
                    Some(_) => {
                        as_product.insert(m.seq);
                    }
                }
            }
        }
        if let Some(seq) = as_original.intersection(&as_product).next() {
            return Err(PlanError(format!(
                "launch {seq} appears both unfissioned and as fission products"
            )));
        }
        let declared: BTreeSet<usize> = self.fissions.iter().copied().collect();
        if declared != as_product {
            return Err(PlanError(format!(
                "declared fissions {declared:?} do not match product members {as_product:?}"
            )));
        }
        Ok(())
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plan serializes")
    }

    /// Parse from JSON, strictly.
    ///
    /// The checks run in a deliberate order so every failure is attributed:
    ///
    /// 1. the text must parse as a JSON object,
    /// 2. the `version` field is read **before** anything else is
    ///    interpreted — a version-skewed plan always fails with a version
    ///    message, never with a confusing deep-deserialization error,
    /// 3. version-2 plans are upgraded in place (every group gains the
    ///    identity temporal degree, the version is restamped to 3) before
    ///    any deep deserialization,
    /// 4. the full plan is deserialized (errors carry the plan version),
    /// 5. unknown and duplicate fields are rejected with their path — a
    ///    plan that silently dropped a field on parse is a plan that
    ///    replays differently from what its author wrote.
    pub fn from_json(text: &str) -> Result<TransformPlan, PlanError> {
        let mut content =
            serde_json::from_str_content(text).map_err(|e| PlanError(e.to_string()))?;
        let entries = content
            .as_entries()
            .ok_or_else(|| PlanError("plan JSON is not an object".into()))?;

        // Version first, from the raw tree: this must work (and fail
        // cleanly) even when the rest of the schema is unrecognizable.
        let mut versions = entries
            .iter()
            .filter(|(k, _)| k.as_str() == Some("version"))
            .map(|(_, v)| v);
        let version = match versions.next() {
            Some(Content::U64(v)) => *v,
            Some(other) => {
                return Err(PlanError(format!(
                    "plan `version` field is {}, not an integer \
                     (this build speaks plan version {PLAN_VERSION})",
                    other.kind()
                )))
            }
            None => {
                return Err(PlanError(format!(
                    "plan has no `version` field \
                     (this build speaks plan version {PLAN_VERSION})"
                )))
            }
        };
        if versions.next().is_some() {
            return Err(PlanError("duplicate field `version`".into()));
        }
        if version != u64::from(PLAN_VERSION) && version != u64::from(PLAN_VERSION_COMPAT) {
            return Err(PlanError(format!(
                "plan version {version} (this build speaks {PLAN_VERSION}, \
                 accepts {PLAN_VERSION_COMPAT})"
            )));
        }
        if version == u64::from(PLAN_VERSION_COMPAT) {
            upgrade_v2(&mut content)
                .map_err(|e| PlanError(format!("plan version {version}: {e}")))?;
        }

        let plan = TransformPlan::deserialize(&content)
            .map_err(|e| PlanError(format!("plan version {version}: {e}")))?;

        // Strictness: re-serialize the accepted plan and require that every
        // field in the input exists (once) in the canonical tree. Anything
        // the deserializer ignored would otherwise vanish silently.
        strict_fields(&content, &plan.serialize(), "plan")
            .map_err(|e| PlanError(format!("{e} (plan version {version})")))?;
        Ok(plan)
    }

    /// One-line human summary for reports.
    pub fn summary(&self) -> String {
        let fused = self.fusion_group_count();
        let aware = self
            .groups
            .iter()
            .filter(|g| g.is_fusion() && g.precedence == PrecedenceClass::PrecedenceAware)
            .count();
        let staged: usize = self.groups.iter().map(|g| g.staged_arrays.len()).sum();
        format!(
            "{} groups ({fused} fused, {aware} precedence-aware), {} fissions, \
             {staged} staged arrays, mode {:?}, tuning {}",
            self.groups.len(),
            self.fissions.len(),
            self.mode,
            if self.block_tuning { "on" } else { "off" },
        )
    }
}

/// In-place v2 → v3 upgrade of the raw parse tree: restamp `version` to 3
/// and give every entry of `groups` the identity `temporal` degree. Runs
/// before deep deserialization so a valid v2 plan decodes exactly as the
/// equivalent v3 plan would — and the strict-fields pass still sees (and
/// rejects) anything else the v2 author wrote that v3 does not know.
/// A v2 group that already spells a `temporal` field is rejected here: no
/// such field existed in v2, and silently preferring either copy would make
/// the upgrade ambiguous.
fn upgrade_v2(content: &mut Content) -> Result<(), String> {
    let Content::Map(entries) = content else {
        return Err("plan JSON is not an object".into());
    };
    for (k, v) in entries.iter_mut() {
        match (k.as_str(), v) {
            (Some("version"), v) => *v = Content::U64(u64::from(PLAN_VERSION)),
            (Some("groups"), Content::Seq(groups)) => {
                for (gi, g) in groups.iter_mut().enumerate() {
                    let Content::Map(fields) = g else { continue };
                    if fields.iter().any(|(k, _)| k.as_str() == Some("temporal")) {
                        return Err(format!(
                            "unknown field `plan.groups[{gi}].temporal` \
                             (`temporal` appears in plan version 3, not 2)"
                        ));
                    }
                    fields.push((Content::Str("temporal".into()), Content::U64(1)));
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Walk `input` (the raw parse tree, duplicate keys preserved) against
/// `canon` (the re-serialization of the accepted value), rejecting any
/// object field that is duplicated or that the canonical tree does not
/// have. Values themselves are *not* compared — the deserializer already
/// validated them, and numeric spellings (`40` vs `40.0`) may legally
/// differ between the two trees. Only string-keyed maps are struct-like;
/// other shape pairs recurse through sequences and stop at scalars.
fn strict_fields(input: &Content, canon: &Content, path: &str) -> Result<(), String> {
    match (input, canon) {
        (Content::Map(inp), Content::Map(_)) => {
            let mut seen: Vec<&str> = Vec::new();
            for (k, v) in inp {
                let Some(name) = k.as_str() else { continue };
                let at = format!("{path}.{name}");
                if seen.contains(&name) {
                    return Err(format!("duplicate field `{at}`"));
                }
                seen.push(name);
                match canon.field("", name) {
                    Ok(cv) => strict_fields(v, cv, &at)?,
                    Err(_) => return Err(format!("unknown field `{at}`")),
                }
            }
            Ok(())
        }
        (Content::Seq(inp), Content::Seq(can)) => {
            for (i, item) in inp.iter().enumerate() {
                if let Some(citem) = can.get(i) {
                    strict_fields(item, citem, &format!("{path}[{i}]"))?;
                }
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> DeviceSpec {
        DeviceSpec::k20x()
    }

    fn demo_plan() -> TransformPlan {
        let mut g0 = GroupPlan::of(vec![MemberRef::original(0), MemberRef::original(2)]);
        g0.precedence = PrecedenceClass::PrecedenceAware;
        g0.staged_arrays = vec!["u".into()];
        g0.projection = Some(GroupProjection {
            time_us: 12.5,
            flops: 1024,
            smem_bytes: 4096,
        });
        let g1 = GroupPlan::of(vec![MemberRef::product(1, 0)]);
        let g2 = GroupPlan::of(vec![MemberRef::product(1, 1)]);
        let mut plan = TransformPlan::new(device(), CodegenMode::Auto, true, vec![g0, g1, g2]);
        plan.projected_time_us = Some(40.0);
        plan.projected_gflops = Some(88.8);
        plan
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let plan = demo_plan();
        let text = plan.to_json();
        let back = TransformPlan::from_json(&text).unwrap();
        assert_eq!(plan, back);
        // And the encoding itself is stable (replay determinism).
        assert_eq!(text, back.to_json());
    }

    #[test]
    fn fissions_are_derived_from_members() {
        let plan = demo_plan();
        assert_eq!(plan.fissions, vec![1]);
        assert_eq!(plan.fusion_group_count(), 1);
        assert!(plan.validate(3).is_ok());
    }

    #[test]
    fn validation_rejects_inconsistent_plans() {
        let plan = demo_plan();
        // Launch out of range.
        assert!(plan.validate(2).is_err());
        // Duplicate member.
        let dup = TransformPlan::new(
            device(),
            CodegenMode::Auto,
            false,
            vec![
                GroupPlan::singleton(MemberRef::original(0)),
                GroupPlan::singleton(MemberRef::original(0)),
            ],
        );
        assert!(dup.validate(1).is_err());
        // Original and product of the same launch.
        let mixed = TransformPlan::new(
            device(),
            CodegenMode::Auto,
            false,
            vec![
                GroupPlan::singleton(MemberRef::original(0)),
                GroupPlan::singleton(MemberRef::product(0, 0)),
            ],
        );
        assert!(mixed.validate(1).is_err());
        // Empty group.
        let empty = TransformPlan::new(
            device(),
            CodegenMode::Auto,
            false,
            vec![GroupPlan::default()],
        );
        assert!(empty.validate(1).is_err());
        // Tampered fission declaration.
        let mut bad = demo_plan();
        bad.fissions = vec![];
        assert!(bad.validate(3).is_err());
        // Wrong version.
        let mut wrong = demo_plan();
        wrong.version = 99;
        assert!(wrong.validate(3).is_err());
        assert!(TransformPlan::from_json(&wrong.to_json()).is_err());
    }

    #[test]
    fn device_fingerprint_is_recorded_and_checked() {
        let plan = demo_plan();
        assert_eq!(plan.device_fingerprint, DeviceSpec::k20x().fingerprint());
        assert!(plan.validate(3).is_ok());

        // A stale fingerprint (descriptor edited after emission) is caught.
        let mut stale = demo_plan();
        stale.device.mem_bw_gbps += 1.0;
        let err = stale.validate(3).unwrap_err();
        assert!(err.0.contains("does not match"), "{err}");

        // So is a tampered fingerprint string.
        let mut forged = demo_plan();
        forged.device_fingerprint = "k40-0000000000000000".into();
        assert!(forged.validate(3).is_err());
    }

    #[test]
    fn json_rejects_unknown_and_duplicate_fields() {
        let text = demo_plan().to_json();

        // Unknown top-level field, reported with its path and the version.
        let unknown = text.replacen("\"version\"", "\"extra\": 1, \"version\"", 1);
        let err = TransformPlan::from_json(&unknown).unwrap_err();
        assert!(err.0.contains("unknown field `plan.extra`"), "{err}");
        assert!(err.0.contains("plan version 3"), "{err}");

        // Unknown field nested inside a group.
        let nested = text.replacen("\"precedence\"", "\"bogus\": 3, \"precedence\"", 1);
        let err = TransformPlan::from_json(&nested).unwrap_err();
        assert!(
            err.0.contains("unknown field `plan.groups[0].bogus`"),
            "{err}"
        );

        // Duplicate field (last-writer-wins parsers silently drop one).
        let dup = text.replacen(
            "\"block_tuning\": true",
            "\"block_tuning\": true, \"block_tuning\": false",
            1,
        );
        let err = TransformPlan::from_json(&dup).unwrap_err();
        assert!(
            err.0.contains("duplicate field `plan.block_tuning`"),
            "{err}"
        );
    }

    #[test]
    fn json_version_check_runs_before_deep_deserialization() {
        // A skewed plan whose body is unintelligible must still fail with a
        // version message, not a missing-field message.
        let err = TransformPlan::from_json("{\"version\": 99, \"garbage\": true}").unwrap_err();
        assert!(err.0.contains("plan version 99"), "{err}");
        assert!(err.0.contains("speaks 3"), "{err}");
        assert!(err.0.contains("accepts 2"), "{err}");

        // Version-1 plans (pre-registry, no device fingerprint) are skewed.
        let err = TransformPlan::from_json("{\"version\": 1, \"garbage\": true}").unwrap_err();
        assert!(err.0.contains("plan version 1"), "{err}");

        let err = TransformPlan::from_json("{\"groups\": []}").unwrap_err();
        assert!(err.0.contains("no `version` field"), "{err}");

        let err = TransformPlan::from_json("{\"version\": \"one\"}").unwrap_err();
        assert!(err.0.contains("not an integer"), "{err}");

        let err = TransformPlan::from_json("{\"version\": 1, \"version\": 1}").unwrap_err();
        assert!(err.0.contains("duplicate field `version`"), "{err}");

        let err = TransformPlan::from_json("[1, 2]").unwrap_err();
        assert!(err.0.contains("not an object"), "{err}");
    }

    /// Rewrite a serialized v3 plan into the v2 spelling: restamp the
    /// version and drop every `temporal` field (v2 had none).
    fn as_v2_json(plan: &TransformPlan) -> String {
        plan.to_json()
            .replacen("\"version\": 3", "\"version\": 2", 1)
            .lines()
            .filter(|l| !l.contains("\"temporal\""))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn v2_plans_upgrade_to_the_identity_degree() {
        let plan = demo_plan();
        let back = TransformPlan::from_json(&as_v2_json(&plan)).unwrap();
        // The upgrade is exactly "temporal = 1 everywhere, version = 3":
        // demo_plan never sets a degree, so the round trip is lossless.
        assert_eq!(back, plan);
        assert_eq!(back.version, PLAN_VERSION);
        assert!(back.groups.iter().all(|g| g.temporal == 1));
        assert!(back.validate(3).is_ok());
        // Re-emission speaks v3: the upgrade happens on read, once.
        assert!(back.to_json().contains("\"version\": 3"));
    }

    #[test]
    fn v2_upgrade_still_rejects_unknown_fields() {
        let text =
            as_v2_json(&demo_plan()).replacen("\"precedence\"", "\"bogus\": 3, \"precedence\"", 1);
        let err = TransformPlan::from_json(&text).unwrap_err();
        assert!(
            err.0.contains("unknown field `plan.groups[0].bogus`"),
            "{err}"
        );

        // A v2 plan spelling `temporal` is a contradiction, not an upgrade.
        let text = as_v2_json(&demo_plan()).replacen(
            "\"precedence\"",
            "\"temporal\": 4, \"precedence\"",
            1,
        );
        let err = TransformPlan::from_json(&text).unwrap_err();
        assert!(err.0.contains("plan.groups[0].temporal"), "{err}");
    }

    #[test]
    fn temporal_degrees_round_trip_and_validate() {
        let mut plan = demo_plan();
        plan.groups[0].temporal = 4;
        let back = TransformPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back.groups[0].temporal, 4);
        assert!(plan.validate(3).is_ok());

        // Degree 0 is malformed; a temporally-blocked singleton is too.
        let mut zero = demo_plan();
        zero.groups[0].temporal = 0;
        assert!(zero.validate(3).unwrap_err().0.contains("degree 0"));
        let mut single = demo_plan();
        single.groups[1].temporal = 2;
        assert!(single.validate(3).unwrap_err().0.contains("singleton"));
    }

    #[test]
    fn summary_names_the_shape() {
        let s = demo_plan().summary();
        assert!(s.contains("3 groups"), "{s}");
        assert!(s.contains("1 fused"), "{s}");
        assert!(s.contains("1 precedence-aware"), "{s}");
        assert!(s.contains("1 fissions"), "{s}");
    }
}
