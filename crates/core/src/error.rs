//! Structured pipeline errors.
//!
//! Every failure the pipeline can surface carries (a) the [`Stage`] it
//! occurred in, (b) the offending kernel or fusion group when one is
//! known, (c) a [`Recoverability`] class that tells the driver how to react,
//! and (d) an [`ErrorKind`] that preserves the typed source error losslessly
//! (reachable through [`std::error::Error::source`]).
//!
//! # Exit codes
//!
//! One table for every binary ([`PipelineError::exit_code`] maps an error
//! onto it). `sfc` uses all of them; `sfd` reports a batch, so it uses 0,
//! [`EXIT_FAILED`] (a request failed or ran over budget), [`EXIT_USAGE`]
//! and [`EXIT_SHUTDOWN`].
//!
//! | code | meaning                                                    |
//! |------|------------------------------------------------------------|
//! | 0    | success                                                    |
//! | 1    | unclassified failure; `sfd`: a request failed              |
//! | 2    | usage error or file I/O failure                            |
//! | 3    | `sfc`: the input did not parse / evaluate; `sfd`: shutdown |
//! | 4    | analysis failed (metadata, filter, graphs)                 |
//! | 5    | the search failed                                          |
//! | 6    | code generation failed                                     |
//! | 7    | output verification failed                                 |
//! | 8    | success after a cache recovery                             |
//! | 9    | plan/device mismatch                                       |
//! | 10   | a resource budget was exhausted                            |

use crate::config::Stage;
use std::fmt;

/// How the pipeline is allowed to react to an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recoverability {
    /// No valid result can be produced; the run must stop.
    Fatal,
    /// A degraded-but-valid result exists: the driver walks the degradation
    /// ladder (temporal fusion → spatial fusion → unfused copies → original
    /// program) instead of failing, unless running under
    /// [`crate::config::DegradePolicy::Strict`].
    Degradable,
}

impl Recoverability {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Recoverability::Fatal => "fatal",
            Recoverability::Degradable => "degradable",
        }
    }
}

/// What failed. Variants that originate in another crate hold that crate's
/// error type unmodified, so no information is lost in the conversion.
#[derive(Debug, Clone, PartialEq)]
pub enum ErrorKind {
    /// Frontend rejected the source (carries line/column).
    Parse(sf_minicuda::ParseError),
    /// Host-code evaluation failed while building the executable plan.
    HostEval(sf_minicuda::HostEvalError),
    /// The profiler (functional or analytic) failed. Boxed: the
    /// structured error carries message + kernel/launch attribution and
    /// would otherwise dominate the size of every `Result` in the
    /// pipeline.
    Profile(Box<sf_gpusim::profiler::ProfileError>),
    /// Code generation rejected or failed on a fusion group.
    Codegen(sf_codegen::CodegenError),
    /// DDG/OEG construction failed.
    Graph(String),
    /// Output verification could not run or flagged a mismatch.
    Verify(String),
    /// The configuration is inconsistent with the program.
    Config(String),
    /// A plan replay (`--from-plan`, warm cache) targeted a device other
    /// than the run's configured one. Carries both registry fingerprints
    /// so the driver can say exactly what disagreed; the sanctioned
    /// cross-device path is an explicit re-target (`--port-plan`).
    DeviceMismatch {
        /// Fingerprint recorded in the plan.
        plan: String,
        /// Fingerprint of the configured device.
        configured: String,
    },
    /// A plan-cache operation failed (I/O trouble, lock contention, or a
    /// simulated crash under fault injection). Boxed like `Profile`: the
    /// structured error carries key/path attribution. Note that a *bad
    /// cache entry* is never an error — the store quarantines it and the
    /// driver recompiles (the cache rung of the degradation ladder).
    Cache(Box<sf_cache::CacheError>),
    /// A resource governor budget was exhausted (heap bytes, IR size,
    /// interpreter steps, search-space size, ...). Carries the kebab-case
    /// resource name plus the used/limit pair so the driver and `sfc` can
    /// attribute exactly which budget a compile bomb tripped. Maps to its
    /// own degradation rung and its own exit code — never an abort or OOM.
    ResourceExhausted {
        /// Kebab-case resource name (see [`sf_core::ResourceKind::name`]).
        resource: String,
        /// Units needed (including the rejected request).
        used: u64,
        /// The configured cap.
        limit: u64,
    },
    /// Injected by a [`sf_core::FaultPlan`] at a stage boundary.
    Injected(String),
    /// A panic caught at an isolation boundary (per-group codegen,
    /// per-candidate evaluation).
    Panic(String),
}

impl ErrorKind {
    /// Short label for the failure class (stable; printed in every error).
    pub fn label(&self) -> &'static str {
        match self {
            ErrorKind::Parse(_) => "parse",
            ErrorKind::HostEval(_) => "host-eval",
            ErrorKind::Profile(_) => "profile",
            ErrorKind::Codegen(_) => "codegen",
            ErrorKind::Graph(_) => "graph",
            ErrorKind::Verify(_) => "verify",
            ErrorKind::Config(_) => "config",
            ErrorKind::DeviceMismatch { .. } => "device-mismatch",
            ErrorKind::Cache(_) => "cache",
            ErrorKind::ResourceExhausted { .. } => "resource-exhausted",
            ErrorKind::Injected(_) => "injected-fault",
            ErrorKind::Panic(_) => "panic",
        }
    }

    fn message(&self) -> String {
        match self {
            ErrorKind::Parse(e) => e.to_string(),
            ErrorKind::HostEval(e) => e.to_string(),
            ErrorKind::Profile(e) => e.to_string(),
            ErrorKind::Codegen(e) => e.to_string(),
            ErrorKind::Cache(e) => e.to_string(),
            ErrorKind::DeviceMismatch { plan, configured } => format!(
                "plan targets device `{plan}` but this run is configured for \
                 `{configured}`; replay on the matching device, or re-target \
                 explicitly with --port-plan"
            ),
            ErrorKind::ResourceExhausted {
                resource,
                used,
                limit,
            } => format!(
                "`{resource}` budget exhausted: {used} needed, limit {limit}; \
                 raise the budget or shrink the program"
            ),
            ErrorKind::Graph(s)
            | ErrorKind::Verify(s)
            | ErrorKind::Config(s)
            | ErrorKind::Injected(s)
            | ErrorKind::Panic(s) => s.clone(),
        }
    }
}

/// Unclassified failure; for `sfd`, a request failed or ran over budget.
pub const EXIT_FAILED: i32 = 1;
/// Usage error or file I/O failure.
pub const EXIT_USAGE: i32 = 2;
/// The input program did not parse, or its host code did not evaluate.
pub const EXIT_PARSE: i32 = 3;
/// `sfd` only: a graceful shutdown (SIGINT / SIGTERM) cancelled part of the
/// batch — everything that started drained cleanly, the rest is safe to
/// resubmit. Shares its number with [`EXIT_PARSE`], which `sfd` never
/// returns (a request that does not parse is a failed request).
pub const EXIT_SHUTDOWN: i32 = 3;
/// Analysis failed (metadata, filter, graphs).
pub const EXIT_ANALYSIS: i32 = 4;
/// The search failed.
pub const EXIT_SEARCH: i32 = 5;
/// Code generation failed.
pub const EXIT_CODEGEN: i32 = 6;
/// Output verification failed.
pub const EXIT_VERIFY: i32 = 7;
/// The run *succeeded*, but only after the plan cache misbehaved: a
/// corrupt/torn/version-skewed entry was quarantined, or a cached plan
/// failed to replay and the program was recompiled. Scripted callers can
/// treat this as success while still counting cache incidents.
pub const EXIT_CACHE_RECOVERED: i32 = 8;
/// A preloaded plan (`--from-plan` or a cache entry) targets a different
/// device than this run is configured for; replaying it would silently
/// project with the wrong device model, so the run is rejected instead.
pub const EXIT_DEVICE_MISMATCH: i32 = 9;
/// A resource budget (`--mem-budget`) was exhausted: the program is a
/// compile bomb for the configured limits, or the limits are too tight.
/// The error on stderr names the exact budget (`launches`, `domain-cells`,
/// `heap-bytes`, ...) with its used/limit pair.
pub const EXIT_RESOURCE: i32 = 10;

/// A structured pipeline failure.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineError {
    /// Stage the error occurred in.
    pub stage: Stage,
    /// How the driver may react.
    pub class: Recoverability,
    /// The failure itself, with its typed source preserved.
    pub kind: ErrorKind,
    /// Offending kernel, when known.
    pub kernel: Option<String>,
    /// Offending fusion group index, when known.
    pub group: Option<usize>,
}

impl PipelineError {
    /// New error with no kernel/group attribution.
    pub fn new(stage: Stage, class: Recoverability, kind: ErrorKind) -> PipelineError {
        PipelineError {
            stage,
            class,
            kind,
            kernel: None,
            group: None,
        }
    }

    /// Fatal error at `stage`.
    pub fn fatal(stage: Stage, kind: ErrorKind) -> PipelineError {
        PipelineError::new(stage, Recoverability::Fatal, kind)
    }

    /// Degradable error at `stage`.
    pub fn degradable(stage: Stage, kind: ErrorKind) -> PipelineError {
        PipelineError::new(stage, Recoverability::Degradable, kind)
    }

    /// Re-attribute to a different stage (e.g. a profile error raised while
    /// evaluating search candidates belongs to the search stage).
    pub fn at(mut self, stage: Stage) -> PipelineError {
        self.stage = stage;
        self
    }

    /// Attach the offending fusion group.
    pub fn for_group(mut self, group: usize) -> PipelineError {
        self.group = Some(group);
        self
    }

    /// The exit code of a run that ended in this error: the kind wins when
    /// it names a failure class, the stage decides otherwise. Exhaustive
    /// over [`ErrorKind`], so a new kind does not compile without a row.
    pub fn exit_code(&self) -> i32 {
        match &self.kind {
            ErrorKind::Parse(_) | ErrorKind::HostEval(_) => EXIT_PARSE,
            ErrorKind::Verify(_) => EXIT_VERIFY,
            ErrorKind::DeviceMismatch { .. } => EXIT_DEVICE_MISMATCH,
            ErrorKind::ResourceExhausted { .. } => EXIT_RESOURCE,
            ErrorKind::Profile(_)
            | ErrorKind::Codegen(_)
            | ErrorKind::Graph(_)
            | ErrorKind::Config(_)
            | ErrorKind::Cache(_)
            | ErrorKind::Injected(_)
            | ErrorKind::Panic(_) => match self.stage {
                Stage::Metadata | Stage::Filter | Stage::Graphs => EXIT_ANALYSIS,
                Stage::Search => EXIT_SEARCH,
                Stage::NewGraphs | Stage::Codegen => EXIT_CODEGEN,
            },
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pipeline error [{} stage, {}, {}]",
            self.stage.name(),
            self.kind.label(),
            self.class.name()
        )?;
        if let Some(k) = &self.kernel {
            write!(f, " kernel `{k}`")?;
        }
        if let Some(g) = &self.group {
            write!(f, " group {g}")?;
        }
        write!(f, ": {}", self.kind.message())
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            ErrorKind::Parse(e) => Some(e),
            ErrorKind::HostEval(e) => Some(e),
            ErrorKind::Profile(e) => Some(e.as_ref()),
            ErrorKind::Codegen(e) => Some(e),
            ErrorKind::Cache(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

// Lossless conversions from the typed stage errors. Each default placement
// and class reflects where the error type is ordinarily raised; callers that
// hit one elsewhere re-attribute with [`PipelineError::at`].

/// Parse errors are raised by the frontend before any stage can recover.
impl From<sf_minicuda::ParseError> for PipelineError {
    fn from(e: sf_minicuda::ParseError) -> Self {
        PipelineError::fatal(Stage::Metadata, ErrorKind::Parse(e))
    }
}

/// Host evaluation failures mean no executable plan exists at all.
impl From<sf_minicuda::HostEvalError> for PipelineError {
    fn from(e: sf_minicuda::HostEvalError) -> Self {
        PipelineError::fatal(Stage::Metadata, ErrorKind::HostEval(e))
    }
}

/// Profile errors are degradable: whatever failed the measurement (a trap,
/// an exhausted step budget, every repetition lost), the original program
/// remains a valid degraded result. Kernel attribution carries over from
/// the structured error.
impl From<sf_gpusim::profiler::ProfileError> for PipelineError {
    fn from(e: sf_gpusim::profiler::ProfileError) -> Self {
        let kernel = e.kernel.clone();
        let mut err = PipelineError::degradable(Stage::Metadata, ErrorKind::Profile(Box::new(e)));
        err.kernel = kernel;
        err
    }
}

/// A codegen rejection is degradable: the group can fall down the ladder.
impl From<sf_codegen::CodegenError> for PipelineError {
    fn from(e: sf_codegen::CodegenError) -> Self {
        PipelineError::degradable(Stage::Codegen, ErrorKind::Codegen(e))
    }
}

/// Budget exhaustion defaults to degradable: the driver walks the resource
/// rung of the degradation ladder (shrink the search budget → reduce the
/// search to one island → unfused copies) instead of failing. Admission checks that run
/// before any fallback exists (a compile bomb caught at the front door)
/// re-class with [`PipelineError::fatal`]; both keep the structured
/// used/limit attribution.
impl From<sf_core::ResourceError> for PipelineError {
    fn from(e: sf_core::ResourceError) -> Self {
        PipelineError::degradable(
            Stage::Metadata,
            ErrorKind::ResourceExhausted {
                resource: e.resource.name().to_string(),
                used: e.used,
                limit: e.limit,
            },
        )
    }
}

/// Cache errors attach to the `NewGraphs` stage — the point where a cached
/// plan substitutes for the search artifacts on the replay path — and are
/// degradable: the pipeline just compiles without the cache, which is the
/// `cache hit → cache recompile → normal pipeline` rung of the degradation
/// ladder. Lock contention is the one store failure worth another attempt,
/// and the publish retry asks [`sf_cache::CacheError::is_transient`]
/// directly.
impl From<sf_cache::CacheError> for PipelineError {
    fn from(e: sf_cache::CacheError) -> Self {
        PipelineError::degradable(Stage::NewGraphs, ErrorKind::Cache(Box::new(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn conversions_preserve_source_and_defaults() {
        let e: PipelineError = sf_gpusim::profiler::ProfileError::msg("sim diverged").into();
        assert_eq!(e.stage, Stage::Metadata);
        assert_eq!(e.class, Recoverability::Degradable);
        let src = e.source().expect("typed source retained");
        assert_eq!(src.to_string(), "profile error: sim diverged");

        let e: PipelineError = sf_codegen::CodegenError("bad group".into()).into();
        assert_eq!(e.class, Recoverability::Degradable);
        assert_eq!(e.stage, Stage::Codegen);
        assert_eq!(e.kind.label(), "codegen");

        let e: PipelineError = sf_minicuda::ParseError::new("expected `;`", 3, 14).into();
        assert_eq!(e.class, Recoverability::Fatal);
        assert!(e.to_string().contains("3:14"));
    }

    #[test]
    fn builder_attribution_and_display() {
        let e = PipelineError::degradable(
            Stage::Codegen,
            ErrorKind::Panic("index out of bounds".into()),
        )
        .for_group(2);
        assert_eq!(e.group, Some(2));
        let text = e.to_string();
        assert!(text.contains("codegen stage"));
        assert!(text.contains("degradable"));
        assert!(text.contains("group 2"));
        assert!(text.contains("index out of bounds"));
    }

    #[test]
    fn cache_errors_are_degradable() {
        use sf_cache::{CacheError, CacheErrorKind};

        // Every store failure compiles without the cache (degradable).
        for kind in [CacheErrorKind::Lock, CacheErrorKind::Io] {
            let e: PipelineError = CacheError::new(kind, "store trouble").into();
            assert_eq!(e.class, Recoverability::Degradable);
            assert_eq!(e.stage, Stage::NewGraphs);
            assert_eq!(e.kind.label(), "cache");
            assert!(e.to_string().contains("store trouble"), "{e}");
            let src = e.source().expect("typed source retained");
            assert!(src.to_string().contains(kind.label()), "{src}");
        }
    }

    #[test]
    fn device_mismatch_is_structured() {
        let e = PipelineError::fatal(
            Stage::NewGraphs,
            ErrorKind::DeviceMismatch {
                plan: "k20x-aaaaaaaaaaaaaaaa".into(),
                configured: "v100-bbbbbbbbbbbbbbbb".into(),
            },
        );
        assert_eq!(e.kind.label(), "device-mismatch");
        let text = e.to_string();
        assert!(text.contains("k20x-aaaaaaaaaaaaaaaa"), "{text}");
        assert!(text.contains("v100-bbbbbbbbbbbbbbbb"), "{text}");
        assert!(text.contains("--port-plan"), "{text}");
    }

    #[test]
    fn resource_exhaustion_is_structured_and_degradable_by_default() {
        use sf_core::{ResourceError, ResourceKind};
        let e: PipelineError = ResourceError {
            resource: ResourceKind::Launches,
            used: 1600,
            limit: 512,
        }
        .into();
        assert_eq!(e.class, Recoverability::Degradable);
        assert_eq!(e.kind.label(), "resource-exhausted");
        let text = e.to_string();
        assert!(text.contains("`launches` budget exhausted"), "{text}");
        assert!(text.contains("1600 needed, limit 512"), "{text}");
    }

    #[test]
    fn every_kind_at_every_stage_has_its_exit_code() {
        use sf_cache::{CacheError, CacheErrorKind};
        // One row per `ErrorKind` variant (`exit_code` matches exhaustively,
        // so a variant cannot lack a code; this pins which one it gets),
        // one column per stage in `Stage::ALL` order.
        let staged = [4, 4, 4, 5, 6, 6];
        let rows = [
            (
                ErrorKind::Parse(sf_minicuda::ParseError::new("expected `;`", 1, 1)),
                [3; 6],
            ),
            (
                ErrorKind::HostEval(sf_minicuda::HostEvalError("unbound `n`".into())),
                [3; 6],
            ),
            (
                ErrorKind::Profile(Box::new(sf_gpusim::profiler::ProfileError::msg("lost"))),
                staged,
            ),
            (
                ErrorKind::Codegen(sf_codegen::CodegenError("bad group".into())),
                staged,
            ),
            (ErrorKind::Graph("cycle".into()), staged),
            (ErrorKind::Verify("mismatch".into()), [7; 6]),
            (ErrorKind::Config("empty".into()), staged),
            (
                ErrorKind::DeviceMismatch {
                    plan: "a".into(),
                    configured: "b".into(),
                },
                [9; 6],
            ),
            (
                ErrorKind::Cache(Box::new(CacheError::new(CacheErrorKind::Io, "disk full"))),
                staged,
            ),
            (
                ErrorKind::ResourceExhausted {
                    resource: "launches".into(),
                    used: 2,
                    limit: 1,
                },
                [10; 6],
            ),
            (ErrorKind::Injected("fault".into()), staged),
            (ErrorKind::Panic("boom".into()), staged),
        ];
        let labels: std::collections::BTreeSet<_> = rows.iter().map(|r| r.0.label()).collect();
        assert_eq!(labels.len(), rows.len(), "one row per variant");
        for (kind, codes) in rows {
            for (stage, code) in Stage::ALL.into_iter().zip(codes) {
                let e = PipelineError::fatal(stage, kind.clone());
                assert_eq!(e.exit_code(), code, "{e}");
            }
        }
    }

    #[test]
    fn reattribution_moves_stage() {
        let e: PipelineError = sf_gpusim::profiler::ProfileError::msg("noise").into();
        assert_eq!(e.at(Stage::Search).stage, Stage::Search);
    }

    #[test]
    fn profile_error_attribution_carries_over() {
        let e: PipelineError = sf_gpusim::profiler::ProfileError::msg("unknown kernel")
            .for_kernel("step3")
            .at_seq(3)
            .into();
        assert_eq!(e.class, Recoverability::Degradable);
        assert_eq!(e.kernel.as_deref(), Some("step3"));
        assert!(e.to_string().contains("kernel `step3`"));
    }
}
