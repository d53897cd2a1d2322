//! Hierarchical resource budgets.
//!
//! A [`ResourceGovernor`] tracks how much of each [`ResourceKind`] a scope
//! has consumed against optional [`Limits`]. Governors form a tree: every
//! request gets its own child of the process-wide root, so a single
//! hostile request exhausts *its* budget (a structured, attributable
//! error) while the process root keeps an accurate picture of concurrent
//! pressure through its high-water marks. Charges roll up to the parent;
//! credits roll back down; a dropped child returns everything it still
//! holds, so a finished (or panicked-and-unwound) request can never leak
//! accounted usage into the process totals.
//!
//! Exhaustion is always a value — [`ResourceError`] — never a panic or an
//! actual OOM: callers charge *before* they allocate or recurse.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Every governed resource dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Accounted heap bytes (memory images, populations, caches).
    HeapBytes,
    /// IR statements across all kernels and the host program.
    IrStatements,
    /// Dynamic kernel launches (the executable trace, loops unrolled).
    Launches,
    /// Longest precedence chain in the order-of-execution graph.
    PrecedenceDepth,
    /// Total allocated domain cells across all device arrays.
    DomainCells,
    /// Estimated fusion-candidate-set size the search would explore.
    CandidateSet,
    /// Estimated resident bytes of the search population across islands.
    PopulationBytes,
    /// Interpreter steps (per-block thread batches) during verification.
    InterpreterSteps,
}

/// All kinds, in index order.
pub const RESOURCE_KINDS: [ResourceKind; 8] = [
    ResourceKind::HeapBytes,
    ResourceKind::IrStatements,
    ResourceKind::Launches,
    ResourceKind::PrecedenceDepth,
    ResourceKind::DomainCells,
    ResourceKind::CandidateSet,
    ResourceKind::PopulationBytes,
    ResourceKind::InterpreterSteps,
];

impl ResourceKind {
    /// Stable kebab-case name used in error messages and reports.
    pub fn name(self) -> &'static str {
        match self {
            ResourceKind::HeapBytes => "heap-bytes",
            ResourceKind::IrStatements => "ir-statements",
            ResourceKind::Launches => "launches",
            ResourceKind::PrecedenceDepth => "precedence-depth",
            ResourceKind::DomainCells => "domain-cells",
            ResourceKind::CandidateSet => "candidate-set",
            ResourceKind::PopulationBytes => "population-bytes",
            ResourceKind::InterpreterSteps => "interpreter-steps",
        }
    }

    /// Level kinds measure a peak (`record_peak`), additive kinds a
    /// balance (`charge`/`credit`).
    pub fn is_level(self) -> bool {
        matches!(
            self,
            ResourceKind::IrStatements
                | ResourceKind::Launches
                | ResourceKind::PrecedenceDepth
                | ResourceKind::DomainCells
                | ResourceKind::CandidateSet
        )
    }

    fn index(self) -> usize {
        match self {
            ResourceKind::HeapBytes => 0,
            ResourceKind::IrStatements => 1,
            ResourceKind::Launches => 2,
            ResourceKind::PrecedenceDepth => 3,
            ResourceKind::DomainCells => 4,
            ResourceKind::CandidateSet => 5,
            ResourceKind::PopulationBytes => 6,
            ResourceKind::InterpreterSteps => 7,
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A budget was exhausted. Structured so callers can attribute the
/// rejection (`resource-exhausted: launches used 1600 of 512`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceError {
    /// Which budget.
    pub resource: ResourceKind,
    /// Usage the rejected charge would have reached.
    pub used: u64,
    /// The configured limit.
    pub limit: u64,
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} budget exhausted: {} needed, limit {}",
            self.resource, self.used, self.limit
        )
    }
}

impl std::error::Error for ResourceError {}

/// Per-kind optional caps. `None` means unlimited (the default), so an
/// ungoverned pipeline behaves exactly as before this layer existed.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    caps: [Option<u64>; 8],
}

impl Default for Limits {
    fn default() -> Limits {
        Limits::unlimited()
    }
}

impl Limits {
    /// No caps anywhere.
    pub fn unlimited() -> Limits {
        Limits { caps: [None; 8] }
    }

    /// The service defaults used by `sfd` and the chaos soak: generous
    /// enough that every legitimate app analog and fuzz program fits with
    /// a wide margin, tight enough that the hostile archetypes (deep
    /// chains, thousand-launch loops, near-`u32::MAX` domains) are
    /// rejected before any expensive work or large allocation happens.
    pub fn service() -> Limits {
        Limits::unlimited()
            .cap(ResourceKind::HeapBytes, 256 << 20)
            .cap(ResourceKind::IrStatements, 20_000)
            .cap(ResourceKind::Launches, 512)
            .cap(ResourceKind::PrecedenceDepth, 256)
            .cap(ResourceKind::DomainCells, 1 << 24)
            .cap(ResourceKind::CandidateSet, 1 << 20)
            .cap(ResourceKind::PopulationBytes, 64 << 20)
            .cap(ResourceKind::InterpreterSteps, 1 << 30)
    }

    /// Set one cap (builder style).
    pub fn cap(mut self, kind: ResourceKind, limit: u64) -> Limits {
        self.caps[kind.index()] = Some(limit);
        self
    }

    /// The cap for a kind, if any.
    pub fn limit(&self, kind: ResourceKind) -> Option<u64> {
        self.caps[kind.index()]
    }

    /// Whether any cap is set at all.
    pub fn is_unlimited(&self) -> bool {
        self.caps.iter().all(|c| c.is_none())
    }
}

impl fmt::Debug for Limits {
    /// Stable, compact rendering — part of the cache fingerprint, so the
    /// format is load-bearing: two configs with different budgets must
    /// never share a cache entry (budgets change degradation outcomes).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unlimited() {
            return f.write_str("unlimited");
        }
        let mut first = true;
        for kind in RESOURCE_KINDS {
            if let Some(cap) = self.limit(kind) {
                if !first {
                    f.write_str(",")?;
                }
                write!(f, "{}={cap}", kind.name())?;
                first = false;
            }
        }
        Ok(())
    }
}

/// Parse a human-readable byte size: plain digits, or digits with a
/// case-insensitive `K`/`M`/`G` suffix (powers of 1024). Used by the
/// `--mem-budget` and `--cache-quota` flags.
pub fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1u64 << 10),
        'm' | 'M' => (&s[..s.len() - 1], 1 << 20),
        'g' | 'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// A thread-safe usage ledger for one scope (the process, or one request).
///
/// `charge`/`credit` track additive resources (bytes, steps);
/// `record_peak` tracks level resources (chain depth, launch count) where
/// "usage" is a maximum, not a sum. Both refuse to exceed the scope's
/// limit and report a [`ResourceError`] instead.
pub struct ResourceGovernor {
    limits: Limits,
    used: [AtomicU64; 8],
    high: [AtomicU64; 8],
    parent: Option<Arc<ResourceGovernor>>,
}

impl fmt::Debug for ResourceGovernor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("ResourceGovernor");
        d.field("limits", &self.limits);
        for kind in RESOURCE_KINDS {
            let used = self.used(kind);
            if used > 0 {
                d.field(kind.name(), &used);
            }
        }
        d.finish()
    }
}

fn zeroed() -> [AtomicU64; 8] {
    std::array::from_fn(|_| AtomicU64::new(0))
}

impl ResourceGovernor {
    /// A root governor with the given limits.
    pub fn new(limits: Limits) -> Arc<ResourceGovernor> {
        Arc::new(ResourceGovernor {
            limits,
            used: zeroed(),
            high: zeroed(),
            parent: None,
        })
    }

    /// The process-wide root: unlimited (it only observes), shared by
    /// every request-scoped child. Its high-water marks are the
    /// *concurrent* peak across all in-flight requests.
    pub fn process() -> &'static Arc<ResourceGovernor> {
        static PROCESS: OnceLock<Arc<ResourceGovernor>> = OnceLock::new();
        PROCESS.get_or_init(|| ResourceGovernor::new(Limits::unlimited()))
    }

    /// A child scope (e.g. one request). Charges roll up to this
    /// governor; when the child is dropped, whatever it still holds is
    /// credited back automatically.
    pub fn child(self: &Arc<ResourceGovernor>, limits: Limits) -> Arc<ResourceGovernor> {
        Arc::new(ResourceGovernor {
            limits,
            used: zeroed(),
            high: zeroed(),
            parent: Some(self.clone()),
        })
    }

    /// Add `amount` to the additive usage of `kind`, rolling up to the
    /// parent. On exhaustion anywhere in the chain nothing is retained.
    pub fn charge(&self, kind: ResourceKind, amount: u64) -> Result<(), ResourceError> {
        if amount == 0 {
            return Ok(());
        }
        let i = kind.index();
        let prev = self.used[i].fetch_add(amount, Ordering::SeqCst);
        let now = prev.saturating_add(amount);
        if let Some(limit) = self.limits.limit(kind) {
            if now > limit {
                self.used[i].fetch_sub(amount, Ordering::SeqCst);
                return Err(ResourceError {
                    resource: kind,
                    used: now,
                    limit,
                });
            }
        }
        if let Some(parent) = &self.parent {
            if let Err(e) = parent.charge(kind, amount) {
                self.used[i].fetch_sub(amount, Ordering::SeqCst);
                return Err(e);
            }
        }
        self.high[i].fetch_max(now, Ordering::SeqCst);
        Ok(())
    }

    /// Return `amount` of `kind`, rolling the credit up to the parent.
    pub fn credit(&self, kind: ResourceKind, amount: u64) {
        if amount == 0 {
            return;
        }
        let i = kind.index();
        // Saturating: a stray over-credit clamps at zero instead of
        // wrapping into an absurd balance.
        let mut cur = self.used[i].load(Ordering::SeqCst);
        loop {
            let next = cur.saturating_sub(amount);
            match self.used[i].compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        if let Some(parent) = &self.parent {
            parent.credit(kind, amount);
        }
    }

    /// Record a level measurement (`used = max(used, value)`) for kinds
    /// where usage is a peak, not a sum. Level kinds do not roll up
    /// additively — the parent records the same peak.
    pub fn record_peak(&self, kind: ResourceKind, value: u64) -> Result<(), ResourceError> {
        if let Some(limit) = self.limits.limit(kind) {
            if value > limit {
                return Err(ResourceError {
                    resource: kind,
                    used: value,
                    limit,
                });
            }
        }
        let i = kind.index();
        self.used[i].fetch_max(value, Ordering::SeqCst);
        self.high[i].fetch_max(value, Ordering::SeqCst);
        if let Some(parent) = &self.parent {
            parent.record_peak(kind, value)?;
        }
        Ok(())
    }

    /// The error a charge of `amount` would produce, without charging.
    pub fn would_exceed(&self, kind: ResourceKind, amount: u64) -> Option<ResourceError> {
        let now = self.used(kind).saturating_add(amount);
        if let Some(limit) = self.limits.limit(kind) {
            if now > limit {
                return Some(ResourceError {
                    resource: kind,
                    used: now,
                    limit,
                });
            }
        }
        self.parent
            .as_ref()
            .and_then(|p| p.would_exceed(kind, amount))
    }

    /// Current usage of a kind in this scope.
    pub fn used(&self, kind: ResourceKind) -> u64 {
        self.used[kind.index()].load(Ordering::SeqCst)
    }

    /// The highest usage this scope ever admitted.
    pub fn high_water(&self, kind: ResourceKind) -> u64 {
        self.high[kind.index()].load(Ordering::SeqCst)
    }

    /// This scope's limits.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// Budget left for `kind` in this scope (`None` = unlimited).
    pub fn remaining(&self, kind: ResourceKind) -> Option<u64> {
        self.limits
            .limit(kind)
            .map(|l| l.saturating_sub(self.used(kind)))
    }
}

impl Drop for ResourceGovernor {
    fn drop(&mut self) {
        // A finished scope returns everything it still holds, so the
        // process root's `used` reflects only live requests (its
        // high-water marks keep the concurrent peak).
        if let Some(parent) = self.parent.take() {
            for kind in RESOURCE_KINDS {
                // Level kinds were never added to the parent's balance.
                if kind.is_level() {
                    continue;
                }
                let held = self.used[kind.index()].load(Ordering::SeqCst);
                parent.credit(kind, held);
            }
        }
    }
}

/// RAII accounting wrapper: the bytes are charged before the value is
/// built and credited back when the wrapper drops, so a panic-unwound
/// scope can never leak accounted usage.
pub struct Accounted<T> {
    value: T,
    governor: Arc<ResourceGovernor>,
    kind: ResourceKind,
    amount: u64,
}

impl<T> Accounted<T> {
    /// Charge first, then build. The builder only runs if the charge was
    /// admitted, so a hostile size is rejected before any allocation.
    pub fn build(
        governor: &Arc<ResourceGovernor>,
        kind: ResourceKind,
        amount: u64,
        build: impl FnOnce() -> T,
    ) -> Result<Accounted<T>, ResourceError> {
        governor.charge(kind, amount)?;
        Ok(Accounted {
            value: build(),
            governor: governor.clone(),
            kind,
            amount,
        })
    }

    /// Wrap an already-built value (charges its stated footprint).
    pub fn new(
        value: T,
        governor: &Arc<ResourceGovernor>,
        kind: ResourceKind,
        amount: u64,
    ) -> Result<Accounted<T>, ResourceError> {
        governor.charge(kind, amount)?;
        Ok(Accounted {
            value,
            governor: governor.clone(),
            kind,
            amount,
        })
    }

    /// Unwrap, crediting the accounted amount back immediately.
    pub fn into_inner(self) -> T {
        // Drop must not double-credit, so disarm it and move the fields
        // out manually.
        let this = std::mem::ManuallyDrop::new(self);
        // SAFETY: `this` is ManuallyDrop, so `Accounted::drop` never
        // runs; `value` and `governor` are each read exactly once and
        // the remaining fields are Copy.
        let value = unsafe { std::ptr::read(&this.value) };
        let governor = unsafe { std::ptr::read(&this.governor) };
        governor.credit(this.kind, this.amount);
        value
    }
}

impl<T> Deref for Accounted<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for Accounted<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> Drop for Accounted<T> {
    fn drop(&mut self) {
        self.governor.credit(self.kind, self.amount);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_credit_and_high_water() {
        let g = ResourceGovernor::new(Limits::unlimited().cap(ResourceKind::HeapBytes, 100));
        g.charge(ResourceKind::HeapBytes, 60).unwrap();
        g.charge(ResourceKind::HeapBytes, 30).unwrap();
        assert_eq!(g.used(ResourceKind::HeapBytes), 90);
        let err = g.charge(ResourceKind::HeapBytes, 20).unwrap_err();
        assert_eq!(err.resource, ResourceKind::HeapBytes);
        assert_eq!(err.used, 110);
        assert_eq!(err.limit, 100);
        // A rejected charge retains nothing.
        assert_eq!(g.used(ResourceKind::HeapBytes), 90);
        g.credit(ResourceKind::HeapBytes, 50);
        assert_eq!(g.used(ResourceKind::HeapBytes), 40);
        assert_eq!(g.high_water(ResourceKind::HeapBytes), 90);
    }

    #[test]
    fn child_rolls_up_and_returns_on_drop() {
        let root = ResourceGovernor::new(Limits::unlimited());
        {
            let child = root.child(Limits::unlimited().cap(ResourceKind::HeapBytes, 100));
            child.charge(ResourceKind::HeapBytes, 80).unwrap();
            assert_eq!(root.used(ResourceKind::HeapBytes), 80);
        }
        assert_eq!(root.used(ResourceKind::HeapBytes), 0);
        assert_eq!(root.high_water(ResourceKind::HeapBytes), 80);
    }

    #[test]
    fn parent_limit_rejects_and_rolls_back_the_child() {
        let root = ResourceGovernor::new(Limits::unlimited().cap(ResourceKind::HeapBytes, 50));
        let child = root.child(Limits::unlimited());
        let err = child.charge(ResourceKind::HeapBytes, 60).unwrap_err();
        assert_eq!(err.limit, 50);
        assert_eq!(child.used(ResourceKind::HeapBytes), 0);
        assert_eq!(root.used(ResourceKind::HeapBytes), 0);
    }

    #[test]
    fn record_peak_is_a_max_not_a_sum() {
        let g = ResourceGovernor::new(Limits::unlimited().cap(ResourceKind::Launches, 512));
        g.record_peak(ResourceKind::Launches, 100).unwrap();
        g.record_peak(ResourceKind::Launches, 40).unwrap();
        assert_eq!(g.used(ResourceKind::Launches), 100);
        let err = g.record_peak(ResourceKind::Launches, 1600).unwrap_err();
        assert_eq!(err.resource, ResourceKind::Launches);
        assert_eq!(err.used, 1600);
    }

    #[test]
    fn accounted_charges_before_building_and_credits_on_drop() {
        let g = ResourceGovernor::new(Limits::unlimited().cap(ResourceKind::HeapBytes, 1000));
        let built = std::cell::Cell::new(false);
        let a = Accounted::build(&g, ResourceKind::HeapBytes, 400, || {
            built.set(true);
            vec![0u8; 400]
        })
        .unwrap();
        assert!(built.get());
        assert_eq!(a.len(), 400);
        assert_eq!(g.used(ResourceKind::HeapBytes), 400);
        drop(a);
        assert_eq!(g.used(ResourceKind::HeapBytes), 0);

        // Over budget: the builder must never run.
        let built = std::cell::Cell::new(false);
        let err = Accounted::build(&g, ResourceKind::HeapBytes, 2000, || {
            built.set(true);
            vec![0u8; 2000]
        });
        assert!(err.is_err());
        assert!(!built.get(), "builder ran despite a rejected charge");
    }

    #[test]
    fn accounted_into_inner_credits_once() {
        let g = ResourceGovernor::new(Limits::unlimited());
        let a = Accounted::new(String::from("x"), &g, ResourceKind::HeapBytes, 10).unwrap();
        assert_eq!(g.used(ResourceKind::HeapBytes), 10);
        let s = a.into_inner();
        assert_eq!(s, "x");
        assert_eq!(g.used(ResourceKind::HeapBytes), 0);
    }

    #[test]
    fn limits_debug_is_stable_and_fingerprintable() {
        assert_eq!(format!("{:?}", Limits::unlimited()), "unlimited");
        let l = Limits::unlimited()
            .cap(ResourceKind::HeapBytes, 7)
            .cap(ResourceKind::Launches, 3);
        assert_eq!(format!("{l:?}"), "heap-bytes=7,launches=3");
        // Different budgets must render differently (cache separation).
        let l2 = Limits::unlimited().cap(ResourceKind::HeapBytes, 8);
        assert_ne!(format!("{l:?}"), format!("{l2:?}"));
    }

    #[test]
    fn byte_sizes_parse_with_suffixes() {
        assert_eq!(parse_bytes("1024"), Some(1024));
        assert_eq!(parse_bytes("64k"), Some(64 << 10));
        assert_eq!(parse_bytes("256M"), Some(256 << 20));
        assert_eq!(parse_bytes("2G"), Some(2 << 30));
        assert_eq!(parse_bytes(" 8m "), Some(8 << 20));
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("x"), None);
        assert_eq!(parse_bytes("12T"), None);
        assert_eq!(parse_bytes(&format!("{}G", u64::MAX)), None, "overflow");
    }

    #[test]
    fn service_limits_admit_typical_programs() {
        let g = ResourceGovernor::new(Limits::service());
        g.record_peak(ResourceKind::Launches, 85).unwrap();
        g.record_peak(ResourceKind::PrecedenceDepth, 12).unwrap();
        g.record_peak(ResourceKind::IrStatements, 900).unwrap();
        g.record_peak(ResourceKind::DomainCells, 48 * 24 * 10 * 6)
            .unwrap();
        g.charge(ResourceKind::HeapBytes, 8 << 20).unwrap();
    }
}
