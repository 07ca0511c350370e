//! Named hierarchy-management configurations — the "bars" of the paper's
//! figures.

use tla_cache::Policy;
use tla_core::{InclusionPolicy, TlaPolicy};

/// A complete management configuration for one run: inclusion mode, TLA
/// policy, optional victim cache and LLC replacement override.
///
/// Constructors cover every configuration the paper evaluates; compose
/// custom ones with the public fields.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PolicySpec {
    /// Label used in report tables.
    pub name: String,
    /// Inclusion mode of the LLC.
    pub inclusion: InclusionPolicy,
    /// TLA management policy.
    pub tla: TlaPolicy,
    /// Victim-cache entries behind the LLC, if any.
    pub victim_cache: Option<usize>,
    /// LLC replacement policy override (`None` = the baseline NRU).
    pub llc_replacement: Option<Policy>,
}

impl PolicySpec {
    fn new(name: &str, inclusion: InclusionPolicy, tla: TlaPolicy) -> Self {
        PolicySpec {
            name: name.to_string(),
            inclusion,
            tla,
            victim_cache: None,
            llc_replacement: None,
        }
    }

    /// The inclusive baseline.
    pub fn baseline() -> Self {
        Self::new(
            "Inclusive",
            InclusionPolicy::Inclusive,
            TlaPolicy::baseline(),
        )
    }

    /// Non-inclusive hierarchy (no back-invalidates).
    pub fn non_inclusive() -> Self {
        Self::new(
            "Non-Inclusive",
            InclusionPolicy::NonInclusive,
            TlaPolicy::baseline(),
        )
    }

    /// Exclusive hierarchy (LLC holds only core-cache victims).
    pub fn exclusive() -> Self {
        Self::new(
            "Exclusive",
            InclusionPolicy::Exclusive,
            TlaPolicy::baseline(),
        )
    }

    /// TLH from the L1 instruction cache.
    pub fn tlh_il1() -> Self {
        Self::new("TLH-IL1", InclusionPolicy::Inclusive, TlaPolicy::tlh_il1())
    }

    /// TLH from the L1 data cache.
    pub fn tlh_dl1() -> Self {
        Self::new("TLH-DL1", InclusionPolicy::Inclusive, TlaPolicy::tlh_dl1())
    }

    /// TLH from both L1s (the paper's headline TLH).
    pub fn tlh_l1() -> Self {
        Self::new("TLH-L1", InclusionPolicy::Inclusive, TlaPolicy::tlh_l1())
    }

    /// TLH from the L2.
    pub fn tlh_l2() -> Self {
        Self::new("TLH-L2", InclusionPolicy::Inclusive, TlaPolicy::tlh_l2())
    }

    /// TLH from every level.
    pub fn tlh_l1_l2() -> Self {
        Self::new(
            "TLH-L1-L2",
            InclusionPolicy::Inclusive,
            TlaPolicy::tlh_l1_l2(),
        )
    }

    /// TLH-L1 with only a fraction of hits sending hints.
    pub fn tlh_l1_filtered(probability: f64) -> Self {
        let tla = TlaPolicy::tlh_l1_filtered(probability);
        PolicySpec {
            name: tla.label(),
            ..Self::new("", InclusionPolicy::Inclusive, tla)
        }
    }

    /// Early Core Invalidation.
    pub fn eci() -> Self {
        Self::new("ECI", InclusionPolicy::Inclusive, TlaPolicy::eci())
    }

    /// Query Based Selection (checks L1I+L1D+L2).
    pub fn qbs() -> Self {
        Self::new("QBS", InclusionPolicy::Inclusive, TlaPolicy::qbs())
    }

    /// QBS checking only the L1 instruction caches.
    pub fn qbs_il1() -> Self {
        Self::new("QBS-IL1", InclusionPolicy::Inclusive, TlaPolicy::qbs_il1())
    }

    /// QBS checking only the L1 data caches.
    pub fn qbs_dl1() -> Self {
        Self::new("QBS-DL1", InclusionPolicy::Inclusive, TlaPolicy::qbs_dl1())
    }

    /// QBS checking both L1s.
    pub fn qbs_l1() -> Self {
        Self::new("QBS-L1", InclusionPolicy::Inclusive, TlaPolicy::qbs_l1())
    }

    /// QBS checking only the L2s.
    pub fn qbs_l2() -> Self {
        Self::new("QBS-L2", InclusionPolicy::Inclusive, TlaPolicy::qbs_l2())
    }

    /// QBS with an explicit query limit.
    pub fn qbs_limited(max_queries: usize) -> Self {
        let tla = TlaPolicy::qbs_limited(max_queries);
        PolicySpec {
            name: format!("QBS-q{max_queries}"),
            ..Self::new("", InclusionPolicy::Inclusive, tla)
        }
    }

    /// The "modified QBS" ablation (§V-E footnote 6).
    pub fn qbs_invalidating() -> Self {
        Self::new(
            "QBS-inval",
            InclusionPolicy::Inclusive,
            TlaPolicy::qbs_invalidating(),
        )
    }

    /// Inclusive LLC backed by an `entries`-line victim cache. The paper's
    /// §VI point is 32 entries ([`PolicySpec::victim_cache_32`]); larger
    /// sizes drive the fully-associative sweep in EXPERIMENTS.md, whose
    /// linear probe is what the SIMD set-scan kernels accelerate.
    pub fn victim_cache(entries: usize) -> Self {
        PolicySpec {
            name: format!("VC-{entries}"),
            victim_cache: Some(entries),
            ..Self::baseline()
        }
    }

    /// Inclusive LLC backed by a 32-entry victim cache (§VI comparison).
    pub fn victim_cache_32() -> Self {
        Self::victim_cache(32)
    }

    /// A TLA policy applied on a *non-inclusive* base (Figure 9b).
    pub fn on_non_inclusive(tla: TlaPolicy) -> Self {
        PolicySpec {
            name: format!("NI+{}", tla.label()),
            ..Self::new("", InclusionPolicy::NonInclusive, tla)
        }
    }

    /// Overrides the LLC replacement policy (footnote-4 ablation).
    #[must_use]
    pub fn with_llc_replacement(mut self, policy: Policy) -> Self {
        self.name = format!("{}/{policy}", self.name);
        self.llc_replacement = Some(policy);
        self
    }

    /// The full set of bars in Figure 9a, in the paper's order.
    pub fn figure9_set() -> Vec<PolicySpec> {
        vec![
            Self::tlh_l1(),
            Self::tlh_l2(),
            Self::eci(),
            Self::qbs(),
            Self::non_inclusive(),
            Self::exclusive(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_labels() {
        assert_eq!(PolicySpec::baseline().name, "Inclusive");
        assert_eq!(PolicySpec::qbs().name, "QBS");
        assert_eq!(PolicySpec::qbs_limited(2).name, "QBS-q2");
        assert_eq!(PolicySpec::victim_cache_32().victim_cache, Some(32));
        assert_eq!(PolicySpec::victim_cache_32().name, "VC-32");
        assert_eq!(PolicySpec::victim_cache(128).victim_cache, Some(128));
        assert_eq!(PolicySpec::victim_cache(128).name, "VC-128");
        assert_eq!(
            PolicySpec::on_non_inclusive(TlaPolicy::qbs()).inclusion,
            InclusionPolicy::NonInclusive
        );
        let s = PolicySpec::baseline().with_llc_replacement(Policy::Srrip);
        assert_eq!(s.llc_replacement, Some(Policy::Srrip));
        assert!(s.name.contains("SRRIP"));
    }

    #[test]
    fn figure9_set_order() {
        let set = PolicySpec::figure9_set();
        let names: Vec<&str> = set.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "TLH-L1",
                "TLH-L2",
                "ECI",
                "QBS",
                "Non-Inclusive",
                "Exclusive"
            ]
        );
    }
}
