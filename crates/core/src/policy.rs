//! The TLA policy configurations.

use std::fmt;

/// Which Temporal Locality Hints are sent, and how aggressively.
///
/// A hint is a non-data message sent to the LLC on a core-cache hit that
/// promotes the line's LLC replacement state to MRU (§III-A). The paper
/// evaluates hints from the L1I, L1D, both L1s, the L2, and all levels, plus
/// a sensitivity study where only a fraction of hits send hints.
///
/// Equality and hashing compare `probability` by its bits, so a config is
/// a well-behaved map key (see `tla_sim::RunKey`).
#[derive(Debug, Clone, Copy)]
pub struct TlhConfig {
    /// Send a hint on every L1 instruction-cache hit.
    pub from_l1i: bool,
    /// Send a hint on every L1 data-cache hit.
    pub from_l1d: bool,
    /// Send a hint on every L2 hit.
    pub from_l2: bool,
    /// Fraction of eligible hits that actually send a hint (the paper's
    /// 1 % / 2 % / 10 % / 20 % filtering study). `1.0` sends all hints.
    pub probability: f64,
}

impl TlhConfig {
    /// Hints from both L1 caches (the paper's TLH-L1).
    pub const L1: TlhConfig = TlhConfig {
        from_l1i: true,
        from_l1d: true,
        from_l2: false,
        probability: 1.0,
    };

    /// Hints from the L2 only (TLH-L2).
    pub const L2: TlhConfig = TlhConfig {
        from_l1i: false,
        from_l1d: false,
        from_l2: true,
        probability: 1.0,
    };

    /// Hints from every level (TLH-L1-L2).
    pub const L1_L2: TlhConfig = TlhConfig {
        from_l1i: true,
        from_l1d: true,
        from_l2: true,
        probability: 1.0,
    };

    /// What equality and hashing compare: every field, `probability` by
    /// its bits.
    fn bits(&self) -> (bool, bool, bool, u64) {
        let p = self.probability.to_bits();
        (self.from_l1i, self.from_l1d, self.from_l2, p)
    }
}

impl PartialEq for TlhConfig {
    fn eq(&self, other: &Self) -> bool {
        self.bits() == other.bits()
    }
}

impl Eq for TlhConfig {}

impl std::hash::Hash for TlhConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bits().hash(state);
    }
}

impl Default for TlhConfig {
    fn default() -> Self {
        TlhConfig::L1
    }
}

/// Query Based Selection configuration.
///
/// On an LLC miss the controller walks victim candidates in replacement
/// order; for each it queries the configured core-cache levels. A resident
/// candidate is promoted to MRU and the next candidate is tried; once
/// `max_queries` candidates have been rejected, the next candidate is
/// evicted without further queries (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QbsConfig {
    /// Consider lines resident in L1 instruction caches unevictable.
    pub check_l1i: bool,
    /// Consider lines resident in L1 data caches unevictable.
    pub check_l1d: bool,
    /// Consider lines resident in L2 caches unevictable.
    pub check_l2: bool,
    /// Maximum queries per miss before falling back to unconditional
    /// eviction. The paper sweeps 1, 2, 4, 8 and finds 1–2 sufficient.
    pub max_queries: usize,
    /// The "modified QBS" ablation of §V-E footnote 6: rejected candidates
    /// are *also* back-invalidated from the core caches (like ECI) while
    /// still being promoted in the LLC.
    pub invalidate_on_query: bool,
}

impl QbsConfig {
    /// QBS over every core-cache level (the paper's headline QBS-L1-L2).
    pub const L1_L2: QbsConfig = QbsConfig {
        check_l1i: true,
        check_l1d: true,
        check_l2: true,
        max_queries: 8,
        invalidate_on_query: false,
    };

    /// QBS over both L1s only (QBS-L1).
    pub const L1: QbsConfig = QbsConfig {
        check_l1i: true,
        check_l1d: true,
        check_l2: false,
        max_queries: 8,
        invalidate_on_query: false,
    };

    /// QBS over the L2 only (QBS-L2).
    pub const L2: QbsConfig = QbsConfig {
        check_l1i: false,
        check_l1d: false,
        check_l2: true,
        max_queries: 8,
        invalidate_on_query: false,
    };
}

impl Default for QbsConfig {
    fn default() -> Self {
        QbsConfig::L1_L2
    }
}

/// A Temporal Locality Aware management policy for the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TlaPolicy {
    /// Plain inclusive management: LLC replacement sees only the filtered
    /// miss stream.
    #[default]
    Baseline,
    /// Temporal Locality Hints.
    Tlh(TlhConfig),
    /// Early Core Invalidation.
    Eci,
    /// Query Based Selection.
    Qbs(QbsConfig),
}

impl TlaPolicy {
    /// The unmanaged inclusive baseline.
    pub fn baseline() -> Self {
        TlaPolicy::Baseline
    }

    /// TLH from the L1 instruction cache only (TLH-IL1).
    pub fn tlh_il1() -> Self {
        TlaPolicy::Tlh(TlhConfig {
            from_l1i: true,
            from_l1d: false,
            from_l2: false,
            probability: 1.0,
        })
    }

    /// TLH from the L1 data cache only (TLH-DL1).
    pub fn tlh_dl1() -> Self {
        TlaPolicy::Tlh(TlhConfig {
            from_l1i: false,
            from_l1d: true,
            from_l2: false,
            probability: 1.0,
        })
    }

    /// TLH from both L1 caches (TLH-L1).
    pub fn tlh_l1() -> Self {
        TlaPolicy::Tlh(TlhConfig::L1)
    }

    /// TLH from the L2 cache (TLH-L2).
    pub fn tlh_l2() -> Self {
        TlaPolicy::Tlh(TlhConfig::L2)
    }

    /// TLH from every level (TLH-L1-L2).
    pub fn tlh_l1_l2() -> Self {
        TlaPolicy::Tlh(TlhConfig::L1_L2)
    }

    /// TLH from the L1s where only `probability` of hits send hints.
    pub fn tlh_l1_filtered(probability: f64) -> Self {
        TlaPolicy::Tlh(TlhConfig {
            probability,
            ..TlhConfig::L1
        })
    }

    /// Early Core Invalidation.
    pub fn eci() -> Self {
        TlaPolicy::Eci
    }

    /// The paper's headline QBS (checks L1I, L1D and L2).
    pub fn qbs() -> Self {
        TlaPolicy::Qbs(QbsConfig::L1_L2)
    }

    /// QBS checking only the L1 instruction caches (QBS-IL1).
    pub fn qbs_il1() -> Self {
        TlaPolicy::Qbs(QbsConfig {
            check_l1i: true,
            check_l1d: false,
            check_l2: false,
            ..QbsConfig::L1_L2
        })
    }

    /// QBS checking only the L1 data caches (QBS-DL1).
    pub fn qbs_dl1() -> Self {
        TlaPolicy::Qbs(QbsConfig {
            check_l1i: false,
            check_l1d: true,
            check_l2: false,
            ..QbsConfig::L1_L2
        })
    }

    /// QBS checking both L1 caches (QBS-L1).
    pub fn qbs_l1() -> Self {
        TlaPolicy::Qbs(QbsConfig::L1)
    }

    /// QBS checking only the L2 caches (QBS-L2).
    pub fn qbs_l2() -> Self {
        TlaPolicy::Qbs(QbsConfig::L2)
    }

    /// QBS with an explicit query limit.
    pub fn qbs_limited(max_queries: usize) -> Self {
        TlaPolicy::Qbs(QbsConfig {
            max_queries,
            ..QbsConfig::L1_L2
        })
    }

    /// The "modified QBS" ablation that back-invalidates rejected
    /// candidates from the core caches.
    pub fn qbs_invalidating() -> Self {
        TlaPolicy::Qbs(QbsConfig {
            invalidate_on_query: true,
            ..QbsConfig::L1_L2
        })
    }

    /// Short label used in report tables (e.g. `"TLH-L1"`, `"QBS"`).
    pub fn label(&self) -> String {
        match self {
            TlaPolicy::Baseline => "Baseline".to_string(),
            TlaPolicy::Tlh(t) => {
                let mut s = String::from("TLH");
                match (t.from_l1i, t.from_l1d, t.from_l2) {
                    (true, true, true) => s.push_str("-L1-L2"),
                    (true, true, false) => s.push_str("-L1"),
                    (true, false, false) => s.push_str("-IL1"),
                    (false, true, false) => s.push_str("-DL1"),
                    (false, false, true) => s.push_str("-L2"),
                    (l1i, l1d, l2) => {
                        if l1i {
                            s.push_str("-IL1");
                        }
                        if l1d {
                            s.push_str("-DL1");
                        }
                        if l2 {
                            s.push_str("-L2");
                        }
                    }
                }
                if t.probability < 1.0 {
                    s.push_str(&format!("({:.0}%)", t.probability * 100.0));
                }
                s
            }
            TlaPolicy::Eci => "ECI".to_string(),
            TlaPolicy::Qbs(q) => {
                let mut s = String::from("QBS");
                match (q.check_l1i, q.check_l1d, q.check_l2) {
                    (true, true, true) => {}
                    (true, true, false) => s.push_str("-L1"),
                    (true, false, false) => s.push_str("-IL1"),
                    (false, true, false) => s.push_str("-DL1"),
                    (false, false, true) => s.push_str("-L2"),
                    _ => s.push_str("-custom"),
                }
                if q.invalidate_on_query {
                    s.push_str("-inval");
                }
                if q.max_queries != QbsConfig::L1_L2.max_queries {
                    s.push_str(&format!("(q{})", q.max_queries));
                }
                s
            }
        }
    }
}

impl fmt::Display for TlaPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(TlaPolicy::baseline().label(), "Baseline");
        assert_eq!(TlaPolicy::tlh_il1().label(), "TLH-IL1");
        assert_eq!(TlaPolicy::tlh_dl1().label(), "TLH-DL1");
        assert_eq!(TlaPolicy::tlh_l1().label(), "TLH-L1");
        assert_eq!(TlaPolicy::tlh_l2().label(), "TLH-L2");
        assert_eq!(TlaPolicy::tlh_l1_l2().label(), "TLH-L1-L2");
        assert_eq!(TlaPolicy::eci().label(), "ECI");
        assert_eq!(TlaPolicy::qbs().label(), "QBS");
        assert_eq!(TlaPolicy::qbs_l1().label(), "QBS-L1");
        assert_eq!(TlaPolicy::qbs_l2().label(), "QBS-L2");
        assert_eq!(TlaPolicy::qbs_il1().label(), "QBS-IL1");
        assert_eq!(TlaPolicy::qbs_dl1().label(), "QBS-DL1");
        assert_eq!(TlaPolicy::qbs_limited(2).label(), "QBS(q2)");
        assert_eq!(TlaPolicy::qbs_invalidating().label(), "QBS-inval");
        assert_eq!(TlaPolicy::tlh_l1_filtered(0.1).label(), "TLH-L1(10%)");
    }

    #[test]
    fn default_is_baseline() {
        assert_eq!(TlaPolicy::default(), TlaPolicy::Baseline);
    }

    #[test]
    fn qbs_defaults() {
        let q = QbsConfig::default();
        assert!(q.check_l1i && q.check_l1d && q.check_l2);
        assert!(!q.invalidate_on_query);
        assert_eq!(q.max_queries, 8);
    }
}
