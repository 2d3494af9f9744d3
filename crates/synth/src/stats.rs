//! Search statistics collected during synthesis (reported by the Table 3
//! ablation bench).

/// Counters describing one synthesis run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SynthStats {
    /// Guards yielded by the lazy enumerator (Figure 10).
    pub guards_yielded: usize,
    /// Section locators expanded with `ApplyProduction`.
    pub locators_expanded: usize,
    /// Section locators discarded by the UB check (Figure 10 line 8).
    pub locators_pruned: usize,
    /// Extractors dequeued and scored (Figure 9).
    pub extractors_enumerated: usize,
    /// Extractor extensions discarded by the UB check (Figure 9 line 9).
    pub extractors_pruned: usize,
    /// Calls to `SynthesizeBranch` (one per distinct partition block the
    /// scan reaches).
    pub branch_calls: usize,
    /// Partition-block synthesis results served from the top-level
    /// `(E⁺, E⁻)` memo (Figure 7).
    pub memo_hits: usize,
    /// Extractor-synthesis results shared across guards over the same
    /// section locator (the footnote 6 memo inside one branch problem).
    pub locator_memo_hits: usize,
    /// Extractor-synthesis results served from the task-level memo keyed
    /// by (E⁺, propagated node sets): a locator the footnote 6 memo had
    /// not seen, but whose nodes an earlier locator of this or another
    /// branch problem over the same E⁺ already selected.
    pub extractor_memo_hits: usize,
    /// Guard candidates skipped because the abstract interpreter proved
    /// they can never classify (predicate provably `⊥` on the positives,
    /// or guard provably `⊤` while negatives exist).
    pub analysis_pruned_guards: usize,
    /// Locator extensions skipped because they provably select no nodes
    /// on any positive example (the extension's node sets are empty, or a
    /// weaker filter already produced empty sets this round).
    pub analysis_pruned_locators: usize,
    /// Extractor extensions skipped because their outputs are provably
    /// empty (a production step the analysis proves maps everything to
    /// `∅`, or concrete all-empty outputs on a branch with gold tokens).
    pub analysis_pruned_extractors: usize,
    /// Branch problems whose guard enumeration stopped because it had
    /// yielded `SynthConfig::max_guards_per_branch` guards: their optimal
    /// set may be missing programs over later guards.
    pub guard_cap_hits: usize,
}

impl SynthStats {
    /// Total number of candidate terms the search *touched* — the quantity
    /// pruning and decomposition reduce (Table 3's speedups follow it).
    pub fn work(&self) -> usize {
        self.guards_yielded + self.locators_expanded + self.extractors_enumerated
    }
}

impl std::ops::AddAssign for SynthStats {
    fn add_assign(&mut self, rhs: SynthStats) {
        self.guards_yielded += rhs.guards_yielded;
        self.locators_expanded += rhs.locators_expanded;
        self.locators_pruned += rhs.locators_pruned;
        self.extractors_enumerated += rhs.extractors_enumerated;
        self.extractors_pruned += rhs.extractors_pruned;
        self.branch_calls += rhs.branch_calls;
        self.memo_hits += rhs.memo_hits;
        self.locator_memo_hits += rhs.locator_memo_hits;
        self.extractor_memo_hits += rhs.extractor_memo_hits;
        self.analysis_pruned_guards += rhs.analysis_pruned_guards;
        self.analysis_pruned_locators += rhs.analysis_pruned_locators;
        self.analysis_pruned_extractors += rhs.analysis_pruned_extractors;
        self.guard_cap_hits += rhs.guard_cap_hits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_sums_search_counters() {
        let s = SynthStats {
            guards_yielded: 2,
            locators_expanded: 3,
            extractors_enumerated: 5,
            ..Default::default()
        };
        assert_eq!(s.work(), 10);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = SynthStats {
            guards_yielded: 1,
            ..Default::default()
        };
        a += SynthStats {
            guards_yielded: 2,
            memo_hits: 4,
            locator_memo_hits: 7,
            ..Default::default()
        };
        assert_eq!(a.guards_yielded, 3);
        assert_eq!(a.memo_hits, 4);
        assert_eq!(a.locator_memo_hits, 7);
    }

    #[test]
    fn add_assign_sums_every_field() {
        // Synthesis adds each branch problem's counters straight into the
        // task's stats, which is only sound while `+=` is a plain sum of
        // every field. The exhaustive destructuring below stops compiling
        // when a field is added, so a new counter cannot be left out.
        let mut a = SynthStats {
            guards_yielded: 1,
            locators_expanded: 2,
            locators_pruned: 3,
            extractors_enumerated: 4,
            extractors_pruned: 5,
            branch_calls: 6,
            memo_hits: 7,
            locator_memo_hits: 8,
            extractor_memo_hits: 9,
            analysis_pruned_guards: 10,
            analysis_pruned_locators: 11,
            analysis_pruned_extractors: 12,
            guard_cap_hits: 13,
        };
        let b = SynthStats {
            guards_yielded: 100,
            locators_expanded: 200,
            locators_pruned: 300,
            extractors_enumerated: 400,
            extractors_pruned: 500,
            branch_calls: 600,
            memo_hits: 700,
            locator_memo_hits: 800,
            extractor_memo_hits: 900,
            analysis_pruned_guards: 1000,
            analysis_pruned_locators: 1100,
            analysis_pruned_extractors: 1200,
            guard_cap_hits: 1300,
        };
        a += b;
        let SynthStats {
            guards_yielded,
            locators_expanded,
            locators_pruned,
            extractors_enumerated,
            extractors_pruned,
            branch_calls,
            memo_hits,
            locator_memo_hits,
            extractor_memo_hits,
            analysis_pruned_guards,
            analysis_pruned_locators,
            analysis_pruned_extractors,
            guard_cap_hits,
        } = a;
        assert_eq!(
            [
                guards_yielded,
                locators_expanded,
                locators_pruned,
                extractors_enumerated,
                extractors_pruned,
                branch_calls,
                memo_hits,
                locator_memo_hits,
                extractor_memo_hits,
                analysis_pruned_guards,
                analysis_pruned_locators,
                analysis_pruned_extractors,
                guard_cap_hits,
            ],
            [101, 202, 303, 404, 505, 606, 707, 808, 909, 1010, 1111, 1212, 1313]
        );
    }
}
