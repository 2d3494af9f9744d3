//! Synthesizer configuration (the hyper-parameters of Section 7).

/// Tuning knobs for the synthesis algorithms.
///
/// The paper's defaults are guard depth 7, extractor depth 5, and a
/// keyword-threshold grid with step 0.05. [`SynthConfig::paper`] mirrors
/// those; [`SynthConfig::fast`] is a reduced grid with the same search
/// *structure* used where full depth is computationally irrelevant to the
/// reproduced result (documented per bench).
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Maximum locator-spine depth of guards (paper default: 7).
    pub guard_depth: usize,
    /// Maximum extractor-spine depth (paper default: 5).
    pub extractor_depth: usize,
    /// Keyword-similarity thresholds to enumerate (paper: step 0.05).
    pub thresholds: Vec<f64>,
    /// Split delimiters to enumerate.
    pub delimiters: Vec<char>,
    /// `k` values enumerated for `Substring(e, φ, k)`.
    pub substring_ks: Vec<usize>,
    /// Maximum number of blocks in an example partition (Figure 7
    /// enumerates all partitions; this caps their size).
    pub max_blocks: usize,
    /// Cap on guards yielded per branch before the enumerator gives up.
    pub max_guards_per_branch: usize,
    /// Cap on the number of optimal programs materialized.
    pub max_programs: usize,
    /// Whether UB-based pruning is enabled (the `WebQA-NoPrune` ablation
    /// sets this to `false`).
    pub prune: bool,
    /// Whether the abstract-interpretation prune is enabled: candidates
    /// the `webqa_dsl::analysis` verdicts prove dead (guards that can
    /// never classify, locator extensions selecting no nodes, extractor
    /// extensions with provably-empty outputs) are skipped before being
    /// built or scored. A *sound* prune alongside the UB cut — programs,
    /// counts, and F₁ are unchanged for any value (held by
    /// `tests/synth_parity.rs`); only the `analysis_pruned_*` counters
    /// and the work they save move. [`SynthConfig::without_analysis`]
    /// is the ablation.
    pub analysis: bool,
    /// Whether guard/extractor synthesis is decomposed (the
    /// `WebQA-NoDecomp` ablation sets this to `false`).
    pub decompose: bool,
    /// Whether guards are enumerated lazily, feeding the rising optimum
    /// back into locator pruning (Figure 10). The `NoLazy` ablation sets
    /// this to `false`: all classifying guards are generated up-front
    /// with a bound of 0, so locator pruning never strengthens.
    pub lazy_guards: bool,
    /// Include boolean connectives (`∧`) of leaf node-filters in the
    /// enumeration pool.
    pub filter_conjunctions: bool,
    /// Route every scoring / mask / memo decision through the original
    /// definitional string kernels instead of the interned-id hot path.
    /// The search *semantics* are identical — `tests/synth_parity.rs`
    /// proves it on the full corpus — only the work per decision differs.
    /// See [`SynthConfig::reference`].
    pub reference_kernels: bool,
}

impl SynthConfig {
    /// The paper's hyper-parameters (Section 7).
    pub fn paper() -> Self {
        SynthConfig {
            guard_depth: 7,
            extractor_depth: 5,
            thresholds: (1..=19).map(|i| f64::from(i) * 0.05).collect(),
            delimiters: vec![',', ';', ':'],
            substring_ks: vec![1, 2, 3],
            max_blocks: 5,
            max_guards_per_branch: 512,
            max_programs: 5_000,
            prune: true,
            analysis: true,
            decompose: true,
            lazy_guards: true,
            filter_conjunctions: true,
            reference_kernels: false,
        }
    }

    /// A reduced configuration with the same search structure: coarser
    /// threshold grid, shallower guards. Used by tests and by benches
    /// whose reproduced quantity does not depend on exhaustive depth.
    pub fn fast() -> Self {
        SynthConfig {
            guard_depth: 3,
            extractor_depth: 4,
            thresholds: vec![0.5, 0.65, 0.8, 0.95],
            delimiters: vec![',', ';'],
            substring_ks: vec![1, 2],
            max_blocks: 2,
            max_guards_per_branch: 1024,
            max_programs: 1_500,
            prune: true,
            analysis: true,
            decompose: true,
            lazy_guards: true,
            filter_conjunctions: false,
            reference_kernels: false,
        }
    }

    /// The slow-path reference configuration: [`SynthConfig::fast`]'s
    /// search parameters with every hot-path kernel replaced by the
    /// original definitional evaluation (string tokenization per score,
    /// `Locator::eval` of every locator in every branch problem, no
    /// locator table shared across branch problems). Same optimum, same programs, same counts — the parity
    /// suite (`tests/synth_parity.rs`) holds the two paths equal on the
    /// whole corpus.
    pub fn reference() -> Self {
        Self::fast().with_reference_kernels()
    }

    /// Switches any configuration onto the definitional reference
    /// kernels (see [`SynthConfig::reference`]).
    pub fn with_reference_kernels(mut self) -> Self {
        self.reference_kernels = true;
        self
    }

    /// The `WebQA-NoPrune` ablation of Section 8.2.
    pub fn without_pruning(mut self) -> Self {
        self.prune = false;
        self
    }

    /// Disables the abstract-interpretation prune (the `NoAnalysis`
    /// ablation — this repo's extension; see [`SynthConfig::analysis`]).
    pub fn without_analysis(mut self) -> Self {
        self.analysis = false;
        self
    }

    /// The `WebQA-NoDecomp` ablation of Section 8.2.
    pub fn without_decomposition(mut self) -> Self {
        self.decompose = false;
        self
    }

    /// The `NoLazy` ablation: guards are enumerated eagerly with no
    /// optimum feedback (this repo's extension of the Section 8.2 study;
    /// the paper credits lazy enumeration for pruning power but does not
    /// ablate it separately).
    pub fn without_lazy_guards(mut self) -> Self {
        self.lazy_guards = false;
        self
    }
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self::fast()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_threshold_grid_has_step_005() {
        let c = SynthConfig::paper();
        assert_eq!(c.thresholds.len(), 19);
        assert!((c.thresholds[0] - 0.05).abs() < 1e-12);
        assert!((c.thresholds[18] - 0.95).abs() < 1e-12);
        assert_eq!(c.guard_depth, 7);
        assert_eq!(c.extractor_depth, 5);
    }

    /// `paper()`'s grid contains `fast()`'s as DSL thresholds: the pools
    /// build `Threshold`s, which store hundredths, so `19.0 * 0.05` (one
    /// ulp above 0.95 as an `f64`) is `fast()`'s 0.95.
    #[test]
    fn paper_thresholds_contain_every_fast_threshold() {
        use webqa_dsl::Threshold;
        let paper: Vec<Threshold> = SynthConfig::paper()
            .thresholds
            .iter()
            .map(|&t| Threshold::new(t))
            .collect();
        for t in SynthConfig::fast().thresholds {
            assert!(paper.contains(&Threshold::new(t)), "fast() threshold {t}");
        }
        assert_eq!(Threshold::new(19.0 * 0.05), Threshold::new(0.95));
    }

    #[test]
    fn ablation_builders() {
        let c = SynthConfig::fast().without_pruning();
        assert!(!c.prune);
        assert!(c.decompose);
        let c = SynthConfig::fast().without_decomposition();
        assert!(c.prune);
        assert!(!c.decompose);
        let c = SynthConfig::fast().without_lazy_guards();
        assert!(!c.lazy_guards);
        assert!(c.prune && c.decompose);
        let c = SynthConfig::fast().without_analysis();
        assert!(!c.analysis);
        assert!(c.prune && c.decompose && c.lazy_guards);
        assert!(SynthConfig::fast().analysis && SynthConfig::paper().analysis);
    }

    #[test]
    fn reference_differs_only_in_kernels() {
        let mut r = SynthConfig::reference();
        assert!(r.reference_kernels);
        r.reference_kernels = false;
        assert_eq!(r, SynthConfig::fast());
    }
}
