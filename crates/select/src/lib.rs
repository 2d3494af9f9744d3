//! # webqa-select
//!
//! Program selection via transductive learning (Section 6 / Figure 11 of
//! the paper), plus the `Random` and `Shortest` baselines of Section 8.3.
//!
//! Synthesis returns *all* optimal programs — often hundreds. Most
//! generalize well; a sizable fraction do not. The transductive selector:
//!
//! 1. samples an ensemble `Π_E = {π₁…π_N}` i.i.d. from the optimal set
//!    (Eq. 5) — see [`Ensemble`];
//! 2. computes each member's outputs `O_j = (π_j(i₁)…π_j(i_K))` on the
//!    *unlabeled* pages (Eq. 8);
//! 3. returns `π* = argmin_π Σ_j L(π; I, O_j)` (Eq. 11) with `L` the
//!    Hamming distance between extracted word sets, the paper's
//!    implementation choice (Section 7).
//!
//! Step 2 is the cost of selection: up to `N` programs run on every
//! unlabeled page. The members are evaluated together, page by page.
//! Their distinct guards and extractors are found by `Arc` identity
//! first: a synthesized outcome's programs share their branch trees (see
//! [`webqa_dsl::Branch`]), so planning the ensemble hashes each shared
//! tree once, not once per member branch. Equal trees in different
//! allocations still count as one. Each distinct guard and extractor runs
//! once per page, and all guards
//! on a page share one [`webqa_dsl::PageMemo`], so a sub-locator common
//! to many guards walks the tree once, each locator-step filter is
//! decided once per node, and each subtree text is built once. The memo
//! is dropped with its page. The result is exactly that of running
//! [`Program::eval`] per member.
//!
//! ```
//! use webqa_dsl::{PageTree, Program, QueryContext};
//! use webqa_select::{select_transductive, SelectionConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = QueryContext::new("", ["Students"]);
//! let programs: Vec<Program> = vec![
//!     "sat(root, true) -> content".parse()?,
//!     "singleton(root) -> content".parse()?,
//! ];
//! let unlabeled = vec![PageTree::parse("<h1>Jane Doe</h1>")];
//! let chosen = select_transductive(&SelectionConfig::default(), &ctx, &programs, &unlabeled);
//! assert!(chosen.is_some());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod ensemble;

pub use ensemble::{BehaviourGroup, Ensemble};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webqa_dsl::{PageTree, Program, QueryContext};
use webqa_metrics::hamming_sorted_tokens;

/// Configuration of the transductive selector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionConfig {
    /// Ensemble size `N` (paper default: 1000).
    pub ensemble_size: usize,
    /// RNG seed for the i.i.d. ensemble draw.
    pub seed: u64,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            ensemble_size: 1000,
            seed: 0x5EEDED,
        }
    }
}

/// Figure 11: selects the ensemble member minimizing the expected loss
/// against the ensemble's own soft labels.
///
/// Accepts any page slice that can be viewed as `&PageTree` — plain
/// trees or the `Arc<PageTree>` handles the engine's page store hands
/// out, so selection never forces a deep copy.
///
/// Returns `None` when `programs` is empty.
pub fn select_transductive<P: std::borrow::Borrow<PageTree>>(
    cfg: &SelectionConfig,
    ctx: &QueryContext,
    programs: &[Program],
    unlabeled: &[P],
) -> Option<Program> {
    let ensemble = Ensemble::sample(ctx, programs, unlabeled, cfg.ensemble_size, cfg.seed)?;
    let winner = select_from_ensemble(&ensemble)?;
    Some(programs[winner].clone())
}

/// Eq. 11 over a prebuilt ensemble: the representative program index of
/// the behaviour group minimizing `Σ_j w_j · L(π; I, O_j)`, where `L` sums
/// the per-page Hamming distances between the groups' sorted token sets.
///
/// Ties break toward the earlier group (deterministic given the sampling
/// seed). Returns `None` for an empty ensemble.
pub fn select_from_ensemble(ensemble: &Ensemble) -> Option<usize> {
    let groups = ensemble.groups();
    let mut best: Option<(usize, u64)> = None;
    for (a, ga) in groups.iter().enumerate() {
        let mut total: u64 = 0;
        for gb in groups {
            let d: u64 = ga
                .outputs
                .iter()
                .zip(&gb.outputs)
                .map(|(x, y)| hamming_sorted_tokens(x, y) as u64)
                .sum();
            total = total.saturating_add(gb.weight.saturating_mul(d));
        }
        if best.is_none_or(|(_, l)| total < l) {
            best = Some((a, total));
        }
    }
    best.map(|(a, _)| groups[a].representative)
}

/// The `Random` baseline (Section 8.3): one optimal program uniformly at
/// random.
pub fn select_random(programs: &[Program], seed: u64) -> Option<Program> {
    if programs.is_empty() {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    Some(programs[rng.gen_range(0..programs.len())].clone())
}

/// The `Shortest` baseline (Section 8.3): uniformly random among the
/// programs of minimal AST size.
pub fn select_shortest(programs: &[Program], seed: u64) -> Option<Program> {
    if programs.is_empty() {
        return None;
    }
    let min = programs.iter().map(Program::size).min().expect("non-empty");
    let shortest: Vec<&Program> = programs.iter().filter(|p| p.size() == min).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    Some(shortest[rng.gen_range(0..shortest.len())].clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog(src: &str) -> Program {
        src.parse().expect("valid program")
    }

    fn pages() -> Vec<PageTree> {
        vec![
            PageTree::parse(
                "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>",
            ),
            PageTree::parse("<h1>B</h1><h2>PhD Students</h2><ul><li>Mary Anderson</li></ul>"),
        ]
    }

    fn ctx() -> QueryContext {
        QueryContext::new("", ["Students"])
    }

    #[test]
    fn empty_program_set_selects_nothing() {
        let cfg = SelectionConfig::default();
        assert!(select_transductive(&cfg, &ctx(), &[], &pages()).is_none());
        assert!(select_random(&[], 1).is_none());
        assert!(select_shortest(&[], 1).is_none());
    }

    #[test]
    fn singleton_set_is_returned() {
        let p = prog("sat(root, true) -> content");
        let cfg = SelectionConfig::default();
        let sel = select_transductive(&cfg, &ctx(), std::slice::from_ref(&p), &pages()).unwrap();
        assert_eq!(sel, p);
    }

    #[test]
    fn consensus_program_wins() {
        // Three programs extract the student names (consensus); one
        // extracts the page root (outlier). The outlier must not be chosen.
        let consensus =
            prog("sat(descendants(descendants(root, text(kw(0.80))), leaf), true) -> content");
        let consensus2 = prog("sat(descendants(root, elem), true) -> content");
        let consensus3 =
            prog("sat(descendants(descendants(root, text(kw(0.80))), true), true) -> content");
        let outlier = prog("singleton(root) -> content");
        let programs = vec![consensus.clone(), consensus2, consensus3, outlier.clone()];
        let cfg = SelectionConfig {
            ensemble_size: 400,
            seed: 7,
        };
        let sel = select_transductive(&cfg, &ctx(), &programs, &pages()).unwrap();
        assert_ne!(
            sel, outlier,
            "the outlier disagrees with the ensemble consensus"
        );
    }

    fn toks(s: &str) -> Vec<webqa_metrics::Token> {
        let mut t = webqa_metrics::tokenize(s);
        t.sort();
        t.dedup();
        t
    }

    #[test]
    fn identical_outputs_have_zero_loss() {
        let a = toks("jane doe bob smith");
        assert_eq!(hamming_sorted_tokens(&a, &a), 0);
    }

    #[test]
    fn empty_vs_empty_is_zero() {
        assert_eq!(hamming_sorted_tokens(&[], &[]), 0);
    }

    #[test]
    fn hamming_counts_symmetric_difference() {
        let a = toks("jane doe");
        let b = toks("jane smith");
        // symmetric difference {doe, smith} = 2
        assert_eq!(hamming_sorted_tokens(&a, &b), 2);
        assert_eq!(hamming_sorted_tokens(&b, &a), 2);
    }

    #[test]
    fn losses_order_outliers_consistently() {
        // A prediction close to the label loses less than a distant one.
        let label = toks("jane doe bob smith");
        let near = toks("jane doe bob");
        let far = toks("unrelated words entirely");
        assert!(hamming_sorted_tokens(&near, &label) < hamming_sorted_tokens(&far, &label));
    }

    #[test]
    fn hamming_loss_rejects_the_outlier() {
        let programs = vec![
            prog("sat(descendants(root, leaf), true) -> content"),
            prog("sat(descendants(root, elem), true) -> content"),
            prog("singleton(root) -> content"),
        ];
        let outlier = programs[2].clone();
        let cfg = SelectionConfig {
            ensemble_size: 600,
            seed: 13,
        };
        let sel = select_transductive(&cfg, &ctx(), &programs, &pages()).unwrap();
        assert_ne!(sel, outlier, "the Hamming loss chose the outlier");
    }

    #[test]
    fn transductive_is_deterministic_given_seed() {
        let programs = vec![
            prog("sat(root, true) -> content"),
            prog("singleton(root) -> content"),
            prog("sat(descendants(root, leaf), true) -> content"),
        ];
        let cfg = SelectionConfig {
            ensemble_size: 50,
            seed: 3,
        };
        let a = select_transductive(&cfg, &ctx(), &programs, &pages());
        let b = select_transductive(&cfg, &ctx(), &programs, &pages());
        assert_eq!(a, b);
    }

    #[test]
    fn shortest_picks_minimal_size() {
        let small = prog("singleton(root) -> content");
        let big = prog(
            "sat(descendants(descendants(root, text(kw(0.80))), leaf), true) -> \
             filter(split(content, ','), kw(0.50))",
        );
        let sel = select_shortest(&[big.clone(), small.clone()], 9).unwrap();
        assert_eq!(sel, small);
    }

    #[test]
    fn random_is_seed_deterministic() {
        let programs = vec![
            prog("singleton(root) -> content"),
            prog("sat(root, true) -> content"),
        ];
        assert_eq!(select_random(&programs, 5), select_random(&programs, 5));
    }

    #[test]
    fn random_varies_across_seeds() {
        let programs: Vec<Program> = vec![
            prog("singleton(root) -> content"),
            prog("sat(root, true) -> content"),
            prog("sat(root, answer) -> content"),
            prog("sat(descendants(root, leaf), true) -> content"),
        ];
        let picks: std::collections::HashSet<String> = (0..20)
            .map(|s| select_random(&programs, s).unwrap().to_string())
            .collect();
        assert!(picks.len() > 1, "20 seeds should not all agree");
    }
}
