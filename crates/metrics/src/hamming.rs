//! Hamming distance between program outputs.
//!
//! Section 7 of the paper: "we take our loss function to be the Hamming
//! distance between the sets of words extracted by each program",
//! `L(π; I, O) = Hamming(π(I), O)`. We realize this as the size of the
//! symmetric difference between the two token *sets* of each page, summed
//! over the pages.

use std::collections::HashSet;

use crate::tokens::{tokenize_all, Token};

/// Hamming distance between two token sets: `|A Δ B|`.
///
/// # Examples
///
/// ```
/// use webqa_metrics::{hamming_tokens, tokenize};
/// let a = tokenize("jane doe");
/// let b = tokenize("jane smith");
/// assert_eq!(hamming_tokens(&a, &b), 2); // doe, smith
/// ```
pub fn hamming_tokens(a: &[Token], b: &[Token]) -> usize {
    let sa: HashSet<&Token> = a.iter().collect();
    let sb: HashSet<&Token> = b.iter().collect();
    sa.symmetric_difference(&sb).count()
}

/// Hamming distance between two extraction outputs given as string sets.
pub fn hamming_strings<S1: AsRef<str>, S2: AsRef<str>>(a: &[S1], b: &[S2]) -> usize {
    hamming_tokens(&tokenize_all(a), &tokenize_all(b))
}

/// [`hamming_tokens`] for inputs that are already **sorted and
/// deduplicated**: a single merge pass, no hash sets. This is the kernel
/// the transductive selector runs per (ensemble member × page × candidate
/// program) — its inputs are sorted token sets by construction.
///
/// # Panics
///
/// Debug builds assert the sorted/dedup precondition.
pub fn hamming_sorted_tokens(a: &[Token], b: &[Token]) -> usize {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "a must be sorted+dedup");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "b must be sorted+dedup");
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    a.len() + b.len() - 2 * common
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::tokenize;

    #[test]
    fn identical_sets_have_zero_distance() {
        assert_eq!(hamming_strings(&["Jane Doe"], &["jane doe"]), 0);
    }

    #[test]
    fn disjoint_sets_sum_sizes() {
        assert_eq!(hamming_strings(&["a b"], &["c d"]), 4);
    }

    #[test]
    fn symmetric() {
        let a = tokenize("x y z");
        let b = tokenize("y z w q");
        assert_eq!(hamming_tokens(&a, &b), hamming_tokens(&b, &a));
        assert_eq!(hamming_tokens(&a, &b), 3);
    }

    #[test]
    fn set_semantics_ignore_duplicates() {
        let a = tokenize("a a a");
        let b = tokenize("a");
        assert_eq!(hamming_tokens(&a, &b), 0);
    }

    #[test]
    fn empty_vs_empty() {
        assert_eq!(hamming_strings::<&str, &str>(&[], &[]), 0);
    }

    #[test]
    fn sorted_kernel_matches_hash_kernel() {
        let cases = [
            ("", ""),
            ("jane doe", "jane smith"),
            ("a b c d", "c d e"),
            ("x", "x"),
            ("q w e", ""),
        ];
        for (sa, sb) in cases {
            let sort_dedup = |s: &str| {
                let mut t = tokenize(s);
                t.sort();
                t.dedup();
                t
            };
            let a = sort_dedup(sa);
            let b = sort_dedup(sb);
            assert_eq!(
                hamming_sorted_tokens(&a, &b),
                hamming_tokens(&a, &b),
                "{sa:?} vs {sb:?}"
            );
        }
    }
}
