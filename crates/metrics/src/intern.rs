//! Token interning: string tokens → dense `u32` ids, plus the id-based
//! multiset-overlap kernels the synthesizer's scoring hot path runs on.
//!
//! [`Counts::from_bags`](crate::Counts::from_bags) hashes owned token
//! strings and rebuilds a `HashMap` per call — fine for reporting, far
//! too slow for an enumerative search that scores hundreds of thousands
//! of candidates per task. The fast path interns every token once
//! ([`TokenInterner`]), represents gold bags as counts behind a dense
//! id → slot table ([`IdBag`]), and computes multiset overlap with a
//! reusable scratch buffer ([`BagOverlap`]) — no hashing, no search and
//! no allocation per score.
//!
//! Tokenization parity is structural: [`TokenInterner::tokenize_ids`]
//! runs the *same* boundary scanner as [`tokenize`](crate::tokenize), so
//! the two can only differ if interning itself is wrong (covered by
//! tests and by the synthesizer's reference-kernel parity suite).

use std::collections::HashMap;

use crate::tokens::{for_each_token_range, Token};

/// Interns token strings to dense `u32` ids.
///
/// # Examples
///
/// ```
/// use webqa_metrics::{tokenize, TokenInterner};
/// let mut interner = TokenInterner::new();
/// let mut ids = Vec::new();
/// interner.tokenize_ids("Jane Doe", &mut ids);
/// interner.tokenize_ids("doe, jane!", &mut ids);
/// assert_eq!(ids, vec![0, 1, 1, 0]);
/// // Same ids as interning the Token values produced by `tokenize`.
/// let toks = tokenize("JANE doe");
/// let ids: Vec<u32> = toks.iter().map(|t| interner.intern(t)).collect();
/// assert_eq!(ids, vec![0, 1]);
/// ```
#[derive(Debug, Default)]
pub struct TokenInterner {
    map: HashMap<String, u32>,
    chars: Vec<char>,
    scratch: String,
}

impl TokenInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct tokens interned so far.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }

    /// Interns one already-canonical token (as produced by
    /// [`tokenize`](crate::tokenize)).
    pub fn intern(&mut self, token: &Token) -> u32 {
        if let Some(&id) = self.map.get(token.as_str()) {
            return id;
        }
        let id = self.map.len() as u32;
        self.map.insert(token.as_str().to_string(), id);
        id
    }

    /// Tokenizes `text` with the scoring tokenizer and appends the
    /// interned id of each token to `out`, in order. Allocation-free for
    /// ASCII text whose tokens are already interned, once `out` has room.
    pub fn tokenize_ids(&mut self, text: &str, out: &mut Vec<u32>) {
        self.chars.clear();
        self.chars.extend(text.chars());
        // `for_each_token_range` borrows the scratch chars; move them out
        // to appease the borrow checker, then restore.
        let chars = std::mem::take(&mut self.chars);
        for_each_token_range(&chars, |range| {
            let raw = &chars[range];
            self.scratch.clear();
            if raw.iter().all(char::is_ascii) {
                self.scratch
                    .extend(raw.iter().map(|c| c.to_ascii_lowercase()));
            } else {
                // Non-ASCII: defer to str::to_lowercase for exact parity
                // with `tokenize` (it handles multi-char lowerings and the
                // final-sigma rule).
                let s: String = raw.iter().collect();
                self.scratch.push_str(&s.to_lowercase());
            }
            let id = match self.map.get(self.scratch.as_str()) {
                Some(&id) => id,
                None => {
                    let id = self.map.len() as u32;
                    self.map.insert(self.scratch.clone(), id);
                    id
                }
            };
            out.push(id);
        });
        self.chars = chars;
    }
}

/// A token multiset: a count per distinct id, found through a dense
/// id → slot table, so matching a token against the bag is one array
/// read — the gold-bag representation the overlap kernel matches
/// against.
#[derive(Debug, Clone, Default)]
pub struct IdBag {
    /// Multiplicity of each distinct id, in first-occurrence order.
    counts: Vec<u32>,
    total: usize,
    /// `slot[id]`: the index of `id` in `counts`, [`ABSENT`] when the
    /// bag lacks it; ids past the end are absent too.
    slot: Vec<u32>,
}

/// An id's slot in an [`IdBag`] that does not hold it.
const ABSENT: u32 = u32::MAX;

impl IdBag {
    /// Number of distinct tokens.
    #[cfg(test)]
    fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Builds a bag from an id list.
    pub fn from_ids(ids: Vec<u32>) -> Self {
        let mut out = IdBag {
            counts: Vec::new(),
            total: ids.len(),
            slot: vec![ABSENT; ids.iter().max().map_or(0, |&m| m as usize + 1)],
        };
        for id in ids {
            match out.slot[id as usize] {
                ABSENT => {
                    out.slot[id as usize] =
                        u32::try_from(out.counts.len()).expect("distinct ids fit in u32");
                    out.counts.push(1);
                }
                i => out.counts[i as usize] += 1,
            }
        }
        out
    }

    /// Total number of tokens in the bag (with multiplicity).
    pub fn total(&self) -> usize {
        self.total
    }
}

/// Reusable scratch state for multiset-overlap runs against an [`IdBag`].
///
/// # Examples
///
/// ```
/// use webqa_metrics::{BagOverlap, IdBag};
/// let gold = IdBag::from_ids(vec![3, 7, 7]);
/// let mut ov = BagOverlap::default();
/// ov.begin(&gold);
/// assert!(ov.consume(&gold, 7));
/// assert!(ov.consume(&gold, 7));
/// assert!(!ov.consume(&gold, 7)); // multiplicity exhausted
/// assert!(!ov.consume(&gold, 9)); // not in the bag
/// ```
#[derive(Debug, Default)]
pub struct BagOverlap {
    remaining: Vec<u32>,
}

impl BagOverlap {
    /// Starts a new overlap run against `bag`: all multiplicities reset.
    pub fn begin(&mut self, bag: &IdBag) {
        self.remaining.clear();
        self.remaining.extend_from_slice(&bag.counts);
    }

    /// Consumes one occurrence of `id` from the bag if any multiplicity
    /// remains; returns whether it matched. The total of `true` returns
    /// between `begin` calls is exactly the multiset-intersection size of
    /// the consumed ids with the bag.
    pub fn consume(&mut self, bag: &IdBag, id: u32) -> bool {
        match bag.slot.get(id as usize) {
            Some(&i) if i != ABSENT && self.remaining[i as usize] > 0 => {
                self.remaining[i as usize] -= 1;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::Counts;
    use crate::tokens::tokenize;

    /// The id kernel must agree with `Counts::from_bags` on arbitrary text.
    fn counts_via_ids(pred_text: &str, gold_text: &str) -> Counts {
        let mut interner = TokenInterner::new();
        let gold_ids: Vec<u32> = tokenize(gold_text)
            .iter()
            .map(|t| interner.intern(t))
            .collect();
        let gold = IdBag::from_ids(gold_ids);
        let mut pred = Vec::new();
        interner.tokenize_ids(pred_text, &mut pred);
        let mut ov = BagOverlap::default();
        ov.begin(&gold);
        let matched = pred.iter().filter(|&&id| ov.consume(&gold, id)).count();
        Counts {
            matched,
            predicted: pred.len(),
            gold: gold.total(),
        }
    }

    #[test]
    fn id_kernel_matches_string_kernel() {
        for (pred, gold) in [
            ("Jane Doe", "jane doe"),
            ("a a b", "a b b"),
            ("PLDI '21 (PC), POPL '20", "pldi '21 pc"),
            ("", "x y"),
            ("x y", ""),
            ("Müller café 3.5 10:30", "müller 10:30"),
        ] {
            let fast = counts_via_ids(pred, gold);
            let slow = Counts::from_bags(&tokenize(pred), &tokenize(gold));
            assert_eq!(fast, slow, "pred={pred:?} gold={gold:?}");
        }
    }

    #[test]
    fn tokenize_ids_matches_tokenize_boundaries() {
        let mut interner = TokenInterner::new();
        for text in [
            "PLDI '21 (PC), POPL '20",
            "double-blind review at 10:30",
            "O'Brien's café — naïve Σ ΣΣ",
            "  (),;:!?  ",
            "",
        ] {
            let mut ids = Vec::new();
            interner.tokenize_ids(text, &mut ids);
            let toks = tokenize(text);
            assert_eq!(ids.len(), toks.len(), "{text:?}");
            let expect: Vec<u32> = toks.iter().map(|t| interner.intern(t)).collect();
            assert_eq!(ids, expect, "{text:?}");
        }
    }

    #[test]
    fn interner_is_stable_across_calls() {
        let mut interner = TokenInterner::new();
        let mut ids = Vec::new();
        interner.tokenize_ids("students", &mut ids);
        interner.tokenize_ids("STUDENTS students", &mut ids);
        assert_eq!(ids, [ids[0]; 3]);
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn idbag_groups_and_totals() {
        let bag = IdBag::from_ids(vec![5, 1, 5, 5, 2]);
        assert_eq!(bag.total(), 5);
        assert_eq!(bag.distinct(), 3);
        // Ids between, below and past the bag's ids are absent; each
        // present id matches exactly its multiplicity.
        let mut ov = BagOverlap::default();
        ov.begin(&bag);
        let consumed: Vec<bool> = [3, 0, 9, 5, 5, 5, 5, 1, 1]
            .iter()
            .map(|&id| ov.consume(&bag, id))
            .collect();
        assert_eq!(
            consumed,
            [false, false, false, true, true, true, false, true, false]
        );
    }

    #[test]
    fn empty_bag_consumes_nothing() {
        let bag = IdBag::from_ids(Vec::new());
        let mut ov = BagOverlap::default();
        ov.begin(&bag);
        assert!(!ov.consume(&bag, 0));
        assert_eq!(bag.total(), 0);
    }
}
