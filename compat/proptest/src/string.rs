//! Regex-subset string generation backing `"..."` strategies.
//!
//! Supported syntax (the subset this repo's tests use, plus a little slack):
//! literal characters, `.`, `\PC` (any printable, i.e. non-control,
//! character), character classes `[...]` / `[^...]` with ranges and `\n`,
//! `\t`, `\r`, `\\`, `\]`-style escapes, groups `(...)`, alternation `|`,
//! and the quantifiers `{n}`, `{n,m}`, `?`, `*`, `+`.

use crate::test_runner::TestRng;

/// A compiled pattern.
#[derive(Debug, Clone)]
pub struct Pattern {
    root: Ast,
}

#[derive(Debug, Clone)]
enum Ast {
    /// Choose one branch uniformly.
    Alt(Vec<Ast>),
    /// Emit each part in order.
    Seq(Vec<Ast>),
    /// Repeat the inner pattern uniformly between `min` and `max` times.
    Rep(Box<Ast>, u32, u32),
    /// A literal character.
    Lit(char),
    /// A character class: inclusive ranges, possibly negated.
    Class(Vec<(char, char)>, bool),
    /// `.` / `\PC`: any printable character.
    Printable,
}

/// Pool for `Printable` and negated-class sampling: mostly ASCII printable,
/// with a few multi-byte characters so char-boundary bugs still surface.
const EXOTIC: &[char] = &['é', 'ü', 'ß', 'λ', '→', '中', '文', '№', '€', '…'];

impl Pattern {
    /// Parses `pattern`, panicking on syntax outside the supported subset
    /// (a programming error in the test, not a test failure).
    pub fn compile(pattern: &str) -> Pattern {
        let chars: Vec<char> = pattern.chars().collect();
        let mut pos = 0;
        let root = parse_alt(&chars, &mut pos);
        assert!(
            pos == chars.len(),
            "unsupported regex {pattern:?}: trailing {:?}",
            &chars[pos..]
        );
        Pattern { root }
    }

    /// Generates one string matching the pattern.
    pub fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        emit(&self.root, rng, &mut out);
        out
    }
}

fn emit(ast: &Ast, rng: &mut TestRng, out: &mut String) {
    match ast {
        Ast::Alt(branches) => emit(&branches[rng.below(branches.len())], rng, out),
        Ast::Seq(parts) => {
            for p in parts {
                emit(p, rng, out);
            }
        }
        Ast::Rep(inner, min, max) => {
            let n = rng.in_range_u32(*min, *max);
            for _ in 0..n {
                emit(inner, rng, out);
            }
        }
        Ast::Lit(c) => out.push(*c),
        Ast::Printable => out.push(printable(rng)),
        Ast::Class(ranges, negated) => out.push(class_char(ranges, *negated, rng)),
    }
}

fn printable(rng: &mut TestRng) -> char {
    if rng.below(10) == 0 {
        EXOTIC[rng.below(EXOTIC.len())]
    } else {
        char::from_u32(rng.in_range_u32(0x20, 0x7E)).unwrap()
    }
}

fn class_char(ranges: &[(char, char)], negated: bool, rng: &mut TestRng) -> char {
    if negated {
        // Rejection-sample from the printable pool.
        for _ in 0..256 {
            let c = printable(rng);
            if !ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi) {
                return c;
            }
        }
        panic!("negated class rejects the whole printable pool");
    }
    let total: u32 = ranges
        .iter()
        .map(|&(lo, hi)| hi as u32 - lo as u32 + 1)
        .sum();
    let mut k = rng.in_range_u32(0, total - 1);
    for &(lo, hi) in ranges {
        let span = hi as u32 - lo as u32 + 1;
        if k < span {
            return char::from_u32(lo as u32 + k).expect("class range stays in scalar values");
        }
        k -= span;
    }
    unreachable!()
}

fn parse_alt(chars: &[char], pos: &mut usize) -> Ast {
    let mut branches = vec![parse_seq(chars, pos)];
    while *pos < chars.len() && chars[*pos] == '|' {
        *pos += 1;
        branches.push(parse_seq(chars, pos));
    }
    if branches.len() == 1 {
        branches.pop().unwrap()
    } else {
        Ast::Alt(branches)
    }
}

fn parse_seq(chars: &[char], pos: &mut usize) -> Ast {
    let mut parts = Vec::new();
    while *pos < chars.len() && chars[*pos] != '|' && chars[*pos] != ')' {
        let atom = parse_atom(chars, pos);
        parts.push(parse_quantifier(atom, chars, pos));
    }
    Ast::Seq(parts)
}

fn parse_atom(chars: &[char], pos: &mut usize) -> Ast {
    match chars[*pos] {
        '(' => {
            *pos += 1;
            let inner = parse_alt(chars, pos);
            assert!(
                *pos < chars.len() && chars[*pos] == ')',
                "unsupported regex: unclosed group"
            );
            *pos += 1;
            inner
        }
        '[' => parse_class(chars, pos),
        '.' => {
            *pos += 1;
            Ast::Printable
        }
        '\\' => {
            *pos += 1;
            let c = chars[*pos];
            *pos += 1;
            match c {
                // \PC (printable / non-control); also accept \P{C}.
                'P' => {
                    if chars.get(*pos) == Some(&'{') {
                        while chars[*pos] != '}' {
                            *pos += 1;
                        }
                        *pos += 1;
                    } else {
                        *pos += 1; // the category letter, e.g. the C in \PC
                    }
                    Ast::Printable
                }
                'n' => Ast::Lit('\n'),
                't' => Ast::Lit('\t'),
                'r' => Ast::Lit('\r'),
                other => Ast::Lit(other),
            }
        }
        c => {
            *pos += 1;
            Ast::Lit(c)
        }
    }
}

fn parse_class(chars: &[char], pos: &mut usize) -> Ast {
    *pos += 1; // consume '['
    let negated = chars[*pos] == '^';
    if negated {
        *pos += 1;
    }
    let mut ranges: Vec<(char, char)> = Vec::new();
    while chars[*pos] != ']' {
        let lo = class_member(chars, pos);
        if chars[*pos] == '-' && chars[*pos + 1] != ']' {
            *pos += 1;
            let hi = class_member(chars, pos);
            assert!(lo <= hi, "unsupported regex: inverted class range");
            ranges.push((lo, hi));
        } else {
            ranges.push((lo, lo));
        }
    }
    *pos += 1; // consume ']'
    assert!(!ranges.is_empty(), "unsupported regex: empty class");
    Ast::Class(ranges, negated)
}

fn class_member(chars: &[char], pos: &mut usize) -> char {
    let c = chars[*pos];
    *pos += 1;
    if c != '\\' {
        return c;
    }
    let e = chars[*pos];
    *pos += 1;
    match e {
        'n' => '\n',
        't' => '\t',
        'r' => '\r',
        other => other,
    }
}

fn parse_quantifier(atom: Ast, chars: &[char], pos: &mut usize) -> Ast {
    if *pos >= chars.len() {
        return atom;
    }
    match chars[*pos] {
        '?' => {
            *pos += 1;
            Ast::Rep(Box::new(atom), 0, 1)
        }
        '*' => {
            *pos += 1;
            Ast::Rep(Box::new(atom), 0, 8)
        }
        '+' => {
            *pos += 1;
            Ast::Rep(Box::new(atom), 1, 8)
        }
        '{' => {
            *pos += 1;
            let mut min = String::new();
            while chars[*pos].is_ascii_digit() {
                min.push(chars[*pos]);
                *pos += 1;
            }
            let min: u32 = min.parse().expect("quantifier lower bound");
            let max = if chars[*pos] == ',' {
                *pos += 1;
                let mut max = String::new();
                while chars[*pos].is_ascii_digit() {
                    max.push(chars[*pos]);
                    *pos += 1;
                }
                max.parse().expect("quantifier upper bound")
            } else {
                min
            };
            assert!(chars[*pos] == '}', "unsupported regex: bad quantifier");
            *pos += 1;
            Ast::Rep(Box::new(atom), min, max)
        }
        _ => atom,
    }
}

#[cfg(test)]
mod tests {
    use super::Pattern;
    use crate::test_runner::TestRng;

    fn samples(pattern: &str, n: usize) -> Vec<String> {
        let compiled = Pattern::compile(pattern);
        let mut rng = TestRng::deterministic(pattern);
        (0..n).map(|_| compiled.generate(&mut rng)).collect()
    }

    fn char_counts(pattern: &str) -> Vec<usize> {
        samples(pattern, 300)
            .iter()
            .map(|s| s.chars().count())
            .collect()
    }

    #[test]
    fn literals_are_copied_and_escapes_decoded() {
        for s in samples(r"ab\.c\n\t\r\\", 3) {
            assert_eq!(s, "ab.c\n\t\r\\");
        }
    }

    #[test]
    fn quantifiers_bound_the_repetition_count() {
        assert!(char_counts("a{3}").iter().all(|&n| n == 3));
        let ranged = char_counts("a{2,4}");
        assert!(ranged.iter().all(|&n| (2..=4).contains(&n)));
        assert!(ranged.contains(&2) && ranged.contains(&4));
        let optional = char_counts("a?");
        assert!(optional.contains(&0) && optional.contains(&1));
        assert!(optional.iter().all(|&n| n <= 1));
        assert!(char_counts("a*").iter().all(|&n| n <= 8));
        let plus = char_counts("a+");
        assert!(plus.iter().all(|&n| (1..=8).contains(&n)));
    }

    #[test]
    fn classes_draw_from_their_ranges_and_negations_avoid_them() {
        for s in samples("[a-c0-1_]{1,6}", 300) {
            assert!(
                s.chars().all(|c| matches!(c, 'a'..='c' | '0' | '1' | '_')),
                "{s:?}"
            );
        }
        for s in samples(r"[\n\]x-]", 100) {
            assert!(matches!(s.as_str(), "\n" | "]" | "x" | "-"), "{s:?}");
        }
        for s in samples("[^a-z]{8}", 300) {
            assert!(
                s.chars()
                    .all(|c| !c.is_ascii_lowercase() && !c.is_control()),
                "{s:?}"
            );
        }
    }

    #[test]
    fn alternation_picks_each_branch_of_a_group() {
        let got = samples("x(ab|cd|)y", 300);
        for want in ["xaby", "xcdy", "xy"] {
            assert!(got.iter().any(|s| s == want), "{want} never generated");
        }
        assert!(got
            .iter()
            .all(|s| ["xaby", "xcdy", "xy"].contains(&s.as_str())));
    }

    #[test]
    fn printable_atoms_never_emit_control_characters() {
        for pattern in [".{0,16}", r"\PC{0,16}", r"\P{C}{0,16}"] {
            let got = samples(pattern, 300);
            assert!(
                got.iter().all(|s| !s.chars().any(char::is_control)),
                "{pattern}"
            );
            // The pool includes multi-byte characters.
            assert!(got.iter().any(|s| !s.is_ascii()), "{pattern}");
        }
    }

    #[test]
    #[should_panic(expected = "unclosed group")]
    fn an_unclosed_group_is_refused() {
        Pattern::compile("(ab");
    }

    #[test]
    #[should_panic(expected = "trailing")]
    fn an_unmatched_close_paren_is_refused() {
        Pattern::compile("ab)");
    }
}
