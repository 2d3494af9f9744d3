//! Named-entity recognition.
//!
//! Stand-in for the spaCy tagger the paper uses for `hasEntity(z, l)`
//! (Section 7). Rule- and lexicon-based, and *deliberately imperfect* in
//! the way the paper calls out (Key Idea #2): by default the tagger does
//! **not** recognize computer-science conference acronyms as
//! organizations, which is exactly the failure mode that forces the
//! synthesizer to optimize F₁ instead of exact match.

use crate::lexicon;
use crate::text::{words, Word};

/// Entity types of the DSL's `hasEntity(z, l)` predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EntityKind {
    /// A person name.
    Person,
    /// An organization (university, company, insurance plan…).
    Organization,
    /// A calendar date (absolute or partial).
    Date,
    /// A clock time or time range.
    Time,
    /// A location (city, address).
    Location,
    /// A monetary amount.
    Money,
}

impl std::fmt::Display for EntityKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EntityKind::Person => "PERSON",
            EntityKind::Organization => "ORG",
            EntityKind::Date => "DATE",
            EntityKind::Time => "TIME",
            EntityKind::Location => "LOC",
            EntityKind::Money => "MONEY",
        })
    }
}

impl std::str::FromStr for EntityKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "PERSON" => Ok(EntityKind::Person),
            "ORG" | "ORGANIZATION" => Ok(EntityKind::Organization),
            "DATE" => Ok(EntityKind::Date),
            "TIME" => Ok(EntityKind::Time),
            "LOC" | "LOCATION" => Ok(EntityKind::Location),
            "MONEY" => Ok(EntityKind::Money),
            other => Err(format!("unknown entity kind: {other}")),
        }
    }
}

/// One recognized entity with byte offsets into the input text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entity {
    /// The entity type.
    pub kind: EntityKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// The surface text.
    pub text: String,
}

/// The configurable entity recognizer.
///
/// [`EntityRecognizer::pretrained`] mimics an off-the-shelf model: good at
/// people / dates / universities, blind to conference acronyms.
/// [`EntityRecognizer::with_conference_orgs`] closes that gap — used by
/// tests that need a "perfect" oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntityRecognizer {
    conference_orgs: bool,
}

impl EntityRecognizer {
    /// The default imperfect model (conference names are *not* ORGs).
    pub fn pretrained() -> Self {
        EntityRecognizer {
            conference_orgs: false,
        }
    }

    /// A variant that also tags conference acronyms as organizations.
    pub fn with_conference_orgs() -> Self {
        EntityRecognizer {
            conference_orgs: true,
        }
    }

    /// Recognizes all entities in `text`, left to right, longest match
    /// first, non-overlapping.
    pub fn entities(&self, text: &str) -> Vec<Entity> {
        let ws = words(text);
        let mut out = Vec::new();
        let mut i = 0;
        while i < ws.len() {
            if let Some((entity, consumed)) = self.match_at(text, &ws, i) {
                out.push(entity);
                i += consumed;
            } else {
                i += 1;
            }
        }
        out
    }

    /// Whether `text` contains an entity of the given kind — the DSL's
    /// `hasEntity(z, l)`.
    pub fn has_entity(&self, text: &str, kind: EntityKind) -> bool {
        self.entities(text).iter().any(|e| e.kind == kind)
    }

    /// The surface strings of all entities of `kind` in `text`, in order.
    #[cfg(test)]
    pub(crate) fn entity_strings(&self, text: &str, kind: EntityKind) -> Vec<String> {
        self.entities(text)
            .into_iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.text)
            .collect()
    }

    fn match_at(&self, text: &str, ws: &[Word<'_>], i: usize) -> Option<(Entity, usize)> {
        // Order matters: longer / more specific patterns first.
        self.match_money(text, ws, i)
            .or_else(|| self.match_date(text, ws, i))
            .or_else(|| self.match_time(text, ws, i))
            .or_else(|| self.match_org(text, ws, i))
            .or_else(|| self.match_person(text, ws, i))
            .or_else(|| self.match_location(text, ws, i))
    }

    // ----- people ---------------------------------------------------------

    fn match_person(&self, text: &str, ws: &[Word<'_>], i: usize) -> Option<(Entity, usize)> {
        let mut j = i;
        let mut has_title = false;
        // Optional title: "Dr." is tokenized as "Dr" (trailing period cut).
        if is_title_word(ws[j].text) {
            has_title = true;
            j += 1;
            if j >= ws.len() {
                return None;
            }
        }
        // Pattern: First Last [Last], where First is in the lexicon (or a
        // title preceded the name and both words are capitalized).
        let first_ok = lexicon::is_first_name(ws[j].text)
            || (has_title && ws[j].is_capitalized() && ws[j].is_alpha());
        if !first_ok || !ws[j].is_capitalized() {
            return None;
        }
        let mut k = j + 1;
        let mut matched_last = false;
        while k < ws.len() && k - j < 3 {
            let w = &ws[k];
            let lastish = lexicon::is_last_name(w.text)
                || (w.is_capitalized() && w.is_alpha() && (has_title || matched_last));
            if lastish && w.is_capitalized() {
                matched_last = true;
                k += 1;
            } else {
                break;
            }
        }
        if !matched_last {
            return None;
        }
        let start = ws[j].start; // titles excluded from the span
        let end = ws[k - 1].end;
        Some((
            Entity {
                kind: EntityKind::Person,
                start,
                end,
                text: text[start..end].to_string(),
            },
            k - i,
        ))
    }

    // ----- organizations --------------------------------------------------

    fn match_org(&self, text: &str, ws: &[Word<'_>], i: usize) -> Option<(Entity, usize)> {
        // "University of X"
        if ws[i].text == "University" && i + 2 < ws.len() && ws[i + 1].text == "of" {
            let mut k = i + 2;
            while k < ws.len() && ws[k].is_capitalized() && k - i < 5 {
                k += 1;
            }
            if k > i + 2 {
                return Some((self.org_entity(text, ws, i, k), k - i));
            }
        }
        // "<Capitalized>+ <OrgSuffix>" — "Rome University", "Cedar Medical
        // Center", "Lakeside Clinic", "Somewhere Institute of Technology".
        if ws[i].is_capitalized() && ws[i].is_alpha() && !lexicon::is_org_suffix(ws[i].text) {
            let mut k = i + 1;
            while k < ws.len() && ws[k].is_capitalized() && k - i < 5 {
                if is_org_head(ws[k].text) {
                    let mut end = k + 1;
                    // absorb "of Technology" style tails
                    if end + 1 < ws.len() && ws[end].text == "of" && ws[end + 1].is_capitalized() {
                        end += 2;
                    }
                    return Some((self.org_entity(text, ws, i, end), end - i));
                }
                k += 1;
            }
        }
        // Insurance plan names (multi-word lexicon lookup).
        if let Some(n) = phrase_at(&lexicon::INSURANCE_WORDS, ws, i) {
            return Some((self.org_entity(text, ws, i, i + n), n));
        }
        // Conference acronyms — only the non-default model sees these.
        if self.conference_orgs && lexicon::is_conference(ws[i].text) {
            return Some((self.org_entity(text, ws, i, i + 1), 1));
        }
        None
    }

    fn org_entity(&self, text: &str, ws: &[Word<'_>], i: usize, end: usize) -> Entity {
        let start = ws[i].start;
        let stop = ws[end - 1].end;
        Entity {
            kind: EntityKind::Organization,
            start,
            end: stop,
            text: text[start..stop].to_string(),
        }
    }

    // ----- dates ------------------------------------------------------------

    fn match_date(&self, text: &str, ws: &[Word<'_>], i: usize) -> Option<(Entity, usize)> {
        let w = &ws[i];
        // "Month Day, Year" / "Month Day" / "Month Year"
        if lexicon::is_month(w.text) {
            let mut k = i + 1;
            if k < ws.len() && is_day_number(ws[k].text) {
                k += 1;
            }
            if k < ws.len() && is_year(ws[k].text) {
                k += 1;
            }
            if k > i + 1 {
                return Some((span_entity(EntityKind::Date, text, ws, i, k), k - i));
            }
        }
        // "Spring 2020" / "Fall 2019"
        if matches!(w.text, "Spring" | "Summer" | "Fall" | "Autumn" | "Winter")
            && i + 1 < ws.len()
            && is_year(ws[i + 1].text)
        {
            return Some((span_entity(EntityKind::Date, text, ws, i, i + 2), 2));
        }
        // "12/01/2026" or "2026-01-12"
        if is_numeric_date(w.text) {
            return Some((span_entity(EntityKind::Date, text, ws, i, i + 1), 1));
        }
        // Bare year.
        if is_year(w.text) {
            return Some((span_entity(EntityKind::Date, text, ws, i, i + 1), 1));
        }
        // Weekday ("Friday")
        if lexicon::is_weekday(w.text) {
            return Some((span_entity(EntityKind::Date, text, ws, i, i + 1), 1));
        }
        None
    }

    // ----- times ------------------------------------------------------------

    fn match_time(&self, text: &str, ws: &[Word<'_>], i: usize) -> Option<(Entity, usize)> {
        let w = ws[i].text;
        let is_clock = looks_like_clock(w);
        let is_hour_ampm = w
            .strip_suffix("am")
            .or_else(|| w.strip_suffix("pm"))
            .or_else(|| w.strip_suffix("AM"))
            .or_else(|| w.strip_suffix("PM"))
            .is_some_and(|h| !h.is_empty() && h.chars().all(|c| c.is_ascii_digit()));
        if is_clock {
            // Absorb a following am/pm word.
            let mut k = i + 1;
            if k < ws.len() && matches!(ws[k].text.to_ascii_lowercase().as_str(), "am" | "pm") {
                k += 1;
            }
            return Some((span_entity(EntityKind::Time, text, ws, i, k), k - i));
        }
        if is_hour_ampm {
            return Some((span_entity(EntityKind::Time, text, ws, i, i + 1), 1));
        }
        None
    }

    // ----- locations ---------------------------------------------------------

    fn match_location(&self, text: &str, ws: &[Word<'_>], i: usize) -> Option<(Entity, usize)> {
        // Street addresses: "123 Main Street" / "45 Oak Ave, Suite 200".
        if ws[i].is_numeric() && i + 2 < ws.len() {
            let mut k = i + 1;
            while k < ws.len() && ws[k].is_capitalized() && k - i <= 3 {
                if is_street_word(ws[k].text) {
                    return Some((
                        span_entity(EntityKind::Location, text, ws, i, k + 1),
                        k + 1 - i,
                    ));
                }
                k += 1;
            }
        }
        // Known place names (possibly multi-word, e.g. "Ann Arbor").
        let n = phrase_at(&lexicon::PLACE_WORDS, ws, i)?;
        Some((span_entity(EntityKind::Location, text, ws, i, i + n), n))
    }

    // ----- money --------------------------------------------------------------

    fn match_money(&self, text: &str, ws: &[Word<'_>], i: usize) -> Option<(Entity, usize)> {
        let w = &ws[i];
        // "$50" tokenizes as "50" preceded by '$' in raw text.
        let has_dollar_prefix = w.start > 0 && text.as_bytes()[w.start - 1] == b'$';
        if has_dollar_prefix && w.text.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            let start = w.start - 1;
            return Some((
                Entity {
                    kind: EntityKind::Money,
                    start,
                    end: w.end,
                    text: text[start..w.end].to_string(),
                },
                1,
            ));
        }
        if w.is_numeric()
            && i + 1 < ws.len()
            && matches!(
                ws[i + 1].text.to_ascii_lowercase().as_str(),
                "dollars" | "usd"
            )
        {
            return Some((span_entity(EntityKind::Money, text, ws, i, i + 2), 2));
        }
        None
    }
}

impl Default for EntityRecognizer {
    fn default() -> Self {
        Self::pretrained()
    }
}

fn span_entity(kind: EntityKind, text: &str, ws: &[Word<'_>], i: usize, end: usize) -> Entity {
    let start = ws[i].start;
    let stop = ws[end - 1].end;
    Entity {
        kind,
        start,
        end: stop,
        text: text[start..stop].to_string(),
    }
}

/// The word count of the first of `phrases`, in list order, that the
/// words from `ws[i]` on spell exactly.
fn phrase_at(phrases: &[Vec<&str>], ws: &[Word<'_>], i: usize) -> Option<usize> {
    phrases.iter().find_map(|p| {
        let span = ws.get(i..i + p.len())?;
        span.iter()
            .zip(p)
            .all(|(w, p)| w.text == *p)
            .then_some(p.len())
    })
}

fn is_title_word(w: &str) -> bool {
    matches!(
        w,
        "Dr" | "Prof" | "Professor" | "Mr" | "Ms" | "Mrs" | "Dr." | "Prof."
    )
}

fn is_org_head(w: &str) -> bool {
    // "Medical"/"Health" are *not* heads so "Cedar Medical Center" extends
    // through to "Center".
    matches!(
        w,
        "University"
            | "Institute"
            | "College"
            | "Laboratory"
            | "Labs"
            | "Center"
            | "Centre"
            | "Academy"
            | "Polytechnic"
            | "Clinic"
            | "Hospital"
            | "Corporation"
            | "Inc"
            | "Company"
            | "Practice"
            | "Associates"
    )
}

fn is_street_word(w: &str) -> bool {
    matches!(
        w,
        "Street"
            | "St"
            | "Avenue"
            | "Ave"
            | "Road"
            | "Rd"
            | "Boulevard"
            | "Blvd"
            | "Drive"
            | "Dr"
            | "Lane"
            | "Ln"
            | "Way"
            | "Suite"
    )
}

fn is_year(w: &str) -> bool {
    if let Some(y) = w.strip_prefix('\'') {
        return y.len() == 2 && y.chars().all(|c| c.is_ascii_digit());
    }
    w.len() == 4 && w.chars().all(|c| c.is_ascii_digit()) && {
        let n: u32 = w.parse().unwrap_or(0);
        (1900..=2099).contains(&n)
    }
}

fn is_day_number(w: &str) -> bool {
    w.chars().all(|c| c.is_ascii_digit()) && matches!(w.parse::<u32>(), Ok(1..=31))
}

fn is_numeric_date(w: &str) -> bool {
    // 12/01/2026 tokenizes as three words ("12", "01", "2026") because '/'
    // is not word-internal — but 2026-01-12 stays whole via '-'.
    let mut parts = 0;
    w.split('-').all(|p| {
        parts += 1;
        is_digits(p)
    }) && parts == 3
}

/// Whether `w` is one or more ASCII digits.
fn is_digits(w: &str) -> bool {
    !w.is_empty() && w.bytes().all(|b| b.is_ascii_digit())
}

fn looks_like_clock(w: &str) -> bool {
    // "10:30" or "10:30-11:45"
    w.split('-').all(|part| {
        part.split_once(':')
            .is_some_and(|(h, m)| is_digits(h) && is_digits(m))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ner() -> EntityRecognizer {
        EntityRecognizer::pretrained()
    }

    fn kinds(text: &str) -> Vec<(EntityKind, String)> {
        ner()
            .entities(text)
            .into_iter()
            .map(|e| (e.kind, e.text))
            .collect()
    }

    #[test]
    fn person_names_from_lexicon() {
        let es = kinds("Advisees include Robert Smith and Mary Anderson.");
        assert!(es.contains(&(EntityKind::Person, "Robert Smith".into())));
        assert!(es.contains(&(EntityKind::Person, "Mary Anderson".into())));
    }

    #[test]
    fn titled_person_without_lexicon_first_name() {
        let es = kinds("Contact Dr. Quirine Zambesi for details.");
        assert!(es
            .iter()
            .any(|(k, t)| *k == EntityKind::Person && t == "Quirine Zambesi"));
    }

    #[test]
    fn lone_capitalized_word_is_not_person() {
        let es = kinds("Robert went home.");
        assert!(es.iter().all(|(k, _)| *k != EntityKind::Person));
    }

    #[test]
    fn universities_are_orgs() {
        let es = kinds("She is at Rome University and the University of Texas.");
        let orgs: Vec<&str> = es
            .iter()
            .filter(|(k, _)| *k == EntityKind::Organization)
            .map(|(_, t)| t.as_str())
            .collect();
        assert!(orgs.contains(&"Rome University"));
        assert!(orgs.iter().any(|o| o.starts_with("University of Texas")));
    }

    #[test]
    fn institute_of_technology() {
        let es = kinds("He joined Somewhere Institute of Technology last year.");
        assert!(es.iter().any(
            |(k, t)| *k == EntityKind::Organization && t == "Somewhere Institute of Technology"
        ));
    }

    #[test]
    fn pretrained_model_misses_conference_orgs() {
        // The paper's Key Idea #2 example: conference names are NOT
        // recognized as ORG by the default model…
        let es = kinds("Served on the PLDI committee.");
        assert!(es.iter().all(|(k, _)| *k != EntityKind::Organization));
        // …but the oracle variant sees them.
        let oracle = EntityRecognizer::with_conference_orgs();
        assert!(oracle.has_entity("Served on the PLDI committee.", EntityKind::Organization));
    }

    #[test]
    fn insurance_plans_are_orgs() {
        let es = kinds("We accept Aetna and Blue Cross Blue Shield plans.");
        let orgs: Vec<&str> = es
            .iter()
            .filter(|(k, _)| *k == EntityKind::Organization)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(orgs, ["Aetna", "Blue Cross Blue Shield"]);
    }

    #[test]
    fn dates() {
        let es = kinds("Submissions due January 15, 2026 or Fall 2025.");
        let dates: Vec<&str> = es
            .iter()
            .filter(|(k, _)| *k == EntityKind::Date)
            .map(|(_, t)| t.as_str())
            .collect();
        assert!(dates.contains(&"January 15, 2026"));
        assert!(dates.contains(&"Fall 2025"));
    }

    #[test]
    fn iso_date_and_bare_year() {
        let es = kinds("Deadline 2026-01-12, camera ready 2026.");
        let dates: Vec<&str> = es
            .iter()
            .filter(|(k, _)| *k == EntityKind::Date)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(dates, ["2026-01-12", "2026"]);
    }

    #[test]
    fn times() {
        let es = kinds("Lectures MWF 10:00-11:15 and Friday 3pm.");
        let times: Vec<&str> = es
            .iter()
            .filter(|(k, _)| *k == EntityKind::Time)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(times, ["10:00-11:15", "3pm"]);
    }

    #[test]
    fn locations() {
        let es = kinds("Our office is at 123 Main Street in Austin.");
        let locs: Vec<&str> = es
            .iter()
            .filter(|(k, _)| *k == EntityKind::Location)
            .map(|(_, t)| t.as_str())
            .collect();
        assert!(locs.contains(&"123 Main Street"));
        assert!(locs.contains(&"Austin"));
    }

    #[test]
    fn multiword_place() {
        let es = kinds("She moved to Ann Arbor.");
        assert!(es
            .iter()
            .any(|(k, t)| *k == EntityKind::Location && t == "Ann Arbor"));
    }

    #[test]
    fn multiword_lexicon_shapes_under_both_models() {
        use EntityKind::{Date, Location, Organization};
        let cases: [(&str, &[(EntityKind, &str)]); 10] = [
            (
                "Moved to Salt Lake City in 2019.",
                &[(Location, "Salt Lake City"), (Date, "2019")],
            ),
            ("Salt Lake is a lake.", &[]),
            (
                "We take Blue Cross Blue Shield and Oscar Health.",
                &[
                    (Organization, "Blue Cross Blue Shield"),
                    (Organization, "Oscar Health"),
                ],
            ),
            ("We take Blue Cross Blue", &[]),
            ("She moved to Ann Arbor", &[(Location, "Ann Arbor")]),
            (
                "Ann Arbor University",
                &[(Organization, "Ann Arbor University")],
            ),
            (
                "He joined Somewhere Institute of Technology.",
                &[(Organization, "Somewhere Institute of Technology")],
            ),
            ("Institute of Technology", &[]),
            (
                "Offices in New Haven, Palo Alto and San Diego.",
                &[
                    (Location, "New Haven"),
                    (Location, "Palo Alto"),
                    (Location, "San Diego"),
                ],
            ),
            ("Salt Lake City", &[(Location, "Salt Lake City")]),
        ];
        for ner in [
            EntityRecognizer::pretrained(),
            EntityRecognizer::with_conference_orgs(),
        ] {
            for (text, want) in cases {
                let got: Vec<(EntityKind, &str)> = ner
                    .entities(text)
                    .iter()
                    .map(|e| (e.kind, &text[e.start..e.end]))
                    .collect();
                assert_eq!(got, want, "{text:?} under {ner:?}");
            }
        }
    }

    #[test]
    fn numeric_dates_and_clocks() {
        let es =
            kinds("On 2026-01-12 and 2026-01 or 1-2-3-4, from 9:30-10:45 to 10:3:0 or 9-10:30.");
        let got: Vec<(EntityKind, &str)> = es.iter().map(|(k, t)| (*k, t.as_str())).collect();
        assert_eq!(
            got,
            [
                (EntityKind::Date, "2026-01-12"),
                (EntityKind::Time, "9:30-10:45")
            ]
        );
    }

    #[test]
    fn money() {
        let es = kinds("The copay is $25 or 40 dollars without insurance.");
        let money: Vec<&str> = es
            .iter()
            .filter(|(k, _)| *k == EntityKind::Money)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(money, ["$25", "40 dollars"]);
    }

    #[test]
    fn has_entity_predicate() {
        assert!(ner().has_entity("Jane Doe teaches.", EntityKind::Person));
        assert!(!ner().has_entity("No names here.", EntityKind::Person));
    }

    #[test]
    fn entity_strings_in_order() {
        let names = ner().entity_strings("Jane Doe, then Robert Smith.", EntityKind::Person);
        assert_eq!(names, ["Jane Doe", "Robert Smith"]);
    }

    #[test]
    fn offsets_slice_back_to_text() {
        let text = "Meet Dr. Jane Doe at 123 Main Street, Austin on January 5, 2026.";
        for e in ner().entities(text) {
            assert_eq!(&text[e.start..e.end], e.text);
        }
    }

    #[test]
    fn empty_text_no_entities() {
        assert!(ner().entities("").is_empty());
    }
}
