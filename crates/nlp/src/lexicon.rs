//! Shared word lists ("model vocabulary").
//!
//! A pretrained NER model carries its training vocabulary inside its
//! weights; our simulated tagger carries these lists instead. The corpus
//! generator draws from the same pools, mirroring how a real model's
//! vocabulary overlaps the evaluation distribution — while the *rules*
//! in [`EntityRecognizer`](crate::EntityRecognizer) remain deliberately
//! imperfect (Key Idea #2 of the
//! paper relies on imperfect neural primitives).

use std::sync::LazyLock;

/// Common given names recognized (and generated) as person names.
pub const FIRST_NAMES: &[&str] = &[
    "James",
    "Mary",
    "Robert",
    "Patricia",
    "John",
    "Jennifer",
    "Michael",
    "Linda",
    "David",
    "Elizabeth",
    "William",
    "Barbara",
    "Richard",
    "Susan",
    "Joseph",
    "Jessica",
    "Thomas",
    "Sarah",
    "Charles",
    "Karen",
    "Christopher",
    "Nancy",
    "Daniel",
    "Lisa",
    "Matthew",
    "Betty",
    "Anthony",
    "Margaret",
    "Mark",
    "Sandra",
    "Donald",
    "Ashley",
    "Steven",
    "Kimberly",
    "Paul",
    "Emily",
    "Andrew",
    "Donna",
    "Joshua",
    "Michelle",
    "Kenneth",
    "Dorothy",
    "Kevin",
    "Carol",
    "Brian",
    "Amanda",
    "George",
    "Melissa",
    "Edward",
    "Deborah",
    "Ronald",
    "Stephanie",
    "Timothy",
    "Rebecca",
    "Jason",
    "Sharon",
    "Jeffrey",
    "Laura",
    "Ryan",
    "Cynthia",
    "Jacob",
    "Kathleen",
    "Gary",
    "Amy",
    "Nicholas",
    "Angela",
    "Eric",
    "Shirley",
    "Jonathan",
    "Anna",
    "Stephen",
    "Brenda",
    "Larry",
    "Pamela",
    "Justin",
    "Emma",
    "Scott",
    "Nicole",
    "Brandon",
    "Helen",
    "Benjamin",
    "Samantha",
    "Samuel",
    "Katherine",
    "Gregory",
    "Christine",
    "Frank",
    "Debra",
    "Alexander",
    "Rachel",
    "Raymond",
    "Chen",
    "Wei",
    "Xinyu",
    "Priya",
    "Ahmed",
    "Yuki",
    "Elena",
    "Marco",
    "Ingrid",
    "Omar",
    "Ana",
    "Jane",
    "Aaron",
    "Isil",
    "Osbert",
    "Grace",
    "Felix",
    "Nora",
    "Victor",
    "Iris",
];

/// Common family names.
pub const LAST_NAMES: &[&str] = &[
    "Smith",
    "Johnson",
    "Williams",
    "Brown",
    "Jones",
    "Garcia",
    "Miller",
    "Davis",
    "Rodriguez",
    "Martinez",
    "Hernandez",
    "Lopez",
    "Gonzalez",
    "Wilson",
    "Anderson",
    "Thomas",
    "Taylor",
    "Moore",
    "Jackson",
    "Martin",
    "Lee",
    "Perez",
    "Thompson",
    "White",
    "Harris",
    "Sanchez",
    "Clark",
    "Ramirez",
    "Lewis",
    "Robinson",
    "Walker",
    "Young",
    "Allen",
    "King",
    "Wright",
    "Scott",
    "Torres",
    "Nguyen",
    "Hill",
    "Flores",
    "Green",
    "Adams",
    "Nelson",
    "Baker",
    "Hall",
    "Rivera",
    "Campbell",
    "Mitchell",
    "Carter",
    "Roberts",
    "Chen",
    "Wang",
    "Kumar",
    "Patel",
    "Kim",
    "Park",
    "Singh",
    "Gupta",
    "Tanaka",
    "Sato",
    "Müller",
    "Schmidt",
    "Rossi",
    "Ferrari",
    "Novak",
    "Kowalski",
    "Doe",
    "Durrett",
    "Bastani",
    "Dillig",
    "Lamoreaux",
    "Okafor",
    "Haddad",
    "Lindqvist",
    "Petrov",
    "Silva",
    "Costa",
    "Moreau",
    "Dubois",
    "Fischer",
];

/// Place names used for universities, clinic locations, and addresses.
pub const PLACES: &[&str] = &[
    "Austin",
    "Boston",
    "Chicago",
    "Denver",
    "Houston",
    "Seattle",
    "Portland",
    "Atlanta",
    "Phoenix",
    "Dallas",
    "Madison",
    "Berkeley",
    "Pasadena",
    "Princeton",
    "Cambridge",
    "Ithaca",
    "Ann Arbor",
    "Pittsburgh",
    "Philadelphia",
    "Baltimore",
    "Nashville",
    "Columbus",
    "Minneapolis",
    "Salt Lake City",
    "San Diego",
    "San Jose",
    "Riverside",
    "Evanston",
    "Providence",
    "New Haven",
    "Palo Alto",
    "Stanford",
    "Durham",
    "Raleigh",
    "Tucson",
    "Albany",
    "Rochester",
    "Syracuse",
    "Boulder",
    "Eugene",
];

/// University name suffixes/patterns: `"{place} University"`,
/// `"University of {place}"`, `"{place} Institute of Technology"`,
/// `"{place} College"`.
pub(crate) const ORG_SUFFIXES: &[&str] = &[
    "University",
    "Institute",
    "College",
    "Laboratory",
    "Labs",
    "Center",
    "Centre",
    "Academy",
    "Institute of Technology",
    "Polytechnic",
    "School",
];

/// Computer-science conference acronyms.
///
/// The paper's Key Idea #2 observes that a pretrained NER model may *fail*
/// to recognize these as organizations; our tagger reproduces that gap (see
/// `ner::EntityRecognizer::conservative`).
pub const CONFERENCES: &[&str] = &[
    "PLDI", "POPL", "OOPSLA", "CAV", "ICSE", "FSE", "ASPLOS", "ISCA", "SOSP", "OSDI", "NSDI",
    "ATC", "EuroSys", "CGO", "CC", "ECOOP", "ISSTA", "TACAS", "VMCAI", "LICS", "ICFP", "NeurIPS",
    "ICML", "ICLR", "ACL", "EMNLP", "NAACL", "AAAI", "IJCAI", "KDD", "SIGMOD", "VLDB", "ICDE",
    "WWW", "CHI", "UIST", "CCS", "SP", "SEC",
];

/// Roles appearing in professional-service lists.
pub const SERVICE_ROLES: &[&str] = &[
    "PC",
    "Program Committee",
    "SRC",
    "AEC",
    "ERC",
    "Workshop Chair",
    "Session Chair",
    "Publicity Chair",
    "Artifact Evaluation Committee",
    "External Review Committee",
    "Student Research Competition",
];

/// Health-insurance plan names (tagged as organizations).
pub const INSURANCES: &[&str] = &[
    "Aetna",
    "Cigna",
    "Humana",
    "UnitedHealthcare",
    "Blue Cross Blue Shield",
    "Kaiser",
    "Anthem",
    "Medicare",
    "Medicaid",
    "Tricare",
    "Oscar Health",
    "Molina Healthcare",
    "Ambetter",
    "WellCare",
    "Centene",
];

/// Medical specialties and services offered by clinics.
pub const MEDICAL_SERVICES: &[&str] = &[
    "primary care",
    "pediatrics",
    "cardiology",
    "dermatology",
    "orthopedics",
    "physical therapy",
    "immunizations",
    "annual checkups",
    "urgent care",
    "womens health",
    "behavioral health",
    "dental cleanings",
    "vision screening",
    "lab testing",
    "x-ray imaging",
    "vaccinations",
    "allergy testing",
    "sports medicine",
    "chiropractic care",
    "nutrition counseling",
];

/// Treatment names for the clinic domain.
pub const TREATMENTS: &[&str] = &[
    "acne treatment",
    "joint replacement",
    "root canal therapy",
    "cognitive behavioral therapy",
    "chemotherapy",
    "dialysis",
    "laser eye surgery",
    "physical rehabilitation",
    "migraine management",
    "diabetes management",
    "hypertension treatment",
    "asthma care",
    "arthritis treatment",
    "back pain therapy",
    "sleep apnea treatment",
    "skin cancer screening",
];

/// Month names.
pub const MONTHS: &[&str] = &[
    "January",
    "February",
    "March",
    "April",
    "May",
    "June",
    "July",
    "August",
    "September",
    "October",
    "November",
    "December",
];

/// Weekday names.
pub(crate) const WEEKDAYS: &[&str] = &[
    "Monday",
    "Tuesday",
    "Wednesday",
    "Thursday",
    "Friday",
    "Saturday",
    "Sunday",
];

/// Course subject areas for the class domain.
pub const COURSE_TOPICS: &[&str] = &[
    "Introduction to Computer Science",
    "Data Structures",
    "Algorithms",
    "Operating Systems",
    "Compilers",
    "Programming Languages",
    "Machine Learning",
    "Computer Networks",
    "Databases",
    "Software Engineering",
    "Computer Architecture",
    "Distributed Systems",
    "Formal Methods",
    "Artificial Intelligence",
    "Computer Graphics",
    "Cryptography",
    "Numerical Analysis",
    "Theory of Computation",
    "Human-Computer Interaction",
    "Natural Language Processing",
];

/// Textbook titles for the class domain.
pub const TEXTBOOKS: &[&str] = &[
    "Introduction to Algorithms by Cormen, Leiserson, Rivest, and Stein",
    "Structure and Interpretation of Computer Programs by Abelson and Sussman",
    "Computer Systems: A Programmer's Perspective by Bryant and O'Hallaron",
    "Types and Programming Languages by Pierce",
    "Compilers: Principles, Techniques, and Tools by Aho, Lam, Sethi, and Ullman",
    "Operating System Concepts by Silberschatz, Galvin, and Gagne",
    "Artificial Intelligence: A Modern Approach by Russell and Norvig",
    "Pattern Recognition and Machine Learning by Bishop",
    "Database System Concepts by Silberschatz, Korth, and Sudarshan",
    "Computer Networking: A Top-Down Approach by Kurose and Ross",
];

/// Research-topic phrases for conference calls-for-papers.
pub const RESEARCH_TOPICS: &[&str] = &[
    "program synthesis",
    "type systems",
    "static analysis",
    "program verification",
    "compiler optimization",
    "garbage collection",
    "concurrency",
    "gradual typing",
    "probabilistic programming",
    "language design",
    "model checking",
    "abstract interpretation",
    "symbolic execution",
    "program repair",
    "testing and debugging",
    "runtime systems",
    "memory management",
    "domain-specific languages",
    "software security",
    "parallelism",
];

/// Whether `w` (case-sensitive) appears in the given-name lexicon.
pub(crate) fn is_first_name(w: &str) -> bool {
    FIRST_NAMES.contains(&w)
}

/// Whether `w` (case-sensitive) appears in the family-name lexicon.
pub(crate) fn is_last_name(w: &str) -> bool {
    LAST_NAMES.contains(&w)
}

/// Whether `w` is a month name.
pub(crate) fn is_month(w: &str) -> bool {
    MONTHS.iter().any(|m| m.eq_ignore_ascii_case(w))
}

/// Whether `w` is a weekday name.
pub(crate) fn is_weekday(w: &str) -> bool {
    WEEKDAYS.iter().any(|m| m.eq_ignore_ascii_case(w))
}

/// Whether `w` is a known conference acronym.
pub(crate) fn is_conference(w: &str) -> bool {
    CONFERENCES.contains(&w)
}

/// Whether `w` is an organization suffix word ("University", "Institute"…).
pub(crate) fn is_org_suffix(w: &str) -> bool {
    ORG_SUFFIX_WORDS.iter().any(|s| s[0] == w)
}

/// [`PLACES`], each entry split into its words.
pub(crate) static PLACE_WORDS: LazyLock<Vec<Vec<&str>>> = LazyLock::new(|| split_words(PLACES));

/// [`INSURANCES`], each entry split into its words.
pub(crate) static INSURANCE_WORDS: LazyLock<Vec<Vec<&str>>> =
    LazyLock::new(|| split_words(INSURANCES));

/// [`ORG_SUFFIXES`], each entry split into its words.
static ORG_SUFFIX_WORDS: LazyLock<Vec<Vec<&str>>> = LazyLock::new(|| split_words(ORG_SUFFIXES));

/// Splits each lexicon entry into words, once per process, so the entity
/// recognizer matches multi-word entries without splitting or allocating
/// at every word of every text. Only the fixed lexicons above are split,
/// never input text, so these lists cannot grow.
fn split_words(entries: &[&'static str]) -> Vec<Vec<&'static str>> {
    entries
        .iter()
        .map(|e| e.split_whitespace().collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicon_lookups() {
        assert!(is_first_name("Jane"));
        assert!(!is_first_name("jane")); // case-sensitive by design
        assert!(is_last_name("Doe"));
        assert!(is_month("january"));
        assert!(is_weekday("Friday"));
        assert!(is_conference("PLDI"));
        assert!(!is_conference("PLDIX"));
        assert!(is_org_suffix("University"));
        assert!(!is_org_suffix("Banana"));
    }

    #[test]
    fn pools_are_nonempty_and_distinct() {
        assert!(FIRST_NAMES.len() > 50);
        assert!(LAST_NAMES.len() > 50);
        let mut firsts: Vec<&str> = FIRST_NAMES.to_vec();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), FIRST_NAMES.len(), "duplicate first names");
        let mut lasts: Vec<&str> = LAST_NAMES.to_vec();
        lasts.sort_unstable();
        lasts.dedup();
        assert_eq!(lasts.len(), LAST_NAMES.len(), "duplicate last names");
    }

    #[test]
    fn conferences_are_single_alphanumeric_words() {
        for c in CONFERENCES {
            assert!(
                c.chars().all(|ch| ch.is_ascii_alphanumeric()),
                "bad acronym {c}"
            );
        }
    }
}
