//! Workload generation: password populations and user-session traffic.
//!
//! "Empirically, users do not pick good passwords unless forced to"
//! (Morris & Thompson '79, Grampp & Morris '84, Stoll '88). The
//! password classes here drive the guessing experiments (E2); the
//! mail-check session generator drives the ticket-exposure experiment
//! (E9).
//!
//! All randomness flows through [`testkit::TestRng`], so every
//! generated population — and therefore every attack campaign built on
//! one — is replayable from a single printed seed.

use std::sync::OnceLock;
use testkit::TestRng;

/// The attacker's base dictionary: common words and names of the era.
pub const DICTIONARY: &[&str] = &[
    "password", "secret", "love", "sex", "god", "wizard", "hacker", "computer", "network",
    "athena", "kerberos", "cerberus", "mit", "project", "unix", "vax", "sun", "sparc",
    "aaron", "albany", "albert", "alex", "alice", "amanda", "amy", "andrea", "andrew",
    "angela", "anna", "arthur", "bacchus", "banana", "barbara", "baseball", "batman",
    "beach", "bear", "beatles", "beethoven", "benjamin", "beowulf", "berkeley", "beta",
    "beverly", "bicycle", "bishop", "bitnet", "bradley", "brandy", "brian", "bridget",
    "broadway", "bumbling", "burgess", "camille", "campanile", "candi", "carmen",
    "carolina", "caroline", "castle", "cayuga", "celtics", "change", "charles", "charming",
    "charon", "chester", "cigar", "classic", "coffee", "coke", "collins", "comrades",
    "cookie", "cooper", "cornelius", "couscous", "creation", "creosote", "daemon",
    "dancer", "daniel", "danny", "dave", "deborah", "denise", "depeche", "desperate",
    "develop", "diet", "digital", "discovery", "disney", "dragon", "drought", "duncan",
    "eager", "easier", "edges", "edwin", "egghead", "eileen", "einstein", "elephant",
    "elizabeth", "ellen", "emerald", "engine", "engineer", "enterprise", "enzyme",
    "euclid", "evelyn", "extension", "fairway", "felicia", "fender", "fermat", "finite",
    "flower", "foolproof", "football", "format", "forsythe", "fourier", "fred",
    "friend", "frighten", "fun", "gabriel", "gardner", "garfield", "gauss", "george",
    "gertrude", "gibson", "ginger", "gnu", "golf", "golfer", "gorgeous", "graham",
    "gryphon", "guest", "guitar", "hamlet", "handily", "happening", "harmony", "harold",
    "harvey", "hebrides", "heinlein", "hello", "help", "herbert", "homework", "honey",
    "horse", "imperial", "include", "ingres", "innocuous", "internet", "jessica",
    "johnny", "joseph", "joshua", "judith", "juggle", "julia", "kathleen", "kermit",
    "kernel", "kirkland", "knight", "ladle", "lambda", "lamination", "larry", "lazarus",
    "lebesgue", "legend", "library", "light", "lisp", "louis", "macintosh", "mack",
    "maggot", "magic", "malcolm", "mark", "markus", "marty", "marvin", "master",
    "maurice", "merlin", "mets", "michael", "michelle", "mike", "minimum", "minsky",
    "mogul", "moose", "morley", "mozart", "nancy", "napoleon", "ncc1701", "newton",
    "next", "noxious", "nutrition", "nyquist", "oceanography", "ocelot", "olivia",
    "oracle", "orca", "orwell", "osiris", "outlaw", "oxford", "pacific", "painless",
    "pakistan", "peoria", "percolate", "persimmon", "persona", "pete", "peter",
    "philip", "phoenix", "pierre", "pizza", "plover", "polynomial", "praise", "prelude",
    "prince", "protect", "puneet", "puppet", "rabbit", "rachmaninoff", "rainbow",
    "raindrop", "rascal", "really", "rebecca", "remote", "rick", "robot", "robotics",
    "rochester", "rolex", "romano", "ronald", "rosebud", "rosemary", "roses", "ruben",
    "rules", "ruth", "sal", "saxon", "scamper", "scheme", "scott", "scotty", "secret",
    "sensor", "serenity", "sharks", "sharon", "sheffield", "sheldon", "shiva",
    "shivers", "shuttle", "signature", "simon", "simple", "singer", "single", "smile",
    "smooch", "smother", "snatch", "snoopy", "soap", "socrates", "sossina", "sparrows",
    "spit", "spring", "springer", "squires", "strangle", "stratford", "stuttgart",
    "subway", "success", "summer", "super", "superstage", "support", "supported",
    "surfer", "suzanne", "swearer", "symmetry", "tangerine", "tape", "target", "tarragon",
    "taylor", "telephone", "temptation", "thailand", "tiger", "toggle", "tomato",
    "topography", "tortoise", "toyota", "trails", "trivial", "trombone", "tubas",
    "tuttle", "umesh", "unhappy", "unicorn", "unknown", "urchin", "utility", "vasant",
    "vertigo", "vicky", "village", "virginia", "warren", "water", "weenie", "whatnot",
    "whiting", "whitney", "will", "william", "williamsburg", "willie", "winston",
    "wisconsin", "wombat", "woodwind", "wormwood", "yacov", "yang", "yellowstone",
    "yosemite", "zap", "zimmerman",
];

/// Password quality classes for the guessing experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PasswordClass {
    /// A bare dictionary word.
    DictionaryWord,
    /// A dictionary word with a trivial mutation (digit suffix,
    /// capitalization).
    MutatedWord,
    /// A random 8-character string — effectively unguessable by
    /// dictionary.
    Random,
}

/// Generates a password of the given class.
pub fn generate_password(class: PasswordClass, rng: &mut TestRng) -> String {
    match class {
        PasswordClass::DictionaryWord => rng.pick(DICTIONARY).to_string(),
        PasswordClass::MutatedWord => {
            let w = *rng.pick(DICTIONARY);
            match rng.below(3) {
                0 => format!("{w}{}", rng.below(10)),
                1 => {
                    let mut c = w.chars();
                    match c.next() {
                        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
                        None => w.to_string(),
                    }
                }
                _ => format!("{w}!"),
            }
        }
        PasswordClass::Random => (0..8)
            .map(|_| {
                let c = 33 + rng.below(127 - 33) as u8;
                c as char
            })
            .collect(),
    }
}

/// A synthetic user population with a password-class mix.
pub fn generate_population(
    n: usize,
    mix: &[(PasswordClass, f64)],
    seed: u64,
) -> Vec<(String, String, PasswordClass)> {
    let mut rng = TestRng::new(seed);
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    (0..n)
        .map(|i| {
            let mut pick = rng.next_f64() * total;
            let mut class = mix[0].0;
            for (c, w) in mix {
                if pick < *w {
                    class = *c;
                    break;
                }
                pick -= w;
            }
            (format!("user{i:04}"), generate_password(class, &mut rng), class)
        })
        .collect()
}

/// The attacker's guess list: the dictionary plus standard mutations —
/// what a 1990 cracker actually tried.
pub fn guess_list() -> Vec<String> {
    guesses().to_vec()
}

/// [`guess_list`], built once per process and shared.
pub fn guesses() -> &'static [String] {
    static GUESSES: OnceLock<Vec<String>> = OnceLock::new();
    GUESSES.get_or_init(build_guess_list)
}

fn build_guess_list() -> Vec<String> {
    let mut v = Vec::with_capacity(DICTIONARY.len() * 13);
    for w in DICTIONARY {
        v.push(w.to_string());
        for d in 0..10 {
            v.push(format!("{w}{d}"));
        }
        let mut c = w.chars();
        if let Some(f) = c.next() {
            v.push(f.to_uppercase().collect::<String>() + c.as_str());
        }
        v.push(format!("{w}!"));
    }
    v
}

/// One simulated mail-check session: "a user logs in briefly, reads a
/// few messages, and logs out. A number of valuable tickets would be
/// exposed by such a session." Returns the services contacted (each
/// contact exposes a live ticket+authenticator on the wire).
pub fn mail_check_session() -> Vec<&'static str> {
    // Login exposes the TGT exchange; mounting the home directory
    // exposes the NFS ticket; reading mail exposes the mail ticket.
    vec!["files", "mail"]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_generate_expected_shapes() {
        let mut rng = TestRng::new(1);
        let w = generate_password(PasswordClass::DictionaryWord, &mut rng);
        assert!(DICTIONARY.contains(&w.as_str()));
        let r = generate_password(PasswordClass::Random, &mut rng);
        assert_eq!(r.chars().count(), 8);
    }

    #[test]
    fn population_respects_mix() {
        let pop = generate_population(
            300,
            &[(PasswordClass::DictionaryWord, 1.0), (PasswordClass::Random, 1.0)],
            7,
        );
        let dict = pop.iter().filter(|(_, _, c)| *c == PasswordClass::DictionaryWord).count();
        assert!(dict > 100 && dict < 200, "dict={dict}");
        // Unique user names.
        let mut names: Vec<&String> = pop.iter().map(|(n, _, _)| n).collect();
        names.dedup();
        assert_eq!(names.len(), 300);
    }

    #[test]
    fn population_replayable_from_seed() {
        let mix = [(PasswordClass::DictionaryWord, 1.0), (PasswordClass::MutatedWord, 1.0)];
        assert_eq!(generate_population(50, &mix, 123), generate_population(50, &mix, 123));
        assert_ne!(generate_population(50, &mix, 123), generate_population(50, &mix, 124));
    }

    #[test]
    fn guess_list_covers_mutations() {
        let g = guess_list();
        assert!(g.contains(&"wombat".to_string()));
        assert!(g.contains(&"wombat7".to_string()));
        assert!(g.contains(&"Wombat".to_string()));
        assert!(g.contains(&"wombat!".to_string()));
        assert!(g.len() > DICTIONARY.len() * 12);
    }

    #[test]
    fn mutated_passwords_are_found_by_guess_list() {
        let mut rng = TestRng::new(2);
        let g = guess_list();
        for _ in 0..50 {
            let pw = generate_password(PasswordClass::MutatedWord, &mut rng);
            assert!(g.contains(&pw), "guess list missing {pw}");
        }
    }
}
