//! A small argument parser for the CLI.
//!
//! The workspace's sanctioned dependency set has no argument-parsing
//! crate, so this module implements the subset the CLI needs: a leading
//! subcommand, `--flag value` options, and `--switch` booleans, with
//! typed accessors and unknown-option rejection.
//!
//! Numeric value options parse through [`ParsedArgs::get_parsed`] with a
//! per-command default — e.g. `eval --pages N` (pages per domain,
//! default `8`).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed command line: the subcommand plus its options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ParsedArgs {
    /// The subcommand name (first positional argument).
    pub command: String,
    /// `--key value` options, in insertion order.
    options: BTreeMap<String, String>,
    /// `--switch` booleans.
    switches: Vec<String>,
    /// Bare (non-`--`) arguments after the subcommand, in order.
    positionals: Vec<String>,
}

/// An argument-parsing or validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand was given.
    MissingCommand,
    /// An option was given without a value.
    MissingValue(String),
    /// An option the command does not accept.
    UnknownOption(String),
    /// A bare argument given to a command that takes none.
    UnexpectedArgument(String),
    /// A required option is absent.
    MissingOption(String),
    /// An option value failed to parse.
    InvalidValue {
        /// Option name.
        option: String,
        /// The offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no command given; try `webqa-cli help`"),
            ArgError::MissingValue(k) => write!(f, "option --{k} requires a value"),
            ArgError::UnknownOption(k) => write!(f, "unknown option --{k}"),
            ArgError::UnexpectedArgument(a) => {
                write!(f, "unexpected argument {a:?}; this command takes none")
            }
            ArgError::MissingOption(k) => write!(f, "required option --{k} is missing"),
            ArgError::InvalidValue {
                option,
                value,
                expected,
            } => {
                write!(f, "option --{option}: {value:?} is not {expected}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Parses raw arguments (without the program name).
///
/// Every `--name` token consumes the following token as its value unless
/// `name` is in `switches`, in which case it is a boolean flag.
pub(crate) fn parse<S: AsRef<str>>(raw: &[S], switches: &[&str]) -> Result<ParsedArgs, ArgError> {
    let mut it = raw.iter().map(|s| s.as_ref());
    let command = it.next().ok_or(ArgError::MissingCommand)?.to_string();
    let mut out = ParsedArgs {
        command,
        ..Default::default()
    };
    while let Some(tok) = it.next() {
        let Some(name) = tok.strip_prefix("--") else {
            // A bare token is a positional argument; commands that take
            // none reject it in `expect_only`.
            out.positionals.push(tok.to_string());
            continue;
        };
        if switches.contains(&name) {
            out.switches.push(name.to_string());
        } else {
            let value = it
                .next()
                .ok_or_else(|| ArgError::MissingValue(name.to_string()))?;
            out.options.insert(name.to_string(), value.to_string());
        }
    }
    Ok(out)
}

impl ParsedArgs {
    /// The value of `--name`, if given.
    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// The value of a required option.
    pub(crate) fn require(&self, name: &str) -> Result<&str, ArgError> {
        self.get(name)
            .ok_or_else(|| ArgError::MissingOption(name.to_string()))
    }

    /// The value of `--name` parsed as `T`, or `default` when absent.
    pub(crate) fn get_parsed<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::InvalidValue {
                option: name.to_string(),
                value: v.to_string(),
                expected,
            }),
        }
    }

    /// Whether `--name` was given as a switch.
    pub(crate) fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Rejects any option or switch outside `allowed`, and any positional
    /// argument (commands that take positionals use
    /// [`ParsedArgs::expect_options`] and read them with
    /// [`ParsedArgs::positionals`]).
    pub(crate) fn expect_only(&self, allowed: &[&str]) -> Result<(), ArgError> {
        self.expect_options(allowed)?;
        if let Some(first) = self.positionals.first() {
            return Err(ArgError::UnexpectedArgument(first.clone()));
        }
        Ok(())
    }

    /// Rejects any option or switch outside `allowed`; positional
    /// arguments are permitted.
    pub(crate) fn expect_options(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for k in self.options.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgError::UnknownOption(k.clone()));
            }
        }
        for k in &self.switches {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgError::UnknownOption(k.clone()));
            }
        }
        Ok(())
    }

    /// The bare (non-option) arguments after the subcommand, in order.
    pub(crate) fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Splits a comma-separated option into trimmed non-empty parts.
    pub(crate) fn get_list(&self, name: &str) -> Vec<String> {
        self.get(name)
            .map(|v| {
                v.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_and_options() {
        let a = parse(&["synth", "--task", "fac_t1", "--seed", "7"], &[]).unwrap();
        assert_eq!(a.command, "synth");
        assert_eq!(a.get("task"), Some("fac_t1"));
        assert_eq!(a.get_parsed("seed", 0u64, "an integer").unwrap(), 7);
    }

    #[test]
    fn switches_do_not_consume_values() {
        let a = parse(&["synth", "--paper", "--task", "fac_t1"], &["paper"]).unwrap();
        assert!(a.switch("paper"));
        assert_eq!(a.get("task"), Some("fac_t1"));
        assert!(!a.switch("fast"));
    }

    #[test]
    fn missing_command_is_an_error() {
        assert_eq!(parse::<&str>(&[], &[]), Err(ArgError::MissingCommand));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(
            parse(&["synth", "--task"], &[]),
            Err(ArgError::MissingValue("task".into()))
        );
    }

    #[test]
    fn positionals_are_collected_and_rejected_by_expect_only() {
        let a = parse(&["import", "pages/", "--lenient"], &["lenient"]).unwrap();
        assert_eq!(a.positionals(), ["pages/"]);
        assert!(a.switch("lenient"));
        // Commands that take no positionals reject them on validation.
        let a = parse(&["synth", "stray"], &[]).unwrap();
        assert_eq!(
            a.expect_only(&["task"]),
            Err(ArgError::UnexpectedArgument("stray".into()))
        );
    }

    #[test]
    fn expect_only_rejects_unknown() {
        let a = parse(&["synth", "--bogus", "1"], &[]).unwrap();
        assert_eq!(
            a.expect_only(&["task"]),
            Err(ArgError::UnknownOption("bogus".into()))
        );
        let a = parse(&["synth", "--task", "x"], &[]).unwrap();
        assert!(a.expect_only(&["task"]).is_ok());
    }

    #[test]
    fn require_and_invalid_value() {
        let a = parse(&["synth", "--seed", "NaN-ish"], &[]).unwrap();
        assert_eq!(
            a.require("task"),
            Err(ArgError::MissingOption("task".into()))
        );
        assert!(matches!(
            a.get_parsed::<u64>("seed", 0, "an integer"),
            Err(ArgError::InvalidValue { .. })
        ));
    }

    #[test]
    fn comma_lists() {
        let a = parse(
            &["run", "--keywords", "PC, Program Committee, ,Service"],
            &[],
        )
        .unwrap();
        assert_eq!(
            a.get_list("keywords"),
            ["PC", "Program Committee", "Service"]
        );
        assert!(a.get_list("absent").is_empty());
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(ArgError::MissingOption("task".into())
            .to_string()
            .contains("--task"));
        assert!(ArgError::UnknownOption("x".into())
            .to_string()
            .contains("--x"));
    }
}
