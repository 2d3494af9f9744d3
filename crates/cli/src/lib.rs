//! # webqa-cli
//!
//! The command-line interface to the WebQA reproduction. Every command is
//! a pure function from parsed arguments to an output string, so the
//! whole surface is unit-testable without spawning processes; the binary
//! in `main.rs` only forwards `std::env::args` and prints.
//!
//! ```text
//! webqa-cli tasks [--domain faculty]
//! webqa-cli corpus --domain faculty [--count N] [--seed S] [--page I] [--html]
//! webqa-cli synth --task fac_t1 [--train N] [--pages N] [--seed S] [--paper]
//!                 [--strategy transductive|random|shortest] [--modality both|nl|kw]
//!                 [--baselines] [--show N]
//! webqa-cli eval [--tasks A,B,C] [--domain D] [--pages N] [--train N] [--seed S] [--jobs N]
//! webqa-cli run --program SRC --question Q --keywords A,B (--html SRC | --html-file PATH)
//! webqa-cli import DIR [--lenient] [--program SRC [--question Q] [--keywords A,B]]
//! webqa-cli check --program SRC [--question Q] [--keywords A,B] [--normalize] [--json]
//! webqa-cli serve (--tcp HOST:PORT | --unix PATH | --http HOST:PORT) [--shards N]
//!                 [--max-requests N]
//! webqa-cli client (--tcp HOST:PORT | --unix PATH | --http HOST:PORT)
//!                  (--request REQ | --op ping|stats)
//! webqa-cli help
//! ```
//!
//! `eval` drives `webqa::Engine::run_batch`: every page is parsed and
//! interned once in a shared page store, and `--jobs N` (default 1) runs
//! independent tasks on `N` worker threads — output is byte-identical to
//! sequential execution.

#![warn(missing_docs)]

pub mod args;
mod commands;

pub use args::{ArgError, ParsedArgs};

use std::fmt;

/// A CLI failure: argument errors plus command-specific problems.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Args(ArgError),
    /// The subcommand does not exist.
    UnknownCommand(String),
    /// Anything the command itself rejects (unknown task id, unparsable
    /// program, unreadable file…).
    Command(String),
    /// `check` ran and found problems: the payload is the full report
    /// (text or JSON, per the flags). The binary prints it to *stdout* —
    /// it is the command's output, not a usage error — and exits
    /// non-zero so scripts and CI can gate on a clean program.
    CheckFailed(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command {c:?}; try `webqa-cli help`")
            }
            CliError::Command(m) => write!(f, "{m}"),
            CliError::CheckFailed(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

/// Switch-style options across all commands (take no value).
const SWITCHES: &[&str] = &["paper", "raw", "baselines", "normalize", "json", "lenient"];

/// Parses and runs one command line, returning the text to print.
///
/// # Errors
///
/// Returns [`CliError`] on unknown commands or options, missing or
/// malformed values, unknown task ids, and unparsable programs or pages.
pub fn dispatch<S: AsRef<str>>(raw: &[S]) -> Result<String, CliError> {
    if raw.is_empty() {
        return Ok(commands::help());
    }
    let parsed = args::parse(raw, SWITCHES)?;
    match parsed.command.as_str() {
        "help" | "--help" | "-h" => Ok(commands::help()),
        "tasks" => commands::tasks(&parsed),
        "corpus" => commands::corpus(&parsed),
        "synth" => commands::synth(&parsed),
        "eval" => commands::eval(&parsed),
        "run" => commands::run(&parsed),
        "import" => commands::import(&parsed),
        "check" => commands::check(&parsed),
        "stats" => commands::stats(&parsed),
        "export" => commands::export(&parsed),
        "serve" => commands::serve(&parsed),
        "client" => commands::client(&parsed),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_args_show_help() {
        let out = dispatch::<&str>(&[]).unwrap();
        assert!(out.contains("webqa-cli"));
        assert!(out.contains("synth"));
    }

    #[test]
    fn help_lists_all_commands() {
        let out = dispatch(&["help"]).unwrap();
        for c in [
            "tasks", "corpus", "synth", "eval", "run", "import", "check", "stats", "export",
            "serve", "client",
        ] {
            assert!(out.contains(c), "help is missing {c}");
        }
        assert!(out.contains("--jobs"), "help is missing --jobs");
    }

    #[test]
    fn unknown_command_is_rejected() {
        let err = dispatch(&["frobnicate"]).unwrap_err();
        assert!(matches!(err, CliError::UnknownCommand(_)));
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn unknown_option_is_rejected() {
        let err = dispatch(&["tasks", "--bogus", "1"]).unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }
}
