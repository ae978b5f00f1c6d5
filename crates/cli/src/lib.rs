//! Implementation of the `lotus` command-line tool.
//!
//! The verbs, their flags and their help text are declared once, in
//! the tables of [`args`]; `lotus help` prints [`args::usage`]. The
//! daemons (`serve`, `cluster`) are described in DESIGN.md §11, §13
//! and §16.
//!
//! Graph files are whitespace edge lists (`.txt`, `.el`) or the binary
//! `.lotg` format; the format is chosen by extension.
//!
//! Exit codes: 0 success (including degraded runs — the degradation is
//! printed), 1 runtime error, 2 usage error, 101 isolated worker panic,
//! 124 interrupted (`--timeout`, matching timeout(1)).

pub mod args;
pub mod commands;

pub use args::{parse, Command, ParseError};
pub use commands::CliError;

/// Runs a parsed command, returning the text to print or a structured
/// error carrying the process exit code.
///
/// # Errors
/// Returns the command's [`CliError`], which carries the process exit
/// code.
pub fn run(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Count(c) => commands::count(c),
        Command::Analyze(c) => commands::analyze(c),
        Command::Generate(c) => commands::generate(c),
        Command::Convert(c) => commands::convert(c),
        Command::Check(c) => commands::check(c),
        Command::Bench(c) => commands::bench(c),
        Command::Serve(c) => commands::serve(c),
        Command::ServeRecover(c) => commands::serve_recover(c),
        Command::ClusterServe(c) => commands::cluster_serve(c),
        Command::ClusterShard(c) => commands::cluster_shard(c),
        Command::Query(c) => commands::query(c),
        Command::Loadgen(c) => commands::loadgen(c),
        Command::Help => Ok(args::usage()),
    }
}
