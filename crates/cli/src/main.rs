//! `dcdiff` — command-line front end for the DCDiff reproduction.
//!
//! The commands and their flags are listed in [`commands::USAGE`], which
//! is also printed after a usage error: an unknown command or flag, or a
//! missing or malformed argument. Any other failure prints its message
//! only.

use std::process::ExitCode;

mod commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            if matches!(err, commands::CliError::Usage(_)) {
                eprintln!();
                eprintln!("{}", commands::USAGE);
            }
            ExitCode::FAILURE
        }
    }
}
