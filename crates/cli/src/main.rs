//! `dcdiff` — command-line front end for the DCDiff reproduction.
//!
//! The commands and their flags are listed in [`commands::USAGE`], which
//! is also printed after any error.

use std::process::ExitCode;

mod commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
