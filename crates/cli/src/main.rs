//! `contango-cts`: command-line front-end of the Contango reproduction.

use contango_cli::{execute, parse_args, CliError};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match execute(&command) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        // A settings flag the manifest parser rejects is a usage error too.
        Err(CliError::Usage(error)) => {
            eprintln!("{error}");
            ExitCode::from(2)
        }
        // Per-job suite failures still produced a report: print it, then
        // fail so scripts notice.
        Err(error @ CliError::SuiteFailures { .. }) => {
            if let CliError::SuiteFailures { output, .. } = &error {
                print!("{output}");
            }
            eprintln!("error: {error}");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
