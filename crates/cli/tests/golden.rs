//! The suite golden through the CLI's flag spelling: every manifest line
//! of `tests/golden/suite.manifest` given as a `--KEY VALUE` flag (or
//! shorthand) must describe the same manifest and print the same bytes.

use contango_campaign::Manifest;
use contango_cli::args::Command;
use contango_cli::{execute, parse_args};

const MANIFEST: &str = include_str!("../../../tests/golden/suite.manifest");
const JSONL: &str = include_str!("../../../tests/golden/suite.jsonl");

#[test]
fn flag_spelling_matches_the_manifest_file_golden() {
    let argv: Vec<String> = [
        "suite",
        "--suite",
        "ispd09",
        "--instance",
        "ti:1000",
        "--fast",
        "--model",
        "elmore",
        "--skip",
        "BWSN",
        "--corners",
        "slow,low-vdd",
        "--report",
        "jsonl",
    ]
    .map(String::from)
    .to_vec();
    let command = parse_args(&argv).expect("parses");
    let Command::Suite { settings, .. } = &command else {
        panic!("unexpected command {command:?}");
    };
    assert_eq!(
        settings.manifest().expect("flags form a valid manifest"),
        Manifest::parse(MANIFEST).expect("golden manifest parses"),
    );
    let output = execute(&command).expect("suite runs");
    assert!(
        output == JSONL,
        "the flag spelling differs from tests/golden/suite.jsonl; if the change is \
         intended, regenerate it with\n  cargo run --release -p contango_cli --bin \
         contango-cts -- suite --manifest tests/golden/suite.manifest --report jsonl \
         > tests/golden/suite.jsonl\n--- golden\n{JSONL}\n--- now\n{output}"
    );
}
