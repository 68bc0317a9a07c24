//! Golden suite reports. `tests/golden/suite.manifest` (the ISPD'09 suite
//! plus one 1k-sink TI instance, fast profile, Elmore, BWSN ablated, two
//! analysis corners) runs once through `Manifest -> Campaign ->
//! suite_output`, and all four renderings must match their checked-in
//! files byte for byte. A change to the flow's numbers therefore lands as a
//! reviewed diff of `tests/golden/`, never silently.

use contango::campaign::output::suite_output;
use contango::campaign::{Manifest, ReportKind, TableFormat};

/// Each report with its golden file name.
const GOLDENS: [(ReportKind, &str, &str); 4] = [
    (
        ReportKind::Table,
        "suite.table",
        include_str!("golden/suite.table"),
    ),
    (
        ReportKind::Jsonl,
        "suite.jsonl",
        include_str!("golden/suite.jsonl"),
    ),
    (
        ReportKind::Pareto,
        "suite.pareto",
        include_str!("golden/suite.pareto"),
    ),
    (
        ReportKind::FrontierJsonl,
        "suite.frontier.jsonl",
        include_str!("golden/suite.frontier.jsonl"),
    ),
];

#[test]
fn suite_reports_match_the_goldens_byte_for_byte() {
    let manifest = Manifest::parse(include_str!("golden/suite.manifest")).expect("manifest parses");
    let result = manifest.compile().expect("manifest compiles").run();
    assert!(result.failures().is_empty(), "golden jobs must all succeed");
    for (report, file, golden) in GOLDENS {
        let output = suite_output(&result, report, TableFormat::Text);
        assert!(
            output == golden,
            "tests/golden/{file} differs from the `{label}` report; if the change is \
             intended, regenerate it with\n  cargo run --release -p contango_cli --bin \
             contango-cts -- suite --manifest tests/golden/suite.manifest --report {label} \
             > tests/golden/{file}\n--- golden\n{golden}\n--- now\n{output}",
            label = report.label(),
        );
    }
}
