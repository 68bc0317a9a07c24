//! Golden suite reports. Each manifest under `tests/golden/` runs once
//! through `Manifest -> Campaign -> suite_output`, and every rendering it
//! pins must match its checked-in file byte for byte:
//!
//! - `suite.manifest`: the ISPD'09 suite plus one 1k-sink TI instance,
//!   fast profile, Elmore, BWSN ablated, two analysis corners; four
//!   renderings.
//! - `transient.manifest`: two small TI instances, fast profile, the
//!   transient model and all five stages, so the accepted TBSZ and BWSN
//!   rounds under the paper's delay model are pinned too; table and JSONL.
//!
//! A change to the flow's numbers therefore lands as a reviewed diff of
//! `tests/golden/`, never silently.

use contango::campaign::output::suite_output;
use contango::campaign::{Manifest, ReportKind, TableFormat};

/// One pinned report: its kind, its golden file name and the file's bytes.
type Rendering = (ReportKind, &'static str, &'static str);

/// Each golden manifest (file name, text) with the renderings it pins.
const GOLDENS: [(&str, &str, &[Rendering]); 2] = [
    (
        "suite.manifest",
        include_str!("golden/suite.manifest"),
        &[
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
        ],
    ),
    (
        "transient.manifest",
        include_str!("golden/transient.manifest"),
        &[
            (
                ReportKind::Table,
                "transient.table",
                include_str!("golden/transient.table"),
            ),
            (
                ReportKind::Jsonl,
                "transient.jsonl",
                include_str!("golden/transient.jsonl"),
            ),
        ],
    ),
];

#[test]
fn suite_reports_match_the_goldens_byte_for_byte() {
    for (manifest_file, text, renderings) in GOLDENS {
        let manifest = Manifest::parse(text).expect("manifest parses");
        let result = manifest.compile().expect("manifest compiles").run();
        assert!(
            result.failures().is_empty(),
            "{manifest_file}: golden jobs must all succeed"
        );
        for &(report, file, golden) in renderings {
            let output = suite_output(&result, report, TableFormat::Text);
            assert!(
                output == golden,
                "tests/golden/{file} differs from the `{label}` report; if the change is \
                 intended, regenerate it with\n  cargo run --release -p contango_cli --bin \
                 contango-cts -- suite --manifest tests/golden/{manifest_file} --report \
                 {label} > tests/golden/{file}\n--- golden\n{golden}\n--- now\n{output}",
                label = report.label(),
            );
        }
    }
}
