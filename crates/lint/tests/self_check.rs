//! The repo lints itself: running the full workspace scan from the test
//! suite must produce zero findings. This is the same predicate the
//! `LINT_OK` gate in `scripts/ci.sh` enforces, so `cargo test` catches a
//! violation before CI does.

use std::path::Path;

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = fpdt_lint::lint_workspace(&root).expect("workspace scan");
    assert!(
        report.files_scanned > 50,
        "scan found the workspace sources"
    );
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(
        report.findings.is_empty(),
        "lint findings (fix or suppress with a reason):\n{}",
        rendered.join("\n")
    );
}
