//! `fpdt-lint` — run the project-invariant static analysis over the
//! workspace.
//!
//! ```text
//! fpdt-lint [--root <dir>] [--json] [--list-rules]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut list_rules = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root needs a directory"),
            },
            "--json" => json = true,
            "--list-rules" => list_rules = true,
            "--help" | "-h" => {
                println!("fpdt-lint [--root <dir>] [--json] [--list-rules]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    if list_rules {
        for r in fpdt_lint::rules::RULES {
            println!("{:<24} {}", r.name, r.what);
        }
        return ExitCode::SUCCESS;
    }

    let report = match fpdt_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fpdt-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        println!("{}", fpdt_lint::report_json(&report));
    } else {
        for f in &report.findings {
            println!("{}", f.render());
        }
    }

    if report.findings.is_empty() {
        if !json {
            println!(
                "LINT_OK files={} rules={}",
                report.files_scanned,
                fpdt_lint::rules::RULES.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        if !json {
            eprintln!("fpdt-lint: {} finding(s)", report.findings.len());
        }
        ExitCode::from(1)
    }
}

fn usage(why: &str) -> ExitCode {
    eprintln!("fpdt-lint: {why}");
    eprintln!("usage: fpdt-lint [--root <dir>] [--json] [--list-rules]");
    ExitCode::from(2)
}
