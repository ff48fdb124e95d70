//! The `fpdt-plan` planner end to end: a valid question prints one row per
//! strategy and exits 0; a malformed command line exits non-zero with the
//! usage line on stderr.

use fpdt_core::strategy::Fpdt;
use fpdt_parallel::megatron::MegatronSp;
use fpdt_parallel::ring::RingAttention;
use fpdt_parallel::ulysses::Ulysses;
use fpdt_parallel::Strategy;
use std::process::Output;

fn fpdt_plan(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_fpdt-plan"))
        .args(args)
        .output()
        .expect("fpdt-plan runs")
}

/// The names of the strategies the planner compares, as it prints them.
fn strategy_names() -> Vec<String> {
    vec![
        MegatronSp::paper_baseline().name(),
        Ulysses::paper_baseline().name(),
        RingAttention::paper_baseline().name(),
        RingAttention::zigzag().name(),
        Fpdt::paper_default().name(),
    ]
}

#[test]
fn a_valid_question_prints_a_row_per_strategy() {
    for args in [
        &["--model", "8b", "--gpus", "8"][..],
        &["--model", "8b", "--seq", "2M"][..],
    ] {
        let out = fpdt_plan(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stdout}");
        assert!(stdout.starts_with("Llama3-8B"), "{args:?}: {stdout}");
        for name in strategy_names() {
            // A row is the name, padded, then the row's figures.
            let row = stdout.lines().find(|l| {
                l.strip_prefix(name.as_str())
                    .is_some_and(|rest| rest.starts_with(' ') && !rest.trim().is_empty())
            });
            assert!(row.is_some(), "{args:?}: no row for {name}\n{stdout}");
        }
    }
}

#[test]
fn a_malformed_command_line_prints_the_usage() {
    for args in [
        &["--gpus", "8"][..],
        &["--model", "8b", "--frobnicate", "1"][..],
        &["--model", "8b", "--gpus", "eight"][..],
    ] {
        let out = fpdt_plan(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(0), "{args:?}");
        assert!(
            stderr.lines().any(|l| l.starts_with("usage: fpdt-plan ")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
