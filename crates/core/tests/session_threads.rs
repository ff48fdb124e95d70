//! A `Trainer` owns its threads.
//!
//! Each rank session is one thread (`fpdt-rank-r{rank}`). Over a priced
//! simulated link it owns the comm stream's worker (`fpdt-comm-r{rank}`)
//! and, when offloading, the two copy streams' workers (`fpdt-d2h-r{rank}`,
//! `fpdt-h2d-r{rank}`); over a free link its streams run inline and the
//! rank threads are all there is. They live as long as the sessions: calls
//! reuse them, a resize or a failed call shuts them down, and dropping the
//! Trainer joins every one of them. Checked by thread name from
//! `/proc/self/task/*/comm`, so on Linux only, and in a test binary of its
//! own so no other test's trainer shares the names.

use fpdt_core::runtime::{Mode, RuntimeOptions, TrainConfig, Trainer};

/// Sorted names of this process's session threads; `None` where the
/// process's threads cannot be listed.
fn session_threads() -> Option<Vec<String>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let mut names: Vec<String> = tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .filter(|name| {
            ["fpdt-rank-", "fpdt-comm-", "fpdt-d2h-", "fpdt-h2d-"]
                .iter()
                .any(|prefix| name.starts_with(prefix))
        })
        .collect();
    names.sort();
    Some(names)
}

/// The session threads of a 2-rank offloaded Trainer whose threads are
/// `kinds`, sorted.
fn names(kinds: &[&str]) -> Vec<String> {
    kinds
        .iter()
        .flat_map(|kind| (0..2).map(move |rank| format!("fpdt-{kind}-r{rank}")))
        .collect()
}

#[test]
fn sessions_live_as_long_as_the_trainer_and_leave_no_thread_behind() {
    let Some(before) = session_threads() else {
        return;
    };
    assert!(before.is_empty(), "{before:?}");
    // One test, not two: the thread list is process-wide, so two
    // trainers alive at once would see each other's threads. 100 GB/s
    // prices the link while the fixture's transfers stay below the sleep
    // resolution.
    for (sim_gbps, kinds) in [
        (100.0, &["comm", "d2h", "h2d", "rank"][..]),
        (0.0, &["rank"][..]),
    ] {
        sessions_follow_the_trainer(sim_gbps, &names(kinds));
    }
}

fn sessions_follow_the_trainer(sim_gbps: f64, live: &[String]) {
    let clean = RuntimeOptions::from_env()
        .with_fault_inject(0)
        .with_comm_retries(0)
        .with_sim_gbps(sim_gbps);
    let cfg = TrainConfig {
        steps: 8,
        mode: Mode::Fpdt {
            chunks: 2,
            offload: true,
        },
        runtime: clean,
        ..TrainConfig::small(Mode::Single)
    };
    let mut trainer = Trainer::new(cfg);
    assert_eq!(
        session_threads(),
        Some(vec![]),
        "nothing spawns before the first call"
    );
    for _ in 0..2 {
        trainer.run_steps(1).expect("healthy call");
        assert_eq!(
            session_threads().unwrap(),
            live,
            "one set of threads, reused"
        );
    }
    trainer.resize(2);
    assert_eq!(
        session_threads(),
        Some(vec![]),
        "a resize shuts the sessions down"
    );
    trainer.run_steps(1).expect("healthy call");
    assert_eq!(session_threads().unwrap(), live);
    trainer.set_runtime(clean.with_fault_inject(1));
    trainer
        .run_steps(1)
        .expect_err("no retry budget: the call fails");
    assert_eq!(
        session_threads(),
        Some(vec![]),
        "a failed call shuts the sessions down"
    );
    trainer.set_runtime(clean);
    trainer.run_steps(1).expect("recovered call");
    assert_eq!(session_threads().unwrap(), live);
    drop(trainer);
    assert_eq!(
        session_threads(),
        Some(vec![]),
        "dropping the Trainer joins them all"
    );
}
