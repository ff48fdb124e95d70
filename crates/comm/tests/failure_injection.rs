//! Failure injection: collectives must fail loudly and precisely when a
//! peer dies or diverges, never hang or silently corrupt — the property
//! that makes distributed bugs debuggable.

#![expect(
    clippy::disallowed_methods,
    reason = "each test drives its ranks from threads of its own, peers dead or diverged"
)]

use fpdt_comm::{CommError, CommGroup};
use std::thread;

#[test]
fn recv_from_dead_peer_reports_disconnection() {
    let mut group = CommGroup::new(2);
    let mut comms = group.communicators();
    let c1 = comms.pop().unwrap();
    let c0 = comms.pop().unwrap();
    // Rank 1 dies immediately (drops its endpoint).
    drop(c1);
    // Rank 0's receive must fail with PeerDisconnected, not hang.
    let got = c0.recv("x", 1);
    assert!(
        matches!(got, Err(CommError::PeerDisconnected { peer: 1 })),
        "{got:?}"
    );
}

#[test]
fn send_to_dead_peer_reports_disconnection() {
    let mut group = CommGroup::new(2);
    let mut comms = group.communicators();
    let c1 = comms.pop().unwrap();
    let c0 = comms.pop().unwrap();
    drop(c1);
    assert!(matches!(
        c0.send("x", 1, vec![1.0]),
        Err(CommError::PeerDisconnected { peer: 1 })
    ));
}

#[test]
fn collective_with_dead_rank_fails_not_hangs() {
    let mut group = CommGroup::new(3);
    let comms = group.communicators();
    let mut it = comms.into_iter();
    let c0 = it.next().unwrap();
    let c1 = it.next().unwrap();
    let c2 = it.next().unwrap();
    drop(c2); // rank 2 crashes before the collective

    let h0 = thread::spawn(move || c0.all_reduce(&[1.0]));
    let h1 = thread::spawn(move || c1.all_reduce(&[2.0]));
    // Both survivors must fail within bounded time with a proper error —
    // the whole collective surface returns Result, nothing panics.
    for h in [h0, h1] {
        let result = h.join().expect("no panic on the uniform Result surface");
        assert!(result.is_err());
    }
}

#[test]
fn mixed_collectives_detected_as_desync() {
    let mut group = CommGroup::new(2);
    let comms = group.communicators();
    let mut it = comms.into_iter();
    let c0 = it.next().unwrap();
    let c1 = it.next().unwrap();
    // Rank 0 runs all_gather while rank 1 runs all_to_all (genuinely
    // different wire tags): the tag check must catch the SPMD violation
    // on at least one side.
    let h0 = thread::spawn(move || c0.all_gather(&[1.0]).is_err());
    let h1 = thread::spawn(move || c1.all_to_all(vec![vec![1.0], vec![2.0]]).is_err());
    let r0 = h0.join().unwrap();
    let r1 = h1.join().unwrap();
    assert!(r0 || r1, "at least one side must detect the desync");
}

#[test]
fn error_messages_identify_the_peer() {
    let e = CommError::PeerDisconnected { peer: 3 };
    assert!(e.to_string().contains('3'));
    let e = CommError::Desync {
        local_op: "all_gather",
        remote_op: "all_reduce".into(),
    };
    assert!(e.to_string().contains("all_gather"));
    assert!(e.to_string().contains("all_reduce"));
}
