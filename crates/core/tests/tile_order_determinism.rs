//! Any valid order of the backward tile DAG produces the same bits.
//!
//! The backward runs one `(q_chunk i, kv_chunk j)` tile at a time, and
//! the only ordering the numerics depend on is per accumulator: `dq_i`
//! folds its tiles in ascending `j`, `dk_j`/`dv_j` theirs in ascending
//! `i`. So tile `(i, j)` must run after `(i, j-1)` and after `(i-1, j)`
//! — and *every* linear extension of that DAG, cut into slots anywhere,
//! must give bitwise-identical gradients and identical transfer and
//! post counts. `tile_slots(u)` is the one order production runs; this
//! suite feeds `DistAttention::backward_tiles` generated orders — always
//! including the paper's Figure-7 column-per-slot nest and the row-major
//! sweep — and compares each against the production walk, at 1, 2, and
//! 8 kernel-pool threads.

mod common;

use common::ForcedParallel;
use fpdt_comm::{run_group, CommStats};
use fpdt_core::chunk::{tile_slots, ChunkPlan};
use fpdt_core::offload::PoolStats;
use fpdt_core::runtime::exec::{AttentionExec, DistAttention};
use fpdt_tensor::{init, Tensor};
use proptest::TestRng;
use std::sync::Arc;

type Slots = Vec<Vec<(usize, usize)>>;

/// Figure 7: one slot per KV column, queries ascending inside it.
fn column_per_slot(u: usize) -> Slots {
    (0..u).map(|j| (j..u).map(|i| (i, j)).collect()).collect()
}

/// One slot per query row, KV ascending inside it.
fn row_per_slot(u: usize) -> Slots {
    (0..u).map(|i| (0..=i).map(|j| (i, j)).collect()).collect()
}

/// A random linear extension of the tile DAG, cut into random non-empty
/// slots (the cut density is itself drawn per case, so both one-big-slot
/// and one-tile-per-slot shapes occur).
fn random_order(u: usize, rng: &mut TestRng) -> Slots {
    // `next_j[i]` is the next KV chunk row i may run; tile (i, j) is ready
    // once row i reached j and column j reached i, i.e. row i-1 is past j.
    let mut next_j = vec![0usize; u];
    let mut flat = Vec::with_capacity(u * (u + 1) / 2);
    loop {
        let ready: Vec<usize> = (0..u)
            .filter(|&i| next_j[i] <= i && (next_j[i] == i || next_j[i - 1] > next_j[i]))
            .collect();
        if ready.is_empty() {
            break;
        }
        let i = ready[rng.below(ready.len())];
        flat.push((i, next_j[i]));
        next_j[i] += 1;
    }
    let cut_one_in = 1 + rng.below(4);
    let mut slots: Slots = vec![Vec::new()];
    for tile in flat {
        let open = slots.last_mut().expect("at least one slot");
        if !open.is_empty() && rng.below(cut_one_in) == 0 {
            slots.push(vec![tile]);
        } else {
            open.push(tile);
        }
    }
    slots
}

/// The generator's own contract: every tile once, rows ascending in `j`,
/// columns ascending in `i`, no empty slot.
fn assert_valid_order(u: usize, slots: &Slots) {
    assert!(
        slots.iter().all(|s| !s.is_empty()),
        "empty slot in {slots:?}"
    );
    let mut next_j = vec![0usize; u];
    let mut next_i: Vec<usize> = (0..u).collect();
    for &(i, j) in slots.iter().flatten() {
        assert!(j <= i && i < u, "tile ({i},{j}) outside the triangle");
        assert_eq!(j, next_j[i], "row {i} out of order in {slots:?}");
        assert_eq!(i, next_i[j], "column {j} out of order in {slots:?}");
        next_j[i] += 1;
        next_i[j] += 1;
    }
    assert!(
        (0..u).all(|i| next_j[i] == i + 1),
        "order does not cover the triangle: {slots:?}"
    );
}

/// What one rank observed: gradient bits, pool statistics with the peak
/// residency zeroed (when rows are staged is exactly what an order
/// changes; every transfer counter and byte total must match),
/// posted-op count, and wire statistics.
#[derive(Debug, PartialEq)]
struct Observed {
    grads: [Vec<u32>; 3],
    pool: PoolStats,
    posted: u64,
    comm: CommStats,
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Forward plus backward on 2 ranks with `u` offloaded chunks; `order`
/// picks the backward walk (`None` = the production `backward`).
fn run(u: usize, order: Option<&Slots>) -> Vec<Observed> {
    let (s, h, d) = (4 * u, 2, 4);
    let mut rng = init::seeded_rng(7 + u as u64);
    let q = init::randn(&mut rng, &[s, h, d], 1.0);
    let k = init::randn(&mut rng, &[s, h, d], 1.0);
    let v = init::randn(&mut rng, &[s, h, d], 1.0);
    let dout = init::randn(&mut rng, &[s / 2, h, d], 1.0);
    run_group(2, |comm| {
        let comm = Arc::new(comm);
        let plan = ChunkPlan::new(s, 2, u).unwrap();
        let pos = plan.local_positions(comm.rank());
        let rows = |t: &Tensor| {
            let parts: Vec<Tensor> = pos.iter().map(|&p| t.narrow(0, p, 1).unwrap()).collect();
            let refs: Vec<&Tensor> = parts.iter().collect();
            Tensor::concat(&refs, 0).unwrap()
        };
        let mut ex = DistAttention::new(Arc::clone(&comm), plan, true);
        ex.forward(0, &rows(&q), &rows(&k), &rows(&v), &pos)
            .unwrap();
        let (dq, dk, dv) = match order {
            Some(slots) => ex.backward_tiles(0, &dout, slots),
            None => ex.backward(0, &dout),
        }
        .unwrap();
        let pool = PoolStats {
            peak_bytes: 0,
            ..ex.host_stats()
        };
        let posted = ex.comm_posted();
        // The executor's comm stream must drain before the wire counters
        // are read.
        drop(ex);
        Observed {
            grads: [bits(&dq), bits(&dk), bits(&dv)],
            pool,
            posted,
            comm: comm.stats(),
        }
    })
}

#[test]
fn every_tile_order_matches_the_production_walk_bitwise() {
    for u in 1..=6usize {
        let mut orders: Vec<(String, Slots)> = vec![
            ("tile_slots".into(), tile_slots(u)),
            ("column-per-slot (Figure 7)".into(), column_per_slot(u)),
            ("row-per-slot".into(), row_per_slot(u)),
        ];
        for case in 0..6u64 {
            let mut rng = TestRng::for_case("tile_order_determinism", 100 * u as u64 + case);
            orders.push((format!("random #{case}"), random_order(u, &mut rng)));
        }
        for (_, slots) in &orders {
            assert_valid_order(u, slots);
        }

        let reference = {
            let _cfg = ForcedParallel::new(1);
            run(u, None)
        };
        assert!(
            reference
                .iter()
                .all(|o| o.grads.iter().all(|g| g.iter().any(|&b| b != 0))),
            "all-zero gradients would make the comparison vacuous (u={u})"
        );
        assert!(
            reference
                .iter()
                .all(|o| o.pool.fetches > 0 && o.posted == 6 * u as u64),
            "the reference must move chunks and post its 6u ops (u={u})"
        );
        for threads in [1usize, 2, 8] {
            for (name, slots) in &orders {
                let got = {
                    let _cfg = ForcedParallel::new(threads);
                    run(u, Some(slots))
                };
                assert_eq!(
                    reference, got,
                    "u={u}, {threads} threads, order {name}: {slots:?}"
                );
            }
        }
    }
}
