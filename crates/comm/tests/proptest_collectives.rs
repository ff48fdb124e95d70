//! Property-based tests of the collective layer: algebraic identities
//! that must hold for any world size, payload and content.

use fpdt_comm::run_group;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn all_to_all_is_a_transpose(
        world in 1usize..5,
        seed in 0u64..1000,
    ) {
        // all_to_all twice = identity (it transposes the (src, dst) matrix).
        let out = run_group(world, move |comm| {
            let r = comm.rank();
            let parts: Vec<Vec<f32>> = (0..world)
                .map(|dst| vec![(seed as f32) + (r * world + dst) as f32])
                .collect();
            let once = comm.all_to_all(parts.clone()).unwrap();
            let twice = comm.all_to_all(once).unwrap();
            (parts, twice)
        });
        for (orig, round_trip) in out {
            prop_assert_eq!(orig, round_trip);
        }
    }

    #[test]
    fn all_reduce_is_the_rank_ordered_sum(
        world in 1usize..5,
        n in 1usize..8,
        seed in 0u64..1000,
    ) {
        // Any rank's contribution is computable locally, so every rank
        // checks the collective against zero plus each rank's data added
        // in ascending rank order, bitwise.
        let contribution = move |r: usize| -> Vec<f32> {
            (0..n).map(|i| ((seed as usize + r * 31 + i) % 17) as f32 * 0.1).collect()
        };
        let out = run_group(world, move |comm| comm.all_reduce(&contribution(comm.rank())).unwrap());
        let mut want = vec![0.0f32; n];
        for r in 0..world {
            for (w, x) in want.iter_mut().zip(contribution(r)) {
                *w += x;
            }
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for got in out {
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn ring_exchange_world_times_is_identity(
        world in 1usize..6,
        seed in 0u64..1000,
    ) {
        let out = run_group(world, move |comm| {
            let orig = vec![seed as f32 + comm.rank() as f32];
            let mut cur = orig.clone();
            for _ in 0..world {
                cur = comm.ring_exchange(cur).unwrap();
            }
            (orig, cur)
        });
        for (orig, back) in out {
            prop_assert_eq!(orig, back);
        }
    }
}
