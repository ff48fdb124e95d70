//! Figure 2: the DeepSpeed Ulysses communication pattern — each GPU starts
//! with its sequence slice and *all* heads; the all-to-all leaves it with
//! the *whole* sequence and its head group. Demonstrated on real tensors
//! with value-coded entries so the redistribution is visible, plus the
//! Figure 3 point: ZeRO-3 shards model state over the same group (shown by
//! the static-memory accounting).

use fpdt_comm::{run_group, AllToAllLayout};
use fpdt_model::config::ModelConfig;
use fpdt_model::memory::{static_bytes, ShardSpec};
use fpdt_tensor::Tensor;

fn main() {
    let (p, s_local, heads, d) = (4usize, 2usize, 8usize, 1usize);
    println!("Figure 2: Ulysses all-to-all (p = {p} GPUs, {heads} heads, {s_local} tokens/GPU)\n");
    println!(
        "entries are coded as 100*rank + 10*token + head/{}:\n",
        heads / p
    );

    let results = run_group(p, |comm| {
        let r = comm.rank();
        let mut x = Tensor::zeros(&[s_local, heads, d]);
        for t in 0..s_local {
            for h in 0..heads {
                x.data_mut()[t * heads + h] = (100 * r + 10 * t + h) as f32;
            }
        }
        let layout = AllToAllLayout::scatter_heads(x.shape(), comm.world()).unwrap();
        let gathered = layout.apply(&comm, &x).unwrap();
        (x, gathered)
    });

    for (r, (before, after)) in results.iter().enumerate() {
        println!(
            "GPU {r}: before [{} tokens x {} heads] -> after [{} tokens x {} heads]",
            before.shape()[0],
            before.shape()[1],
            after.shape()[0],
            after.shape()[1]
        );
        // after: every token of every rank, heads r*2..r*2+2
        let hl = heads / p;
        for row in 0..after.shape()[0] {
            let vals: Vec<String> = (0..hl)
                .map(|h| format!("{:5.0}", after.at(&[row, h, 0])))
                .collect();
            print!("  row {row}: {}  ", vals.join(" "));
            if row % 2 == 1 {
                println!();
            }
        }
        println!();
    }
    println!("every GPU now holds all 8 tokens but only its own 2-head group — sequence");
    println!("gathered, heads scattered, with constant per-GPU volume (paper §2.2).\n");

    // Figure 3: the same group doubles as the ZeRO-3 group.
    let m = ModelConfig::llama3_8b();
    let full = static_bytes(&m, ShardSpec::ddp()) as f64 / (1u64 << 30) as f64;
    let sharded = static_bytes(&m, ShardSpec::zero3(p)) as f64 / (1u64 << 30) as f64;
    println!(
        "Figure 3: ZeRO-3 over the sequence-parallel group — {} model state:",
        m.name
    );
    println!("  replicated: {full:.1} GiB/GPU   sharded over {p}: {sharded:.1} GiB/GPU");
}
