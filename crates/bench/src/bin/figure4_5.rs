//! Figures 4 & 5: distributed attention with offloading — narrated live.
//! A sequence streams through the online-attention state chunk by chunk;
//! after each chunk's compute, its QKV moves to the host pool, and later
//! chunks fetch the cached KV back. The printout shows exactly the
//! residency discipline the two figures draw: at any instant only the
//! current chunk (plus the one being fetched) lives on "HBM".

use fpdt_attention::online::OnlineAttention;
use fpdt_core::offload::{BufKind, ChunkKey, OffloadEngine};
use fpdt_tensor::{init, Tensor};
use std::sync::Arc;

fn main() {
    let (s, h, d, u) = (64usize, 4usize, 16usize, 4usize);
    let chunk = s / u;
    let mut rng = init::seeded_rng(0);
    let q = init::randn(&mut rng, &[s, h, d], 1.0);
    let k = init::randn(&mut rng, &[s, h, d], 1.0);
    let v = init::randn(&mut rng, &[s, h, d], 1.0);
    let pos: Vec<usize> = (0..s).collect();
    // a host pool over a free link
    let mut pool = OffloadEngine::new(false);
    let kib = |b: u64| b as f64 / 1024.0;

    println!("Figures 4/5: chunked attention with offloading ({u} chunks of {chunk} tokens)\n");
    let mut outputs = Vec::new();
    for i in 0..u {
        let qi = q.narrow(0, i * chunk, chunk).unwrap();
        let mut st = OnlineAttention::new(&qi, &pos[i * chunk..(i + 1) * chunk], None).unwrap();
        print!("chunk T_{i}: attend to [");
        for j in 0..i {
            // fetch previously offloaded KV from host (Figure 5)
            let kj = pool
                .prefetch(&ChunkKey::new(0, BufKind::K, j), false)
                .unwrap()
                .wait();
            let vj = pool
                .prefetch(&ChunkKey::new(0, BufKind::V, j), false)
                .unwrap()
                .wait();
            st.update(&kj, &vj, &pos[j * chunk..(j + 1) * chunk])
                .unwrap();
            print!("T_{j}(host) ");
        }
        let ki = k.narrow(0, i * chunk, chunk).unwrap();
        let vi = v.narrow(0, i * chunk, chunk).unwrap();
        st.update(&ki, &vi, &pos[i * chunk..(i + 1) * chunk])
            .unwrap();
        print!("T_{i}(hbm)]");
        let (oi, _) = st.finalize();
        outputs.push(oi);
        // offload this chunk's KV for future chunks / backward (Figure 4)
        pool.put(ChunkKey::new(0, BufKind::K, i), Arc::new(ki));
        pool.put(ChunkKey::new(0, BufKind::V, i), Arc::new(vi));
        let st = pool.stats();
        // every fetch keeps its chunk, so every put is still resident
        println!(
            "   host: {} chunks / {:.0} KiB (fetches so far: {})",
            st.offloads,
            kib(st.bytes),
            st.fetches
        );
    }

    // verify against the monolithic reference
    let refs: Vec<&Tensor> = outputs.iter().collect();
    let streamed = Tensor::concat(&refs, 0).unwrap();
    let full = fpdt_attention::reference::causal_attention(&q, &k, &v).unwrap();
    let err = streamed
        .data()
        .iter()
        .zip(full.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    let st = pool.stats();
    println!(
        "\ntotal: {} offloads, {} fetches, host peak {:.0} KiB",
        st.offloads,
        st.fetches,
        kib(st.peak_bytes)
    );
    println!("streamed output vs monolithic reference: max |err| = {err:.2e}");
    println!("\npaper: \"at any given time, only one set of chunks k,v is placed on the");
    println!("GPU's HBM, reducing the memory footprint to 1/u\" — here the resident KV is");
    println!("one chunk (1/{u} of the sequence) while the rest waits in host memory.");
    assert!(err < 1e-3);
}
