//! The EXPERIMENTS.md claims, codified: these tests re-derive the shape
//! statements made about every table and figure, so a regression in any
//! crate that would change a published conclusion fails CI.

use fpdt_core::strategy::Fpdt;
use fpdt_model::config::ModelConfig;
use fpdt_model::memory::{table2_backward, table2_forward};
use fpdt_parallel::ulysses::Ulysses;
use fpdt_parallel::{max_seq_len, Strategy, TrainSetup};
use fpdt_sim::cost::CostModel;
use fpdt_sim::hw::ClusterSpec;

const K: u64 = 1024;

fn cluster(hbm: u64, gpus: usize) -> ClusterSpec {
    let (nodes, per) = if gpus <= 4 { (1, gpus) } else { (gpus / 4, 4) };
    if hbm == 40 {
        ClusterSpec::a100_40g(nodes, per)
    } else {
        ClusterSpec::a100_80g(nodes, per)
    }
}

#[test]
fn table1_grid_is_monotone_in_both_axes() {
    // Each row (model fixed): max context non-decreasing with GPUs and with
    // HBM. Each column (hardware fixed): non-increasing with model size.
    let fpdt = Fpdt::paper_default();
    let models = [
        ModelConfig::gpt_2_7b(),
        ModelConfig::llama3_8b(),
        ModelConfig::gpt_13b(),
        ModelConfig::gpt_30b(),
        ModelConfig::llama_70b(),
    ];
    let configs: [(u64, usize); 8] = [
        (40, 1),
        (40, 2),
        (40, 4),
        (40, 8),
        (80, 4),
        (80, 8),
        (80, 16),
        (80, 32),
    ];
    let mut grid = vec![vec![0u64; configs.len()]; models.len()];
    for (mi, m) in models.iter().enumerate() {
        for (ci, &(hbm, g)) in configs.iter().enumerate() {
            grid[mi][ci] = max_seq_len(&fpdt, m, &cluster(hbm, g)).unwrap_or(0);
        }
    }
    // monotone across the GPU axis within each HBM class
    for row in &grid {
        assert!(
            row[0] <= row[1] && row[1] <= row[2] && row[2] <= row[3],
            "40G row {row:?}"
        );
        assert!(
            row[4] <= row[5] && row[5] <= row[6] && row[6] <= row[7],
            "80G row {row:?}"
        );
    }
    // monotone (non-increasing) down each column as models grow
    #[expect(
        clippy::needless_range_loop,
        reason = "c walks a column across two grid rows at once"
    )]
    for c in 0..configs.len() {
        for m in 1..models.len() {
            assert!(
                grid[m][c] <= grid[m - 1][c],
                "column {c}: {} > {} for larger model",
                grid[m][c],
                grid[m - 1][c]
            );
        }
    }
    // the paper's dash cells: largest models on smallest configs
    assert_eq!(grid[4][0], 0, "70B on 1x40G is a dash");
    assert_eq!(grid[3][2], 0, "30B on 4x40G is a dash");
    // and the headline cells are in the millions
    assert!(grid[0][2] >= 2048 * K, "2.7B on 4x40G reaches 2M+");
    assert!(grid[4][7] >= 4096 * K, "70B on 32x80G reaches 4M+");
}

#[test]
fn table2_coefficients_are_frozen() {
    // These are copied verbatim from the paper; nobody should ever touch
    // them without noticing.
    let f = table2_forward();
    assert_eq!(
        (f.hidden, f.qkv_proj, f.all2all, f.attention, f.ffn, f.other),
        (1, 3, 4, 4, 4, 3)
    );
    let b = table2_backward();
    assert_eq!((b.hidden, b.qkv_proj, b.attention, b.ffn), (2, 6, 8, 8));
}

#[test]
fn figure10_orderings() {
    let cost = CostModel::new(ClusterSpec::a100_80g(1, 4));
    let (h, d) = (8u64, 128u64);
    for log in 11..=19 {
        let s = 1u64 << log;
        let bytes = 3 * s * h * d * 2;
        let a2a = cost.all_to_all_time(bytes, 4);
        let fwd = cost.attention_time((2 * s * s * h * d) as f64);
        let bwd = cost.attention_time((5 * s * s * h * d) as f64);
        let fetch = cost.h2d_time(bytes, 4);
        // all-to-all is far below the fetch everywhere (NVLink vs PCIe)
        assert!(a2a < fetch / 2.0, "s={s}");
        // backward is 2.5x forward
        assert!((bwd / fwd - 2.5).abs() < 0.3, "s={s}: {}", bwd / fwd);
    }
    // fwd crossover lies in [32K, 128K); bwd in [16K, 64K)
    let crossed = |mult: u64, lo: u64, hi: u64| {
        let mut prev = false;
        for log in 11..=19 {
            let s = 1u64 << log;
            let attn = cost.attention_time((mult * s * s * h * d) as f64);
            let fetch = cost.h2d_time(3 * s * h * d * 2, 4);
            let now = attn > fetch;
            if now && !prev {
                assert!((lo..hi).contains(&s), "crossover at {s}");
                return;
            }
            prev = now;
        }
        panic!("no crossover");
    };
    crossed(2, 32 * K, 256 * K);
    crossed(5, 16 * K, 128 * K);
}

#[test]
fn figure11_headline_orderings_all_models() {
    // At every fitting rung: FPDT MFU >= Ulysses MFU; and FPDT's max
    // context is strictly larger.
    for m in ModelConfig::paper_suite() {
        let gpus = if m.param_count() > 3e10 as u64 { 32 } else { 8 };
        let c = cluster(80, gpus);
        let fpdt = Fpdt::paper_default();
        let uly = Ulysses::paper_baseline();
        let uly_max = max_seq_len(&uly, &m, &c).unwrap_or(0);
        let fpdt_max = max_seq_len(&fpdt, &m, &c).unwrap_or(0);
        assert!(fpdt_max > uly_max, "{}: {fpdt_max} vs {uly_max}", m.name);
        if uly_max >= 256 * K {
            let setup = TrainSetup::new(m.clone(), c.clone(), uly_max);
            let eu = uly.estimate(&setup);
            let ef = fpdt.estimate(&setup);
            assert!(
                ef.mfu > eu.mfu,
                "{} at {}K: fpdt {} vs ulysses {}",
                m.name,
                uly_max / K,
                ef.mfu,
                eu.mfu
            );
        }
    }
}

#[test]
fn figure12_memory_halves_with_chunk_count() {
    // Doubling the chunk count should keep shrinking activations with
    // diminishing but monotone returns at fixed context.
    let m = ModelConfig::gpt_6_7b();
    let c = ClusterSpec::a100_80g(1, 4);
    let seq = 256 * K;
    let mut prev = u64::MAX;
    for chunk_tokens in [256 * K, 128 * K, 64 * K, 32 * K, 16 * K, 8 * K] {
        let f = Fpdt {
            chunk_tokens,
            ..Fpdt::paper_default()
        };
        let hbm = f
            .estimate(&TrainSetup::new(m.clone(), c.clone(), seq))
            .peak_hbm;
        assert!(hbm < prev, "chunk {}K: {hbm} !< {prev}", chunk_tokens / K);
        prev = hbm;
    }
}

#[test]
fn figure1_per_gpu_context_advantage() {
    // FPDT's tokens-per-GPU at max context beats Ulysses' by >= 4x for the
    // three Figure-1 sizes.
    for (m, gpus) in [
        (ModelConfig::gpt_2_7b(), 4usize),
        (ModelConfig::gpt_13b(), 8),
        (ModelConfig::llama_70b(), 32),
    ] {
        let c = cluster(80, gpus);
        let f = max_seq_len(&Fpdt::paper_default(), &m, &c).unwrap_or(0) / gpus as u64;
        let u = max_seq_len(&Ulysses::paper_baseline(), &m, &c).unwrap_or(0) / gpus as u64;
        assert!(f >= 4 * u.max(1), "{}: {f} vs {u}", m.name);
    }
}
