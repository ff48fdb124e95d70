//! Tile generator shared by the attention suites: shapes that land on and
//! around the kernel's block edges (`BW = 32` resident rows, `BD = 64`
//! streamed rows, 8-lane vectors, the backward's 256x256 macro-tile),
//! unequal `sq != sk`, GQA head grouping, and the three causal relations a
//! `(q_chunk, kv_chunk)` tile can have.

#![allow(dead_code, reason = "each suite uses its own subset")]

use fpdt_attention::default_scale;
use fpdt_attention::online::{attention_block_bwd, rowwise_dot, OnlineAttention};
use fpdt_tensor::{init, Tensor};
use rand::Rng;

/// Sequence lengths either side of every block edge.
pub const LENS: [usize; 6] = [1, 31, 32, 33, 65, 257];
/// Head dims: below one vector, vector + tail, and whole vectors.
pub const DIMS: [usize; 4] = [4, 20, 32, 64];
/// GQA ratios (query heads per KV head).
pub const RATIOS: [usize; 3] = [1, 2, 4];

/// Causal relation of the tile's query rows to its key rows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// Every key precedes every query (an off-diagonal FPDT tile).
    Visible,
    /// Interleaved position ranges; the first rows see no key at all.
    Diagonal,
    /// Every key follows every query.
    Masked,
}

pub const KINDS: [Kind; 3] = [Kind::Visible, Kind::Diagonal, Kind::Masked];

#[derive(Clone, Copy, Debug)]
pub struct TileCase {
    pub sq: usize,
    pub sk: usize,
    pub hkv: usize,
    pub ratio: usize,
    pub d: usize,
    pub kind: Kind,
    /// Positions permuted inside the tile (any order inside a chunk is
    /// legal) instead of ascending.
    pub shuffled: bool,
}

pub struct Tile {
    pub q: Tensor,
    pub k: Tensor,
    pub v: Tensor,
    pub dout: Tensor,
    pub q_pos: Vec<usize>,
    pub kv_pos: Vec<usize>,
    pub scale: f32,
}

/// A fixed list that walks every length, head dim, ratio and kind at least
/// once — small enough to rerun under every backend and thread budget.
pub fn curated() -> Vec<TileCase> {
    let case = |sq, sk, hkv, ratio, d, kind, shuffled| TileCase {
        sq,
        sk,
        hkv,
        ratio,
        d,
        kind,
        shuffled,
    };
    vec![
        case(1, 1, 1, 1, 4, Kind::Visible, false),
        case(31, 33, 1, 2, 20, Kind::Diagonal, true),
        case(32, 32, 2, 1, 32, Kind::Diagonal, false),
        case(33, 31, 1, 4, 4, Kind::Visible, true),
        case(65, 32, 1, 2, 32, Kind::Diagonal, true),
        case(32, 65, 2, 2, 20, Kind::Diagonal, false),
        case(65, 65, 1, 1, 64, Kind::Diagonal, false),
        case(257, 65, 1, 1, 32, Kind::Diagonal, false),
        case(65, 257, 1, 2, 20, Kind::Visible, false),
        case(257, 257, 1, 1, 32, Kind::Diagonal, false),
        case(257, 257, 1, 1, 32, Kind::Diagonal, true),
        case(33, 65, 1, 4, 64, Kind::Masked, false),
        case(257, 31, 2, 1, 4, Kind::Visible, true),
        case(1, 257, 1, 2, 64, Kind::Diagonal, true),
        // Past one 256x256 backward macro-tile in one or both dimensions,
        // ragged remainders. Shuffled diagonals give every query block a
        // span that straddles several KV blocks, so the `dq` phase must
        // skip exactly what the `dk`/`dv` phase skipped.
        case(513, 300, 1, 2, 32, Kind::Diagonal, false),
        case(513, 300, 1, 1, 20, Kind::Diagonal, true),
        case(300, 771, 2, 1, 20, Kind::Visible, false),
        case(300, 771, 1, 4, 32, Kind::Diagonal, true),
        case(64, 1025, 1, 2, 64, Kind::Diagonal, false),
        case(64, 1025, 1, 1, 32, Kind::Masked, true),
        case(600, 600, 1, 2, 64, Kind::Diagonal, true),
        case(600, 600, 2, 2, 32, Kind::Visible, true),
    ]
}

pub fn build(c: &TileCase, seed: u64) -> Tile {
    let h = c.hkv * c.ratio;
    let mut rng = init::seeded_rng(seed);
    let q = init::randn(&mut rng, &[c.sq, h, c.d], 1.0);
    let k = init::randn(&mut rng, &[c.sk, c.hkv, c.d], 1.0);
    let v = init::randn(&mut rng, &[c.sk, c.hkv, c.d], 1.0);
    let dout = init::randn(&mut rng, &[c.sq, h, c.d], 1.0);
    let (mut q_pos, mut kv_pos): (Vec<usize>, Vec<usize>) = match c.kind {
        Kind::Visible => ((c.sk..c.sk + c.sq).collect(), (0..c.sk).collect()),
        // Keys sit at 2..sk+2 and queries spread over 1..=sk+2, so the
        // earliest queries of a long enough tile see nothing and the last
        // one sees everything.
        Kind::Diagonal => (
            (0..c.sq).map(|i| (i + 1) * (c.sk + 2) / c.sq).collect(),
            (2..c.sk + 2).collect(),
        ),
        Kind::Masked => ((0..c.sq).collect(), (c.sq..c.sq + c.sk).collect()),
    };
    if c.shuffled {
        for pos in [&mut q_pos, &mut kv_pos] {
            for i in (1..pos.len()).rev() {
                pos.swap(i, rng.gen_range(0..i + 1));
            }
        }
    }
    Tile {
        q,
        k,
        v,
        dout,
        q_pos,
        kv_pos,
        scale: default_scale(c.d),
    }
}

/// Forward output and log-sum-exp of the tile through the online kernel,
/// with the KV block arriving in `kv_parts` consecutive pieces.
pub fn online_forward(t: &Tile, kv_parts: usize) -> (Tensor, Vec<f32>) {
    let mut st = OnlineAttention::new(&t.q, &t.q_pos, Some(t.scale)).unwrap();
    let sk = t.kv_pos.len();
    let step = sk.div_ceil(kv_parts);
    for b0 in (0..sk).step_by(step) {
        let n = step.min(sk - b0);
        let (kc, vc) = (t.k.narrow(0, b0, n).unwrap(), t.v.narrow(0, b0, n).unwrap());
        st.update(&kc, &vc, &t.kv_pos[b0..b0 + n]).unwrap();
    }
    st.finalize()
}

/// `(dq, dk, dv)` of the tile through the blockwise backward kernel.
pub fn online_backward(t: &Tile, o: &Tensor, lse: &[f32]) -> (Tensor, Tensor, Tensor) {
    let dsum = rowwise_dot(o, &t.dout).unwrap();
    let mut dq = Tensor::zeros(t.q.shape());
    let mut dk = Tensor::zeros(t.k.shape());
    let mut dv = Tensor::zeros(t.v.shape());
    attention_block_bwd(
        &t.q, &t.k, &t.v, &t.dout, lse, &dsum, &t.q_pos, &t.kv_pos, t.scale, &mut dq, &mut dk,
        &mut dv,
    )
    .unwrap();
    (dq, dk, dv)
}

/// Everything the kernels produce for the tile, flattened: output, raw
/// `lse` (`-inf` included), `dq`, `dk`, `dv`.
pub fn online_all(t: &Tile) -> Vec<f32> {
    let (o, lse) = online_forward(t, 1);
    let (dq, dk, dv) = online_backward(t, &o, &lse);
    [o.data(), &lse, dq.data(), dk.data(), dv.data()].concat()
}
