//! bfloat16 payload codec for offload and communication traffic.
//!
//! FPDT's testbed moves activations over PCIe and the all-to-all fabric in
//! bf16 (half the bytes of f32) while every kernel computes in full f32.
//! This module provides the storage format: round-to-nearest-even
//! narrowing on the way out, exact widening (`u16 << 16`) on the way back.
//! Conversion is a pure elementwise function, so it is deterministic and
//! schedule-invariant — enabling bf16 payloads can change numerics (one
//! rounding per transfer) but never the shape or order of the pipeline.

use crate::{Result, Tensor};

/// Narrows one `f32` to bf16 bits with round-to-nearest-even.
///
/// NaN inputs are quieted (the top mantissa bit is forced) so a payload
/// NaN can never round to infinity; infinities and signs pass through
/// exactly, and f32 subnormals land on the nearest bf16 subnormal.
#[inline]
pub fn f32_to_bf16(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round = 0x7fff + ((bits >> 16) & 1);
    ((bits.wrapping_add(round)) >> 16) as u16
}

/// Widens bf16 bits back to `f32` — exact, every bf16 value is
/// representable.
#[inline]
pub fn bf16_to_f32(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

/// A shaped buffer of bf16 values: the wire/host format for offloaded KV
/// chunks and all-to-all payloads under `FPDT_BF16`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bf16Tensor {
    data: Vec<u16>,
    shape: Vec<usize>,
}

impl Bf16Tensor {
    /// Rounds an `f32` tensor to bf16 (RNE per element).
    pub fn from_f32(t: &Tensor) -> Self {
        Bf16Tensor {
            data: t.data().iter().map(|&x| f32_to_bf16(x)).collect(),
            shape: t.shape().to_vec(),
        }
    }

    /// Widens back to an `f32` [`Tensor`] with the original shape.
    pub fn to_f32(&self) -> Result<Tensor> {
        Tensor::from_vec(
            self.data.iter().map(|&b| bf16_to_f32(b)).collect(),
            &self.shape,
        )
    }

    /// Raw bf16 payload bits.
    pub fn data(&self) -> &[u16] {
        &self.data
    }

    /// Tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Bytes this payload occupies on the wire / in the host pool
    /// (2 per element — half the f32 footprint).
    pub fn wire_bytes(&self) -> u64 {
        (self.numel() * 2) as u64
    }
}

/// Rounds a whole `f32` slice to bf16 bits (the comm wire encoder).
pub fn encode_slice(xs: &[f32]) -> Vec<u16> {
    xs.iter().map(|&x| f32_to_bf16(x)).collect()
}

/// Widens a bf16 bit slice back to `f32` (the comm wire decoder).
pub fn decode_slice(bs: &[u16]) -> Vec<f32> {
    bs.iter().map(|&b| bf16_to_f32(b)).collect()
}

/// `f32` values that survive a bf16 round trip unchanged (≤ 8 mantissa
/// bits): the round trip is the identity on these, which the codec tests
/// rely on.
pub fn round_trip(x: f32) -> f32 {
    bf16_to_f32(f32_to_bf16(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_round_trip() {
        for x in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 96.0, -0.09375, 3.140625] {
            assert_eq!(round_trip(x).to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn rounds_to_nearest_even() {
        // 1.0 + 2^-9 sits exactly between bf16 neighbours 1.0 and 1.0 + 2^-8;
        // RNE picks the even mantissa (1.0).
        let halfway = f32::from_bits(0x3f80_8000);
        assert_eq!(round_trip(halfway), 1.0);
        // 1.0 + 3 * 2^-9 is halfway between 1.0 + 2^-8 and 1.0 + 2^-7;
        // RNE picks 1.0 + 2^-7 (even mantissa).
        let halfway_up = f32::from_bits(0x3f81_8000);
        assert_eq!(
            round_trip(halfway_up).to_bits(),
            f32::from_bits(0x3f82_0000).to_bits()
        );
        // Anything above the midpoint rounds up.
        let above = f32::from_bits(0x3f80_8001);
        assert_eq!(
            round_trip(above).to_bits(),
            f32::from_bits(0x3f81_0000).to_bits()
        );
    }

    #[test]
    fn relative_error_is_bounded_by_half_ulp() {
        // bf16 has 8 significand bits: |x - rt(x)| <= 2^-9 * 2^exp.
        for i in 0..1000 {
            let x = (i as f32 * 0.7371).sin() * 100.0;
            let rt = round_trip(x);
            assert!((x - rt).abs() <= x.abs() * (1.0 / 256.0) + f32::MIN_POSITIVE);
        }
    }

    #[test]
    fn subnormals_narrow_to_nearest_bf16_subnormal() {
        // The smallest f32 subnormal underflows to zero in bf16...
        assert_eq!(
            round_trip(f32::MIN_POSITIVE / 2.0_f32.powi(23)).to_bits(),
            0
        );
        // ...while a value at the bf16 subnormal grid survives exactly.
        let bf16_subnormal = f32::from_bits(0x0040_0000);
        assert_eq!(
            round_trip(bf16_subnormal).to_bits(),
            bf16_subnormal.to_bits()
        );
        // Sign of an underflowed negative subnormal is preserved (-0.0).
        let neg = -f32::from_bits(1);
        assert_eq!(round_trip(neg).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn inf_and_nan_are_preserved() {
        assert_eq!(round_trip(f32::INFINITY), f32::INFINITY);
        assert_eq!(round_trip(f32::NEG_INFINITY), f32::NEG_INFINITY);
        assert!(round_trip(f32::NAN).is_nan());
        // A signalling-ish NaN with a low-only payload must stay NaN, not
        // truncate to infinity.
        let snan = f32::from_bits(0x7f80_0001);
        assert!(round_trip(snan).is_nan());
        // Large finite values halfway past bf16::MAX round up to infinity
        // (correct RNE overflow), not to garbage.
        let near_max = f32::from_bits(0x7f7f_ffff); // f32::MAX
        assert_eq!(round_trip(near_max), f32::INFINITY);
    }

    #[test]
    fn tensor_round_trip_preserves_shape_and_halves_bytes() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32 * 0.3).collect(), &[2, 3, 4]).unwrap();
        let b = Bf16Tensor::from_f32(&t);
        assert_eq!(b.shape(), &[2, 3, 4]);
        assert_eq!(b.numel(), 24);
        assert_eq!(b.wire_bytes(), 48);
        let back = b.to_f32().unwrap();
        assert_eq!(back.shape(), t.shape());
        for (x, y) in t.data().iter().zip(back.data()) {
            assert!((x - y).abs() <= x.abs() / 256.0);
        }
    }

    #[test]
    fn slice_codec_matches_scalar_codec() {
        let xs: Vec<f32> = (0..50).map(|i| (i as f32).exp2() - 3.0).collect();
        let enc = encode_slice(&xs);
        assert_eq!(enc, xs.iter().map(|&x| f32_to_bf16(x)).collect::<Vec<_>>());
        let dec = decode_slice(&enc);
        assert_eq!(dec, xs.iter().map(|&x| round_trip(x)).collect::<Vec<_>>());
    }
}
