//! `f32` kernels: the nn and feature hot loops.
//!
//! The matmul body here is the workspace's one matmul kernel, moved
//! verbatim from `crates/nn/src/tensor.rs` so its numeric contract —
//! each output element accumulates its k-products in ascending `p`
//! order from its initial value, rows never mixing — is stated once and
//! compiled per tier. The `av == 0.0` skip is part of that contract
//! (padded LSTM rows are exact zeros, and skipping preserves NaN
//! propagation and `-0.0 + 0.0 == 0.0` exactly as the original loop
//! did), so both tiers keep it.
//!
//! The activation kernels are the clamped odd-rational `tanh`
//! approximation from `crates/nn/src/fastmath.rs` — same coefficients,
//! single [`tanh_core`] body — exposed per-element ([`tanh_f32`],
//! [`sigmoid_f32`]) and as slice maps that the tiered wrappers compile
//! 8-wide under AVX2.

/// Shared `tanh` core: clamp to the f32 saturation range, then the
/// minimax odd rational `x·P(x²)/Q(x²)`. Straight-line mul/add/divide —
/// no branches or libm calls — so it vectorizes in the slice maps.
#[inline(always)]
fn tanh_core(x: f32) -> f32 {
    // Beyond ±7.90531 f32 tanh is 1.0 to the last ulp; clamping first
    // keeps the rational in its fitted range and saturates smoothly.
    let x = x.clamp(-7.905_31, 7.905_31);
    let x2 = x * x;
    let p = x
        * (4.893_525e-3
            + x2 * (6.372_619e-4
                + x2 * (1.485_722_4e-5
                    + x2 * (5.122_297e-8
                        + x2 * (-8.604_672e-11 + x2 * (2.000_188e-13 + x2 * -2.760_768_4e-16))))));
    let q = 4.893_526e-3 + x2 * (2.268_434_6e-3 + x2 * (1.185_347_1e-4 + x2 * 1.198_258_4e-6));
    p / q
}

#[inline(always)]
fn sigmoid_core(x: f32) -> f32 {
    0.5 * tanh_core(0.5 * x) + 0.5
}

/// `tanh(x)` to ~1e-6 absolute error, exactly bounded in `[-1, 1]`.
/// Per-element entry; identical arithmetic on every tier by definition
/// (a single value has nothing to vectorize).
#[inline]
pub fn tanh_f32(x: f32) -> f32 {
    tanh_core(x)
}

/// Logistic sigmoid via the tanh identity `σ(x) = ½·(tanh(x/2) + 1)`;
/// bounded in `[0, 1]`.
#[inline]
pub fn sigmoid_f32(x: f32) -> f32 {
    sigmoid_core(x)
}

/// Matmul register tile per tier: `RB` output rows × `TJ` columns of
/// accumulators live across the whole k loop. The accumulators must not
/// spill the register file but must leave registers free for the `b`
/// tile and broadcasts, so the scalar (SSE2, 4-lane xmm) tier uses 4×16
/// — byte-for-byte the historical `Tensor::matmul_acc` tile — and the
/// AVX2 (8-lane ymm) tier uses 4×32: same 16-accumulator budget at
/// twice the lane width. (8×16 measures *slower*: 16 ymm accumulators
/// leave nothing for the `b` tile, which then reloads every iteration.)
/// Tile shape is the one per-tier parameter of the shared body: it
/// regroups which elements advance together, but every output element
/// still receives its k-products in ascending `p` order, so the tiers
/// stay bit-identical (pinned by the differential suite).
const MATMUL_RB_SCALAR: usize = 4;
const MATMUL_TJ_SCALAR: usize = 16;
const MATMUL_RB_AVX2: usize = 4;
const MATMUL_TJ_AVX2: usize = 32;

/// Shared matmul-accumulate body, `out += a · b` over row-major slices:
/// `a` is (m,k), `b` is (k,n), `out` is (m,n).
///
/// Contract (inherited by `Tensor::matmul`): each output element
/// accumulates its k-products in ascending `p` order starting from its
/// initial value, and rows never mix — row `i` of a batched product is
/// bitwise the row of the solo (1,k)·(k,n) product. The `av == 0.0`
/// skip is contractual (see module docs). Register tiling moves loads
/// and stores, never adds. No FMA on any tier.
#[inline(always)]
fn matmul_body<const RB: usize, const TJ: usize>(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "matmul_acc a shape");
    assert_eq!(b.len(), k * n, "matmul_acc b shape");
    assert_eq!(out.len(), m * n, "matmul_acc out shape");
    let mut i = 0;
    while i + RB <= m {
        let ars: [&[f32]; RB] = core::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
        let mut jt = 0;
        while jt + TJ <= n {
            let mut acc = [[0.0f32; TJ]; RB];
            for (r, accr) in acc.iter_mut().enumerate() {
                accr.copy_from_slice(&out[(i + r) * n + jt..(i + r) * n + jt + TJ]);
            }
            for p in 0..k {
                let bt = &b[p * n + jt..p * n + jt + TJ];
                let avs: [f32; RB] = core::array::from_fn(|r| ars[r][p]);
                for (accr, &av) in acc.iter_mut().zip(&avs) {
                    // `av != ±0.0` as an integer bits test: identical
                    // truth table to `av == 0.0` (NaN has mantissa bits
                    // set, so it is never skipped), but the test runs on
                    // the integer ports instead of stealing FP-ALU
                    // slots from the mul/add stream (`ucomiss` issues on
                    // the same port; measurably slower in the hot tile).
                    if av.to_bits() & 0x7FFF_FFFF == 0 {
                        continue;
                    }
                    for (o, &bv) in accr.iter_mut().zip(bt) {
                        *o += av * bv;
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                out[(i + r) * n + jt..(i + r) * n + jt + TJ].copy_from_slice(accr);
            }
            jt += TJ;
        }
        // Column tail of the row block.
        if jt < n {
            for (r, ar) in ars.into_iter().enumerate() {
                let out_row = &mut out[(i + r) * n + jt..(i + r + 1) * n];
                for (p, &av) in ar.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let bt = &b[p * n + jt..(p + 1) * n];
                    for (o, &bv) in out_row.iter_mut().zip(bt) {
                        *o += av * bv;
                    }
                }
            }
        }
        i += RB;
    }
    // Remainder rows: plain single-row ikj.
    for i in i..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Per-tier matmul copies, hand-laid-out (the one kernel whose tile
/// width differs by tier, so it can't share `tier_kernels!`'s
/// single-body expansion). Same module layout as the macro emits.
pub(crate) mod mm {
    /// Scalar-oracle matmul: byte-for-byte the historical
    /// `Tensor::matmul_acc` kernel (4×16 tile at the default baseline).
    pub mod scalar {
        /// Matrix-multiply-accumulate `out += a · b`; see
        /// [`crate::matmul_acc_f32`] for the contract.
        #[inline]
        pub fn matmul_acc_f32(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
            super::super::matmul_body::<
                { super::super::MATMUL_RB_SCALAR },
                { super::super::MATMUL_TJ_SCALAR },
            >(out, a, b, m, k, n)
        }
    }

    #[cfg(target_arch = "x86_64")]
    pub(crate) mod avx2 {
        /// # Safety
        /// The running CPU must support AVX2.
        #[target_feature(enable = "avx2")]
        pub unsafe fn matmul_acc_f32(
            out: &mut [f32],
            a: &[f32],
            b: &[f32],
            m: usize,
            k: usize,
            n: usize,
        ) {
            super::super::matmul_body::<
                { super::super::MATMUL_RB_AVX2 },
                { super::super::MATMUL_TJ_AVX2 },
            >(out, a, b, m, k, n)
        }
    }

    /// AVX2 matmul behind a runtime check (panics without AVX2).
    #[cfg(target_arch = "x86_64")]
    pub mod avx2_checked {
        /// Matrix-multiply-accumulate `out += a · b` on the AVX2 path;
        /// see [`crate::matmul_acc_f32`] for the contract.
        pub fn matmul_acc_f32(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
            assert!(
                crate::cpu_features().avx2,
                "matmul_acc_f32: AVX2 not available on this CPU"
            );
            // SAFETY: AVX2 support verified just above.
            unsafe { super::avx2::matmul_acc_f32(out, a, b, m, k, n) }
        }
    }
}

/// Matrix-multiply-accumulate `out += a · b` over row-major slices:
/// `a` is (m,k), `b` is (k,n), `out` is (m,n). Dispatches on
/// [`crate::active`].
///
/// Contract (inherited by `Tensor::matmul`): each output element
/// accumulates its k-products in ascending `p` order starting from its
/// initial value, and rows never mix — row `i` of a batched product is
/// bitwise the row of the solo (1,k)·(k,n) product, on every tier.
#[inline]
pub fn matmul_acc_f32(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if crate::active() == crate::Tier::Avx2 {
        // SAFETY: `active()` reports Avx2 only when
        // `is_x86_feature_detected!("avx2")` held.
        return unsafe { mm::avx2::matmul_acc_f32(out, a, b, m, k, n) };
    }
    mm::scalar::matmul_acc_f32(out, a, b, m, k, n)
}

tier_kernels! {
    /// `dst[i] = tanh(src[i])` with the [`tanh_f32`] rational.
    pub fn tanh_map(src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "tanh_map length mismatch");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = tanh_core(s);
        }
    }

    /// `dst[i] = σ(src[i])` with the [`sigmoid_f32`] rational.
    pub fn sigmoid_map(src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "sigmoid_map length mismatch");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = sigmoid_core(s);
        }
    }

    /// Elementwise accumulate `dst[i] += src[i]`.
    pub fn add_assign_f32(dst: &mut [f32], src: &[f32]) {
        assert_eq!(dst.len(), src.len(), "add_assign length mismatch");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }

    /// Elementwise scale `dst[i] *= k`.
    pub fn scale_f32(dst: &mut [f32], k: f32) {
        for d in dst.iter_mut() {
            *d *= k;
        }
    }

    /// Scaled accumulate `dst[i] += alpha * x[i]` (mul then add — no FMA).
    pub fn axpy_f32(dst: &mut [f32], alpha: f32, x: &[f32]) {
        assert_eq!(dst.len(), x.len(), "axpy length mismatch");
        for (d, &v) in dst.iter_mut().zip(x) {
            *d += alpha * v;
        }
    }

    /// Elementwise product `dst[i] = a[i] * b[i]`.
    pub fn mul_f32(dst: &mut [f32], a: &[f32], b: &[f32]) {
        assert_eq!(dst.len(), a.len(), "mul length mismatch");
        assert_eq!(dst.len(), b.len(), "mul length mismatch");
        for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
            *d = x * y;
        }
    }

    /// Fused-gate update `dst[i] = a[i]*b[i] + c[i]*d[i]` — the LSTM cell
    /// state `c = u⊙c̃ + f⊙c_prev`, kept as mul, mul, add (no FMA).
    pub fn mul2_add_f32(dst: &mut [f32], a: &[f32], b: &[f32], c: &[f32], d: &[f32]) {
        assert_eq!(dst.len(), a.len(), "mul2_add length mismatch");
        assert_eq!(dst.len(), b.len(), "mul2_add length mismatch");
        assert_eq!(dst.len(), c.len(), "mul2_add length mismatch");
        assert_eq!(dst.len(), d.len(), "mul2_add length mismatch");
        for i in 0..dst.len() {
            dst[i] = a[i] * b[i] + c[i] * d[i];
        }
    }

    /// TF-IDF weighting `out[i] = (counts[i] / total) * idf[ids[i]]` —
    /// the dense tail of `TfidfVectorizer::transform` once the count map
    /// is flattened to id/count arrays. Two passes: a gather of `idf`
    /// (scalar either way) then the vectorizable divide-multiply.
    pub fn tfidf_weights(ids: &[u32], counts: &[f32], idf: &[f32], total: f32, out: &mut [f32]) {
        assert_eq!(ids.len(), out.len(), "tfidf_weights length mismatch");
        assert_eq!(counts.len(), out.len(), "tfidf_weights length mismatch");
        for (o, &id) in out.iter_mut().zip(ids) {
            *o = idf[id as usize];
        }
        // `*o * (c/total)`, not `(c/total) * *o`: IEEE multiply is
        // value-commutative, and the assign form satisfies clippy.
        for (o, &c) in out.iter_mut().zip(counts) {
            *o *= c / total;
        }
    }
}
