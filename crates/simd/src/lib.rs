//! # sqlan-simd
//!
//! Runtime-dispatched SIMD kernel tier for the workspace's hot loops.
//!
//! Every kernel here exists twice from a single source body: once
//! compiled under the workspace's default `x86-64` baseline (the
//! **scalar oracle** — at most the SSE2 auto-vectorization every crate
//! already had) and once under `#[target_feature(enable = "avx2")]`
//! (8-wide `f32` / 4-wide `f64` codegen). Which copy runs is decided by
//! [`active`]: AVX2 is detected once per process via
//! `is_x86_feature_detected!` and used where present, and [`force`]
//! overrides the choice programmatically (tier sweeps, differential
//! tests).
//!
//! ## The bit-identity contract
//!
//! Every kernel in this crate is **bit-identical across tiers, by
//! construction**: the AVX2 twin compiles the *same Rust body*, and the
//! bodies only contain operations whose lane-wise IEEE semantics are
//! exact (`+`, `-`, `*`, `/`, comparisons, min/max, integer ops). No
//! reduction is vectorized across its accumulation order, and FMA
//! contraction is never used: no kernel emits fused ops, because fusing
//! would change bits against the scalar oracle.
//! LLVM's auto-vectorizer is required to preserve IEEE semantics when
//! not told otherwise, so "same body, wider registers" is exactly the
//! same arithmetic. `tests/differential.rs` pins the property on random
//! inputs (odd lengths, empty slices, tile-boundary sizes) rather than
//! trusting the argument.
//!
//! One carve-out: **NaN payloads**. Rust leaves the bit pattern of a
//! NaN produced by arithmetic unspecified, and LLVM may canonicalize
//! the operands of a commutative op differently in the two compiled
//! copies — `0.0 * inf + NaN` can surface a different quiet-NaN sign
//! bit per tier in release builds. The contract is therefore: every
//! non-NaN result (including ±0 and subnormals) is bit-identical, and a
//! NaN result is a NaN result on both tiers, payload unspecified. NaNs
//! never flow through the trained-model or labeling pipelines (the
//! determinism batteries pin those byte-for-byte end to end), so the
//! carve-out is only observable to code that feeds NaNs in directly.
//!
//! Kernels that would need to reassociate to vectorize (dot products,
//! norms, running sums) are deliberately **not** in this crate: their
//! scalar accumulation order is a workspace contract (see
//! `ARCHITECTURE.md` § "SIMD kernel tier").
//!
//! ## Dispatch
//!
//! [`active`] reads one relaxed atomic — callers may consult it per
//! call. Kernels whose bodies amortize many elements (matmul, column
//! compares) dispatch once per kernel call, not per element.

#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicU8, Ordering};

#[macro_use]
mod tier;
mod f32k;
mod f64k;

pub use f32k::{
    add_assign_f32, axpy_f32, matmul_acc_f32, mul2_add_f32, mul_f32, scale_f32, sigmoid_f32,
    sigmoid_map, tanh_f32, tanh_map, tfidf_weights,
};
pub use f64k::{arith_f64, between_f64, bit_i64, cmp_f64, ArgF64, ArgI64, ArithOp, BitOp, CmpOp};

/// Raw per-tier entry points, for differential tests that want a
/// *specific* code path regardless of the active dispatch tier.
pub mod paths {
    /// The scalar-oracle copies (always compiled, default baseline).
    pub mod scalar {
        pub use crate::f32k::mm::scalar::*;
        pub use crate::f32k::scalar::*;
        pub use crate::f64k::scalar::*;
    }
    /// The AVX2 copies. Calling them is **safe but checked**: each
    /// wrapper panics unless AVX2 was detected on this CPU.
    #[cfg(target_arch = "x86_64")]
    pub mod avx2 {
        pub use crate::f32k::avx2_checked::*;
        pub use crate::f32k::mm::avx2_checked::*;
        pub use crate::f64k::avx2_checked::*;
    }
}

/// Which kernel copy a dispatch resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The always-compiled baseline bodies (the bit-exactness oracle).
    Scalar,
    /// The `#[target_feature(enable = "avx2")]` twins.
    Avx2,
}

impl Tier {
    /// Stable lowercase name (`"scalar"` / `"avx2"`), as reported by
    /// perfbench.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
        }
    }
}

/// CPU features relevant to the tier, detected once per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    pub avx2: bool,
}

/// Detect the CPU's features (never consults [`force`]).
pub fn cpu_features() -> CpuFeatures {
    #[cfg(target_arch = "x86_64")]
    {
        CpuFeatures {
            avx2: std::arch::is_x86_feature_detected!("avx2"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        CpuFeatures { avx2: false }
    }
}

// Encoding for the cached/forced tier byte.
const UNSET: u8 = 0;
const SCALAR: u8 = 1;
const AVX2: u8 = 2;

/// The detected tier, cached after first use.
static DETECTED: AtomicU8 = AtomicU8::new(UNSET);
/// A programmatic override; `UNSET` defers to the detected tier.
static FORCED: AtomicU8 = AtomicU8::new(UNSET);

/// Detect the tier and cache it. Kept out of line, so the detection is
/// not inlined into every kernel's dispatch site.
#[cold]
fn detect() -> u8 {
    let detected = if cpu_features().avx2 { AVX2 } else { SCALAR };
    DETECTED.store(detected, Ordering::Relaxed);
    detected
}

/// The tier dispatched kernels run on right now.
///
/// Precedence: [`force`] override, then the detected tier (AVX2 where
/// the CPU has it; detected once, cached). One relaxed atomic load on
/// the fast path.
#[inline]
pub fn active() -> Tier {
    let forced = FORCED.load(Ordering::Relaxed);
    let byte = if forced != UNSET {
        forced
    } else {
        let cached = DETECTED.load(Ordering::Relaxed);
        if cached != UNSET {
            cached
        } else {
            detect()
        }
    };
    if byte == AVX2 {
        Tier::Avx2
    } else {
        Tier::Scalar
    }
}

/// Programmatically override the dispatch tier for the whole process
/// (`None` returns control to the detected tier). Forcing
/// [`Tier::Avx2`] on hardware without AVX2 falls back to scalar.
///
/// Because every kernel is bit-identical across tiers, flipping this
/// concurrently with running kernels changes *performance only* — it is
/// how the determinism tests sweep tiers inside one process.
pub fn force(tier: Option<Tier>) {
    let byte = match tier {
        None => UNSET,
        Some(Tier::Scalar) => SCALAR,
        Some(Tier::Avx2) => {
            if cpu_features().avx2 {
                AVX2
            } else {
                eprintln!("[sqlan-simd] force(Avx2) but AVX2 not detected; using scalar");
                SCALAR
            }
        }
    };
    FORCED.store(byte, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    /// [`force`] is process-global and tests run in parallel: the tests
    /// that force a tier hold this lock so they cannot see each other's.
    static FORCE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(Tier::Scalar.name(), "scalar");
        assert_eq!(Tier::Avx2.name(), "avx2");
    }

    #[test]
    fn force_overrides_and_releases() {
        let _lock = FORCE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        force(Some(Tier::Scalar));
        assert_eq!(active(), Tier::Scalar);
        force(None);
        // Back to the detected tier.
        let detected = if cpu_features().avx2 {
            Tier::Avx2
        } else {
            Tier::Scalar
        };
        assert_eq!(active(), detected);
    }

    #[test]
    fn forcing_avx2_without_hardware_is_safe() {
        // On AVX2 hardware this genuinely forces avx2; elsewhere it must
        // fall back to scalar instead of SIGILL-ing later.
        let _lock = FORCE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        force(Some(Tier::Avx2));
        let t = active();
        if !cpu_features().avx2 {
            assert_eq!(t, Tier::Scalar);
        }
        force(None);
    }
}
