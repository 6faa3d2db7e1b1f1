//! The per-tier kernel generator.
//!
//! [`tier_kernels!`] takes a list of kernel bodies and emits four copies
//! of each from the single source:
//!
//! * `kbody::*` — the `#[inline(always)]` shared bodies (crate-private);
//! * `scalar::*` — plain wrappers compiled at the crate's default
//!   baseline: the always-available **bit-exactness oracle**;
//! * `avx2::*` — `#[target_feature(enable = "avx2")]` wrappers
//!   (x86_64 only): the body inlines into the wrapper, so LLVM
//!   re-vectorizes the same loops with 256-bit registers. `unsafe`
//!   because calling one without AVX2 is undefined behaviour;
//! * `avx2_checked::*` — safe wrappers over `avx2::*` that panic when
//!   AVX2 is absent, for tests that pin a code path;
//!
//! plus a top-level dispatching `pub fn` per kernel that routes through
//! [`crate::active`]. Identical source bodies and no FMA/reassociation
//! anywhere is what makes every copy bit-identical (see the crate docs).

macro_rules! tier_kernels {
    ($($(#[$doc:meta])* pub fn $name:ident($($arg:ident : $ty:ty),* $(,)?) $body:block)+) => {
        #[doc(hidden)]
        pub(crate) mod kbody {
            #[allow(unused_imports)]
            use super::*;
            $(
                #[inline(always)]
                pub fn $name($($arg: $ty),*) $body
            )+
        }

        /// Scalar-oracle copies: the same kernel bodies compiled at the
        /// crate's default baseline, regardless of the active tier.
        pub mod scalar {
            #[allow(unused_imports)]
            use super::*;
            $(
                $(#[$doc])*
                #[inline]
                pub fn $name($($arg: $ty),*) {
                    super::kbody::$name($($arg),*)
                }
            )+
        }

        #[cfg(target_arch = "x86_64")]
        pub(crate) mod avx2 {
            #[allow(unused_imports)]
            use super::*;
            $(
                /// # Safety
                /// The running CPU must support AVX2.
                #[target_feature(enable = "avx2")]
                pub unsafe fn $name($($arg: $ty),*) {
                    super::kbody::$name($($arg),*)
                }
            )+
        }

        /// AVX2 copies behind a runtime check (panics when AVX2 is
        /// absent) — for differential tests that pin a specific code
        /// path instead of going through dispatch.
        #[cfg(target_arch = "x86_64")]
        pub mod avx2_checked {
            #[allow(unused_imports)]
            use super::*;
            $(
                $(#[$doc])*
                pub fn $name($($arg: $ty),*) {
                    assert!(
                        $crate::cpu_features().avx2,
                        concat!(stringify!($name), ": AVX2 not available on this CPU")
                    );
                    // SAFETY: AVX2 support verified just above.
                    unsafe { super::avx2::$name($($arg),*) }
                }
            )+
        }

        $(
            $(#[$doc])*
            #[inline]
            pub fn $name($($arg: $ty),*) {
                #[cfg(target_arch = "x86_64")]
                if $crate::active() == $crate::Tier::Avx2 {
                    // SAFETY: `active()` reports Avx2 only when
                    // `is_x86_feature_detected!("avx2")` held.
                    return unsafe { avx2::$name($($arg),*) };
                }
                kbody::$name($($arg),*)
            }
        )+
    };
}
