//! The model registry: which bundle is live, with atomic hot-swap and a
//! circuit breaker around reloads.
//!
//! Readers call [`ModelRegistry::current`], which clones an `Arc` under a
//! briefly-held read lock — they never wait on a reload. A reload parses
//! and validates the whole new bundle *before* taking the write lock; the
//! lock is held only for the pointer swap, so in-flight scoring keeps
//! using the old generation until it drops its `Arc`. The registry keeps
//! no reference to a displaced generation: it frees when its last reader
//! finishes.
//!
//! Repeated load failures trip a circuit breaker: after
//! [`BREAKER_THRESHOLD`] consecutive failures the registry fast-fails
//! reloads with [`BundleError::CircuitOpen`] for [`BREAKER_COOLDOWN`],
//! then lets one probe through (half-open). A success closes the breaker.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use crate::bundle::{load_bundle, sweep_bundle_dir, Bundle, BundleError};

/// Consecutive reload failures that open the breaker.
pub const BREAKER_THRESHOLD: u32 = 3;
/// How long an open breaker fast-fails before allowing a probe.
pub const BREAKER_COOLDOWN: Duration = Duration::from_secs(2);

/// A live, immutable, generation-stamped bundle.
#[derive(Debug)]
pub struct LiveBundle {
    /// Monotonic reload counter: generation 1 is the bundle the registry
    /// opened with, each successful reload increments it.
    pub generation: u64,
    /// Directory the bundle was loaded from.
    pub dir: PathBuf,
    pub bundle: Bundle,
}

/// Registry handing out the current [`LiveBundle`] and swapping in new
/// ones without blocking readers.
#[derive(Debug)]
pub struct ModelRegistry {
    current: RwLock<Arc<LiveBundle>>,
    /// Breaker bookkeeping: consecutive failures and when it opened
    /// (millis since `started`, 0 = closed).
    started: Instant,
    fail_streak: AtomicU32,
    opened_at_ms: AtomicU64,
    breaker_opens: AtomicU64,
}

impl ModelRegistry {
    /// Open the registry on the bundle at `dir` (generation 1), after a
    /// recovery sweep removing debris a crashed save may have left.
    pub fn open(dir: &Path) -> Result<ModelRegistry, BundleError> {
        let _ = sweep_bundle_dir(dir);
        let bundle = load_bundle(dir)?;
        Ok(ModelRegistry {
            current: RwLock::new(Arc::new(LiveBundle {
                generation: 1,
                dir: dir.to_path_buf(),
                bundle,
            })),
            started: Instant::now(),
            fail_streak: AtomicU32::new(0),
            opened_at_ms: AtomicU64::new(0),
            breaker_opens: AtomicU64::new(0),
        })
    }

    /// The live bundle. Cheap (one `Arc` clone under a read lock);
    /// callers hold the returned `Arc` for as long as they score against
    /// it, pinning that generation even across a concurrent reload.
    pub fn current(&self) -> Arc<LiveBundle> {
        Arc::clone(&self.current.read().expect("registry lock poisoned"))
    }

    /// The live generation number (same cheap read lock as
    /// [`ModelRegistry::current`]).
    pub fn generation(&self) -> u64 {
        self.current
            .read()
            .expect("registry lock poisoned")
            .generation
    }

    /// How many times the reload breaker has opened.
    pub fn breaker_opens(&self) -> u64 {
        self.breaker_opens.load(Ordering::Relaxed)
    }

    /// Whether the breaker is currently fast-failing reloads.
    pub fn breaker_open(&self) -> bool {
        let opened = self.opened_at_ms.load(Ordering::Relaxed);
        opened != 0 && self.started.elapsed().as_millis() as u64 - opened < self.cooldown_ms()
    }

    fn cooldown_ms(&self) -> u64 {
        BREAKER_COOLDOWN.as_millis() as u64
    }

    /// Load the bundle at `dir`, validate it, and atomically swap it in.
    /// On any error the live bundle stays in place and the failure counts
    /// toward the circuit breaker. Returns the new generation.
    pub fn reload(&self, dir: &Path) -> Result<u64, BundleError> {
        if self.breaker_open() {
            return Err(BundleError::CircuitOpen {
                failures: self.fail_streak.load(Ordering::Relaxed),
            });
        }
        // All I/O and validation happens before the write lock.
        let bundle = match load_bundle(dir) {
            Ok(b) => b,
            Err(e) => {
                let streak = self.fail_streak.fetch_add(1, Ordering::Relaxed) + 1;
                if streak >= BREAKER_THRESHOLD {
                    // max(1): a zero-elapsed open would read as "closed".
                    self.opened_at_ms.store(
                        (self.started.elapsed().as_millis() as u64).max(1),
                        Ordering::Relaxed,
                    );
                    self.breaker_opens.fetch_add(1, Ordering::Relaxed);
                }
                return Err(e);
            }
        };
        self.fail_streak.store(0, Ordering::Relaxed);
        self.opened_at_ms.store(0, Ordering::Relaxed);
        let displaced;
        let generation;
        {
            let mut slot = self.current.write().expect("registry lock poisoned");
            generation = slot.generation + 1;
            displaced = std::mem::replace(
                &mut *slot,
                Arc::new(LiveBundle {
                    generation,
                    dir: dir.to_path_buf(),
                    bundle,
                }),
            );
        }
        // Released after the write lock: if no reader still holds the old
        // generation, freeing it does not stall readers.
        drop(displaced);
        Ok(generation)
    }
}
