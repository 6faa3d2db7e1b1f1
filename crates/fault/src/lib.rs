//! `sqlan-fault` — the workspace's seed-deterministic fault-injection
//! plane.
//!
//! Production code is threaded with *named injection points*
//! (`bundle.crash`, `net.write.reset`, `score.panic`, ...): a call to
//! [`fires`] at the point where a syscall could fail, a worker could
//! panic, or a process could die. With no fault plane installed every
//! point costs one relaxed atomic load — the same kill-switch discipline
//! as `sqlan_obs::enabled` — so the hooks ship in release builds.
//!
//! A *fault schedule* is installed either from the environment
//! (`SQLAN_FAULTS=<seed>:<spec>`) or programmatically ([`install`]).
//! Whether the *n*-th call of a point fires is a **pure function of
//! `(seed, point name, n, trigger)`** — see [`decide`] — so the same
//! seed always reproduces the same fault schedule, across runs and
//! across machines. No clocks, no OS randomness.
//!
//! Spec grammar (comma-separated rules, at most one per point):
//!
//! ```text
//! SQLAN_FAULTS="42:score.panic=0.03,score.stall=0.02/25,bundle.crash=@7,net.read.eagain=on"
//!               │   │            │                  │ │              │                  │
//!               seed point  probability      argument │         exactly the 7th call  always
//!                                            (ms, bytes, ...)   (0-based, fires once)
//! ```
//!
//! Triggers: `on` (every call), `@k` (exactly the k-th call, once),
//! or a probability in `[0,1]` (seeded per-call coin). An optional
//! `/arg` carries a point-specific integer (stall milliseconds, ...).
//!
//! Installation is process-global. Tests that inject faults must
//! serialize on [`exclusive`] — the guard returned by [`install`] holds
//! that lock and clears the plane on drop, so the idiom is simply:
//!
//! ```ignore
//! let _faults = sqlan_fault::install(42, "score.panic=@0").unwrap();
//! ```

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Environment variable carrying a fault schedule: `<seed>:<spec>`.
/// Unset (or unparsable, reported once to stderr) means no faults.
pub const FAULTS_ENV: &str = "SQLAN_FAULTS";

const STATE_UNRESOLVED: u8 = 0;
const STATE_ON: u8 = 1;
const STATE_OFF: u8 = 2;
static STATE: AtomicU8 = AtomicU8::new(STATE_UNRESOLVED);

static PLANE: RwLock<Option<Arc<Plane>>> = RwLock::new(None);

/// When the *n*-th call of a point fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every call fires.
    Always,
    /// Exactly the k-th call (0-based) fires, once.
    Nth(u64),
    /// Seeded per-call coin with this probability.
    Prob(f64),
}

/// One parsed `point=trigger[/arg]` rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub point: String,
    pub trigger: Trigger,
    /// Point-specific integer payload (stall milliseconds, ...); 0 when
    /// omitted.
    pub arg: u64,
}

struct PointState {
    rule: Rule,
    calls: AtomicU64,
    fires: AtomicU64,
}

/// An installed fault schedule: a seed plus per-point rules and call
/// counters.
pub struct Plane {
    seed: u64,
    points: Vec<PointState>,
}

impl Plane {
    fn new(seed: u64, rules: Vec<Rule>) -> Plane {
        Plane {
            seed,
            points: rules
                .into_iter()
                .map(|rule| PointState {
                    rule,
                    calls: AtomicU64::new(0),
                    fires: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    fn fire(&self, point: &str) -> Option<u64> {
        let p = self.points.iter().find(|p| p.rule.point == point)?;
        let n = p.calls.fetch_add(1, Ordering::Relaxed);
        if decide(self.seed, point, n, p.rule.trigger) {
            p.fires.fetch_add(1, Ordering::Relaxed);
            Some(p.rule.arg)
        } else {
            None
        }
    }
}

/// Whether a fault plane is installed. Resolved from [`FAULTS_ENV`] on
/// first call and cached; one relaxed load afterwards, cheap enough for
/// every injection point to check.
pub fn active() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => resolve_env(),
    }
}

#[cold]
fn resolve_env() -> bool {
    // The write lock serializes racing first callers; re-check under it.
    let mut plane = PLANE.write().unwrap_or_else(|e| e.into_inner());
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => return true,
        STATE_OFF => return false,
        _ => {}
    }
    let installed = match std::env::var(FAULTS_ENV) {
        Ok(spec) if !spec.trim().is_empty() => match parse_env_spec(&spec) {
            Ok((seed, rules)) => {
                *plane = Some(Arc::new(Plane::new(seed, rules)));
                true
            }
            Err(e) => {
                eprintln!("[sqlan-fault] ignoring {FAULTS_ENV}={spec:?}: {e}");
                false
            }
        },
        _ => false,
    };
    STATE.store(
        if installed { STATE_ON } else { STATE_OFF },
        Ordering::Relaxed,
    );
    installed
}

fn current() -> Option<Arc<Plane>> {
    if !active() {
        return None;
    }
    PLANE
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map(Arc::clone)
}

/// Consult the plane at an injection point: `true` means inject the
/// fault now. Every call ticks the point's call counter (when a rule for
/// it is installed), so decisions are reproducible per seed.
pub fn fires(point: &str) -> bool {
    fire_arg(point).is_some()
}

/// [`fires`], returning the rule's `/arg` payload when the point fires
/// (0 when the rule carries none).
pub fn fire_arg(point: &str) -> Option<u64> {
    current()?.fire(point)
}

/// The pure decision function: does the `n`-th call (0-based) of `point`
/// fire under `trigger`? Public so tests can recompute an observed fault
/// schedule offline and prove it was the deterministic one.
pub fn decide(seed: u64, point: &str, n: u64, trigger: Trigger) -> bool {
    match trigger {
        Trigger::Always => true,
        Trigger::Nth(k) => n == k,
        Trigger::Prob(p) => unit(mix(seed ^ fnv1a(point.as_bytes()), n)) < p,
    }
}

/// splitmix64-style finalizer over (stream, counter).
fn mix(stream: u64, n: u64) -> u64 {
    let mut z = stream
        .wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A deterministic value in `[0,1)` derived from `(seed, tag, n)` —
/// for callers that need seeded *parameters* (which byte to corrupt,
/// jitter factors) rather than a fire/no-fire decision.
pub fn unit_value(seed: u64, tag: &str, n: u64) -> f64 {
    unit(mix(seed ^ fnv1a(tag.as_bytes()), n))
}

/// The installed plane's seed, if any.
pub fn seed() -> Option<u64> {
    current().map(|p| p.seed)
}

/// How many times `point` has been consulted under the current plane
/// (0 when no plane or no rule for it).
pub fn calls(point: &str) -> u64 {
    current()
        .and_then(|p| {
            p.points
                .iter()
                .find(|s| s.rule.point == point)
                .map(|s| s.calls.load(Ordering::Relaxed))
        })
        .unwrap_or(0)
}

/// How many times `point` has fired under the current plane.
pub fn fired(point: &str) -> u64 {
    current()
        .and_then(|p| {
            p.points
                .iter()
                .find(|s| s.rule.point == point)
                .map(|s| s.fires.load(Ordering::Relaxed))
        })
        .unwrap_or(0)
}

/// Per-point counters of the installed plane, for post-run audits.
pub fn stats() -> Vec<PointStats> {
    current()
        .map(|p| {
            p.points
                .iter()
                .map(|s| PointStats {
                    rule: s.rule.clone(),
                    calls: s.calls.load(Ordering::Relaxed),
                    fires: s.fires.load(Ordering::Relaxed),
                })
                .collect()
        })
        .unwrap_or_default()
}

/// One point's rule and counters, from [`stats`].
#[derive(Debug, Clone)]
pub struct PointStats {
    pub rule: Rule,
    pub calls: u64,
    pub fires: u64,
}

/// The process-wide lock tests must hold while a fault plane is
/// installed: the plane is global, and cargo runs a binary's tests as
/// parallel threads.
pub fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Clears the plane (and disables env resolution) when dropped; holds
/// [`exclusive`] for its lifetime.
pub struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        clear();
    }
}

impl std::fmt::Debug for FaultGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FaultGuard")
    }
}

/// Install a fault schedule programmatically. Takes [`exclusive`]
/// (blocking until other injecting tests finish) and returns a guard
/// that clears the plane on drop.
pub fn install(seed: u64, spec: &str) -> Result<FaultGuard, SpecError> {
    let rules = parse_rules(spec)?;
    let lock = exclusive();
    *PLANE.write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(Plane::new(seed, rules)));
    STATE.store(STATE_ON, Ordering::Relaxed);
    Ok(FaultGuard { _lock: lock })
}

/// Remove any installed plane and pin the switch off (env is not
/// re-consulted — a cleared process stays fault-free).
pub fn clear() {
    *PLANE.write().unwrap_or_else(|e| e.into_inner()) = None;
    STATE.store(STATE_OFF, Ordering::Relaxed);
}

/// A malformed fault spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// Parse the full env form `<seed>:<rules>`.
pub fn parse_env_spec(s: &str) -> Result<(u64, Vec<Rule>), SpecError> {
    let (seed, rules) = s
        .trim()
        .split_once(':')
        .ok_or_else(|| SpecError(format!("expected <seed>:<rules>, got {s:?}")))?;
    let seed = seed
        .trim()
        .parse::<u64>()
        .map_err(|_| SpecError(format!("seed {seed:?} is not a u64")))?;
    Ok((seed, parse_rules(rules)?))
}

/// Parse the rule list `point=trigger[/arg],...`.
pub fn parse_rules(s: &str) -> Result<Vec<Rule>, SpecError> {
    let mut rules: Vec<Rule> = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (point, rhs) = part
            .split_once('=')
            .ok_or_else(|| SpecError(format!("rule {part:?} lacks '='")))?;
        let point = point.trim();
        if point.is_empty() {
            return Err(SpecError(format!("rule {part:?} has an empty point name")));
        }
        if rules.iter().any(|r| r.point == point) {
            return Err(SpecError(format!("duplicate rule for point {point:?}")));
        }
        let (trig, arg) = match rhs.split_once('/') {
            Some((t, a)) => (
                t.trim(),
                a.trim()
                    .parse::<u64>()
                    .map_err(|_| SpecError(format!("arg {a:?} is not a u64")))?,
            ),
            None => (rhs.trim(), 0),
        };
        let trigger = if trig == "on" {
            Trigger::Always
        } else if let Some(k) = trig.strip_prefix('@') {
            Trigger::Nth(
                k.parse::<u64>()
                    .map_err(|_| SpecError(format!("call index {k:?} is not a u64")))?,
            )
        } else {
            let p = trig
                .parse::<f64>()
                .map_err(|_| SpecError(format!("trigger {trig:?} is not on/@k/probability")))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(SpecError(format!("probability {p} outside [0,1]")));
            }
            Trigger::Prob(p)
        };
        rules.push(Rule {
            point: point.to_string(),
            trigger,
            arg,
        });
    }
    if rules.is_empty() {
        return Err(SpecError("no rules".to_string()));
    }
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_trigger_form() {
        let rules = parse_rules("a.b=on, c.d=@7/25 ,e.f=0.125").expect("parse");
        assert_eq!(
            rules,
            vec![
                Rule {
                    point: "a.b".into(),
                    trigger: Trigger::Always,
                    arg: 0
                },
                Rule {
                    point: "c.d".into(),
                    trigger: Trigger::Nth(7),
                    arg: 25
                },
                Rule {
                    point: "e.f".into(),
                    trigger: Trigger::Prob(0.125),
                    arg: 0
                },
            ]
        );
        let (seed, rules) = parse_env_spec("42:x.y=on").expect("env form");
        assert_eq!(seed, 42);
        assert_eq!(rules.len(), 1);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "a.b",
            "a.b=maybe",
            "a.b=1.5",
            "a.b=-0.1",
            "a.b=@x",
            "a.b=on/zz",
            "a.b=on,a.b=on",
            "=on",
        ] {
            assert!(parse_rules(bad).is_err(), "accepted {bad:?}");
        }
        assert!(parse_env_spec("a.b=on").is_err(), "env form needs a seed");
        assert!(parse_env_spec("seed:a.b=on").is_err());
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let _g = install(1, "p=@3").expect("install");
        let fired: Vec<bool> = (0..8).map(|_| fires("p")).collect();
        assert_eq!(
            fired,
            vec![false, false, false, true, false, false, false, false]
        );
        assert_eq!(calls("p"), 8);
        assert_eq!(super::fired("p"), 1);
    }

    #[test]
    fn decisions_are_a_pure_function_of_seed_point_and_n() {
        // The same (seed, point, n) triple always lands the same side of
        // the coin, and the observed fire counter equals the offline
        // recomputation — the contract the chaos e2e audits.
        let trig = Trigger::Prob(0.25);
        let a: Vec<bool> = (0..256).map(|n| decide(7, "x.y", n, trig)).collect();
        let b: Vec<bool> = (0..256).map(|n| decide(7, "x.y", n, trig)).collect();
        assert_eq!(a, b);
        let c: Vec<bool> = (0..256).map(|n| decide(8, "x.y", n, trig)).collect();
        assert_ne!(a, c, "a different seed must yield a different schedule");
        let d: Vec<bool> = (0..256).map(|n| decide(7, "x.z", n, trig)).collect();
        assert_ne!(a, d, "a different point must yield a different stream");
        let hits = a.iter().filter(|&&f| f).count();
        assert!(
            (16..112).contains(&hits),
            "p=0.25 over 256 draws fired {hits} times"
        );

        let _g = install(7, "x.y=0.25").expect("install");
        for _ in 0..256 {
            let _ = fires("x.y");
        }
        let recomputed = (0..256).filter(|&n| decide(7, "x.y", n, trig)).count() as u64;
        assert_eq!(super::fired("x.y"), recomputed);
    }

    #[test]
    fn probability_endpoints_are_exact() {
        for n in 0..64 {
            assert!(!decide(3, "p", n, Trigger::Prob(0.0)));
            assert!(decide(3, "p", n, Trigger::Prob(1.0)));
        }
    }

    #[test]
    fn unknown_points_never_fire_and_cost_nothing_to_ask() {
        let _g = install(1, "known=on").expect("install");
        assert!(fires("known"));
        assert!(!fires("unknown.point"));
        assert_eq!(calls("unknown.point"), 0);
    }

    #[test]
    fn guard_drop_clears_the_plane() {
        {
            let _g = install(1, "p=on").expect("install");
            assert!(active());
            assert!(fires("p"));
        }
        assert!(!active());
        assert!(!fires("p"));
        assert!(stats().is_empty());
    }

    #[test]
    fn fire_arg_carries_the_payload() {
        let _g = install(1, "stall=on/40,plain=on").expect("install");
        assert_eq!(fire_arg("stall"), Some(40));
        assert_eq!(fire_arg("plain"), Some(0));
        assert_eq!(fire_arg("absent"), None);
        assert_eq!(seed(), Some(1));
    }

    #[test]
    fn unit_value_is_deterministic_and_in_range() {
        let a = unit_value(9, "corrupt.byte", 0);
        assert_eq!(a, unit_value(9, "corrupt.byte", 0));
        assert_ne!(a, unit_value(9, "corrupt.byte", 1));
        for n in 0..64 {
            let v = unit_value(9, "corrupt.byte", n);
            assert!((0.0..1.0).contains(&v));
        }
    }
}
