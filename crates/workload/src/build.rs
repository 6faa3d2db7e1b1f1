//! The workload extraction pipeline (§4.1–4.2 and Appendix B.3):
//! simulate → identify sessions → sample one SQL hit per session →
//! execute for labels → group identical statements → aggregate labels.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use sqlan_engine::{Database, ErrorClass};

use crate::labels::{SessionClass, WorkloadEntry};
use crate::schema::{sdss_catalog, sqlshare_catalog, Scale, UserSchema};
use crate::session::{identify_sessions, simulate_sessions};
use crate::templates::sqlshare_statement;

/// Configuration for synthesizing the SDSS-like workload.
#[derive(Debug, Clone, Copy)]
pub struct SdssConfig {
    /// Number of simulated sessions (one query statement is sampled per
    /// session, mirroring the paper's 1.56M-session sample).
    pub n_sessions: usize,
    /// Catalog size multiplier.
    pub scale: Scale,
    pub seed: u64,
}

impl Default for SdssConfig {
    fn default() -> Self {
        // 0x5D55 ≈ "SDSS".
        SdssConfig {
            n_sessions: 4_000,
            scale: Scale(0.25),
            seed: 0x5D55,
        }
    }
}

/// A built workload plus the bookkeeping the analysis figures need.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Workload {
    pub entries: Vec<WorkloadEntry>,
    /// How many sampled log entries each unique statement absorbed
    /// (Figure 20's histogram input). Aligned with `entries`.
    pub repetitions: Vec<u32>,
    /// Total sampled log entries before grouping.
    pub sampled_logs: usize,
}

impl Workload {
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Build the SDSS-like workload end to end.
///
/// Session simulation and per-session sampling are sequential (they share
/// one seeded RNG stream, pinned by the golden-label tests); the expensive
/// stage — executing every unique statement for ground-truth labels — fans
/// out across the [`sqlan_par`] pool. `Database` is `Sync` (execution
/// state lives in a per-query `ExecCtx`), so all workers share one
/// instance built from the same seed, and the input-order merge makes the
/// labels byte-identical at any `SQLAN_THREADS`.
pub fn build_sdss(cfg: SdssConfig) -> Workload {
    let catalog = sdss_catalog(cfg.scale, cfg.seed ^ 0xCA7A);
    let db = Database::new(catalog);
    let sessions = simulate_sessions(cfg.n_sessions, cfg.seed ^ 0x5E55);

    // Flatten hits, re-identify sessions, sample one query per session.
    let hits: Vec<_> = sessions.iter().flat_map(|s| s.hits.clone()).collect();
    let identified = identify_sessions(&hits);

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5A2B);
    let mut sampled: Vec<(String, SessionClass)> = Vec::with_capacity(identified.len());
    for sess in &identified {
        let pick = sess.hit_indices[rng.gen_range(0..sess.hit_indices.len())];
        sampled.push((hits[pick].statement.clone(), sess.label));
    }

    group_and_label(sampled, |stmt| {
        let out = db.submit(stmt);
        (out.error_class, out.answer_size as f64, out.cpu_seconds)
    })
}

/// Group sampled (statement, session) pairs, execute each unique statement
/// once, and aggregate labels: majority class, averaged numerics (§4.1).
///
/// Labeling runs on the [`sqlan_par`] pool: each unique statement is an
/// independent execution, and the pool's input-order merge keeps the
/// entry vector identical to the sequential loop it replaced.
fn group_and_label(
    sampled: Vec<(String, SessionClass)>,
    label: impl Fn(&str) -> (ErrorClass, f64, f64) + Sync,
) -> Workload {
    let sampled_logs = sampled.len();
    let mut groups: HashMap<String, Vec<SessionClass>> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    for (stmt, class) in sampled {
        let entry = groups.entry(stmt.clone());
        if matches!(entry, std::collections::hash_map::Entry::Vacant(_)) {
            order.push(stmt);
        }
        entry.or_default().push(class);
    }

    let labeled = sqlan_par::par_map(&order, |stmt| label(stmt));

    let mut entries = Vec::with_capacity(order.len());
    let mut repetitions = Vec::with_capacity(order.len());
    for (stmt, (error_class, answer, cpu)) in order.into_iter().zip(labeled) {
        let classes = &groups[&stmt];
        let session_class = majority_class(classes);
        repetitions.push(classes.len() as u32);
        entries.push(WorkloadEntry {
            statement: stmt,
            error_class,
            session_class: Some(session_class),
            answer_size: answer,
            cpu_seconds: cpu,
            user_id: None,
        });
    }
    Workload {
        entries,
        repetitions,
        sampled_logs,
    }
}

fn majority_class(classes: &[SessionClass]) -> SessionClass {
    let mut counts = [0usize; 7];
    for c in classes {
        counts[c.index()] += 1;
    }
    let best = counts
        .iter()
        .enumerate()
        .max_by_key(|(_, n)| **n)
        .map(|(i, _)| i)
        .unwrap_or(0);
    SessionClass::from_index(best).unwrap_or(SessionClass::Unknown)
}

/// Configuration for synthesizing the SQLShare-like workload.
#[derive(Debug, Clone, Copy)]
pub struct SqlShareConfig {
    pub n_queries: usize,
    pub n_users: u32,
    pub scale: Scale,
    pub seed: u64,
}

impl Default for SqlShareConfig {
    fn default() -> Self {
        SqlShareConfig {
            n_queries: 2_000,
            n_users: 60,
            scale: Scale(0.5),
            seed: 0x5A5E,
        }
    }
}

/// Build the SQLShare-like workload: per-user schemas, per-user queries,
/// CPU-time labels from execution. Session metadata is absent, as in the
/// real SQLShare release (§4.2).
///
/// Statement *generation* is a sequential seeded-RNG stream (dedup-driven
/// retries must consume the RNG in a fixed order); statement *execution*
/// — the dominant cost — fans out over the [`sqlan_par`] pool with
/// input-order results, so the built workload is byte-identical at any
/// thread count.
pub fn build_sqlshare(cfg: SqlShareConfig) -> Workload {
    let (catalog, users) = sqlshare_catalog(cfg.n_users, cfg.scale, cfg.seed ^ 0x11);
    let db = Database::new(catalog);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x22);

    // Zipf-ish user activity: low-id users submit more queries, the long
    // tail submits a handful — matching SQLShare's reported skew.
    let pick_user = |rng: &mut StdRng, users: &[UserSchema]| -> usize {
        let n = users.len();
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / (k as f64 + 1.5)).collect();
        let total: f64 = weights.iter().sum();
        let mut x = rng.gen_range(0.0..total);
        for (k, w) in weights.iter().enumerate() {
            if x < *w {
                return k;
            }
            x -= w;
        }
        n - 1
    };

    // Phase 1 (sequential): draw unique statements. Acceptance depends
    // only on the RNG stream and the dedup set, never on execution, so
    // labeling can be deferred and batched.
    let mut seen: HashMap<String, ()> = HashMap::new();
    let mut planned: Vec<(String, u32)> = Vec::with_capacity(cfg.n_queries);
    let mut attempts = 0usize;
    while planned.len() < cfg.n_queries && attempts < cfg.n_queries * 20 {
        attempts += 1;
        let u = pick_user(&mut rng, &users);
        let stmt = sqlshare_statement(&users[u], &mut rng);
        if seen.insert(stmt.clone(), ()).is_some() {
            continue; // SQLShare workload is deduplicated upstream
        }
        planned.push((stmt, users[u].user_id));
    }

    // Phase 2 (parallel): execute for labels, merged in input order.
    let outcomes = sqlan_par::par_map(&planned, |(stmt, _)| db.submit(stmt));

    let sampled_logs = planned.len();
    let entries: Vec<WorkloadEntry> = planned
        .into_iter()
        .zip(outcomes)
        .map(|((statement, user_id), out)| WorkloadEntry {
            statement,
            error_class: out.error_class,
            session_class: None,
            answer_size: out.answer_size as f64,
            cpu_seconds: out.cpu_seconds,
            user_id: Some(user_id),
        })
        .collect();
    let repetitions = vec![1; entries.len()];
    Workload {
        entries,
        repetitions,
        sampled_logs,
    }
}

/// Access to the database used for SQLShare labeling (needed by the `opt`
/// baseline, which reads optimizer estimates).
pub fn sqlshare_database(cfg: SqlShareConfig) -> Database {
    let (catalog, _) = sqlshare_catalog(cfg.n_users, cfg.scale, cfg.seed ^ 0x11);
    Database::new(catalog)
}

/// Access to the database used for SDSS labeling.
pub fn sdss_database(cfg: SdssConfig) -> Database {
    Database::new(sdss_catalog(cfg.scale, cfg.seed ^ 0xCA7A))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sdss() -> Workload {
        build_sdss(SdssConfig {
            n_sessions: 300,
            scale: Scale(0.02),
            seed: 7,
        })
    }

    #[test]
    fn sdss_pipeline_produces_unique_statements() {
        let w = small_sdss();
        assert!(!w.is_empty());
        let mut set = std::collections::HashSet::new();
        for e in &w.entries {
            assert!(
                set.insert(e.statement.clone()),
                "duplicate: {}",
                e.statement
            );
        }
        assert_eq!(w.repetitions.len(), w.entries.len());
        let total: u32 = w.repetitions.iter().sum();
        assert_eq!(total as usize, w.sampled_logs);
    }

    #[test]
    fn sdss_error_mix_is_dominated_by_success() {
        let w = build_sdss(SdssConfig {
            n_sessions: 800,
            scale: Scale(0.02),
            seed: 8,
        });
        let frac = |c: ErrorClass| {
            w.entries.iter().filter(|e| e.error_class == c).count() as f64 / w.len() as f64
        };
        assert!(
            frac(ErrorClass::Success) > 0.85,
            "success {}",
            frac(ErrorClass::Success)
        );
        assert!(frac(ErrorClass::Severe) < 0.08);
        assert!(frac(ErrorClass::NonSevere) < 0.12);
    }

    #[test]
    fn sdss_labels_are_deterministic() {
        let a = small_sdss();
        let b = small_sdss();
        assert_eq!(a.entries.len(), b.entries.len());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn sdss_answer_sizes_heavy_tailed() {
        let w = build_sdss(SdssConfig {
            n_sessions: 600,
            scale: Scale(0.05),
            seed: 9,
        });
        let ok: Vec<f64> = w
            .entries
            .iter()
            .filter(|e| e.error_class == ErrorClass::Success)
            .map(|e| e.answer_size)
            .collect();
        let max = ok.iter().cloned().fold(0.0, f64::max);
        let mut sorted = ok.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        assert!(max > 100.0, "some query should return many rows, max={max}");
        assert!(
            median <= 10.0,
            "most queries return few rows, median={median}"
        );
    }

    #[test]
    fn sqlshare_pipeline_attaches_users() {
        let w = build_sqlshare(SqlShareConfig {
            n_queries: 150,
            n_users: 10,
            scale: Scale(0.05),
            seed: 4,
        });
        assert!(w.len() >= 100);
        assert!(w.entries.iter().all(|e| e.user_id.is_some()));
        assert!(w.entries.iter().all(|e| e.session_class.is_none()));
        let users: std::collections::HashSet<_> =
            w.entries.iter().map(|e| e.user_id.unwrap()).collect();
        assert!(
            users.len() >= 5,
            "queries should span users: {}",
            users.len()
        );
    }

    #[test]
    fn bots_repeat_statements_more_than_browsers() {
        let w = build_sdss(SdssConfig {
            n_sessions: 1500,
            scale: Scale(0.02),
            seed: 10,
        });
        // Bot point-lookups collide (same id drawn twice); others rarely do.
        let max_rep = w.repetitions.iter().copied().max().unwrap_or(1);
        assert!(max_rep >= 2, "some statement should repeat, max={max_rep}");
    }
}
