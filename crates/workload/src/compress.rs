//! Template-level workload compression.
//!
//! The paper observes that "bot sessions or administrative sessions
//! typically submit the same query template but with different constants"
//! (§4.1) and points to workload compression as an orthogonal extension
//! (§7, §8). This module implements the core primitive: canonicalizing a
//! statement by masking its literals, so statements differing only in
//! constants collapse onto one *template*.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use sqlan_sql::{lex, Tok};

use crate::labels::WorkloadEntry;

/// Canonical form of a statement: literals masked, identifiers and
/// keywords lower-cased, whitespace normalized.
///
/// `SELECT * FROM PhotoTag WHERE objId=0x112d075f80360018` and
/// `select * from phototag where objid = 42` share one template.
pub fn template_of(statement: &str) -> String {
    let (toks, _) = lex(statement);
    let mut out = String::with_capacity(statement.len() / 2);
    for t in &toks {
        if !out.is_empty() {
            out.push(' ');
        }
        match &t.tok {
            Tok::Number(_) | Tok::HexNumber(_) => out.push_str("?n"),
            Tok::String(_) => out.push_str("?s"),
            Tok::Ident(name) => out.push_str(&name.to_ascii_lowercase()),
            Tok::Keyword(k) => out.push_str(&format!("{k:?}").to_ascii_lowercase()),
            other => out.push_str(&other.to_string()),
        }
    }
    out
}

/// One template's aggregate statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemplateStats {
    pub template: String,
    /// How many workload entries instantiate this template.
    pub count: usize,
    /// Index of one representative entry.
    pub representative: usize,
    /// Mean CPU seconds across instantiations.
    pub mean_cpu_seconds: f64,
    /// Mean answer size across instantiations (error entries excluded).
    pub mean_answer_size: f64,
}

/// A compressed view of a workload: one row per template, ordered by
/// descending frequency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressedWorkload {
    pub templates: Vec<TemplateStats>,
    pub total_entries: usize,
}

impl CompressedWorkload {
    /// Compression ratio: entries per template (≥ 1).
    pub fn ratio(&self) -> f64 {
        if self.templates.is_empty() {
            return 1.0;
        }
        self.total_entries as f64 / self.templates.len() as f64
    }
}

/// Compress a workload by template.
pub fn compress(entries: &[WorkloadEntry]) -> CompressedWorkload {
    let mut groups: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, e) in entries.iter().enumerate() {
        groups.entry(template_of(&e.statement)).or_default().push(i);
    }
    let mut templates: Vec<TemplateStats> = groups
        .into_iter()
        .map(|(template, idxs)| {
            let n = idxs.len();
            let cpu = idxs.iter().map(|&i| entries[i].cpu_seconds).sum::<f64>() / n as f64;
            let answers: Vec<f64> = idxs
                .iter()
                .map(|&i| entries[i].answer_size)
                .filter(|&a| a >= 0.0)
                .collect();
            let mean_answer = if answers.is_empty() {
                -1.0
            } else {
                answers.iter().sum::<f64>() / answers.len() as f64
            };
            TemplateStats {
                template,
                count: n,
                representative: idxs[0],
                mean_cpu_seconds: cpu,
                mean_answer_size: mean_answer,
            }
        })
        .collect();
    // Descending count, then template text for determinism.
    templates.sort_by(|a, b| b.count.cmp(&a.count).then(a.template.cmp(&b.template)));
    CompressedWorkload {
        templates,
        total_entries: entries.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::ErrorClass;

    fn entry(stmt: &str, cpu: f64, answer: f64) -> WorkloadEntry {
        WorkloadEntry {
            statement: stmt.to_string(),
            error_class: ErrorClass::Success,
            session_class: None,
            answer_size: answer,
            cpu_seconds: cpu,
            user_id: None,
        }
    }

    #[test]
    fn constants_collapse_into_one_template() {
        let a = template_of("SELECT * FROM PhotoTag WHERE objId=0x112d075f80360018");
        let b = template_of("select * from phototag where objid = 42");
        assert_eq!(a, b);
        assert!(a.contains("?n"), "{a}");
    }

    #[test]
    fn strings_and_numbers_mask_differently() {
        let t = template_of("SELECT x FROM t WHERE name = 'abc' AND k = 5");
        assert!(t.contains("?s"));
        assert!(t.contains("?n"));
    }

    #[test]
    fn different_structure_different_template() {
        assert_ne!(
            template_of("SELECT a FROM t WHERE x = 1"),
            template_of("SELECT a, b FROM t WHERE x = 1"),
        );
        assert_ne!(
            template_of("SELECT a FROM t WHERE x = 1"),
            template_of("SELECT a FROM u WHERE x = 1"),
        );
    }

    #[test]
    fn compress_groups_and_orders_by_frequency() {
        let entries = vec![
            entry("SELECT * FROM t WHERE id = 1", 1.0, 1.0),
            entry("SELECT * FROM t WHERE id = 2", 3.0, 3.0),
            entry("SELECT * FROM t WHERE id = 3", 5.0, -1.0),
            entry("SELECT count(*) FROM u", 7.0, 1.0),
        ];
        let c = compress(&entries);
        assert_eq!(c.total_entries, 4);
        assert_eq!(c.templates.len(), 2);
        assert_eq!(c.templates[0].count, 3); // the point-lookup template
        assert!((c.templates[0].mean_cpu_seconds - 3.0).abs() < 1e-12);
        // Error answer (-1) excluded from the answer mean.
        assert!((c.templates[0].mean_answer_size - 2.0).abs() < 1e-12);
        assert!((c.ratio() - 2.0).abs() < 1e-12);
        // The top template covers 3 of 4 entries; the two cover them all.
        assert_eq!(c.templates[1].count, 1);
        assert_eq!(
            c.templates.iter().map(|t| t.count).sum::<usize>(),
            c.total_entries
        );
    }

    #[test]
    fn empty_workload() {
        let c = compress(&[]);
        assert_eq!(c.ratio(), 1.0);
        assert_eq!(c.total_entries, 0);
        assert!(c.templates.is_empty());
    }

    #[test]
    fn sdss_bots_compress_hard() {
        // Bot templates collapse far more than no_web_hit's ad-hoc SQL.
        use crate::templates::sdss_statement;
        use crate::SessionClass;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(4);
        let gen = |class: SessionClass, rng: &mut StdRng| -> Vec<WorkloadEntry> {
            (0..300)
                .map(|_| entry(&sdss_statement(class, rng), 0.0, 0.0))
                .collect()
        };
        let bots = compress(&gen(SessionClass::Bot, &mut rng));
        let adhoc = compress(&gen(SessionClass::NoWebHit, &mut rng));
        assert!(
            bots.ratio() > 2.0 * adhoc.ratio(),
            "bots ({:.1}x) should compress much harder than ad-hoc SQL ({:.1}x)",
            bots.ratio(),
            adhoc.ratio()
        );
    }
}
