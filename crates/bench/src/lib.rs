//! # sqlan-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation section (run `cargo run --release -p sqlan-bench --bin
//! table2`, etc.). Shared here: the harness configuration
//! (env-overridable so CI can shrink it), workload construction, table
//! rendering, and JSON artifact output. Performance numbers come from
//! `perfbench/`, not from this crate.

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::io::Write as _;

use sqlan_core::prelude::*;
use sqlan_engine::Database;

/// Harness-wide knobs. Every experiment binary reads these from the
/// environment so the full suite can be scaled up or down:
///
/// | env var              | default | meaning                           |
/// |----------------------|---------|-----------------------------------|
/// | `SQLAN_SESSIONS`     | 3000    | simulated SDSS sessions           |
/// | `SQLAN_SQLSHARE`     | 1200    | SQLShare queries                  |
/// | `SQLAN_USERS`        | 60      | SQLShare users                    |
/// | `SQLAN_SCALE`        | 0.12    | catalog row-count multiplier      |
/// | `SQLAN_EPOCHS`       | 3       | neural training epochs            |
/// | `SQLAN_SEED`         | 0x5D55  | master seed, decimal or `0x` hex  |
/// | `SQLAN_FAST`         | unset   | set to 1 for a smoke-test config  |
/// | `SQLAN_THREADS`      | #cores  | worker threads (sqlan-par pool);  |
/// |                      |         | results are thread-count invariant|
///
/// A knob that is set but does not parse is an error, not its default.
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    pub sdss_sessions: usize,
    pub sqlshare_queries: usize,
    pub sqlshare_users: u32,
    pub scale: f64,
    pub epochs: usize,
    pub seed: u64,
}

/// Parse a `SQLAN_SEED` value: decimal, or hex with a `0x` prefix.
fn parse_seed(v: &str) -> Option<u64> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

/// One knob: `default` when `key` is unset, its parsed value when set,
/// and an error naming `key` when it is set but does not parse.
fn knob<T>(
    var: &impl Fn(&str) -> Option<String>,
    key: &str,
    default: T,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, String> {
    match var(key) {
        None => Ok(default),
        Some(v) => parse(v.trim()).ok_or_else(|| format!("{key}={v:?} does not parse")),
    }
}

impl Harness {
    /// Read the knobs from the environment. Exits the process with an
    /// error naming the variable when a knob is set but does not parse.
    pub fn from_env() -> Harness {
        Harness::from_vars(|key| std::env::var(key).ok()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// [`Harness::from_env`] over any variable lookup.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Harness, String> {
        let fast = var("SQLAN_FAST").as_deref() == Some("1");
        let (sessions, queries, users, scale, epochs) = if fast {
            (350, 250, 20, 0.03, 1)
        } else {
            (3000, 1200, 60, 0.12, 3)
        };
        Ok(Harness {
            sdss_sessions: knob(&var, "SQLAN_SESSIONS", sessions, |v| v.parse().ok())?,
            sqlshare_queries: knob(&var, "SQLAN_SQLSHARE", queries, |v| v.parse().ok())?,
            sqlshare_users: knob(&var, "SQLAN_USERS", users, |v| v.parse().ok())?,
            scale: knob(&var, "SQLAN_SCALE", scale, |v| v.parse().ok())?,
            epochs: knob(&var, "SQLAN_EPOCHS", epochs, |v| v.parse().ok())?,
            seed: knob(&var, "SQLAN_SEED", 0x5D55, parse_seed)?,
        })
    }

    pub fn sdss_config(&self) -> SdssConfig {
        SdssConfig {
            n_sessions: self.sdss_sessions,
            scale: Scale(self.scale),
            seed: self.seed,
        }
    }

    pub fn sqlshare_config(&self) -> SqlShareConfig {
        SqlShareConfig {
            n_queries: self.sqlshare_queries,
            n_users: self.sqlshare_users,
            scale: Scale(self.scale * 2.0),
            seed: self.seed ^ 0x5A5E,
        }
    }

    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            seed: self.seed ^ 0x7EA1,
            ..TrainConfig::default()
        }
    }

    /// Build the SDSS-like workload (labels generated by execution).
    pub fn sdss_workload(&self) -> Workload {
        build_sdss(self.sdss_config())
    }

    pub fn sqlshare_workload(&self) -> Workload {
        build_sqlshare(self.sqlshare_config())
    }

    pub fn sqlshare_db(&self) -> Database {
        sqlshare_database(self.sqlshare_config())
    }
}

// ---- rendering ------------------------------------------------------------

/// Fixed-width table printer matching the paper's layout.
#[derive(Debug, Default)]
pub struct TablePrinter {
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl TablePrinter {
    pub fn new(header: &[&str]) -> TablePrinter {
        TablePrinter {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        let ncol = self.header.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < ncol {
                    width[i] = width[i].max(c.len());
                }
            }
        }
        let render = |cells: &[String]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>w$}", c, w = width[i.min(ncol - 1)]));
            }
            line
        };
        println!("{}", render(&self.header));
        println!(
            "{}",
            "-".repeat(width.iter().sum::<usize>() + 2 * (ncol - 1))
        );
        for row in &self.rows {
            println!("{}", render(row));
        }
    }
}

/// Format a float for a table cell.
pub fn f(v: f64) -> String {
    if !v.is_finite() {
        "-".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{:.0}", v)
    } else {
        format!("{:.4}", v)
    }
}

/// Write a JSON artifact under `results/` (best effort — the harness keeps
/// printing even on read-only checkouts).
pub fn save_json(name: &str, value: &impl serde::Serialize) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(mut file) = std::fs::File::create(&path) {
        if let Ok(s) = serde_json::to_string_pretty(value) {
            let _ = file.write_all(s.as_bytes());
            eprintln!("[saved {}]", path.display());
        }
    }
}

/// The standard model lineups.
pub fn classification_models() -> Vec<ModelKind> {
    vec![
        ModelKind::MFreq,
        ModelKind::CTfidf,
        ModelKind::CCnn,
        ModelKind::CLstm,
        ModelKind::WTfidf,
        ModelKind::WCnn,
        ModelKind::WLstm,
    ]
}

pub fn regression_models() -> Vec<ModelKind> {
    vec![
        ModelKind::Median,
        ModelKind::CTfidf,
        ModelKind::CCnn,
        ModelKind::CLstm,
        ModelKind::WTfidf,
        ModelKind::WCnn,
        ModelKind::WLstm,
    ]
}

pub fn regression_models_with_opt() -> Vec<ModelKind> {
    let mut m = regression_models();
    m.insert(1, ModelKind::Opt);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_env_defaults() {
        let h = Harness::from_env();
        assert!(h.sdss_sessions > 0);
        assert!(h.scale > 0.0);
    }

    #[test]
    fn seed_knob_takes_decimal_or_hex_and_rejects_junk() {
        let with_seed = |v: &'static str| {
            Harness::from_vars(move |key| (key == "SQLAN_SEED").then(|| v.to_string()))
        };
        assert_eq!(with_seed("23893").unwrap().seed, 0x5D55);
        assert_eq!(with_seed("0x5D55").unwrap().seed, 0x5D55);
        assert_eq!(with_seed(" 0x1f ").unwrap().seed, 31);
        for junk in ["junk", "0x", "0xZZ", "-1", ""] {
            let err = with_seed(junk).unwrap_err();
            assert!(err.starts_with("SQLAN_SEED="), "{junk:?}: {err}");
        }
        let err = Harness::from_vars(|key| (key == "SQLAN_SCALE").then(|| "big".into()));
        assert!(err.unwrap_err().starts_with("SQLAN_SCALE="));
        assert_eq!(Harness::from_vars(|_| None).unwrap().seed, 0x5D55);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(f64::NAN), "-");
        assert_eq!(f(0.0), "0");
        assert_eq!(f(0.12345), "0.1235");
        assert_eq!(f(12345.6), "12346");
    }

    #[test]
    fn model_lineups_have_paper_sizes() {
        assert_eq!(classification_models().len(), 7); // baseline + 6 learned
        assert_eq!(regression_models().len(), 7);
        assert_eq!(regression_models_with_opt().len(), 8);
    }

    #[test]
    fn table_printer_renders() {
        let mut t = TablePrinter::new(&["Model", "Loss"]);
        t.row(vec!["mfreq".into(), f(0.5951)]);
        t.print("smoke"); // must not panic
    }
}
