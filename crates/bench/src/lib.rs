//! # sqlan-bench
//!
//! The experiment harness. One binary renders the tables and figures of
//! the paper's evaluation section: `cargo run --release -p sqlan-bench --
//! table2 fig12` runs the named ones, and no name runs all 13 ([`TABLES`]).
//!
//! Each table is a function over one shared [`Runs`], which builds each
//! workload once and trains each (`Setting`, `Problem`) experiment at most
//! once, so tables that read the same experiment share its models. A
//! table returns its rendered text and its JSON artifact; the binary
//! prints the one and writes the other under `results/`. Performance
//! numbers come from `perfbench/`, not from this crate.

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::cell::OnceCell;

use sqlan_core::prelude::*;
use sqlan_engine::Database;
use sqlan_workload::Split;

mod tables;

pub use tables::{Table, TABLES};

/// Harness-wide knobs. The binary reads these from the environment so
/// the full suite can be scaled up or down:
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
/// [`Harness::default`] is the configuration with every knob unset.
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

impl Default for Harness {
    fn default() -> Harness {
        Harness::from_vars(|_| None).expect("the defaults parse")
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
}

/// The models an experiment compares: the problem's baselines, then
/// [`ModelKind::LEARNED`]. Classification compares against `mfreq`,
/// regression against `median`, and SQLShare regression against `opt`
/// too (the optimizer estimate needs the SQLShare database).
pub(crate) fn lineup(setting: Setting, problem: Problem) -> Vec<ModelKind> {
    let baselines: &[ModelKind] = match (problem.is_classification(), setting) {
        (true, _) => &[ModelKind::MFreq],
        (false, Setting::HomogeneousInstance) => &[ModelKind::Median],
        (false, _) => &[ModelKind::Median, ModelKind::Opt],
    };
    [baselines, &ModelKind::LEARNED[..]].concat()
}

/// One reproduction run: the harness configuration, each workload built
/// on first use, and each (`Setting`, `Problem`) experiment trained on
/// first use. Every table reads from here, so a process builds each
/// workload once and trains each experiment at most once.
#[derive(Debug)]
pub struct Runs {
    pub harness: Harness,
    sdss: OnceCell<Workload>,
    sqlshare: OnceCell<Workload>,
    sqlshare_db: OnceCell<Database>,
    /// Indexed by `Setting` then `Problem` discriminant.
    experiments: [[OnceCell<Experiment>; 4]; 3],
}

impl Runs {
    pub fn new(harness: Harness) -> Runs {
        Runs {
            harness,
            sdss: OnceCell::new(),
            sqlshare: OnceCell::new(),
            sqlshare_db: OnceCell::new(),
            experiments: Default::default(),
        }
    }

    /// The SDSS-like workload (labels generated by execution).
    pub(crate) fn sdss(&self) -> &Workload {
        self.sdss
            .get_or_init(|| build_sdss(self.harness.sdss_config()))
    }

    /// The SQLShare-like workload.
    pub(crate) fn sqlshare(&self) -> &Workload {
        self.sqlshare
            .get_or_init(|| build_sqlshare(self.harness.sqlshare_config()))
    }

    /// The workload a setting draws from: SDSS for Homogeneous Instance,
    /// SQLShare for both schema settings.
    fn workload(&self, setting: Setting) -> &Workload {
        match setting {
            Setting::HomogeneousInstance => self.sdss(),
            Setting::HomogeneousSchema | Setting::HeterogeneousSchema => self.sqlshare(),
        }
    }

    /// The setting's train/validation/test split (Table 1): random on
    /// SDSS and on SQLShare, and by user for Heterogeneous Schema.
    pub(crate) fn split(&self, setting: Setting) -> Split {
        let seed = self.harness.seed;
        match setting {
            Setting::HomogeneousInstance => random_split(self.sdss().len(), seed),
            Setting::HomogeneousSchema => random_split(self.sqlshare().len(), seed ^ 1),
            Setting::HeterogeneousSchema => {
                split_by_user(&self.sqlshare().entries, 0.8, 0.07, seed ^ 2)
            }
        }
    }

    /// The problem's models (its baselines, then [`ModelKind::LEARNED`])
    /// trained on the setting's split and evaluated on its test slice,
    /// on the first call only.
    pub fn experiment(&self, setting: Setting, problem: Problem) -> &Experiment {
        self.experiments[setting as usize][problem as usize].get_or_init(|| {
            let kinds = lineup(setting, problem);
            let opt_db = kinds.contains(&ModelKind::Opt).then(|| {
                self.sqlshare_db
                    .get_or_init(|| sqlshare_database(self.harness.sqlshare_config()))
            });
            run_experiment(
                self.workload(setting),
                problem,
                self.split(setting),
                &kinds,
                &self.harness.train_config(),
                opt_db,
            )
        })
    }
}

// ---- rendering ------------------------------------------------------------

/// Fixed-width table renderer matching the paper's layout.
#[derive(Debug)]
pub(crate) struct TablePrinter {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    pub(crate) fn new(header: &[impl AsRef<str>]) -> TablePrinter {
        TablePrinter {
            header: header.iter().map(|s| s.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub(crate) fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// The titled table: a blank line, `== title ==`, the right-aligned
    /// header, a rule and the rows, each line newline-terminated.
    pub(crate) fn render(&self, title: &str) -> String {
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
            line + "\n"
        };
        let mut out = format!("\n== {title} ==\n");
        out += &render(&self.header);
        out += &"-".repeat(width.iter().sum::<usize>() + 2 * (ncol - 1));
        out += "\n";
        for row in &self.rows {
            out += &render(row);
        }
        out
    }
}

/// Format a float for a table cell.
pub(crate) fn f(v: f64) -> String {
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

/// Format an optional count (the `v` and `p` columns) for a table cell.
pub(crate) fn count(v: Option<usize>) -> String {
    v.map_or_else(|| "-".to_string(), |v| v.to_string())
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
        assert_eq!(Harness::default().seed, 0x5D55);
        assert_eq!(Harness::default().sdss_sessions, 3000);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(f64::NAN), "-");
        assert_eq!(f(0.0), "0");
        assert_eq!(f(0.12345), "0.1235");
        assert_eq!(f(12345.6), "12346");
        assert_eq!(count(None), "-");
        assert_eq!(count(Some(77)), "77");
    }

    #[test]
    fn model_lineups_have_paper_sizes() {
        // Baseline(s) first, then the six learned kinds in Table 2 order.
        let hi = Setting::HomogeneousInstance;
        let cls = lineup(hi, Problem::ErrorClassification);
        assert_eq!(cls.len(), 7);
        assert_eq!(cls[0], ModelKind::MFreq);
        assert_eq!(cls[1..], ModelKind::LEARNED);
        assert_eq!(lineup(hi, Problem::SessionClassification), cls);
        for problem in [Problem::CpuTime, Problem::AnswerSize] {
            let reg = lineup(hi, problem);
            assert_eq!(reg.len(), 7);
            assert_eq!(reg[0], ModelKind::Median);
        }
        for setting in [Setting::HomogeneousSchema, Setting::HeterogeneousSchema] {
            let reg = lineup(setting, Problem::CpuTime);
            assert_eq!(reg[..2], [ModelKind::Median, ModelKind::Opt]);
            assert_eq!(reg[2..], ModelKind::LEARNED);
        }
    }

    #[test]
    fn table_printer_renders() {
        let mut t = TablePrinter::new(&["Model", "Loss"]);
        t.row(vec!["mfreq".into(), f(0.5951)]);
        assert_eq!(
            t.render("smoke"),
            "\n== smoke ==\nModel    Loss\n-------------\nmfreq  0.5951\n"
        );
    }
}
