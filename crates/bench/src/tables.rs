//! The paper's tables and figures, each a function from the shared
//! [`Runs`] to its rendered text and its JSON artifact.

use std::fmt::Write as _;

use serde_json::Value;
use sqlan_core::prelude::*;
use sqlan_metrics::{squared_error, QErrorTable};
use sqlan_sql::{extract_props, StructuralProps};
use sqlan_workload::{
    by_session_class, repetition_histogram, statement_type_shares, ErrorClass, LogHistogram,
    PropsMatrix, SessionClass, Split, SummaryStats, WorkloadEntry,
};

use crate::{count, f, Runs, TablePrinter};

const HI: Setting = Setting::HomogeneousInstance;
const HS: Setting = Setting::HomogeneousSchema;
const HET: Setting = Setting::HeterogeneousSchema;

/// A table or figure: its rendered text and its JSON artifact.
pub type Table = fn(&Runs) -> (String, Value);

/// Every table and figure by name, in the order a full run renders them.
pub const TABLES: [(&str, Table); 13] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("table6_7", table6_7),
    ("fig3_4", fig3_4),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig12", fig12),
    ("fig13_14", fig13_14),
    ("fig20", fig20),
];

/// Table 1: dataset sizes and splits for the three problem settings.
fn table1(runs: &Runs) -> (String, Value) {
    let settings = [HI, HS, HET];
    let splits = settings.map(|s| runs.split(s));
    let mut header = vec![""];
    header.extend(settings.map(Setting::name));
    let mut t = TablePrinter::new(&header);
    let row = |label: &str, part: fn(&Split) -> usize| {
        let mut cells = vec![label.to_string()];
        cells.extend(splits.iter().map(|s| part(s).to_string()));
        cells
    };
    t.row(row("Total", Split::total));
    t.row(row("Train", |s| s.train.len()));
    t.row(row("Valid.", |s| s.valid.len()));
    t.row(row("Test", |s| s.test.len()));
    let mut json = serde_json::Map::new();
    for (setting, s) in settings.iter().zip(&splits) {
        json.insert(
            setting.name().to_lowercase().replace(' ', "_"),
            serde_json::json!({
                "total": s.total(),
                "train": s.train.len(),
                "valid": s.valid.len(),
                "test": s.test.len(),
            }),
        );
    }
    let text = t.render("Table 1: number of queries and data split");
    (text, Value::Object(json))
}

/// The baseline's row label in Table 2.
fn table2_label(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::MFreq | ModelKind::Median => "baseline",
        kind => kind.name(),
    }
}

/// Table 2: error classification (accuracy, per-class F, loss), CPU time
/// prediction, and answer size prediction in Homogeneous Instance (SDSS),
/// for all seven models.
fn table2(runs: &Runs) -> (String, Value) {
    let [cls, cpu, ans] = [
        Problem::ErrorClassification,
        Problem::CpuTime,
        Problem::AnswerSize,
    ]
    .map(|p| runs.experiment(HI, p));

    let mut header = vec![
        "Model".to_string(),
        "v".into(),
        "p".into(),
        "Accuracy".into(),
    ];
    header.extend(ErrorClass::ALL.map(|c| format!("F{}", c.name())));
    header.push("Loss".into());
    let mut t = TablePrinter::new(&header);
    for r in &cls.runs {
        let c = r.classification.as_ref().expect("classification eval");
        let mut cells = vec![
            table2_label(r.kind).into(),
            count(r.vocab_size),
            count(r.n_parameters),
            f(c.accuracy),
        ];
        cells.extend(ErrorClass::ALL.map(|class| f(c.per_class[class.index()].f_measure)));
        cells.push(f(c.loss));
        t.row(cells);
    }
    let mut text =
        t.render("Table 2 (left): query error classification, Homogeneous Instance (SDSS)");
    // Class supports, as the caption reports.
    let support = test_support(cls);
    let supports: Vec<String> = ErrorClass::ALL
        .map(|c| format!("{} = {}", c.name(), support[c.index()]))
        .into();
    let _ = writeln!(text, "#test samples per class: {}", supports.join(", "));

    let mut t = TablePrinter::new(&["Model", "p", "CPU Loss", "p", "Answer Loss"]);
    for (rc, ra) in cpu.runs.iter().zip(&ans.runs) {
        t.row(vec![
            table2_label(rc.kind).into(),
            count(rc.n_parameters),
            f(regression(rc).loss),
            count(ra.n_parameters),
            f(regression(ra).loss),
        ]);
    }
    text +=
        &t.render("Table 2 (middle/right): CPU time and answer size loss, Homogeneous Instance");

    let json = serde_json::json!({
        "error_classification": cls.summary_rows(),
        "cpu_time": cpu.summary_rows(),
        "answer_size": ans.summary_rows(),
    });
    (text, json)
}

/// Table 3: answer size prediction qerror percentiles on SDSS
/// (Homogeneous Instance).
fn table3(runs: &Runs) -> (String, Value) {
    let exp = runs.experiment(HI, Problem::AnswerSize);
    // The paper reports 50/75/80/85/90/95 for Table 3; our shared
    // percentile grid includes 75/90/95 — print the overlap plus extremes.
    let text = qerror_table(
        "Table 3: answer size prediction qerror (SDSS, Homogeneous Instance)",
        exp,
        &[50.0, 75.0, 90.0, 95.0],
    );
    (text, qerror_json(exp))
}

/// Table 4: query session classification in Homogeneous Instance (SDSS) —
/// loss, per-class F-measure for the seven session classes, accuracy.
fn table4(runs: &Runs) -> (String, Value) {
    let exp = runs.experiment(HI, Problem::SessionClassification);
    let mut header = vec!["Model".to_string(), "v".into(), "p".into(), "Loss".into()];
    header.extend(SessionClass::ALL.map(|c| format!("F{}", c.name())));
    header.push("Accuracy".into());
    let mut t = TablePrinter::new(&header);
    for r in &exp.runs {
        let c = r.classification.as_ref().expect("classification eval");
        let mut cells = vec![
            r.kind.name().to_string(),
            count(r.vocab_size),
            count(r.n_parameters),
            f(c.loss),
        ];
        cells.extend(SessionClass::ALL.map(|class| f(c.per_class[class.index()].f_measure)));
        cells.push(f(c.accuracy));
        t.row(cells);
    }
    let mut text = t.render("Table 4: query session classification, Homogeneous Instance (SDSS)");
    // Per-class test supports, as the caption reports.
    let support = test_support(exp);
    text += "#test samples per class:";
    for class in SessionClass::ALL {
        let _ = write!(text, " {} = {},", class.name(), support[class.index()]);
    }
    text += "\n";
    (text, serde_json::json!(exp.summary_rows()))
}

/// Table 5: CPU time prediction on SQLShare under Homogeneous Schema
/// (random split) and Heterogeneous Schema (split by user), including the
/// `opt` optimizer-estimate baseline.
fn table5(runs: &Runs) -> (String, Value) {
    let [hs, het] = [HS, HET].map(|s| runs.experiment(s, Problem::CpuTime));
    let mut t = TablePrinter::new(&["Model", "v", "p", "HomSchema Loss", "HetSchema Loss"]);
    for (a, b) in hs.runs.iter().zip(&het.runs) {
        assert_eq!(a.kind, b.kind);
        t.row(vec![
            a.kind.name().into(),
            count(a.vocab_size),
            count(a.n_parameters),
            f(regression(a).loss),
            f(regression(b).loss),
        ]);
    }
    let json = serde_json::json!({
        "homogeneous_schema": hs.summary_rows(),
        "heterogeneous_schema": het.summary_rows(),
    });
    (
        t.render("Table 5: query CPU time prediction (SQLShare)"),
        json,
    )
}

/// Tables 6 & 7: CPU time prediction qerror percentiles on SQLShare —
/// Homogeneous Schema (Table 6) and Heterogeneous Schema (Table 7).
fn table6_7(runs: &Runs) -> (String, Value) {
    let [hs, het] = [HS, HET].map(|s| runs.experiment(s, Problem::CpuTime));
    let text = qerror_table(
        "Table 6: CPU time prediction qerror (SQLShare, Homogeneous Schema)",
        hs,
        &[40.0, 50.0, 60.0, 75.0],
    ) + &qerror_table(
        "Table 7: CPU time prediction qerror (SQLShare, Heterogeneous Schema)",
        het,
        &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
    );
    let json = serde_json::json!({"table6": qerror_json(hs), "table7": qerror_json(het)});
    (text, json)
}

/// Figures 3 & 4: distributions of the ten structural properties of query
/// statements — SDSS (Fig. 3) and SQLShare (Fig. 4). Renders each panel's
/// summary line (µ, σ, min, max, mode, median) plus a log-bucket histogram,
/// and the §4.3.1 statement-type shares.
fn fig3_4(runs: &Runs) -> (String, Value) {
    let mut text = String::new();
    let mut report = |title: &str, workload: &Workload| -> Value {
        let props = PropsMatrix::extract(&workload.entries);
        let mut t = TablePrinter::new(&["Property", "mean", "std", "min", "max", "mode", "median"]);
        let mut json = Vec::new();
        for (k, name) in StructuralProps::NAMES.iter().enumerate() {
            let col = props.column(k);
            let s = SummaryStats::compute(&col);
            t.row(stats_cells(name, &s));
            json.push(serde_json::json!({
                "property": name,
                "stats": s,
                "histogram": LogHistogram::compute(&col).buckets,
            }));
        }
        text += &t.render(title);

        // §4.3.1 headline shares.
        let share = |pred: fn(&&StructuralProps) -> bool| {
            props.props.iter().filter(pred).count() as f64 / workload.len() as f64 * 100.0
        };
        let _ = writeln!(
            text,
            "queries with ≥1 join operator: {:.2}%; accessing >1 table: {:.2}%; \
             nested: {:.2}%; nested with aggregation: {:.2}%",
            share(|p| p.num_joins > 0),
            share(|p| p.num_tables > 1),
            share(|p| p.nestedness_level > 0),
            share(|p| p.nested_aggregation),
        );
        text += "statement types:";
        for (ty, share) in &statement_type_shares(&workload.entries) {
            let _ = write!(text, " {ty} {:.2}%", share * 100.0);
        }
        text += "\n";
        Value::Array(json)
    };
    let json = serde_json::json!({
        "fig3_sdss": report(
            "Figure 3: structural properties of SDSS query statements",
            runs.sdss(),
        ),
        "fig4_sqlshare": report(
            "Figure 4: structural properties of SQLShare query statements",
            runs.sqlshare(),
        ),
    });
    (text, json)
}

/// Figure 6: label distributions — error classes (6a) and session classes
/// (6b) on SDSS; answer size (6c) and CPU time (6d) on SDSS; CPU time on
/// SQLShare (6e).
fn fig6(runs: &Runs) -> (String, Value) {
    let (sdss, sqlshare) = (runs.sdss(), runs.sqlshare());
    let n = sdss.len() as f64;
    let mut err_counts = [0usize; 3];
    let mut sess_counts = [0usize; 7];
    for e in &sdss.entries {
        err_counts[e.error_class.index()] += 1;
        if let Some(c) = e.session_class {
            sess_counts[c.index()] += 1;
        }
    }
    let class_table = |column: &str, names: &[&str], counts: &[usize], title: &str| {
        let mut t = TablePrinter::new(&[column, "#queries", "share"]);
        for (name, &c) in names.iter().zip(counts) {
            t.row(vec![
                name.to_string(),
                c.to_string(),
                format!("{:.2}%", c as f64 / n * 100.0),
            ]);
        }
        t.render(title)
    };
    // 6a and 6b: error and session classes.
    let mut text = class_table(
        "Error class",
        &ErrorClass::ALL.map(ErrorClass::name),
        &err_counts,
        "Figure 6a: SDSS error class distribution",
    );
    text += &class_table(
        "Session class",
        &SessionClass::ALL.map(SessionClass::name),
        &sess_counts,
        "Figure 6b: SDSS session class distribution",
    );

    // 6c–6e: regression label distributions.
    let values = |w: &Workload, label: fn(&WorkloadEntry) -> f64| -> Vec<f64> {
        w.entries.iter().map(label).collect()
    };
    let mut t = TablePrinter::new(&["Label", "mean", "std", "min", "max", "mode", "median"]);
    let mut json_labels = Vec::new();
    for (name, vals) in [
        (
            "SDSS answer size (#tuples)",
            values(sdss, |e| e.answer_size),
        ),
        ("SDSS CPU time (sec)", values(sdss, |e| e.cpu_seconds)),
        (
            "SQLShare CPU time (sec)",
            values(sqlshare, |e| e.cpu_seconds),
        ),
    ] {
        let s = SummaryStats::compute(&vals);
        t.row(stats_cells(name, &s));
        json_labels.push(serde_json::json!({
            "label": name,
            "stats": s,
            "histogram": LogHistogram::compute(&vals).buckets,
        }));
    }
    text += &t.render("Figures 6c-6e: regression label distributions");

    let json = serde_json::json!({
        "error_classes": ErrorClass::ALL.iter().map(|c| (c.name(), err_counts[c.index()])).collect::<Vec<_>>(),
        "session_classes": SessionClass::ALL.iter().map(|c| (c.name(), sess_counts[c.index()])).collect::<Vec<_>>(),
        "labels": json_labels,
    });
    (text, json)
}

/// Figure 7: Pearson correlation matrices of the ten structural
/// properties, for SDSS (7a) and SQLShare (7b).
fn fig7(runs: &Runs) -> (String, Value) {
    let mut text = String::new();
    let mut matrix = |title: &str, w: &Workload| -> [[f64; 10]; 10] {
        let m = PropsMatrix::extract(&w.entries).correlation_matrix();
        let _ = write!(text, "\n== {title} ==\n{:28}", "");
        // Short column labels: the initials of each property name.
        for name in StructuralProps::NAMES {
            let short: String = name.split_whitespace().map(|w| &w[..1]).collect();
            let _ = write!(text, "{:>6}", short.to_uppercase());
        }
        text += "\n";
        for (name, row) in StructuralProps::NAMES.iter().zip(&m) {
            let _ = write!(text, "{name:28}");
            for v in row {
                let _ = write!(text, "{v:>6.2}");
            }
            text += "\n";
        }
        m
    };
    let a = matrix(
        "Figure 7a: correlation matrix of structural properties (SDSS)",
        runs.sdss(),
    );
    let b = matrix(
        "Figure 7b: correlation matrix of structural properties (SQLShare)",
        runs.sqlshare(),
    );
    // The §4.4.2 observation: #chars correlates with #words strongly.
    let _ = writeln!(
        text,
        "\ncorr(#chars, #words): SDSS {:.2}, SQLShare {:.2}",
        a[0][1], b[0][1]
    );
    let json = serde_json::json!({"sdss": a, "sqlshare": b});
    (text, json)
}

/// Figure 8: SDSS analysis by session class — box statistics (q1, median,
/// q3, mean) of answer size, CPU time, number of characters and number of
/// words, per class.
fn fig8(runs: &Runs) -> (String, Value) {
    let w = runs.sdss();
    let mut text = String::new();
    let mut panel = |title: &str, value: &dyn Fn(&WorkloadEntry) -> Option<f64>| -> Value {
        let mut t = TablePrinter::new(&["Session class", "q1", "median", "q3", "mean", "n"]);
        let mut json = Vec::new();
        for (class, b) in &by_session_class(&w.entries, value) {
            t.row(vec![
                class.name().into(),
                f(b.q1),
                f(b.median),
                f(b.q3),
                f(b.mean),
                b.count.to_string(),
            ]);
            json.push(serde_json::json!({"class": class.name(), "box": b}));
        }
        text += &t.render(title);
        Value::Array(json)
    };
    let json = serde_json::json!({
        "answer_size": panel("Figure 8a: answer size by session class", &|e| {
            (e.answer_size >= 0.0).then_some(e.answer_size)
        }),
        "cpu_time": panel("Figure 8b: CPU time by session class", &|e| Some(e.cpu_seconds)),
        "num_chars": panel("Figure 8c: number of characters by session class", &|e| {
            Some(extract_props(&e.statement).num_chars as f64)
        }),
        "num_words": panel("Figure 8d: number of words by session class", &|e| {
            Some(extract_props(&e.statement).num_words as f64)
        }),
    });
    (text, json)
}

/// Figure 12: MSE of the regression problems broken down by session class
/// (Homogeneous Instance, SDSS) — CPU time (12a) and answer size (12b).
fn fig12(runs: &Runs) -> (String, Value) {
    let sdss = runs.sdss();
    let mut text = String::new();
    let mut panel = |title: &str, problem: Problem| -> Value {
        let exp = runs.experiment(HI, problem);
        let (by_class, _) = mse_by_bucket(exp, SessionClass::ALL.len(), |i| {
            sdss.entries[i]
                .session_class
                .expect("SDSS has classes")
                .index()
        });
        let (overall, _) = mse_by_bucket(exp, 1, |_| 0);
        let mut header = vec!["Model"];
        header.extend(SessionClass::ALL.map(SessionClass::name));
        header.push("overall MSE");
        let mut t = TablePrinter::new(&header);
        let mut json = Vec::new();
        for (m, run) in exp.runs.iter().enumerate() {
            let row: Vec<f64> = by_class.iter().chain(&overall).map(|b| b[m]).collect();
            let mut cells = vec![run.kind.name().to_string()];
            cells.extend(row.iter().map(|&v| f(v)));
            t.row(cells);
            json.push(serde_json::json!({"model": run.kind.name(), "mse_by_class": row}));
        }
        text += &t.render(title);
        Value::Array(json)
    };
    let json = serde_json::json!({
        "cpu_time": panel("Figure 12a: CPU time MSE by session class", Problem::CpuTime),
        "answer_size": panel("Figure 12b: answer size MSE by session class", Problem::AnswerSize),
    });
    (text, json)
}

/// Figures 13 & 14: squared error of the regression models broken down by
/// structural properties.
///
/// Fig. 13: answer-size error vs #characters / #functions / #joins /
/// nestedness / nested aggregation (Homogeneous Instance).
/// Fig. 14: CPU-time error vs #characters and nestedness across all three
/// problem settings (error grows with heterogeneity).
fn fig13_14(runs: &Runs) -> (String, Value) {
    // Log-spaced #chars buckets, as in the figures' log-x panels.
    let chars = Bucketing {
        key: "chars",
        label: "#characters",
        names: ["<32", "32-63", "64-127", "128-255", "256-511", "≥512"]
            .map(String::from)
            .into(),
        of: Box::new(|p| match p.num_chars {
            0..=31 => 0,
            32..=63 => 1,
            64..=127 => 2,
            128..=255 => 3,
            256..=511 => 4,
            _ => 5,
        }),
    };
    let functions = Bucketing::capped("functions", "#functions", 3, |p| p.num_functions);
    let joins = Bucketing::capped("joins", "#joins", 2, |p| p.num_joins);
    let nestedness = Bucketing::capped("nestedness", "nestedness", 3, |p| p.nestedness_level);
    let nested_agg = Bucketing {
        key: "nested_aggregation",
        label: "nested aggregation",
        names: vec!["false".into(), "true".into()],
        of: Box::new(|p| p.nested_aggregation as usize),
    };

    let mut text = String::new();
    let mut out = serde_json::Map::new();
    let sdss = props_of(runs.sdss());
    let ans = runs.experiment(HI, Problem::AnswerSize);
    let fig13 = [&chars, &functions, &joins, &nestedness, &nested_agg];
    for (panel, by) in ["a", "b", "c", "d", "e"].into_iter().zip(fig13) {
        let title = format!(
            "Figure 13{panel}: answer-size squared error by {}",
            by.label
        );
        let json = breakdown(&mut text, &title, ans, &sdss, by);
        out.insert(format!("fig13{panel}_by_{}", by.key), json);
    }
    let cpu = runs.experiment(HI, Problem::CpuTime);
    for (panel, by) in [("a", &chars), ("b", &nestedness)] {
        let title = format!(
            "Figure 14{panel}: CPU-time squared error by {} ({HI})",
            by.label
        );
        let json = breakdown(&mut text, &title, cpu, &sdss, by);
        out.insert(format!("fig14{panel}_hi_by_{}", by.key), json);
    }
    let sqlshare = props_of(runs.sqlshare());
    for (key, panels, setting) in [
        ("fig14cd_homschema", "c/d", HS),
        ("fig14ef_hetschema", "e/f", HET),
    ] {
        let exp = runs.experiment(setting, Problem::CpuTime);
        let mut json = serde_json::Map::new();
        for by in [&chars, &nestedness] {
            let title = format!(
                "Figure 14{panels}: CPU-time squared error ({setting}) by {}",
                by.label
            );
            let rows = breakdown(&mut text, &title, exp, &sqlshare, by);
            json.insert(format!("by_{}", by.key), rows);
        }
        out.insert(key.into(), Value::Object(json));
    }
    (text, Value::Object(out))
}

/// Figure 20 (Appendix B.3): histogram of how many times each unique
/// query statement repeats in the per-session sample before dedup, plus
/// the headline share of statements appearing in more than one log.
fn fig20(runs: &Runs) -> (String, Value) {
    let w = runs.sdss();
    let hist = repetition_histogram(&w.repetitions);
    let mut t = TablePrinter::new(&["Repetitions", "#unique statements"]);
    for (bucket, n) in &hist {
        t.row(vec![bucket.clone(), n.to_string()]);
    }
    let mut text = t.render("Figure 20: repetition of query statements in the per-session sample");
    let repeated = w.repetitions.iter().filter(|&&r| r > 1).count();
    let _ = writeln!(
        text,
        "sampled log entries: {}; unique statements: {}; statements in >1 log entry: {:.1}%",
        w.sampled_logs,
        w.len(),
        repeated as f64 / w.len().max(1) as f64 * 100.0
    );
    let json = serde_json::json!({
        "histogram": hist,
        "sampled_logs": w.sampled_logs,
        "unique_statements": w.len(),
    });
    (text, json)
}

// ---- shared pieces --------------------------------------------------------

/// A run's regression evaluation.
fn regression(run: &ModelRun) -> &RegressionEval {
    run.regression.as_ref().expect("regression eval")
}

/// Per-class counts of a classification experiment's test labels.
fn test_support(exp: &Experiment) -> Vec<usize> {
    let mut support = vec![0usize; exp.problem.n_classes()];
    for &i in &exp.split.test {
        support[exp.dataset.class_labels[i]] += 1;
    }
    support
}

/// A summary-statistics row: name, mean, std, min, max, mode, median.
fn stats_cells(name: &str, s: &SummaryStats) -> Vec<String> {
    let mut cells = vec![name.to_string()];
    cells.extend([s.mean, s.std, s.min, s.max, s.mode, s.median].map(f));
    cells
}

/// A qerror table: one row per model, one column per wanted percentile.
/// Values beyond 5e4 render as "-" (the model blew up there).
fn qerror_table(title: &str, exp: &Experiment, wanted: &[f64]) -> String {
    let mut header = vec!["Model".to_string()];
    header.extend(wanted.iter().map(|w| format!("{w}%")));
    let mut t = TablePrinter::new(&header);
    for r in &exp.runs {
        let q = &regression(r).qerror;
        let mut cells = vec![r.kind.name().to_string()];
        for &w in wanted {
            let v = q
                .rows
                .iter()
                .find(|(p, _)| *p == w)
                .map_or(f64::NAN, |(_, v)| *v);
            cells.push(QErrorTable::display_value(v, 5e4));
        }
        t.row(cells);
    }
    t.render(title)
}

/// Every model's full qerror percentile grid.
fn qerror_json(exp: &Experiment) -> Value {
    let rows = exp
        .runs
        .iter()
        .map(|r| serde_json::json!({"model": r.kind.name(), "qerror": regression(r).qerror.rows}));
    Value::Array(rows.collect())
}

/// Mean squared error (log space) of each model over the test statements
/// of each of `n_buckets` buckets, `mse[bucket][model]` (NaN for an empty
/// bucket), and each bucket's test support. `bucket_of` maps a workload
/// entry index to its bucket.
fn mse_by_bucket(
    exp: &Experiment,
    n_buckets: usize,
    bucket_of: impl Fn(usize) -> usize,
) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut sums = vec![vec![0.0f64; exp.runs.len()]; n_buckets];
    let mut support = vec![0usize; n_buckets];
    for (k, &i) in exp.split.test.iter().enumerate() {
        let b = bucket_of(i);
        support[b] += 1;
        for (m, run) in exp.runs.iter().enumerate() {
            sums[b][m] += squared_error(exp.dataset.log_labels[i], regression(run).preds_log[k]);
        }
    }
    let mse = sums
        .into_iter()
        .zip(&support)
        .map(|(row, &n)| {
            row.into_iter()
                .map(|s| if n > 0 { s / n as f64 } else { f64::NAN })
                .collect()
        })
        .collect();
    (mse, support)
}

/// How Figures 13–14 bucket a statement by one structural property.
struct Bucketing {
    /// The property in JSON keys (`by_<key>`).
    key: &'static str,
    /// The property in titles (`by <label>`).
    label: &'static str,
    names: Vec<String>,
    of: Box<dyn Fn(&StructuralProps) -> usize>,
}

impl Bucketing {
    /// Buckets `0`, `1`, …, `cap - 1` and `≥cap` of a count property.
    fn capped(
        key: &'static str,
        label: &'static str,
        cap: u32,
        value: fn(&StructuralProps) -> u32,
    ) -> Bucketing {
        Bucketing {
            key,
            label,
            names: (0..cap)
                .map(|b| b.to_string())
                .chain([format!("≥{cap}")])
                .collect(),
            of: Box::new(move |p| value(p).min(cap) as usize),
        }
    }
}

fn props_of(w: &Workload) -> Vec<StructuralProps> {
    w.entries
        .iter()
        .map(|e| extract_props(&e.statement))
        .collect()
}

/// One Figure 13–14 panel: per-model squared error by bucket, rendered
/// into `text` and returned as the panel's JSON rows.
fn breakdown(
    text: &mut String,
    title: &str,
    exp: &Experiment,
    props: &[StructuralProps],
    by: &Bucketing,
) -> Value {
    let (mse, support) = mse_by_bucket(exp, by.names.len(), |i| (by.of)(&props[i]));
    let mut header = vec!["Bucket", "n"];
    header.extend(exp.runs.iter().map(|r| r.kind.name()));
    let mut t = TablePrinter::new(&header);
    let mut json = Vec::new();
    for ((name, mse), n) in by.names.iter().zip(&mse).zip(&support) {
        let mut cells = vec![name.clone(), n.to_string()];
        cells.extend(mse.iter().map(|&v| f(v)));
        t.row(cells);
        json.push(serde_json::json!({"bucket": name, "n": n, "mse": mse}));
    }
    *text += &t.render(title);
    Value::Array(json)
}
