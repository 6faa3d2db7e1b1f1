//! The model-building journey: label the workload's executed query log
//! (`build_sdss` or `build_sqlshare`), train each learned kind on its
//! labels for a fixed number of epochs with early stopping off, and save
//! the trained models as bundles.
//!
//! The traced run adds attribution passes the timed stages cannot show
//! from outside: catalog generation on its own, every labelled
//! statement re-submitted one at a time through `Database::submit` (with
//! its fingerprint and parse timed beside it), the erroring tail on the
//! row engine alone, and TF-IDF fit/transform.

use std::path::Path;
use std::time::Instant;

use sqlan_core::text::tokenize;
use sqlan_core::{
    train_model, Dataset, Granularity, Labels, ModelKind, Problem, Task, TrainConfig, TrainData,
    TrainedModel,
};
use sqlan_engine::{Database, Engine, ErrorClass};
use sqlan_features::TfidfVectorizer;
use sqlan_serve::save_bundle;
use sqlan_workload::{
    build_sdss, build_sqlshare, sdss_database, sqlshare_database, Scale, SdssConfig,
    SqlShareConfig, Workload as Log, WorkloadEntry,
};

use crate::report::Report;
use crate::stats::{median, quantile, secs, Digest};
use crate::trace::{SpanId, Tracer};
use crate::{Args, Workload};

/// Each learned kind and the problem it is trained on, family by family:
/// in every family the char-level kind classifies errors and the
/// word-level kind regresses CPU time, the two problems both logs label.
pub const KINDS: [(ModelKind, Problem); 6] = [
    (ModelKind::CTfidf, Problem::ErrorClassification),
    (ModelKind::WTfidf, Problem::CpuTime),
    (ModelKind::CCnn, Problem::ErrorClassification),
    (ModelKind::WCnn, Problem::CpuTime),
    (ModelKind::CLstm, Problem::ErrorClassification),
    (ModelKind::WLstm, Problem::CpuTime),
];

/// Model families, each `KINDS[2f..2f + 2]`, and the name of their
/// end-to-end training-throughput metric.
pub const FAMILIES: [&str; 3] = ["tfidf", "cnn", "lstm"];

/// Neural training epochs per `train_model` call (early stopping off).
const EPOCHS: usize = 1;

/// Seed of the labelled logs: the experiment harness's canonical corpus
/// (`sqlan-bench`'s default `SQLAN_SEED`), the same in every run.
///
/// Labelling cost is dominated by a handful of erroring statements whose
/// cost hangs on random literals (README.md, findings), so a log drawn
/// from the run's seed moves label throughput twofold between seeds —
/// 277–596 SDSS statements/s over seven seeds — which no repetition
/// within a run can average out. The run's seed drives training
/// (initialization, shuffling), the request streams and which labels the
/// output check samples.
pub const LOG_SEED: u64 = 0x5D55;

/// The workload's labelled log.
#[derive(Debug, Clone, Copy)]
pub enum LogSpec {
    Sdss(SdssConfig),
    SqlShare(SqlShareConfig),
}

impl LogSpec {
    pub fn new(args: &Args) -> LogSpec {
        let s = args.size;
        match args.workload {
            Workload::Sdss => LogSpec::Sdss(SdssConfig {
                n_sessions: s.sdss_sessions,
                scale: Scale(s.sdss_scale),
                seed: LOG_SEED,
            }),
            Workload::Sqlshare => LogSpec::SqlShare(SqlShareConfig {
                n_queries: s.sqlshare_queries,
                n_users: s.sqlshare_users,
                scale: Scale(s.sqlshare_scale),
                seed: LOG_SEED ^ 0x5A5E,
            }),
        }
    }

    /// Generate and label the log (`build_*`).
    pub fn build(&self) -> Log {
        match *self {
            LogSpec::Sdss(c) => build_sdss(c),
            LogSpec::SqlShare(c) => build_sqlshare(c),
        }
    }

    /// A database over the log's catalog (catalog generation only).
    pub fn database(&self) -> Database {
        match *self {
            LogSpec::Sdss(c) => sdss_database(c),
            LogSpec::SqlShare(c) => sqlshare_database(c),
        }
    }
}

/// Training inputs for one problem: first 80% of the log's statements
/// train, the rest validate.
pub struct Split {
    pub data: Dataset,
    pub cut: usize,
}

impl Split {
    pub fn new(log: &Log, problem: Problem) -> Split {
        let data = Dataset::build(log, problem);
        let cut = data.len() * 4 / 5;
        Split { data, cut }
    }

    pub fn train_data(&self) -> TrainData<'_> {
        let d = &self.data;
        let (labels, valid_labels) = if d.problem.is_classification() {
            (
                Labels::Classes(&d.class_labels[..self.cut]),
                Labels::Classes(&d.class_labels[self.cut..]),
            )
        } else {
            (
                Labels::Values(&d.log_labels[..self.cut]),
                Labels::Values(&d.log_labels[self.cut..]),
            )
        };
        TrainData {
            statements: &d.statements[..self.cut],
            labels,
            valid_statements: &d.statements[self.cut..],
            valid_labels,
        }
    }
}

pub fn task(problem: Problem) -> Task {
    if problem.is_classification() {
        Task::Classify(problem.n_classes())
    } else {
        Task::Regress
    }
}

/// Passes over the training set one `train_model` call makes: the
/// configured epochs for neural kinds, the linear model's fixed epoch
/// count for TF-IDF kinds.
pub fn epochs_of(kind: ModelKind, cfg: &TrainConfig) -> usize {
    match kind {
        ModelKind::CTfidf | ModelKind::WTfidf => sqlan_ml::LinearConfig::default().epochs,
        _ => cfg.epochs,
    }
}

/// How often one round of the timed run repeats each stage: labelling,
/// then the TF-IDF, CNN and LSTM families. Short stages repeat so they
/// gather more samples: a 0.3 s TF-IDF repetition read ±25% within one
/// run on a shared VM. On a 2-CPU x86-64 VM, one SDSS labelling takes
/// about 7.5 s and its families 0.25, 0.7 and 3.0 s; one SQLShare
/// labelling about 1.8 s and its families 0.16, 0.36 and 1.5 s.
pub fn per_round(workload: Workload) -> [usize; 4] {
    match workload {
        Workload::Sdss => [1, 3, 1, 1],
        Workload::Sqlshare => [2, 3, 1, 1],
    }
}

/// The saved bundles.
pub struct Saved {
    pub save_s: f64,
    pub digest: String,
}

/// The journey's state across rounds: the first labelling and the first
/// trained parameters of each kind, against which every repetition is
/// checked, and the timings.
pub struct Offline {
    spec: LogSpec,
    pub train: TrainConfig,
    log: Option<Log>,
    /// Seconds per labelling repetition.
    pub label_s: Vec<f64>,
    splits: Vec<Split>,
    models: Vec<Option<TrainedModel>>,
    first_json: Vec<Option<String>>,
    /// Per kind, first repetition: seconds.
    pub train_s: Vec<(ModelKind, f64)>,
    /// Per family, per repetition: example-epochs per second.
    pub train_rates: [Vec<f64>; 3],
    /// Operations run: labelled statements and trained models.
    pub ops: u64,
    /// Repetitions whose labels or models differed from the first.
    pub unstable: Vec<String>,
}

impl Offline {
    pub fn new(args: &Args) -> Offline {
        Offline {
            spec: LogSpec::new(args),
            train: TrainConfig {
                epochs: EPOCHS,
                patience: 0,
                seed: args.seed ^ 0x7EA1,
                ..TrainConfig::default()
            },
            log: None,
            label_s: Vec::new(),
            splits: Vec::new(),
            models: KINDS.iter().map(|_| None).collect(),
            first_json: KINDS.iter().map(|_| None).collect(),
            train_s: Vec::new(),
            train_rates: Default::default(),
            ops: 0,
            unstable: Vec::new(),
        }
    }

    /// The first labelling of the log.
    pub fn log(&self) -> &Log {
        self.log.as_ref().expect("labelled")
    }

    /// One round: label `reps[0]` times, then train each family
    /// `reps[1 + f]` times.
    pub fn round(&mut self, reps: [usize; 4], tracer: &Tracer, parent: Option<SpanId>) {
        for _ in 0..reps[0] {
            self.label(tracer, parent);
        }
        for (f, &n) in reps[1..].iter().enumerate() {
            for _ in 0..n {
                self.train_family(f, tracer, parent);
            }
        }
    }

    fn label(&mut self, tracer: &Tracer, parent: Option<SpanId>) {
        let name = match self.spec {
            LogSpec::Sdss(_) => "workload.build_sdss",
            LogSpec::SqlShare(_) => "workload.build_sqlshare",
        };
        let t = Instant::now();
        let log = tracer.span(name, 0, parent, |_| self.spec.build());
        self.label_s.push(secs(t));
        self.ops += log.len() as u64;
        match &self.log {
            None => {
                self.splits = KINDS.iter().map(|&(_, p)| Split::new(&log, p)).collect();
                self.log = Some(log);
            }
            Some(first) if first.entries != log.entries => self
                .unstable
                .push(format!("{name}: labels differ between repetitions")),
            Some(_) => {}
        }
    }

    fn train_family(&mut self, f: usize, tracer: &Tracer, parent: Option<SpanId>) {
        let mut s = 0.0;
        let mut ex = 0.0;
        for (i, &(kind, problem)) in KINDS.iter().enumerate().skip(2 * f).take(2) {
            let data = self.splits[i].train_data();
            let t = Instant::now();
            let name = format!("model.train.{}", kind.name());
            let model = tracer.span(&name, 0, parent, |_| {
                train_model(kind, task(problem), &data, &self.train, None)
            });
            let ks = secs(t);
            s += ks;
            ex += (self.splits[i].cut * epochs_of(kind, &self.train)) as f64;
            self.ops += 1;
            let json = model.save_json().expect("learned models persist");
            match &self.first_json[i] {
                None => {
                    self.first_json[i] = Some(json);
                    self.train_s.push((kind, ks));
                }
                Some(first) if *first != json => self.unstable.push(format!(
                    "{}: parameters differ between repetitions",
                    kind.name()
                )),
                Some(_) => {}
            }
            self.models[i] = Some(model);
        }
        self.train_rates[f].push(ex / s);
    }

    /// Save the six models as three bundles, one per family (a bundle
    /// holds one model per problem), and digest every file written.
    pub fn save(&mut self, dir: &Path, tracer: &Tracer, parent: Option<SpanId>) -> Saved {
        let t = Instant::now();
        let digest = tracer.span("serve.bundle_save", 0, parent, |_| {
            let mut digest = Digest::default();
            for (f, family) in FAMILIES.iter().enumerate() {
                let pairs: Vec<(Problem, &TrainedModel)> = (2 * f..2 * f + 2)
                    .map(|i| (KINDS[i].1, self.models[i].as_ref().expect("trained")))
                    .collect();
                let bdir = dir.join(family);
                let manifest =
                    save_bundle(&bdir, family, self.train.seed, &pairs).expect("save bundle");
                let mut files: Vec<String> =
                    manifest.entries.iter().map(|e| e.file.clone()).collect();
                files.push("manifest.json".to_string());
                for f in files {
                    let body = std::fs::read(bdir.join(&f)).expect("read back bundle file");
                    digest.update(f.as_bytes());
                    digest.update(&body);
                }
            }
            digest.hex()
        });
        self.ops += 1;
        Saved {
            save_s: secs(t),
            digest,
        }
    }

    /// End-to-end metrics of the timed run.
    pub fn put_metrics(&self, report: &mut Report) {
        report.put(
            "label_stmts_per_s",
            self.log().len() as f64 / median(&self.label_s),
            "stmts/s",
        );
        for (family, rates) in FAMILIES.iter().zip(&self.train_rates) {
            report.put(
                format!("train_{family}_examples_per_s"),
                median(rates),
                "example-epochs/s",
            );
        }
    }

    /// Output check of the timed run: a seeded sample of labels equals
    /// one-at-a-time submission (the traced run checks every statement).
    pub fn check_sample(&self, report: &mut Report, seed: u64) {
        let db = self.spec.database();
        let entries = &self.log().entries;
        for (i, e) in entries.iter().enumerate() {
            if (i + seed as usize).is_multiple_of(20) {
                check_label(report, e, &db.submit(&e.statement));
            }
        }
    }
}

/// The saved-bundle digest must repeat for a seed: the first run of a
/// seed records it, later runs of that seed by the same executable
/// compare. Records are kept per executable, so a rebuilt program whose
/// saved bytes legitimately change starts a record of its own instead of
/// failing against one an older build wrote.
pub fn check_digest(report: &mut Report, args: &Args, digest: &str) {
    let Some(exe) = exe_digest() else {
        eprintln!("[perfbench] cannot read the running executable; digest not recorded");
        return;
    };
    let dir = Path::new(".perfbench_tmp").join("digests");
    let size = if args.size.smoke { "smoke" } else { "full" };
    let file = dir.join(format!(
        "{}-{size}-{exe}-{}",
        args.workload.name(),
        args.seed
    ));
    match std::fs::read_to_string(&file) {
        Ok(prev) if prev.trim() != digest => report.fail_check(format!(
            "bundle digest {digest} differs from {} recorded for seed {}",
            prev.trim(),
            args.seed
        )),
        Ok(_) => {}
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&file, digest);
        }
    }
}

/// Digest of the running executable's bytes, computed once per process.
fn exe_digest() -> Option<String> {
    static EXE: std::sync::OnceLock<Option<String>> = std::sync::OnceLock::new();
    EXE.get_or_init(|| {
        let bytes = std::fs::read(std::env::current_exe().ok()?).ok()?;
        Some(Digest::of(&bytes).hex())
    })
    .clone()
}

/// A label from `build_*` must equal one-at-a-time submission.
pub fn check_label(
    report: &mut Report,
    entry: &WorkloadEntry,
    out: &sqlan_engine::QueryOutcome,
) -> bool {
    let same = entry.error_class == out.error_class
        && entry.answer_size.to_bits() == (out.answer_size as f64).to_bits()
        && entry.cpu_seconds.to_bits() == out.cpu_seconds.to_bits();
    if !same {
        report.fail_check(format!(
            "label mismatch for {:?}: built {:?}/{}/{} vs submitted {:?}/{}/{}",
            entry.statement,
            entry.error_class,
            entry.answer_size,
            entry.cpu_seconds,
            out.error_class,
            out.answer_size,
            out.cpu_seconds
        ));
    }
    same
}

fn class_name(c: ErrorClass) -> &'static str {
    match c {
        ErrorClass::Success => "success",
        ErrorClass::NonSevere => "non_severe",
        ErrorClass::Severe => "severe",
    }
}

/// The traced run's attribution passes and per-layer metrics. Every
/// labelled statement is submitted again one at a time, and its label
/// must equal `build_*`'s.
pub fn attribute(
    off: &Offline,
    saved: &Saved,
    tracer: &Tracer,
    root: Option<SpanId>,
    report: &mut Report,
) {
    let entries = &off.log().entries;
    report.attempted += entries.len() as u64;

    // Catalog generation alone, which build_* does before it labels.
    let t = Instant::now();
    let db = tracer.span("workload.generate", 0, root, |_| off.spec.database());
    report.put("workload.generate_s", secs(t), "s");

    // Engine attribution: every labelled statement, one at a time.
    let mut by_class = [(0.0f64, 0u64); 3];
    let mut submit = Vec::with_capacity(entries.len());
    tracer.span("bench.resubmit", 0, root, |phase| {
        for (i, e) in entries.iter().enumerate() {
            let id = i as u64;
            tracer.span("sql.fingerprint", id, phase, |_| {
                std::hint::black_box(sqlan_sql::fingerprint(&e.statement))
            });
            tracer.span("sql.parse", id, phase, |_| {
                std::hint::black_box(sqlan_sql::parse(&e.statement))
            });
            let t = Instant::now();
            let o = tracer.span("engine.submit", id, phase, |_| db.submit(&e.statement));
            let s = secs(t);
            submit.push(s);
            let slot = &mut by_class[o.error_class.index()];
            slot.0 += s;
            slot.1 += 1;
            check_label(report, e, &o);
        }
    });
    for c in [
        ErrorClass::Success,
        ErrorClass::NonSevere,
        ErrorClass::Severe,
    ] {
        let (s, n) = by_class[c.index()];
        report.put(format!("engine.submit_s.{}", class_name(c)), s, "s");
        report.put(
            format!("engine.submit_count.{}", class_name(c)),
            n as f64,
            "count",
        );
    }
    report.put("engine.submit_us_p50", quantile(&submit, 0.5) * 1e6, "us");
    let stats = db.plan_cache_stats();
    report.put(
        "engine.plan_cache_hit_ratio",
        stats.map_or(0.0, |s| s.hit_rate()),
        "ratio",
    );
    report.put(
        "engine.plan_cache_entries",
        stats.map_or(0.0, |s| s.entries as f64),
        "count",
    );
    // The erroring tail on the row engine alone: what the columnar
    // attempt before each replay adds.
    let row_db = db.with_engine(Engine::Row);
    let t = Instant::now();
    tracer.span("bench.row_only", 0, root, |phase| {
        for (i, e) in entries.iter().enumerate() {
            if e.error_class == ErrorClass::NonSevere {
                tracer.span("engine.submit_row", i as u64, phase, |_| {
                    std::hint::black_box(row_db.submit(&e.statement))
                });
            }
        }
    });
    report.put("engine.row_only_s.non_severe", secs(t), "s");
    let sequential: f64 = submit.iter().sum();
    report.put("par.label_speedup", sequential / off.label_s[0], "x");

    // TF-IDF fit and per-statement transform, both granularities, on
    // the training statements.
    let train: Vec<&String> = entries[..entries.len() * 4 / 5]
        .iter()
        .map(|e| &e.statement)
        .collect();
    let mut fit_s = 0.0;
    let mut vectorizers = Vec::new();
    for g in [Granularity::Char, Granularity::Word] {
        let streams: Vec<Vec<String>> = tracer.span("model.tokenize", 0, root, |_| {
            train.iter().map(|s| tokenize(s, g)).collect()
        });
        let t = Instant::now();
        let v = tracer.span("features.tfidf_fit", 0, root, |_| {
            TfidfVectorizer::fit(
                &streams,
                off.train.tfidf_max_ngram,
                off.train.tfidf_features,
            )
        });
        fit_s += secs(t);
        vectorizers.push((v, streams));
    }
    tracer.span("bench.transform", 0, root, |phase| {
        for i in 0..train.len() {
            tracer.span("features.tfidf_transform", i as u64, phase, |_| {
                for (v, streams) in &vectorizers {
                    std::hint::black_box(v.transform(&streams[i]));
                }
            })
        }
    });
    report.put(
        "sql.fingerprint_us_p50",
        quantile(&tracer.durations("sql.fingerprint"), 0.5) * 1e6,
        "us",
    );
    report.put(
        "sql.parse_us_p50",
        quantile(&tracer.durations("sql.parse"), 0.5) * 1e6,
        "us",
    );
    report.put("features.tfidf_fit_s", fit_s, "s");
    report.put(
        "features.tfidf_transform_us_p50",
        quantile(&tracer.durations("features.tfidf_transform"), 0.5) * 1e6,
        "us",
    );
    for (kind, s) in &off.train_s {
        report.put(format!("model.train_s.{}", kind.name()), *s, "s");
    }
    report.put("serve.bundle_save_s", saved.save_s, "s");
}
