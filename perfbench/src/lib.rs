//! # perfbench
//!
//! The repository's benchmark. Two workloads, one per executed query log
//! of the paper, each running the whole system on its log:
//!
//! - `sdss` — the templated SDSS log: about 82% plan-cache hits and an
//!   erroring tail that the row engine replays;
//! - `sqlshare` — the ad hoc SQLShare log: about 5% plan-cache hits, the
//!   cache near its capacity.
//!
//! A run sets the server up, then runs rounds; every round labels the
//! log, trains every learned model kind on its labels, and serves the
//! log's kind of statements in two windows — an open loop of single
//! never-seen statements (interactive) and a closed loop of 64-statement
//! requests the prediction cache mostly answers (bulk). Spreading every
//! stage over the rounds lets each metric's median sample the machine at
//! several moments.
//!
//! A run prints one JSON line: `correct`, `attempted`, `failed` and the
//! metrics — end-to-end ones when untraced, per-layer ones when traced.
//! See `perfbench/README.md` for the metric list and the findings.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod offline;
pub mod report;
pub mod serving;
pub mod stats;
pub mod trace;

pub use report::{Metric, Report};

use offline::Offline;
use serving::Serving;
use trace::Tracer;

/// The environment knobs pinned for every run: the training tile the
/// program would otherwise pick by timing, and the thread counts it
/// would otherwise take from the core count. Everything else under
/// `SQLAN_` is cleared so the program runs on its defaults.
pub fn pin_settings() -> Vec<(String, String)> {
    let nproc = nproc();
    let pinned = vec![
        ("SQLAN_NN_TILE".to_string(), "8".to_string()),
        ("SQLAN_THREADS".to_string(), nproc.to_string()),
    ];
    for (k, _) in std::env::vars() {
        if k.starts_with("SQLAN_") {
            std::env::remove_var(&k);
        }
    }
    for (k, v) in &pinned {
        std::env::set_var(k, v);
    }
    pinned
}

/// CPUs visible to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Which workload to run: whose log is labelled and trained on, and
/// whose kind of statements are served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sdss,
    Sqlshare,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Sdss, Workload::Sqlshare];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sdss => "sdss",
            Workload::Sqlshare => "sqlshare",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. `full` is what the benchmark measures; `smoke` runs both
/// workloads in seconds for the benchmark's own tests.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub smoke: bool,
    /// The SDSS log: sessions and catalog scale.
    pub sdss_sessions: usize,
    pub sdss_scale: f64,
    /// The SQLShare log: statements, users and catalog scale.
    pub sqlshare_queries: usize,
    pub sqlshare_users: u32,
    pub sqlshare_scale: f64,
    /// How many times the timed run sets up (the median is reported).
    pub setup_reps: usize,
    /// Rounds of the timed run.
    pub rounds: usize,
    /// The small log the served bundle is trained on.
    pub serve_sessions: usize,
    pub serve_sqlshare: usize,
    pub serve_scale: f64,
}

impl Size {
    pub fn full() -> Size {
        Size {
            smoke: false,
            sdss_sessions: 3000,
            sdss_scale: 0.12,
            sqlshare_queries: 1200,
            sqlshare_users: 60,
            sqlshare_scale: 0.24,
            setup_reps: 3,
            rounds: 3,
            serve_sessions: 350,
            serve_sqlshare: 250,
            serve_scale: 0.03,
        }
    }

    pub fn smoke() -> Size {
        Size {
            smoke: true,
            sdss_sessions: 200,
            sdss_scale: 0.02,
            sqlshare_queries: 120,
            sqlshare_users: 10,
            sqlshare_scale: 0.04,
            setup_reps: 2,
            rounds: 1,
            serve_sessions: 150,
            serve_sqlshare: 80,
            serve_scale: 0.02,
        }
    }
}

/// One run's arguments.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Scales the serving windows (see `serving::INTERACTIVE_PER_SECOND`).
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>
/// [--smoke]`.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut size = Size::full();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => size = Size::smoke(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size,
    })
}

/// Run one workload and return its report.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new();
    if args.trace {
        traced_run(args, &mut report);
    } else {
        pass(args, &Tracer::new(false), &mut report);
    }
    check_catalogue(&mut report, args.trace);
    report
}

/// One pass over the workload. The timed run (`--trace 0`) sets up
/// `setup_reps` times and runs `rounds` rounds, repeating each offline
/// stage per [`offline::per_round`] and splitting the serving windows
/// evenly over the rounds; it reports the end-to-end metrics. A traced
/// run's pass sets up once and runs one round with each stage once and
/// the whole of each serving window (so `predict_p99_ms` has ten samples
/// beyond it), then the attribution passes and the in-process probes; it
/// reports the per-layer metrics. Spans are recorded when `tracer` is
/// enabled; the work is the same either way.
pub fn pass(args: &Args, tracer: &Tracer, report: &mut Report) {
    let (reps, rounds, per_round) = if args.trace {
        (1, 1, [1; 4])
    } else {
        (
            args.size.setup_reps,
            args.size.rounds,
            offline::per_round(args.workload),
        )
    };
    let interactive_s = args.seconds * serving::INTERACTIVE_PER_SECOND;
    let bulk_s = args.seconds * serving::BULK_PER_SECOND;
    let dir = work_dir(args.workload.name());
    let root_name = format!("bench.{}", args.workload.name());
    tracer.span(&root_name, 0, None, |root| {
        let served = dir.join("served");
        let windows = (interactive_s, bulk_s);
        let mut serving = Serving::start(args, reps, windows, &served, tracer, root, report);
        let mut offline = Offline::new(args);
        for r in 0..rounds {
            tracer.span("bench.round", r as u64, root, |p| {
                offline.round(per_round, tracer, p);
                serving.interactive_window(interactive_s / rounds as f64, tracer, p);
                serving.bulk_window(bulk_s / rounds as f64, tracer, p);
            });
        }
        let saved = offline.save(&dir.join("saved"), tracer, root);
        // Peak memory over set-up and the rounds, before the checks
        // allocate.
        let peak_mb = stats::peak_rss_mb();

        report.attempted += offline.ops;
        for u in &offline.unstable {
            report.fail_check(u.clone());
        }
        offline::check_digest(report, args, &saved.digest);
        if args.trace {
            offline::attribute(&offline, &saved, tracer, root, report);
            serving.probe(tracer, root, report);
        } else {
            offline.check_sample(report, args.seed);
        }
        serving.check(report, tracer, root);
        if args.trace {
            serving.put_layer_metrics(report);
        } else {
            serving.put_metrics(report);
            offline.put_metrics(report);
            report.put("peak_rss_mb", peak_mb, "MB");
        }
        eprintln!(
            "[perfbench] {} seed={} stmts={} label_s={:.3?} train={:.0?} bundle_digest={} \
             peak_rss_mb={peak_mb:.2}",
            args.workload.name(),
            args.seed,
            offline.log().len(),
            offline.label_s,
            offline.train_rates,
            saved.digest,
        );
        serving.log_summary();
        serving.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// The traced run: one pass without spans, whose wall time is the
/// baseline for `trace_overhead_s`, then the same pass with spans; the
/// per-layer metrics come from the second.
fn traced_run(args: &Args, report: &mut Report) {
    let t = std::time::Instant::now();
    let mut untraced = Report::new();
    pass(args, &Tracer::new(false), &mut untraced);
    let untraced_wall = stats::secs(t);
    let tracer = Tracer::new(true);
    pass(args, &tracer, report);
    report.absorb(untraced);
    trace::put_attribution(report, &tracer, untraced_wall);
}

/// The report must carry exactly the catalogued metrics of its mode,
/// each with its catalogued unit and a finite value.
fn check_catalogue(report: &mut Report, traced: bool) {
    let expected = metrics::expected(traced);
    let mut problems = Vec::new();
    for spec in expected {
        match report.metrics.iter().find(|m| m.name == spec.name) {
            None => problems.push(format!("metric {} missing", spec.name)),
            Some(m) if m.unit != spec.unit => {
                problems.push(format!("metric {} in {} not {}", m.name, m.unit, spec.unit))
            }
            Some(m) if !m.value.is_finite() => {
                problems.push(format!("metric {} is {}", m.name, m.value))
            }
            Some(_) => {}
        }
    }
    for m in &report.metrics {
        if !expected.iter().any(|s| s.name == m.name) {
            problems.push(format!("metric {} is not catalogued", m.name));
        }
    }
    for p in problems {
        report.fail_check(p);
    }
}

/// Directory for the run's bundle files, inside the working
/// directory so a run touches nothing outside its checkout.
pub fn work_dir(tag: &str) -> std::path::PathBuf {
    std::path::Path::new(".perfbench_tmp").join(format!("{tag}-{}", std::process::id()))
}
