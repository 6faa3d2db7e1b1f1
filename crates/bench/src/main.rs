//! `sqlan-bench [NAME…]`: render the named tables and figures of the
//! paper's evaluation, or all 13 when no name is given. Each one prints
//! to stdout and writes its JSON artifact to `results/<NAME>.json`;
//! progress goes to stderr. The `SQLAN_*` knobs of [`Harness`] scale the
//! run.

use std::io::Write as _;
use std::time::Instant;

use sqlan_bench::{Harness, Runs, TABLES};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let chosen: Vec<_> = if names.is_empty() {
        TABLES.iter().collect()
    } else {
        names
            .iter()
            .map(|name| {
                TABLES.iter().find(|(t, _)| t == name).unwrap_or_else(|| {
                    let known: Vec<&str> = TABLES.iter().map(|(t, _)| *t).collect();
                    eprintln!(
                        "error: no table named {name:?} (known: {})",
                        known.join(" ")
                    );
                    std::process::exit(2);
                })
            })
            .collect()
    };
    let runs = Runs::new(Harness::from_env());
    for (name, render) in chosen {
        eprintln!("[{name}] ...");
        let start = Instant::now();
        let (text, json) = render(&runs);
        print!("{text}");
        save_json(name, &json);
        eprintln!("[{name}] {:.1} s", start.elapsed().as_secs_f64());
    }
}

/// Write a JSON artifact under `results/` (best effort — the harness keeps
/// printing even on read-only checkouts).
fn save_json(name: &str, value: &serde_json::Value) {
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
