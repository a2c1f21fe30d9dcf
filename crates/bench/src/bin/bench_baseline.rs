//! `bench-baseline` — regenerate (or validate) the versioned
//! `BENCH_*.json` performance baselines.
//!
//! Usage:
//!   bench-baseline [--quick] [--area pipeline|render|io|wire|composite] [--out DIR]
//!   bench-baseline --validate FILE...
//!
//! With no `--area`, every area is emitted. `--quick` runs the
//! short configurations CI uses (and that the committed baselines are
//! generated with); full mode runs longer configurations for local
//! trend tracking. `--out` defaults to the current directory — CI
//! writes to a scratch dir so the committed baselines stay untouched.
//!
//! `--validate` parses and schema-checks each file without running
//! anything (exit 0 all valid / 1 otherwise).

use quakeviz_bench::baseline::{run_area, BenchFile, AREAS};

fn main() {
    let mut quick = false;
    let mut areas: Vec<String> = Vec::new();
    let mut out_dir = String::from(".");
    let mut validate: Vec<String> = Vec::new();
    let mut validating = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if validating {
            validate.push(a);
            continue;
        }
        match a.as_str() {
            "--quick" => quick = true,
            "--area" => areas.push(args.next().expect("--area needs a value")),
            "--out" => out_dir = args.next().expect("--out needs a value"),
            "--validate" => validating = true,
            other => {
                eprintln!("unknown flag {other} (see the doc comment for usage)");
                std::process::exit(2);
            }
        }
    }

    if validating {
        if validate.is_empty() {
            eprintln!("--validate needs at least one file");
            std::process::exit(2);
        }
        let mut bad = 0;
        for path in &validate {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    bad += 1;
                    continue;
                }
            };
            match BenchFile::parse(&text) {
                Ok(f) => println!(
                    "{path}: ok (area {}, {} runs, quick={})",
                    f.area,
                    f.runs.len(),
                    f.quick
                ),
                Err(e) => {
                    eprintln!("{path}: INVALID: {e}");
                    bad += 1;
                }
            }
        }
        std::process::exit(if bad > 0 { 1 } else { 0 });
    }

    if areas.is_empty() {
        areas = AREAS.iter().map(|s| s.to_string()).collect();
    }
    std::fs::create_dir_all(&out_dir).expect("create --out dir");
    for area in &areas {
        let file = match run_area(area, quick) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
        file.validate().expect("emitted baseline failed its own schema check");
        let path = format!("{out_dir}/{}", BenchFile::file_name(area));
        std::fs::write(&path, file.to_pretty()).expect("write baseline");
        let budget_limited = file.runs.iter().filter(|r| r.budget_limited).count();
        println!(
            "wrote {path} ({} runs, quick={quick}{})",
            file.runs.len(),
            if budget_limited > 0 {
                format!(", {budget_limited} budget-limited")
            } else {
                String::new()
            }
        );
    }
}
