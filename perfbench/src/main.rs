//! Steady-state benchmark of the quakeviz pipeline.
//!
//! ```text
//! quakeviz-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! quakeviz-perfbench --write-reference
//! ```
//!
//! With `--trace 0` the run drives the workload's pipeline closed-loop
//! for `--seconds`, checks every frame against its oracle, and prints the
//! end-to-end metrics. With `--trace 1` it prints the per-layer metrics
//! instead: it times the same pipeline with tracing on, reads the spans
//! and counters the pipeline report exposes, and replays each layer on the
//! workload's own inputs. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod layers;
mod oracle;
mod stats;
mod workload;

use oracle::Oracle;
use quakeviz_core::PipelineReport;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{pass_kinds, run_once, Inputs, Workload};

/// Directory of the committed reference thumbnails, relative to the
/// checkout root the benchmark runs from.
const REFERENCE_DIR: &str = "perfbench/reference";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: quakeviz-perfbench --workload <movie_render|io_hiding|tf_explore|\
                     failover_rejoin> --seed <n> --seconds <s> --trace <0|1>\n       \
                     quakeviz-perfbench --write-reference";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub n: usize,
}

pub fn metric(name: &str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric { name: name.to_string(), value, unit, n }
}

/// Outcome of one pipeline invocation, as the end-to-end metrics need it.
pub struct Invocation {
    pub kind: &'static str,
    /// Fill / steady / drain of the frame stream (`None` if the run
    /// failed or left no steady frame).
    pub split: Option<stats::Split>,
    /// The full report, kept only in traced runs: its spans are large,
    /// and holding them would make peak memory grow with run length.
    pub report: Option<PipelineReport>,
    /// Frames expected (one per executed step).
    pub attempted: usize,
    /// Frames missing or not bit-identical to the oracle.
    pub errors: usize,
    /// Frames carrying a `Degradation` tag.
    pub degraded: usize,
    /// `PipelineBuilder::run` wall time minus the frame loop, seconds.
    pub setup_s: f64,
}

/// Run the workload closed-loop for `seconds`, checking every frame.
pub fn drive(
    w: Workload,
    ds: &quakeviz_seismic::Dataset,
    inputs: &Inputs,
    oracle: &Oracle,
    seconds: f64,
    trace: bool,
) -> Vec<Invocation> {
    let steps = ds.steps();
    let kinds = pass_kinds(&inputs.passes);
    let start = Instant::now();
    let mut out = Vec::new();
    let mut invocation = 0;
    while out.is_empty() || start.elapsed() < Duration::from_secs_f64(seconds) {
        let results = run_once(w, ds, inputs, trace, invocation);
        invocation += 1;
        for (i, (variant, result, wall)) in results.into_iter().enumerate() {
            let kind = if w == Workload::TfExplore { kinds[i] } else { w.name() };
            out.push(match result {
                Ok(mut report) => {
                    let errors = oracle.errors(variant, &report.frames, steps);
                    report.frames = Vec::new();
                    Invocation {
                        kind,
                        split: stats::split(&report.frame_done, w.depth()),
                        attempted: steps,
                        errors,
                        degraded: report.degraded_frame_count(),
                        setup_s: wall - report.total_seconds(),
                        report: trace.then_some(report),
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {} pipeline failed: {e}", w.name());
                    Invocation {
                        kind,
                        split: None,
                        report: None,
                        attempted: steps,
                        errors: steps,
                        degraded: 0,
                        setup_s: wall,
                    }
                }
            });
        }
    }
    out
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics over a run's invocations.
pub fn end_to_end(runs: &[Invocation]) -> Vec<Metric> {
    let splits: Vec<&stats::Split> = runs.iter().filter_map(|r| r.split.as_ref()).collect();
    let steady_frames: usize = splits.iter().map(|s| s.steady_frames).sum();
    let steady_s: f64 = splits.iter().map(|s| s.steady_s).sum();
    let gaps: Vec<f64> = splits.iter().flat_map(|s| s.steady_gaps.iter().copied()).collect();
    let fills: Vec<f64> = splits.iter().map(|s| s.fill_s).collect();
    let setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let attempted: usize = runs.iter().map(|r| r.attempted).sum();
    let errors: usize = runs.iter().map(|r| r.errors).sum();
    let degraded: usize = runs.iter().map(|r| r.degraded).sum();
    let frac = |k: usize| 1.0 - k as f64 / attempted.max(1) as f64;
    vec![
        metric(
            "frames_per_s",
            steady_frames as f64 / steady_s.max(f64::MIN_POSITIVE),
            "1/s",
            steady_frames,
        ),
        metric("interframe_p90_ms", stats::percentile(&gaps, 0.9) * 1e3, "ms", gaps.len()),
        metric("fill_ms", stats::median(&fills) * 1e3, "ms", fills.len()),
        metric("setup_s", stats::median(&setups), "s", setups.len()),
        metric("frame_ok_frac", frac(errors), "frac", attempted),
        metric("undegraded_frac", frac(degraded), "frac", attempted),
        metric("peak_rss_mb", peak_rss_mb(), "MiB", 1),
    ]
}

/// Steady frame rate and fill per kind of pass, when a run mixes kinds
/// (`tf_explore`'s cold, block-hit and frame-hit passes).
fn print_pass_kinds(runs: &[Invocation]) {
    let mut kinds: Vec<&str> = runs.iter().map(|r| r.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    if kinds.len() < 2 {
        return;
    }
    for kind in kinds {
        let splits: Vec<&stats::Split> =
            runs.iter().filter(|r| r.kind == kind).filter_map(|r| r.split.as_ref()).collect();
        let frames: usize = splits.iter().map(|s| s.steady_frames).sum();
        let secs: f64 = splits.iter().map(|s| s.steady_s).sum();
        let fills: Vec<f64> = splits.iter().map(|s| s.fill_s).collect();
        println!(
            "pass {kind:<10} passes={:<4} frames_per_s={:<10.3} fill_ms={:.3}",
            splits.len(),
            frames as f64 / secs.max(f64::MIN_POSITIVE),
            stats::median(&fills) * 1e3
        );
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns a negative zero into zero
        format!("{}", v + 0.0)
    } else {
        "null".to_string()
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn write_references() -> Result<(), String> {
    for w in Workload::ALL {
        let ds = w.dataset();
        let path = oracle::write_reference(Path::new(REFERENCE_DIR), w, &ds)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--write-reference") {
        return match write_references() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let t0 = Instant::now();
    let ds = w.dataset();
    let inputs = Inputs::generate(w, &ds, args.seed);
    eprintln!(
        "perfbench: {} seed {}: dataset {} steps, {} nodes, generated in {:.2}s (not measured)",
        w.name(),
        args.seed,
        ds.steps(),
        ds.mesh().node_count(),
        t0.elapsed().as_secs_f64()
    );
    let t1 = Instant::now();
    let reference = oracle::check_reference(Path::new(REFERENCE_DIR), w, &ds);
    if let Err(e) = &reference {
        eprintln!("perfbench: oracle does not match the committed reference: {e}");
    }
    let oracle = match Oracle::build(w, &ds, &inputs) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: oracle run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "perfbench: oracle and reference check in {:.2}s (not measured)",
        t1.elapsed().as_secs_f64()
    );

    let (runs, metrics) = if args.trace {
        layers::traced(w, &ds, &inputs, &oracle, args.seconds)
    } else {
        let runs = drive(w, &ds, &inputs, &oracle, args.seconds, false);
        let m = end_to_end(&runs);
        (runs, m)
    };
    let attempted: usize = runs.iter().map(|r| r.attempted).sum();
    let failed: usize = runs.iter().map(|r| r.errors).sum();
    let degraded: usize = runs.iter().map(|r| r.degraded).sum();
    let correct = failed == 0 && reference.is_ok();
    if !args.trace {
        print_pass_kinds(&runs);
    }
    for m in &metrics {
        println!("{:<34} {:>14.6} {:<6} n={}", m.name, m.value + 0.0, m.unit, m.n);
    }
    // the result line carries these as 1 - rate, a metric that is never 0
    let rate = |k: usize| k as f64 / attempted.max(1) as f64;
    println!(
        "{:<34} {:>14.6} {:<6} n={attempted} ({failed} frames)",
        "frame_error_rate",
        rate(failed),
        "frac"
    );
    println!(
        "{:<34} {:>14.6} {:<6} n={attempted} ({degraded} frames)",
        "degraded_frame_rate",
        rate(degraded),
        "frac"
    );
    println!(
        "{} invocations, {attempted} frames attempted, {failed} wrong or missing, reference {}",
        runs.len(),
        if reference.is_ok() { "ok" } else { "MISMATCH" }
    );
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload io_hiding --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::IoHiding);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload io_hiding --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload io_hiding --seed 1 --seconds 1 --trace 2")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &[metric("fill_ms", 1.25, "ms", 3)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"fill_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
