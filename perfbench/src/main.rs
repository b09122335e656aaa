//! `perfbench` — the repository benchmark: whole-frame, serving and
//! paged-store workloads with end-to-end and per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload vr_single --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `--trace 0` measures with tracing off and reports the end-to-end
//! metrics; `--trace 1` runs an untraced and a traced phase, replays the
//! layer kernels on sampled frames and reports the per-layer metrics.
//! The last line of standard output is the machine-readable result; the
//! full report (and, when traced, the spans) is written under
//! `perfbench/out/`. See `perfbench/README.md`.

mod check;
mod closed;
mod frames;
mod inputs;
mod layers;
mod perlayer;
mod probe;
mod report;
mod serve;
mod trace;

use inputs::Workload;
use report::{Check, Metric, Report};
use std::path::Path;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <vr_single|serve_mixed|paged_churn> --seed <n> --seconds <n> --trace <0|1>";

/// How one run measures.
pub struct Options {
    /// Length of the measured phase (split in two halves when traced).
    pub seconds: f64,
    pub traced: bool,
}

/// What a workload run hands back to the report.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub properties: Vec<Metric>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
}

struct Args {
    workload: Workload,
    seed: u64,
    opts: Options,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        opts: Options {
            seconds: seconds.ok_or("--seconds is required")?,
            traced: traced.ok_or("--trace is required")?,
        },
    })
}

fn write_outputs(report: &Report, tracer: &Tracer) -> std::io::Result<()> {
    let dir = Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        report.workload,
        report.seed,
        u8::from(report.traced)
    );
    std::fs::write(dir.join(format!("{stem}.json")), report.full_json() + "\n")?;
    if report.traced {
        tracer.write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))?;
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let inputs = inputs::generate(args.workload, args.seed);
    let mut tracer = Tracer::new(Instant::now());
    // A traced run records the set-up too; the workload switches tracing
    // off for its untraced phase and back on for the traced one.
    tracer.set_enabled(args.opts.traced);
    let outcome = match args.workload {
        Workload::VrSingle | Workload::PagedChurn => closed::run(&inputs, &args.opts, &mut tracer),
        Workload::ServeMixed => serve::run(&inputs, &args.opts, &mut tracer),
    };
    let mut checks = outcome.checks;
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    checks.push(Check {
        name: "every metric is a finite number".into(),
        ok: finite,
        detail: String::new(),
    });
    let report = Report {
        workload: args.workload.name(),
        seed: args.seed,
        seconds: args.opts.seconds,
        traced: args.opts.traced,
        host: probe::host(),
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: outcome.metrics,
        properties: outcome.properties,
        checks,
    };
    print!("{}", report.human());
    if let Err(e) = write_outputs(&report, &tracer) {
        eprintln!("perfbench: could not write perfbench/out: {e}");
    }
    println!("{}", report.result_line());
}
