//! Repository benchmark: runs one named workload from a seed, checks its
//! outputs, and prints every metric by name with its unit.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation;
//! `--trace 1` is a separate traced run that splits the same work into the
//! per-layer metrics.  Human-readable diagnostics go to lines starting with
//! `#`; the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  The exit code is non-zero
//! when any correctness check fails or the arguments are invalid.
//!
//! Workload rationale and measured profiles: `perfbench/README.md`.

#![forbid(unsafe_code)]

mod ckpt;
mod sim;
mod timing;

use std::fmt::Write as _;
use std::time::Duration;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;

/// Workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["fig7-dense", "weak-scaling", "cascade-paired", "ckpt-cycle"];

/// End-to-end metrics (`--trace 0`), with units.  Every workload reports
/// every one of them.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("wall_2t_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units.  A layer a workload does
/// not exercise reports 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("failure.fill_draws", "count"),
    ("failure.scalar_draws", "count"),
    ("failure.draw_s", "s"),
    ("batch.run_s", "s"),
    ("batch.self_s", "s"),
    ("batch.lane_steps", "count"),
    ("batch.failures", "count"),
    ("batch.compiles", "count"),
    ("batch.compile_s", "s"),
    ("stats.pushes", "count"),
    ("stats.stop_checks", "count"),
    ("stats.replications", "count"),
    ("stats.accumulate_s", "s"),
    ("model.evals", "count"),
    ("model.eval_s", "s"),
    ("experiment.tasks", "count"),
    ("experiment.task_s_sum", "s"),
    ("experiment.task_s_max", "s"),
    ("experiment.driver_s", "s"),
    ("output.render_s", "s"),
    ("output.render_bytes", "B"),
    ("ckpt.commit_full_s", "s"),
    ("ckpt.commit_partial_s", "s"),
    ("ckpt.verify_s", "s"),
    ("ckpt.restore_s", "s"),
    ("ckpt.capture_s", "s"),
    ("ckpt.encode_s", "s"),
    ("ckpt.frame_s", "s"),
    ("checksum.crc_s", "s"),
    ("ckpt.put_s", "s"),
    ("ckpt.get_s", "s"),
    ("ckpt.decode_s", "s"),
    ("ckpt.materialize_s", "s"),
    ("ckpt.raw_bytes", "B"),
    ("ckpt.stored_bytes", "B"),
    ("ckpt.retries", "count"),
    ("ckpt.fallback_depth", "count"),
];

/// Pass/fail tally of the correctness checks of one run.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one check; a failure is also described on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

/// Validated command line.
pub struct Options {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(WORKLOADS.iter().copied().find(|w| w == value).ok_or_else(
                    || format!("unknown workload `{value}`; use one of {WORKLOADS:?}"),
                )?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed must be an unsigned integer, got `{value}`"))?;
            }
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("--seconds must be a whole number, got `{value}`"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds must be in 1..=600, got {s}"));
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
    })
}

/// Orders a workload's measurements by the declared metric list, filling
/// layers it does not exercise with 0; an undeclared name is a bug.
fn declared(
    list: &[(&'static str, &'static str)],
    measured: Vec<(&'static str, f64)>,
    checks: &mut Checks,
) -> Vec<(&'static str, f64, &'static str)> {
    for (name, _) in &measured {
        checks.check(list.iter().any(|(n, _)| n == name), || {
            format!("undeclared metric {name}")
        });
    }
    list.iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |m| m.1);
            (name, value, unit)
        })
        .collect()
}

fn result_line(checks: &Checks, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest representation that round-trips, so
        // every measured digit survives.
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&raw) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut checks = Checks::default();
    let measured = match opts.workload {
        "ckpt-cycle" => ckpt::run(&opts, &mut checks),
        name => sim::run(name, &opts, &mut checks),
    };
    let list: &[_] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = declared(list, measured, &mut checks);
    for (name, value, _) in &metrics {
        checks.check(value.is_finite(), || format!("metric {name} is not finite"));
    }
    println!(
        "# checks: {} attempted, {} failed, error_rate {}",
        checks.attempted,
        checks.failed,
        checks.failed as f64 / checks.attempted.max(1) as f64
    );
    println!("{}", result_line(&checks, &metrics));
    if checks.failed > 0 {
        std::process::exit(1);
    }
}
