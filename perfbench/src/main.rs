//! End-to-end and per-layer benchmark of the Tacker runtime.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets up the workload's input sets, then drives its entry
//! call in a closed loop (one caller, the next call issued when the last
//! returns) for `--seconds`, checking every output, and prints the
//! end-to-end metrics. `--trace 1` makes the separate traced run of
//! `layers` and prints the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md` for the workloads and metrics.

mod layers;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use tacker::TackerError;
use workload::Kind;

const USAGE: &str =
    "usage: perfbench --workload <sweep-cold|serve-steady|fleet-burst> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed `{value}`"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One named metric value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured, plus provenance for the record.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Free-form provenance, printed on its own line before the result.
    pub info: BTreeMap<String, String>,
}

impl RunResult {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.insert(key.to_string(), value.to_string());
    }

    /// Counts one entry call; `problems` are its failed checks.
    pub fn record_call(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            eprintln!("check failed ({what}): {}", problems.join("; "));
        }
    }
}

/// The untraced run: one independent set-up per input set, then the
/// closed loop, cycling through the input sets. The loop makes whole
/// passes, at least two, so every set's output is checked against its
/// warm-up call.
fn timed_run(kind: Kind, seed: u64, seconds: f64, jobs: usize) -> Result<RunResult, TackerError> {
    let mut out = RunResult::default();
    let sets = kind.input_sets();
    let mut inputs = Vec::with_capacity(sets);
    // The warm-up outcome of each input set, which every later call of
    // the set must reproduce.
    let mut firsts = Vec::with_capacity(sets);
    let mut setup_s = Vec::with_capacity(sets);
    for i in 0..sets {
        let (input, times, first) =
            workload::setup(kind, workload::input_seed(kind, seed, i), jobs)?;
        out.record_call("warm-up call", &first.problems);
        setup_s.push(times.total_s());
        inputs.push(input);
        firsts.push(first);
    }

    let mut call_s = Vec::new();
    let mut queries = Vec::new();
    let start = Instant::now();
    while call_s.len() < 2 * sets
        || call_s.len() % sets != 0
        || start.elapsed().as_secs_f64() < seconds
    {
        let i = call_s.len() % sets;
        let t = Instant::now();
        let result = workload::call(&inputs[i], jobs, None);
        call_s.push(t.elapsed().as_secs_f64());
        match result {
            Ok(got) => {
                queries.push(got.queries as f64);
                out.record_call("entry call", &workload::check(&firsts[i], &got));
            }
            Err(e) => {
                out.record_call("entry call", &[e.to_string()]);
                queries.push(0.0);
            }
        }
    }

    // Throughput per whole cycle over the input sets, so every set weighs
    // the same; the median over cycles resists a stalled call.
    let cycle_qps: Vec<f64> = call_s
        .chunks(sets)
        .zip(queries.chunks(sets))
        .map(|(t, q)| q.iter().sum::<f64>() / t.iter().sum::<f64>())
        .collect();
    let call_ms: Vec<f64> = call_s.iter().map(|s| s * 1e3).collect();
    let n = firsts.len() as f64;
    let sim_queries: usize = firsts.iter().map(|f| f.queries).sum();
    let sim_violations: usize = firsts.iter().map(|f| f.violations).sum();

    out.metric("setup_s", stats::median(&setup_s), "s");
    out.metric("host_qps", stats::median(&cycle_qps), "1/s");
    out.metric("call_ms_p50", stats::median(&call_ms), "ms");
    out.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
    out.metric(
        "sim_p99_ms",
        firsts.iter().map(|f| f.p99_ms).sum::<f64>() / n,
        "sim_ms",
    );
    out.metric(
        "qos_met_rate",
        1.0 - sim_violations as f64 / sim_queries.max(1) as f64,
        "ratio",
    );
    out.info("calls", call_s.len());
    out.info(
        "input_seeds",
        format!("{:?}", inputs.iter().map(|i| i.seed).collect::<Vec<_>>()),
    );
    out.info("jobs_used", layers::jobs_used(&inputs[0], jobs));
    Ok(out)
}

/// A fingerprint of the code under test: the git commit when the
/// checkout is a repository, else a hash of every source file under
/// `crates/`.
fn code_fingerprint() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(o) = git {
        if o.status.success() {
            return String::from_utf8_lossy(&o.stdout).trim().to_string();
        }
    }
    let mut files = Vec::new();
    let mut dirs = vec![std::path::PathBuf::from("crates")];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut h = tacker_kernel::StableHasher::new();
    for f in &files {
        h.write_str(&f.to_string_lossy());
        h.write_bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!("src-{:016x}", h.finish())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let jobs = tacker_par::available_jobs();
    let result = if args.trace {
        layers::traced_run(args.kind, args.seed, args.seconds, jobs)
    } else {
        timed_run(args.kind, args.seed, args.seconds, jobs)
    };
    let mut result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {} failed: {e}", args.kind.name());
            return ExitCode::FAILURE;
        }
    };
    for m in &result.metrics {
        if !m.value.is_finite() {
            eprintln!("error: metric {} is not finite", m.name);
            result.failed += 1;
        }
    }

    result.info("workload", args.kind.name());
    result.info("seed", args.seed);
    result.info("host_cores", jobs);
    result.info("jobs_requested", jobs);
    result.info("rustc", rustc_version());
    result.info(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    result.info("code", code_fingerprint());
    let info: Vec<String> = result
        .info
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"provenance\": {{{}}}}}", info.join(", "));

    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(&m.name),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
