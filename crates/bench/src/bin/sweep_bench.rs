//! Wall-clock benchmark of the parallel sweep path: a fixed, reduced
//! LC × BE sweep executed at `jobs = 1` and `jobs = N`, with the device
//! cache-hit rate alongside. Seeds the repo's perf trajectory as
//! `results/BENCH_sweep.json`.
//!
//! Methodology:
//!
//! * A warm-up sweep on a throwaway device populates the global peak-load
//!   calibration cache, so both timed modes pay the same (zero)
//!   calibration cost and the comparison isolates sweep execution itself.
//! * Each timed mode gets a *fresh* device: within a mode the runs share
//!   the sharded execution cache (that sharing is part of what is being
//!   measured), but nothing leaks between modes.
//! * Each mode is timed twice and the better wall time is kept — the
//!   sweep is deterministic, so the spread between repeats is pure host
//!   noise, and the minimum is the standard noise-robust estimator.
//! * The two modes' reports are asserted identical — the speedup number is
//!   only meaningful because the parallel sweep is bit-equal to the serial
//!   one.
//! * When the adaptive pool resolves the parallel request to one worker
//!   (1-core host or under-threshold batch: `jobs_used = 1`), both timed
//!   modes execute the *identical* serial code path; the speedup is then
//!   reported as `1.0` by construction (`serial_fallback: true` records
//!   that this happened) because a ratio of two timings of the same code
//!   would only measure noise. The ratio actually measured is always
//!   recorded beside it as `measured_speedup`, so the artifact never
//!   hides what the host did.
//!
//! Provenance: the JSON records the detected `host_cores`, the requested
//! and *actually used* jobs after the adaptive fallback, and every cell's
//! expected-event scheduling weight, so shard-balance skew is auditable
//! from the artifact alone.
//!
//! Usage: `cargo run --release -p tacker-bench --bin sweep_bench
//! [-- <out.json>] [-- --check]` (default `results/BENCH_sweep.json`).
//! `--check` exits non-zero if the speedup floor for the host class is
//! missed (≥ 1.0 below 4 cores, ≥ 2.0 at 4+) or the identity/fused-cache
//! invariants fail — CI runs it to gate sweep-path regressions.

use std::sync::Arc;
use std::time::Instant;

use tacker::prelude::*;
use tacker_sim::{Device, GpuSpec};
use tacker_workloads::{BeApp, LcService};

const LC_NAMES: [&str; 2] = ["Resnet50", "VGG16"];
const BE_NAMES: [&str; 3] = ["fft", "sgemm", "cutcp"];
const QUERIES: usize = 40;

fn grid(device: &Arc<Device>) -> (Vec<LcService>, Vec<BeApp>) {
    let lcs = LC_NAMES
        .iter()
        .map(|n| tacker_workloads::lc_service(n, device).expect("LC service"))
        .collect();
    let bes = BE_NAMES
        .iter()
        .map(|n| tacker_workloads::be_app(n).expect("BE app"))
        .collect();
    (lcs, bes)
}

fn run_sweep(jobs: usize, config: &ExperimentConfig) -> (Vec<SweepCell>, f64, Arc<Device>) {
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let (lcs, bes) = grid(&device);
    let start = Instant::now();
    let cells = run_pair_sweep(
        &device,
        &lcs,
        &bes,
        &[Policy::Baymax, Policy::Tacker],
        config,
        jobs,
    )
    .expect("sweep");
    (cells, start.elapsed().as_secs_f64() * 1e3, device)
}

fn main() {
    let mut out = "results/BENCH_sweep.json".to_string();
    let mut check = false;
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check = true;
        } else {
            out = arg;
        }
    }
    let config = ExperimentConfig::default().with_queries(QUERIES);
    let host_cores = tacker_par::available_jobs();
    let jobs_requested = host_cores.max(4);

    // Warm-up: populate the process-global peak-load calibration cache so
    // neither timed mode pays calibration for the other.
    eprintln!("warm-up (calibration) ...");
    let _ = run_sweep(jobs_requested, &config);

    // What the adaptive pool will actually use for the parallel mode.
    let jobs_used = {
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let (lcs, bes) = grid(&device);
        sweep_jobs_used(
            jobs_requested,
            &lcs,
            &bes,
            &[Policy::Baymax, Policy::Tacker],
            &config,
        )
    };
    let serial_fallback = jobs_used <= 1;

    eprintln!("timing jobs=1 ...");
    let (serial_cells, serial_ms_a, _) = run_sweep(1, &config);
    let (_, serial_ms_b, _) = run_sweep(1, &config);
    let serial_ms = serial_ms_a.min(serial_ms_b);
    eprintln!("timing jobs={jobs_requested} (used: {jobs_used}) ...");
    let (parallel_cells, parallel_ms_a, device) = run_sweep(jobs_requested, &config);
    let (_, parallel_ms_b, _) = run_sweep(jobs_requested, &config);
    let parallel_ms = parallel_ms_a.min(parallel_ms_b);

    // The headline number is only honest if parallel == serial.
    assert_eq!(serial_cells.len(), parallel_cells.len());
    for (s, p) in serial_cells.iter().zip(&parallel_cells) {
        assert_eq!(
            (s.lc.as_str(), s.be.as_str()),
            (p.lc.as_str(), p.be.as_str())
        );
        assert_eq!(
            s.report.query_latencies(),
            p.report.query_latencies(),
            "{}+{} latencies diverged",
            s.lc,
            s.be
        );
        assert_eq!(s.report.fused_launches, p.report.fused_launches);
        assert_eq!(s.report.be_work, p.report.be_work);
        assert_eq!(s.expected_events, p.expected_events);
    }

    let (hits, misses) = device.cache_stats();
    let (fused_hits, fused_misses) = device.fused_cache_stats();
    // With jobs_used == 1 both modes ran the identical serial path; the
    // measured ratio is then pure noise, so the gated speedup is 1.0 by
    // construction. The measured ratio is recorded either way.
    let measured_speedup = serial_ms / parallel_ms.max(1e-9);
    let speedup = if serial_fallback {
        1.0
    } else {
        measured_speedup
    };
    let cells_json: Vec<String> = serial_cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"lc\": \"{}\", \"be\": \"{}\", \"policy\": \"{:?}\", \
                 \"expected_events\": {}}}",
                c.lc, c.be, c.policy, c.expected_events
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"pair_sweep\",\n",
            "  \"grid\": {{\"lc\": {lc:?}, \"be\": {be:?}, ",
            "\"policies\": [\"Baymax\", \"Tacker\"], \"queries\": {queries}}},\n",
            "  \"host_cores\": {cores},\n",
            "  \"jobs_serial\": 1,\n",
            "  \"jobs_requested\": {requested},\n",
            "  \"jobs_used\": {used},\n",
            "  \"serial_fallback\": {fallback},\n",
            "  \"wall_ms_serial\": {serial:.1},\n",
            "  \"wall_ms_parallel\": {parallel:.1},\n",
            "  \"speedup\": {speedup:.2},\n",
            "  \"measured_speedup\": {measured:.2},\n",
            "  \"results_identical\": true,\n",
            "  \"cells\": [\n{cells}\n  ],\n",
            "  \"device_cache\": {{\"hits\": {hits}, \"misses\": {misses}, ",
            "\"hit_rate\": {rate:.4}}},\n",
            "  \"fused_cache\": {{\"hits\": {fused_hits}, \"misses\": {fused_misses}, ",
            "\"hit_rate\": {fused_rate:.4}}}\n",
            "}}\n"
        ),
        lc = LC_NAMES,
        be = BE_NAMES,
        queries = QUERIES,
        cores = host_cores,
        requested = jobs_requested,
        used = jobs_used,
        fallback = serial_fallback,
        serial = serial_ms,
        parallel = parallel_ms,
        speedup = speedup,
        measured = measured_speedup,
        cells = cells_json.join(",\n"),
        hits = hits,
        misses = misses,
        rate = device.cache_hit_rate(),
        fused_hits = fused_hits,
        fused_misses = fused_misses,
        fused_rate = device.fused_cache_hit_rate(),
    );
    std::fs::write(&out, &json).expect("write BENCH_sweep.json");
    print!("{json}");
    eprintln!(
        "jobs=1: {serial_ms:.0} ms, jobs={jobs_requested} (used {jobs_used}): \
         {parallel_ms:.0} ms ({speedup:.2}x on {host_cores} core(s)); wrote {out}"
    );

    if check {
        let floor = if host_cores >= 4 { 2.0 } else { 1.0 };
        assert!(
            speedup >= floor,
            "--check: sweep speedup {speedup:.2} is under the {floor:.1}x floor \
             for a {host_cores}-core host"
        );
        assert!(
            device.cache_hit_rate() > 0.5,
            "--check: device cache hit rate collapsed"
        );
        eprintln!("--check passed: speedup {speedup:.2} >= {floor:.1} on {host_cores} core(s)");
    }
}
