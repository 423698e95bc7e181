//! The three benchmark workloads: seed-derived inputs, their set-up, the
//! one entry call each issues, and the checks every call's output must
//! pass.

use std::sync::Arc;
use std::time::Instant;

use tacker::fleet::{heterogeneous_fleet, DispatchPolicy, FleetNode, FleetReport, FleetRun};
use tacker::metrics::throughput_improvement;
use tacker::prelude::*;
use tacker::server::calibrate_peak_interarrival;
use tacker::sweep::cell_seed;
use tacker::TackerError;
use tacker_kernel::StableHasher;
use tacker_sim::{Device, GpuSpec};
use tacker_trace::{MetricsRegistry, TraceSink};
use tacker_workloads::{BeApp, LcService};

const SWEEP_LCS: [&str; 2] = ["Resnet50", "VGG16"];
const SWEEP_BES: [&str; 3] = ["fft", "sgemm", "cutcp"];
pub const SWEEP_POLICIES: [Policy; 2] = [Policy::Baymax, Policy::Tacker];
const SWEEP_QUERIES: usize = 40;
const SWEEP_LOAD: f64 = 0.8;
const STEADY_QUERIES: usize = 400_000;
const STEADY_INTERARRIVAL_MS: u64 = 40;
const STEADY_TRACED_QUERIES: usize = 4_000;
const FLEET_NODES: usize = 4;
const FLEET_QUERIES: usize = 100;
const FLEET_LOAD: f64 = 0.9;
const FLEET_BURST: usize = 4;

/// The workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SweepCold,
    ServeSteady,
    FleetBurst,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        [Kind::SweepCold, Kind::ServeSteady, Kind::FleetBurst]
            .into_iter()
            .find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::SweepCold => "sweep-cold",
            Kind::ServeSteady => "serve-steady",
            Kind::FleetBurst => "fleet-burst",
        }
    }

    /// How many seed-derived input sets one run sets up, each
    /// independently, and then cycles through; `setup_s` is the median
    /// set-up. A call's host and simulated figures depend on its arrival
    /// sample, so a run averages enough samples that two seeds agree.
    /// `serve-steady` queries never overlap, so its samples all cost the
    /// same, and each of its set-ups includes a full 400k-query warm-up.
    pub fn input_sets(self) -> usize {
        match self {
            Kind::SweepCold | Kind::FleetBurst => 12,
            Kind::ServeSteady => 9,
        }
    }

    /// Queries per service of the traced call, where the traced call
    /// serves a prefix of the input: tracing turns off `serve-steady`'s
    /// fast path, and the traced slow path over all 400k queries emits
    /// ~140M events and takes ~90 s.
    pub fn traced_queries(self) -> Option<usize> {
        (self == Kind::ServeSteady).then_some(STEADY_TRACED_QUERIES)
    }
}

/// One seed-derived input set, set up and ready for entry calls.
#[derive(Clone)]
pub struct Input {
    pub kind: Kind,
    pub seed: u64,
    pub lcs: Vec<LcService>,
    pub bes: Vec<BeApp>,
    pub config: ExperimentConfig,
    /// The warm device of `serve-steady` (and the device the calibration
    /// of the others ran on).
    pub device: Arc<Device>,
    /// Explicit per-service loads from the calibrated peaks and the seed
    /// (`fleet-burst`).
    pub loads: Vec<ServiceLoad>,
    pub nodes: Vec<FleetNode>,
}

/// Host time spent setting up one input set, by step.
pub struct SetupTimes {
    pub build_s: f64,
    pub calibrate_s: f64,
    pub calibrate_calls: u64,
    pub warmup_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.calibrate_s + self.warmup_s
    }
}

/// What the checks and the metrics need from one entry call.
pub struct Outcome {
    pub queries: usize,
    pub violations: usize,
    /// Simulated p99 latency (ms): the worst Tacker cell for
    /// `sweep-cold`, the whole run otherwise.
    pub p99_ms: f64,
    pub be_work_rate: f64,
    /// Mean Tacker-over-Baymax BE throughput gain in percent
    /// (`sweep-cold`; 0 elsewhere).
    pub be_gain_pct: f64,
    /// Hash of every simulated figure the call returned.
    pub fingerprint: u64,
    /// Failed structural checks.
    pub problems: Vec<String>,
    pub detail: Detail,
}

/// Report figures the per-layer metrics read.
#[derive(Default)]
pub struct Detail {
    pub decisions: u64,
    pub fused_launches: u64,
    pub reordered_launches: u64,
    pub be_kernels: u64,
    pub model_refreshes: u64,
    pub busy_ns: u64,
    pub wall_ns: u64,
    /// Queries routed to each fleet device.
    pub routed: Vec<usize>,
    pub outstanding_skew: f64,
    pub outstanding_max: u64,
    /// Device cache (hits, misses, fused hits, fused misses) added by the
    /// call; `None` where the devices are internal to the call (fleet).
    pub cache: Option<[u64; 4]>,
    /// The runs' metric registries, for the exporter measurements.
    pub registries: Vec<MetricsRegistry>,
    /// Exact query latencies of the fleet devices, whose engines run
    /// untraced.
    pub latencies: Vec<SimTime>,
}

fn services(names: &[&str], device: &Device) -> Vec<LcService> {
    names
        .iter()
        .map(|n| tacker_workloads::lc_service(n, device).expect("registered LC service"))
        .collect()
}

fn apps(names: &[&str]) -> Vec<BeApp> {
    names
        .iter()
        .map(|n| tacker_workloads::be_app(n).expect("registered BE app"))
        .collect()
}

fn fresh_device() -> Arc<Device> {
    Arc::new(Device::new(GpuSpec::rtx2080ti()))
}

/// The seed of input set `index` of a run with seed `seed`.
pub fn input_seed(kind: Kind, seed: u64, index: usize) -> u64 {
    tacker_par::derive_seed(seed, &[kind.name(), &index.to_string()])
}

/// Builds the services of one input set (the `workloads` layer).
fn build(kind: Kind, seed: u64, jobs: usize) -> Input {
    let device = fresh_device();
    let base = ExperimentConfig::default().with_seed(seed).with_jobs(jobs);
    let (lcs, bes, config) = match kind {
        Kind::SweepCold => (
            services(&SWEEP_LCS, &device),
            apps(&SWEEP_BES),
            base.with_queries(SWEEP_QUERIES).with_load(SWEEP_LOAD),
        ),
        Kind::ServeSteady => (
            services(&["Resnet50"], &device),
            Vec::new(),
            base.with_queries(STEADY_QUERIES),
        ),
        Kind::FleetBurst => (
            services(&SWEEP_LCS, &device),
            apps(&["fft"]),
            base.with_queries(FLEET_QUERIES),
        ),
    };
    let nodes = if kind == Kind::FleetBurst {
        let v100 = GpuSpec::v100().name;
        heterogeneous_fleet(FLEET_NODES)
            .into_iter()
            .map(|n| {
                if n.spec.name == v100 {
                    n
                } else {
                    n.with_be(bes[0].clone())
                }
            })
            .collect()
    } else {
        Vec::new()
    };
    Input {
        kind,
        seed,
        lcs,
        bes,
        config,
        device,
        loads: Vec::new(),
        nodes,
    }
}

/// Per-service loads of `fleet-burst`: each service at its calibrated
/// single-device peak, scaled so all services together offer
/// `FLEET_LOAD` of the fleet's capacity (`FLEET_NODES` single-device
/// peaks), on per-service arrival seeds.
fn fleet_loads(input: &Input, peaks: &[SimTime]) -> Vec<ServiceLoad> {
    let scale = input.lcs.len() as f64 / (FLEET_LOAD * FLEET_NODES as f64);
    input
        .lcs
        .iter()
        .zip(peaks)
        .enumerate()
        .map(|(i, (lc, peak))| ServiceLoad {
            lc: lc.clone(),
            mean_interarrival: peak.mul_f64(scale),
            seed: input.seed.wrapping_add(i as u64),
        })
        .collect()
}

/// Peak-load calibration for every service the entry call needs (the
/// `server` layer), fanned out over the pool as `ColocationRun`,
/// `FleetRun` and `run_pair_sweep` fan theirs out. Results are cached
/// process-wide, so the entry calls that follow reuse them. Returns the
/// number of calibrations made.
fn calibrate(input: &mut Input) -> Result<u64, TackerError> {
    let mut runs: Vec<(LcService, ExperimentConfig)> = Vec::new();
    match input.kind {
        Kind::SweepCold => {
            for lc in &input.lcs {
                for be in &input.bes {
                    for policy in SWEEP_POLICIES {
                        let seed = cell_seed(&input.config, lc.name(), be.name(), policy);
                        runs.push((lc.clone(), input.config.clone().with_seed(seed)));
                    }
                }
            }
        }
        Kind::ServeSteady => return Ok(0),
        Kind::FleetBurst => {
            for lc in &input.lcs {
                runs.push((lc.clone(), input.config.clone()));
            }
        }
    }
    let calls = runs.len() as u64;
    let device = Arc::clone(&input.device);
    let peaks = tacker_par::try_pool_map(input.config.jobs, runs, move |_, (lc, cfg)| {
        calibrate_peak_interarrival(&device, lc, cfg)
    })?;
    if input.kind == Kind::FleetBurst {
        input.loads = fleet_loads(input, &peaks);
    }
    Ok(calls)
}

/// One independent set-up on input set `seed`: builds the services and a
/// fresh device, calibrates, and makes the warm-up call whose outcome
/// every later call of this input set must reproduce.
pub fn setup(
    kind: Kind,
    seed: u64,
    jobs: usize,
) -> Result<(Input, SetupTimes, Outcome), TackerError> {
    let t = Instant::now();
    let mut input = build(kind, seed, jobs);
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let calibrate_calls = calibrate(&mut input)?;
    let calibrate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let first = call(&input, jobs, None)?;
    let warmup_s = t.elapsed().as_secs_f64();
    let times = SetupTimes {
        build_s,
        calibrate_s,
        calibrate_calls,
        warmup_s,
    };
    Ok((input, times, first))
}

/// The workload's entry call at `jobs` workers, optionally traced.
///
/// `run_pair_sweep` takes no trace sink, so a traced `sweep-cold` call
/// runs the same cells (same devices, seeds and order) one by one
/// through `ColocationRun`.
pub fn call(
    input: &Input,
    jobs: usize,
    sink: Option<Arc<dyn TraceSink>>,
) -> Result<Outcome, TackerError> {
    let config = input.config.clone().with_jobs(jobs);
    match input.kind {
        Kind::SweepCold => {
            let device = fresh_device();
            let cells = match sink {
                None => run_pair_sweep(
                    &device,
                    &input.lcs,
                    &input.bes,
                    &SWEEP_POLICIES,
                    &config,
                    jobs,
                )?,
                Some(sink) => traced_cells(&device, input, &config, sink)?,
            };
            let mut out = sweep_outcome(input, &cells);
            out.detail.cache = Some(cache_stats(&device));
            Ok(out)
        }
        Kind::ServeSteady => {
            let mut run = ColocationRun::new(&input.device, &config, &input.lcs, &input.bes)?
                .policy(Policy::Tacker)
                .at(SimTime::from_millis(STEADY_INTERARRIVAL_MS));
            if let Some(sink) = sink {
                run = run.traced(sink);
            }
            let before = cache_stats(&input.device);
            let report = run.run()?;
            let after = cache_stats(&input.device);
            let mut out = serve_outcome(input, &report);
            out.detail.cache = Some(std::array::from_fn(|i| after[i] - before[i]));
            Ok(out)
        }
        Kind::FleetBurst => {
            let mut run = fleet_run(input, &config)?;
            if let Some(sink) = sink {
                run = run.traced(sink);
            }
            let report = run.run()?;
            Ok(fleet_outcome(input, &report))
        }
    }
}

/// The `fleet-burst` run, before its dispatch policy is chosen.
pub fn fleet_run(input: &Input, config: &ExperimentConfig) -> Result<FleetRun, TackerError> {
    Ok(FleetRun::new(input.nodes.clone(), config, &input.lcs)?
        .with_loads(&input.loads)
        .arrivals(ArrivalSpec::Bursty { burst: FLEET_BURST })
        .dispatch_policy(DispatchPolicy::QosHeadroom))
}

fn traced_cells(
    device: &Arc<Device>,
    input: &Input,
    config: &ExperimentConfig,
    sink: Arc<dyn TraceSink>,
) -> Result<Vec<SweepCell>, TackerError> {
    let mut cells = Vec::new();
    for lc in &input.lcs {
        for be in &input.bes {
            for policy in SWEEP_POLICIES {
                let cfg = config
                    .clone()
                    .with_seed(cell_seed(config, lc.name(), be.name(), policy));
                let report = ColocationRun::new(
                    device,
                    &cfg,
                    std::slice::from_ref(lc),
                    std::slice::from_ref(be),
                )?
                .policy(policy)
                .traced(Arc::clone(&sink))
                .run()?;
                cells.push(SweepCell {
                    lc: lc.name().to_string(),
                    be: be.name().to_string(),
                    policy,
                    expected_events: expected_cell_events(lc, be, cfg.queries as u64),
                    report,
                });
            }
        }
    }
    Ok(cells)
}

fn cache_stats(device: &Device) -> [u64; 4] {
    let (hits, misses) = device.cache_stats();
    let (fused_hits, fused_misses) = device.fused_cache_stats();
    [hits, misses, fused_hits, fused_misses]
}

fn hash_report(h: &mut StableHasher, r: &RunReport) {
    for v in [
        r.query_count() as u64,
        r.qos_violations() as u64,
        r.wall.as_nanos(),
        r.busy.as_nanos(),
        r.be_work.as_nanos(),
        r.be_kernels,
        r.fused_launches,
        r.reordered_launches,
        r.model_refreshes,
        r.p99_latency().map_or(u64::MAX, SimTime::as_nanos),
        r.mean_latency().map_or(u64::MAX, SimTime::as_nanos),
        r.latency
            .percentile(50.0)
            .map_or(u64::MAX, SimTime::as_nanos),
    ] {
        h.write_u64(v);
    }
}

fn add_detail(d: &mut Detail, r: &RunReport) {
    d.decisions += r.metrics.counter("decisions").get();
    d.fused_launches += r.fused_launches;
    d.reordered_launches += r.reordered_launches;
    d.be_kernels += r.be_kernels;
    d.model_refreshes += r.model_refreshes;
    d.busy_ns += r.busy.as_nanos();
    d.wall_ns += r.wall.as_nanos();
    d.registries.push(r.metrics.clone());
}

fn ms(t: Option<SimTime>) -> f64 {
    t.map_or(f64::NAN, SimTime::as_millis_f64)
}

fn sweep_outcome(input: &Input, cells: &[SweepCell]) -> Outcome {
    let mut problems = Vec::new();
    let mut expected = Vec::new();
    for lc in &input.lcs {
        for be in &input.bes {
            for policy in SWEEP_POLICIES {
                expected.push((lc.name(), be.name(), policy));
            }
        }
    }
    let got: Vec<_> = cells
        .iter()
        .map(|c| (c.lc.as_str(), c.be.as_str(), c.policy))
        .collect();
    if got != expected {
        problems.push("sweep cells are not in grid order".to_string());
    }
    let mut h = StableHasher::new();
    let mut detail = Detail::default();
    let (mut queries, mut violations) = (0, 0);
    let mut p99_ms = 0.0_f64;
    for c in cells {
        if c.report.query_count() != input.config.queries {
            problems.push(format!(
                "cell {}/{}/{:?} completed {} of {} queries",
                c.lc,
                c.be,
                c.policy,
                c.report.query_count(),
                input.config.queries
            ));
        }
        queries += c.report.query_count();
        violations += c.report.qos_violations();
        if c.policy == Policy::Tacker {
            p99_ms = p99_ms.max(ms(c.report.p99_latency()));
        }
        hash_report(&mut h, &c.report);
        add_detail(&mut detail, &c.report);
    }
    // Cells come in (Baymax, Tacker) pairs per (LC, BE).
    let pairs: Vec<(f64, f64)> = cells
        .chunks(SWEEP_POLICIES.len())
        .map(|p| (p[0].report.be_work_rate(), p[1].report.be_work_rate()))
        .collect();
    let n = pairs.len().max(1) as f64;
    let be_gain_pct = pairs
        .iter()
        .map(|&(baymax, tacker)| 100.0 * throughput_improvement(baymax, tacker))
        .sum::<f64>()
        / n;
    let be_work_rate = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    Outcome {
        queries,
        violations,
        p99_ms,
        be_work_rate,
        be_gain_pct,
        fingerprint: h.finish(),
        problems,
        detail,
    }
}

fn serve_outcome(input: &Input, r: &RunReport) -> Outcome {
    let requested = input.lcs.len() * input.config.queries;
    let mut problems = Vec::new();
    if r.query_count() != requested {
        problems.push(format!(
            "completed {} of {requested} queries",
            r.query_count()
        ));
    }
    for s in r.per_service() {
        if s.query_count() != input.config.queries {
            problems.push(format!(
                "service {} completed {} of {} queries",
                s.name,
                s.query_count(),
                input.config.queries
            ));
        }
    }
    let mut h = StableHasher::new();
    hash_report(&mut h, r);
    let mut detail = Detail::default();
    add_detail(&mut detail, r);
    Outcome {
        queries: r.query_count(),
        violations: r.qos_violations(),
        p99_ms: ms(r.p99_latency()),
        be_work_rate: r.be_work_rate(),
        be_gain_pct: 0.0,
        fingerprint: h.finish(),
        problems,
        detail,
    }
}

pub fn fleet_outcome(input: &Input, r: &FleetReport) -> Outcome {
    let requested = input.lcs.len() * input.config.queries;
    let mut problems = Vec::new();
    let routed: Vec<usize> = r.devices.iter().map(|d| d.queries).collect();
    if routed.iter().sum::<usize>() != r.query_count() {
        problems.push(format!(
            "routed counts {routed:?} do not sum to {} queries",
            r.query_count()
        ));
    }
    if r.query_count() != requested {
        problems.push(format!(
            "completed {} of {requested} queries",
            r.query_count()
        ));
    }
    let mut h = StableHasher::new();
    let mut detail = Detail::default();
    let mut be_work_ns = 0u64;
    for d in &r.devices {
        h.write_u64(d.queries as u64);
        h.write_u64(d.max_outstanding);
        h.write_u64(d.mean_outstanding.to_bits());
        if let Some(rep) = &d.report {
            if rep.query_count() != d.queries {
                problems.push(format!(
                    "device {} ran {} of {} routed queries",
                    d.id,
                    rep.query_count(),
                    d.queries
                ));
            }
            hash_report(&mut h, rep);
            add_detail(&mut detail, rep);
            detail.latencies.extend(rep.query_latencies());
            be_work_ns += rep.be_work.as_nanos();
        }
    }
    for v in [
        r.wall.as_nanos(),
        r.outstanding_max,
        r.outstanding_mean.to_bits(),
        r.p99_latency().map_or(u64::MAX, SimTime::as_nanos),
    ] {
        h.write_u64(v);
    }
    detail.routed = routed;
    detail.outstanding_skew = r.outstanding_skew();
    detail.outstanding_max = r.outstanding_max;
    // BE work per simulated second of fleet makespan (RunReport's unit:
    // simulated BE busy time per simulated time).
    let be_work_rate = if r.wall > SimTime::ZERO {
        be_work_ns as f64 / r.wall.as_nanos() as f64
    } else {
        0.0
    };
    Outcome {
        queries: r.query_count(),
        violations: r.qos_violations(),
        p99_ms: ms(r.p99_latency()),
        be_work_rate,
        be_gain_pct: 0.0,
        fingerprint: h.finish(),
        problems,
        detail,
    }
}

/// Checks one call against the warm-up call of the same input set.
/// Returns the failed checks (empty when the call is correct).
pub fn check(first: &Outcome, got: &Outcome) -> Vec<String> {
    let mut problems = got.problems.clone();
    if got.fingerprint != first.fingerprint {
        problems.push("simulated results differ from the first call of this seed".to_string());
    }
    problems
}
