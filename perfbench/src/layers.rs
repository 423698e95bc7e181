//! The traced run: per-layer metrics.
//!
//! Each round makes the workload's entry call untraced, under the
//! disabled sink and under a counting trace sink, then calls each layer's
//! public functions directly with the workload's own inputs, and last
//! makes the entry call again at `jobs = 1`.
//! Spans recorded here, around those calls, give each layer's self time.
//! Time metrics are medians over the rounds; counts repeat exactly.
//! `call_ms_tail` is the slowest of the rounds' untraced entry calls.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tacker::fleet::DispatchPolicy;
use tacker::prelude::*;
use tacker::{KernelManager, KernelProfiler, TackerError};
use tacker_fuser::{enumerate_configs, fuse_flexible, PackPriority};
use tacker_sim::{Device, GpuSpec};
use tacker_trace::{
    chrome_trace, prometheus_text, DecisionKind, FusionRejectReason, NoopSink, RingSink,
    TraceEvent, TraceSink,
};
use tacker_workloads::WorkloadKernel;

use crate::workload::{self, Input, Kind, Outcome};
use crate::{stats, RunResult};

const DECISION_KINDS: [DecisionKind; 5] = [
    DecisionKind::Fuse,
    DecisionKind::Reorder,
    DecisionKind::RunLc,
    DecisionKind::FreeBe,
    DecisionKind::Idle,
];

const REJECT_REASONS: [FusionRejectReason; 6] = [
    FusionRejectReason::ParallelLoses,
    FusionRejectReason::ExceedsHeadroom,
    FusionRejectReason::NoGain,
    FusionRejectReason::NotPrepared,
    FusionRejectReason::Blacklisted,
    FusionRejectReason::NoOrientation,
];

/// Events the bounded ring keeps for the Chrome export measurement.
const RING_EVENTS: usize = 20_000;
/// Most recorded decisions replayed through `KernelManager::decide`.
const MAX_DECIDE_REPLAYS: usize = 50_000;
/// Cache-hit `run_launch` probes timed per round.
const WARM_PROBES: usize = 2_000;
/// `KernelProfiler::predict` calls timed per kernel per round.
const PREDICTS_PER_KERNEL: usize = 100;
/// The round's untraced entry call time (ms). Not a metric itself: the
/// run reports the slowest over the rounds as `call_ms_tail`. A run makes
/// too few rounds for a percentile with ten calls beyond it.
const CALL_MS: &str = "call_ms";

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. Each
/// traced run reports all of them; a layer that does no work on a
/// workload reports 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("sim.cold_launch_s", "s"),
        ("sim.events", "count"),
        ("sim.events_per_s", "1/s"),
        ("sim.warm_probe_ns", "ns"),
        ("sim.cache_hits", "count"),
        ("sim.cache_misses", "count"),
        ("sim.cache_hit_rate", "ratio"),
        ("sim.fused_hits", "count"),
        ("sim.fused_misses", "count"),
        ("sim.fused_hit_rate", "ratio"),
        ("fuser.fuse_s", "s"),
        ("fuser.configs", "count"),
        ("library.prepare_s", "s"),
        ("library.pairs_prepared", "count"),
        ("library.pairs_fused", "count"),
        ("library.fuse_ratio", "ratio"),
        ("profile.measure_s", "s"),
        ("profile.predict_ns", "ns"),
        ("serve.model_refreshes", "count"),
        ("manager.decide_ns", "ns"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for k in DECISION_KINDS {
        m.push((format!("manager.decisions.{}", k.name()), "count"));
    }
    for r in REJECT_REASONS {
        m.push((format!("manager.fusion_rejected.{}", r.name()), "count"));
    }
    m.extend(
        [
            ("manager.fuse_accept_ratio", "ratio"),
            ("serve.run_s", "s"),
            ("serve.decisions_per_query", "ratio"),
            ("serve.ns_per_decision", "ns"),
            ("serve.fused_launches", "count"),
            ("serve.reordered_launches", "count"),
            ("serve.be_kernels", "count"),
            ("serve.sim_utilization", "ratio"),
            ("serve.be_work_rate", "ratio"),
            ("serve.be_gain_vs_baymax_pct", "%"),
            ("serve.qos_violation_rate", "ratio"),
            ("call_ms_tail", "ms"),
            ("trace.events", "count"),
            ("trace.overhead_pct", "%"),
            ("trace.prometheus_render_ms", "ms"),
            ("trace.chrome_render_ms", "ms"),
            ("trace.attributed_share", "ratio"),
            ("metrics.latency_observe_exact_ns", "ns"),
            ("metrics.latency_observe_sketch_ns", "ns"),
            ("fleet.run_s", "s"),
            ("fleet.query_share_skew", "ratio"),
            ("fleet.outstanding_skew", "ratio"),
            ("fleet.outstanding_max", "count"),
            ("fleet.devices_used", "count"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    for p in DispatchPolicy::ALL {
        m.push((
            format!("fleet.policy.{}.query_share_skew", p.name()),
            "ratio",
        ));
        m.push((format!("fleet.policy.{}.violation_rate", p.name()), "ratio"));
    }
    m.extend(
        [
            ("par.jobs_used", "count"),
            ("par.speedup", "ratio"),
            ("server.calibrate_s", "s"),
            ("server.calibrate_calls", "count"),
            ("workloads.build_s", "s"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    m
}

/// The worker count the entry call's pool fan-out actually uses.
pub fn jobs_used(input: &Input, jobs: usize) -> usize {
    match input.kind {
        Kind::SweepCold => tacker::sweep_jobs_used(
            jobs,
            &input.lcs,
            &input.bes,
            &workload::SWEEP_POLICIES,
            &input.config,
        ),
        Kind::FleetBurst => tacker_par::planned_jobs(jobs, input.nodes.len(), u64::MAX),
        // One event loop; only the per-service calibration fans out.
        Kind::ServeSteady => tacker_par::planned_jobs(jobs, input.lcs.len(), u64::MAX),
    }
}

/// What the counting sink saw during one traced entry call.
#[derive(Default)]
struct Counts {
    events: u64,
    decisions: [u64; DECISION_KINDS.len()],
    rejected: [u64; REJECT_REASONS.len()],
    latencies: Vec<SimTime>,
    /// (headroom, reorder headroom) of every recorded decision.
    headrooms: Vec<(SimTime, SimTime)>,
}

/// Counts every event by kind and keeps the last [`RING_EVENTS`] in a
/// [`RingSink`]. An unbounded ring would hold tens of millions of events
/// on `serve-steady`.
struct CountingSink {
    counts: Mutex<Counts>,
    ring: RingSink,
}

impl TraceSink for CountingSink {
    fn record(&self, event: TraceEvent) {
        {
            let mut c = self.counts.lock().expect("counts lock poisoned");
            c.events += 1;
            match &event {
                TraceEvent::Decision {
                    kind,
                    headroom,
                    reorder_headroom,
                    ..
                } => {
                    let i = DECISION_KINDS.iter().position(|k| k == kind);
                    c.decisions[i.expect("every decision kind is listed")] += 1;
                    c.headrooms.push((*headroom, *reorder_headroom));
                }
                TraceEvent::FusionRejected { reason, .. } => {
                    let i = REJECT_REASONS.iter().position(|r| r == reason);
                    c.rejected[i.expect("every reject reason is listed")] += 1;
                }
                TraceEvent::QueryCompleted { latency, .. } => c.latencies.push(*latency),
                _ => {}
            }
        }
        self.ring.record(event);
    }
}

/// One span: a named interval with the span that enclosed it.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Spans recorded by the benchmark around its calls into each layer,
/// kept in memory and written out when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, usize) {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (r, id)
    }

    /// Span duration in seconds.
    fn total_s(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e9
    }

    /// Span duration minus the part its child spans cover, in seconds.
    fn self_s(&self, id: usize) -> f64 {
        let own = self.spans[id].end_ns - self.spans[id].start_ns;
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        own.saturating_sub(children) as f64 / 1e9
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Every distinct kernel launch of the workload (LC queries, then BE
/// tasks), first occurrence kept.
fn distinct_kernels(input: &Input) -> Vec<WorkloadKernel> {
    let mut seen = HashSet::new();
    input
        .lcs
        .iter()
        .flat_map(|lc| lc.query_kernels())
        .chain(input.bes.iter().flat_map(|be| be.task_kernels()))
        .filter(|k| seen.insert(k.launch().fingerprint()))
        .cloned()
        .collect()
}

/// Every distinct fusable (Tensor, CUDA) pair of one LC kernel with one
/// BE kernel, oriented as the library orients them.
fn fusable_pairs(input: &Input) -> Vec<(WorkloadKernel, WorkloadKernel)> {
    let mut seen = HashSet::new();
    let mut pairs = Vec::new();
    for lc in input.lcs.iter().flat_map(|s| s.query_kernels()) {
        for be in input.bes.iter().flat_map(|b| b.task_kernels()) {
            let Some((tc, cd)) = FusionLibrary::orient(lc, be) else {
                continue;
            };
            if tc.def.is_opaque() || cd.def.is_opaque() {
                continue;
            }
            let key = (tc.launch().fingerprint(), cd.launch().fingerprint());
            if seen.insert(key) {
                pairs.push((tc.clone(), cd.clone()));
            }
        }
    }
    pairs
}

/// The traced run for one workload; see the module comment.
pub fn traced_run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    jobs: usize,
) -> Result<RunResult, TackerError> {
    let mut out = RunResult::default();
    let mut tracer = Tracer::new();
    let (set_up, _) = tracer.span("setup", |_| {
        workload::setup(kind, workload::input_seed(kind, seed, 0), jobs)
    });
    let (input, times, first) = set_up?;
    out.record_call("warm-up call", &first.problems);

    let start = Instant::now();
    let mut rounds: Vec<BTreeMap<String, f64>> = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (m, _) = tracer.span("round", |t| round(t, &input, &first, jobs, &mut out));
        rounds.push(m?);
    }

    let call_ms: Vec<f64> = rounds
        .iter_mut()
        .filter_map(|r| r.remove(CALL_MS))
        .collect();
    let mut merged: BTreeMap<String, f64> = BTreeMap::new();
    merged.insert(
        "call_ms_tail".into(),
        call_ms.iter().copied().fold(f64::NAN, f64::max),
    );
    for name in rounds[0].keys() {
        let values: Vec<f64> = rounds.iter().map(|r| r[name]).collect();
        merged.insert(name.clone(), stats::median(&values));
    }
    merged.insert("server.calibrate_s".into(), times.calibrate_s);
    merged.insert(
        "server.calibrate_calls".into(),
        times.calibrate_calls as f64,
    );
    merged.insert("workloads.build_s".into(), times.build_s);

    let listed = per_layer_metrics();
    for (name, unit) in &listed {
        out.metric(name, merged.remove(name).unwrap_or(0.0), unit);
    }
    for name in merged.keys() {
        eprintln!("error: metric {name} is not listed");
        out.failed += 1;
    }
    out.info("rounds", rounds.len());
    out.info("call_ms_tail_samples", call_ms.len());
    out.info("jobs_used", jobs_used(&input, jobs));
    write_spans(&tracer, kind, seed);
    Ok(out)
}

/// Writes the spans to `.perfbench-out/` in the working directory; a
/// failure to write costs the record, not the run.
fn write_spans(tracer: &Tracer, kind: Kind, seed: u64) {
    let dir = Path::new(".perfbench-out");
    let path = dir.join(format!("spans-{}-{seed}.json", kind.name()));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json()))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn timed_call(
    t: &mut Tracer,
    name: &str,
    input: &Input,
    jobs: usize,
    sink: Option<Arc<dyn TraceSink>>,
    reference: Option<&Outcome>,
    out: &mut RunResult,
) -> Result<(Outcome, f64), TackerError> {
    let (got, id) = t.span(name, |_| workload::call(input, jobs, sink));
    let got = got?;
    match reference {
        Some(first) => out.record_call(name, &workload::check(first, &got)),
        None => out.record_call(name, &got.problems),
    }
    Ok((got, t.self_s(id)))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One traced round; returns its metrics by name.
fn round(
    t: &mut Tracer,
    input: &Input,
    first: &Outcome,
    jobs: usize,
    out: &mut RunResult,
) -> Result<BTreeMap<String, f64>, TackerError> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };

    // The entry call untraced, then under the disabled sink and under the
    // counting sink. The overhead compares the last two: the same code
    // path (for `sweep-cold` the cell-by-cell one, not the pooled sweep)
    // on the same input, which for `serve-steady` is a prefix.
    let (plain, plain_s) = timed_call(t, "call.untraced", input, jobs, None, Some(first), out)?;
    put(CALL_MS, plain_s * 1e3);
    let mut traced_input = input.clone();
    if let Some(q) = input.kind.traced_queries() {
        traced_input.config.queries = q;
    }
    let reference = input.kind.traced_queries().is_none().then_some(first);
    let noop: Arc<dyn TraceSink> = Arc::new(NoopSink);
    let (noop_out, noop_s) = timed_call(
        t,
        "call.noop_sink",
        &traced_input,
        jobs,
        Some(noop),
        reference,
        out,
    )?;
    let sink = Arc::new(CountingSink {
        counts: Mutex::new(Counts::default()),
        ring: RingSink::new(RING_EVENTS),
    });
    let dyn_sink: Arc<dyn TraceSink> = Arc::clone(&sink) as Arc<dyn TraceSink>;
    let (_, traced_s) = timed_call(
        t,
        "call.traced",
        &traced_input,
        jobs,
        Some(dyn_sink),
        Some(&noop_out),
        out,
    )?;
    let counts = std::mem::take(&mut *sink.counts.lock().expect("counts lock poisoned"));

    // sim: every distinct launch replayed cold on a fresh device, then a
    // cache-hit probe.
    let kernels = distinct_kernels(input);
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let (events, sim_id) = t.span("sim", |t| -> Result<u64, TackerError> {
        let mut events = 0;
        for k in &kernels {
            events += device.run_launch(&k.launch())?.events;
        }
        let probe = kernels[0].launch();
        let (r, probe_id) = t.span("sim.warm_probe", |_| {
            for _ in 0..WARM_PROBES {
                black_box(device.run_launch(black_box(&probe)).map(|r| r.duration))?;
            }
            Ok::<_, TackerError>(())
        });
        r?;
        let probe_s = t.self_s(probe_id);
        put("sim.warm_probe_ns", probe_s * 1e9 / WARM_PROBES as f64);
        Ok(events)
    });
    let events = events?;
    let cold_s = t.self_s(sim_id);
    put("sim.cold_launch_s", cold_s);
    put("sim.events", events as f64);
    put("sim.events_per_s", ratio(events as f64, cold_s));
    let [hits, misses, fused_hits, fused_misses] = plain.detail.cache.unwrap_or_default();
    put("sim.cache_hits", hits as f64);
    put("sim.cache_misses", misses as f64);
    put(
        "sim.cache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );
    put("sim.fused_hits", fused_hits as f64);
    put("sim.fused_misses", fused_misses as f64);
    put(
        "sim.fused_hit_rate",
        ratio(fused_hits as f64, (fused_hits + fused_misses) as f64),
    );

    // fuser: every feasible ratio of every fusable pair.
    let pairs = fusable_pairs(input);
    let sm = GpuSpec::rtx2080ti().sm;
    let (configs, fuser_id) = t.span("fuser", |_| {
        let mut configs = 0u64;
        for (tc, cd) in &pairs {
            for cfg in enumerate_configs(&tc.def, &cd.def, &sm, PackPriority::TensorFirst) {
                if black_box(fuse_flexible(&tc.def, &cd.def, cfg, &sm)).is_ok() {
                    configs += 1;
                }
            }
        }
        configs
    });
    put("fuser.fuse_s", t.self_s(fuser_id));
    put("fuser.configs", configs as f64);

    // library: a fresh library on the warm device prepares every pair.
    // `serve-steady`'s device is warm from its calls; the others build
    // fresh devices per call, so the replay device stands in.
    let warm = match input.kind {
        Kind::ServeSteady => Arc::clone(&input.device),
        Kind::SweepCold | Kind::FleetBurst => Arc::clone(&device),
    };
    let profiler = Arc::new(KernelProfiler::new(Arc::clone(&warm)));
    let library = Arc::new(FusionLibrary::new(Arc::clone(&profiler)).with_jobs(jobs));
    let (r, library_id) = t.span("library", |_| {
        for (tc, cd) in &pairs {
            library.prepare(tc, cd)?;
        }
        Ok::<_, TackerError>(())
    });
    r?;
    put("library.prepare_s", t.self_s(library_id));
    let prepared = library.prepared_pairs() as f64;
    put("library.pairs_prepared", prepared);
    put("library.pairs_fused", library.fused_pairs() as f64);
    put(
        "library.fuse_ratio",
        ratio(library.fused_pairs() as f64, prepared),
    );

    // profile: measure, then predict, every distinct kernel.
    let fresh_profiler = Arc::new(KernelProfiler::new(Arc::clone(&warm)));
    let (r, profile_id) = t.span("profile", |t| {
        for k in &kernels {
            fresh_profiler.measure(k)?;
        }
        let (r, predict_id) = t.span("profile.predict", |_| {
            for _ in 0..PREDICTS_PER_KERNEL {
                for k in &kernels {
                    black_box(fresh_profiler.predict(black_box(k))?);
                }
            }
            Ok::<_, TackerError>(())
        });
        r?;
        let calls = (PREDICTS_PER_KERNEL * kernels.len()) as f64;
        Ok::<_, TackerError>(t.self_s(predict_id) * 1e9 / calls)
    });
    put("profile.predict_ns", r?);
    put("profile.measure_s", t.self_s(profile_id));

    // manager: replay the recorded decision points (headrooms as
    // recorded; LC heads cycle through the services' kernels, every BE
    // app offers its first task kernel).
    let manager = KernelManager::new(Arc::clone(&fresh_profiler), library, Policy::Tacker);
    let lc_heads: Vec<&WorkloadKernel> = input.lcs.iter().flat_map(|s| s.query_kernels()).collect();
    let be_heads: Vec<Option<WorkloadKernel>> = input
        .bes
        .iter()
        .map(|b| b.task_kernels().first().cloned())
        .collect();
    let points = decision_points(&counts, first.detail.decisions, input);
    // One untimed pass prepares any library entry the replay reaches.
    for (i, &(h, rh)) in points.iter().enumerate().take(lc_heads.len()) {
        manager.decide(Some(lc_heads[i % lc_heads.len()]), h, rh, &be_heads, false)?;
    }
    let (r, manager_id) = t.span("manager", |_| {
        for (i, &(h, rh)) in points.iter().enumerate() {
            let head = lc_heads[i % lc_heads.len()];
            black_box(manager.decide(Some(head), h, rh, &be_heads, false)?);
        }
        Ok::<_, TackerError>(())
    });
    r?;
    put(
        "manager.decide_ns",
        ratio(t.self_s(manager_id) * 1e9, points.len() as f64),
    );
    for (k, n) in DECISION_KINDS.iter().zip(counts.decisions) {
        put(&format!("manager.decisions.{}", k.name()), n as f64);
    }
    for (r, n) in REJECT_REASONS.iter().zip(counts.rejected) {
        put(&format!("manager.fusion_rejected.{}", r.name()), n as f64);
    }
    let fused = counts.decisions[0] as f64;
    let attempts = fused + counts.rejected.iter().sum::<u64>() as f64;
    put("manager.fuse_accept_ratio", ratio(fused, attempts));

    // serve: the untraced call's reports.
    let d = &plain.detail;
    let serve_s = match input.kind {
        Kind::ServeSteady => plain_s,
        Kind::SweepCold | Kind::FleetBurst => 0.0,
    };
    put("serve.run_s", serve_s);
    put(
        "serve.decisions_per_query",
        ratio(d.decisions as f64, plain.queries as f64),
    );
    put(
        "serve.ns_per_decision",
        ratio(plain_s * 1e9, d.decisions as f64),
    );
    put("serve.fused_launches", d.fused_launches as f64);
    put("serve.reordered_launches", d.reordered_launches as f64);
    put("serve.be_kernels", d.be_kernels as f64);
    put("serve.model_refreshes", d.model_refreshes as f64);
    put(
        "serve.sim_utilization",
        ratio(d.busy_ns as f64, d.wall_ns as f64),
    );
    put("serve.be_work_rate", plain.be_work_rate);
    put("serve.be_gain_vs_baymax_pct", plain.be_gain_pct);
    put(
        "serve.qos_violation_rate",
        ratio(plain.violations as f64, plain.queries as f64),
    );

    // metrics: every query latency into exact and sketch statistics.
    let latencies = if counts.latencies.is_empty() {
        &d.latencies
    } else {
        &counts.latencies
    };
    let n = latencies.len() as f64;
    let (_, exact_id) = t.span("metrics.exact", |_| {
        let mut s = LatencyStats::exact();
        for &l in latencies {
            s.observe(black_box(l));
        }
        black_box(s.percentile(99.0))
    });
    let (_, sketch_id) = t.span("metrics.sketch", |_| {
        let mut s = LatencyStats::with_limit(0);
        for &l in latencies {
            s.observe(black_box(l));
        }
        black_box(s.percentile(99.0))
    });
    put(
        "metrics.latency_observe_exact_ns",
        ratio(t.self_s(exact_id) * 1e9, n),
    );
    put(
        "metrics.latency_observe_sketch_ns",
        ratio(t.self_s(sketch_id) * 1e9, n),
    );

    // trace: exporters over what the traced call produced.
    put("trace.events", counts.events as f64);
    put("trace.overhead_pct", 100.0 * (traced_s - noop_s) / noop_s);
    let (_, prom_id) = t.span("trace.prometheus", |_| {
        for r in &d.registries {
            black_box(prometheus_text(r));
        }
    });
    put("trace.prometheus_render_ms", t.self_s(prom_id) * 1e3);
    let ring = sink.ring.events();
    let (_, chrome_id) = t.span("trace.chrome", |_| black_box(chrome_trace(&ring).len()));
    put("trace.chrome_render_ms", t.self_s(chrome_id) * 1e3);
    // Time of the layer work the entry call contains (the warm probe
    // excluded), over the untraced call's wall.
    let attributed: f64 = [sim_id, fuser_id, library_id, manager_id, exact_id]
        .iter()
        .map(|&id| t.self_s(id))
        .sum::<f64>()
        + t.total_s(profile_id);
    put("trace.attributed_share", attributed / plain_s);

    // fleet: the entry call's routing, and every dispatch policy over
    // the same arrivals.
    if input.kind == Kind::FleetBurst {
        put("fleet.run_s", plain_s);
        put("fleet.query_share_skew", share_skew(&d.routed));
        put("fleet.outstanding_skew", d.outstanding_skew);
        put("fleet.outstanding_max", d.outstanding_max as f64);
        put(
            "fleet.devices_used",
            d.routed.iter().filter(|&&q| q > 0).count() as f64,
        );
        let run = workload::fleet_run(input, &input.config)?;
        let (reports, _) = t.span("fleet.policies", |_| run.run_policies(&DispatchPolicy::ALL));
        for (policy, r) in reports? {
            let o = workload::fleet_outcome(input, &r);
            out.record_call("fleet policy run", &o.problems);
            put(
                &format!("fleet.policy.{}.query_share_skew", policy.name()),
                share_skew(&o.detail.routed),
            );
            put(
                &format!("fleet.policy.{}.violation_rate", policy.name()),
                r.violation_rate(),
            );
        }
    }

    // par: the same entry call on one worker.
    let (_, serial_s) = timed_call(t, "par.serial", input, 1, None, Some(first), out)?;
    put("par.jobs_used", jobs_used(input, jobs) as f64);
    put("par.speedup", serial_s / plain_s);
    Ok(m)
}

/// Largest per-device query share over the mean share.
fn share_skew(routed: &[usize]) -> f64 {
    let total: usize = routed.iter().sum();
    let max = routed.iter().copied().max().unwrap_or(0);
    ratio(max as f64 * routed.len() as f64, total as f64)
}

/// The (headroom, reorder headroom) points the manager replay decides
/// at: the traced call's own decisions, evenly thinned to at most
/// [`MAX_DECIDE_REPLAYS`]. `fleet-burst` devices run untraced by design
/// (fleet tracing covers the dispatcher), so there the untraced call's
/// decision count is replayed at headrooms spread evenly over the QoS
/// target.
fn decision_points(counts: &Counts, decisions: u64, input: &Input) -> Vec<(SimTime, SimTime)> {
    let recorded = &counts.headrooms;
    if !recorded.is_empty() {
        let step = recorded.len().div_ceil(MAX_DECIDE_REPLAYS);
        return recorded.iter().step_by(step).copied().collect();
    }
    let n = (decisions as usize).clamp(1, MAX_DECIDE_REPLAYS);
    let qos = input.config.qos_target.as_nanos();
    (0..n)
        .map(|i| {
            let h = SimTime::from_nanos(qos * i as u64 / n as u64);
            (h, h)
        })
        .collect()
}
