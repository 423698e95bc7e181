//! Ablations of DESIGN.md §5: the value of flexible ratios, TC-first
//! packing, measured best-of selection, the two-stage predictor, and the
//! fusion+reorder policy combination.

use std::sync::Arc;
use tacker::prelude::*;
use tacker::profile::KernelProfiler;
use tacker_bench::{eval_config, rtx2080ti};
use tacker_fuser::{enumerate_configs, fuse_flexible, FusionConfig, PackPriority};
use tacker_kernel::SimTime;
use tacker_predictor::{FusedPairModel, LinReg};
use tacker_workloads::gemm::{gemm_workload, GemmShape};
use tacker_workloads::parboil::Benchmark;

fn main() {
    let device = rtx2080ti();
    let profiler = Arc::new(KernelProfiler::new(Arc::clone(&device)));
    let spec = device.spec().clone();
    let gemm_def = tacker_workloads::dnn::compile::shared_gemm();
    let tc = gemm_workload(&gemm_def, GemmShape::new(4096, 4096, 512));

    println!("# Ablation 1: flexible fusion ratio vs naive 1:1 (fused duration, lower is better)");
    println!(
        "{:>9} {:>10} {:>10} {:>10} {:>8}",
        "partner", "1:1(us)", "best(us)", "config", "gain"
    );
    for b in [
        Benchmark::Fft,
        Benchmark::Cutcp,
        Benchmark::Mriq,
        Benchmark::Lbm,
    ] {
        let mut cd = b.task()[0].clone();
        let t_tc = profiler.measure(&tc).expect("tc");
        let t_cd = profiler.measure(&cd).expect("cd");
        cd.grid = ((cd.grid as f64 * t_tc.ratio(t_cd)).round() as u64).max(1);
        let run = |cfg: FusionConfig| -> Option<SimTime> {
            let fused = fuse_flexible(&tc.def, &cd.def, cfg, &spec.sm).ok()?;
            let launch = fused.launch(tc.grid, cd.grid, &tc.bindings, &cd.bindings);
            Some(device.run_launch(&launch).ok()?.duration)
        };
        let naive = run(FusionConfig::ONE_TO_ONE).expect("1:1 runs");
        let (best_cfg, best) =
            enumerate_configs(&tc.def, &cd.def, &spec.sm, PackPriority::TensorFirst)
                .into_iter()
                .filter_map(|c| run(c).map(|d| (c, d)))
                .min_by_key(|(_, d)| *d)
                .expect("some config runs");
        println!(
            "{:>9} {:>10.1} {:>10.1} {:>10} {:>7.1}%",
            b.name(),
            naive.as_micros_f64(),
            best.as_micros_f64(),
            best_cfg.to_string(),
            100.0 * (1.0 - best.ratio(naive))
        );
        assert!(best <= naive);
    }

    println!();
    println!("# Ablation 2: packing priority — duration of the first-enumerated config");
    for b in [Benchmark::Fft, Benchmark::Cutcp] {
        let cd = b.task()[0].clone();
        let first = |p: PackPriority| -> SimTime {
            let cfg = enumerate_configs(&tc.def, &cd.def, &spec.sm, p)[0];
            let fused = fuse_flexible(&tc.def, &cd.def, cfg, &spec.sm).expect("fuse");
            let launch = fused.launch(tc.grid, cd.grid, &tc.bindings, &cd.bindings);
            device.run_launch(&launch).expect("run").duration
        };
        let tf = first(PackPriority::TensorFirst);
        let cf = first(PackPriority::CudaFirst);
        println!(
            "  {}: tensor-first {} vs cuda-first {} ({})",
            b.name(),
            tf,
            cf,
            if tf <= cf {
                "tensor-first wins"
            } else {
                "cuda-first wins"
            }
        );
    }

    println!();
    println!("# Ablation 3: two-stage vs single-line duration model (validation error)");
    {
        // Ground-truth sweep from the simulator (as in Fig. 10).
        let cd = Benchmark::Fft.task()[0].clone();
        let entry_cfg = enumerate_configs(&tc.def, &cd.def, &spec.sm, PackPriority::TensorFirst)[0];
        let fused = fuse_flexible(&tc.def, &cd.def, entry_cfg, &spec.sm).expect("fuse");
        let x_tc = profiler.measure(&tc).expect("tc");
        let t_cd_unit = profiler.measure(&cd).expect("cd");
        let mut sweep = Vec::new();
        let mut r = 0.1;
        while r <= 2.0 {
            let cd_grid = ((cd.grid as f64 * r * x_tc.ratio(t_cd_unit)).round() as u64).max(1);
            let launch = fused.launch(tc.grid, cd_grid, &tc.bindings, &cd.bindings);
            let t = device.run_launch(&launch).expect("run").duration;
            sweep.push((r, t.ratio(x_tc)));
            r += 0.1;
        }
        let train: Vec<(f64, f64)> = [0.1, 0.2, 1.8, 1.9]
            .iter()
            .map(|&tr| {
                *sweep
                    .iter()
                    .min_by(|a, b| (a.0 - tr).abs().total_cmp(&(b.0 - tr).abs()))
                    .expect("sweep nonempty")
            })
            .collect();
        let two_stage = FusedPairModel::fit("ab", &train).expect("fit");
        let single = LinReg::fit(&train).expect("fit");
        let err = |pred: &dyn Fn(f64) -> f64| -> f64 {
            sweep
                .iter()
                .map(|(x, y)| ((pred(*x) - y) / y).abs())
                .sum::<f64>()
                / sweep.len() as f64
        };
        let e2 = err(&|x| two_stage.predict_norm(x));
        let e1 = err(&|x| single.predict(x));
        println!(
            "  two-stage: {:.2}%   single LR: {:.2}%",
            100.0 * e2,
            100.0 * e1
        );
        assert!(e2 < e1, "the two-stage model must beat a single line");
    }

    println!();
    println!("# Ablation 5: initial-model profiling ratios (paper's 4 vs our 7)");
    {
        let cd = Benchmark::Cutcp.task()[0].clone();
        let cfg = enumerate_configs(&tc.def, &cd.def, &spec.sm, PackPriority::TensorFirst)[0];
        let fused = fuse_flexible(&tc.def, &cd.def, cfg, &spec.sm).expect("fuse");
        let x_tc = profiler.measure(&tc).expect("tc");
        let t_cd_unit = profiler.measure(&cd).expect("cd");
        let sample_at = |r: f64| -> (f64, f64) {
            let cd_grid = ((cd.grid as f64 * r * x_tc.ratio(t_cd_unit)).round() as u64).max(1);
            let launch = fused.launch(tc.grid, cd_grid, &tc.bindings, &cd.bindings);
            let t = device.run_launch(&launch).expect("run").duration;
            (r, t.ratio(x_tc))
        };
        let four: Vec<(f64, f64)> = [0.1, 0.2, 1.8, 1.9].iter().map(|&r| sample_at(r)).collect();
        let seven: Vec<(f64, f64)> = [0.1, 0.2, 0.7, 1.0, 1.3, 1.8, 1.9]
            .iter()
            .map(|&r| sample_at(r))
            .collect();
        let held: Vec<(f64, f64)> = [0.45, 0.85, 1.15, 1.55]
            .iter()
            .map(|&r| sample_at(r))
            .collect();
        let err = |m: &FusedPairModel| -> f64 {
            held.iter()
                .map(|(r, y)| ((m.predict_norm(*r) - y) / y).abs())
                .sum::<f64>()
                / held.len() as f64
        };
        let m4 = FusedPairModel::fit("four", &four).expect("fit 4");
        let m7 = FusedPairModel::fit("seven", &seven).expect("fit 7");
        println!(
            "  initial-model error on held-out ratios: 4 points {:.1}%  vs  7 points {:.1}%",
            100.0 * err(&m4),
            100.0 * err(&m7)
        );
        // The mid-curve points can only help; allow fitting noise.
        assert!(err(&m7) <= err(&m4) + 0.02);
    }

    println!();
    println!("# Ablation 6: policy (Resnet50 + fft, BE work rate)");
    {
        let config = eval_config().with_queries(80);
        let lc = tacker_workloads::lc_service("Resnet50", &device).expect("LC");
        let be = vec![tacker_workloads::be_app("fft").expect("BE")];
        for policy in [Policy::Baymax, Policy::FusionOnly, Policy::Tacker] {
            let r = ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &be)
                .expect("run")
                .policy(policy)
                .run()
                .expect("run");
            println!(
                "  {:<12} be-rate {:.3}  fused {}  reordered {}  p99 {:.1} ms",
                format!("{policy:?}"),
                r.be_work_rate(),
                r.fused_launches,
                r.reordered_launches,
                r.p99_latency().expect("queries completed").as_millis_f64()
            );
        }
    }
}
