//! Figure 3: *direct* (1:1, input-specific) fusion of the Tensor-Core GEMM
//! with each Parboil kernel.
//!
//! Paper: most directly fused kernels take ≈2× (no parallel-utilization
//! win), because naive fusion halves occupancy and contends for
//! resources — the motivation for flexible PTB fusion.

use tacker_bench::rtx2080ti;
use tacker_fuser::fuse_direct;
use tacker_workloads::gemm::{gemm_workload, GemmShape};
use tacker_workloads::parboil::Benchmark;

fn main() {
    let device = rtx2080ti();
    let spec = device.spec().clone();
    let gemm_def = tacker_workloads::dnn::compile::shared_gemm();
    let gemm_wk = gemm_workload(&gemm_def, GemmShape::new(4096, 4096, 512));
    let t_gemm = device.run_launch(&gemm_wk.launch()).expect("gemm").duration;

    println!("# Figure 3: direct kernel fusion of GEMM with Parboil kernels");
    println!("(durations normalized so each kernel's solo run = 1; sequential = 2)");
    println!(
        "{:<9} {:>9} {:>9} {:>10}",
        "kernel", "solo(us)", "fused(us)", "norm"
    );
    let mut norms = Vec::new();
    for b in [
        Benchmark::Sgemm,
        Benchmark::Cutcp,
        Benchmark::Mriq,
        Benchmark::Fft,
        Benchmark::Lbm,
        Benchmark::Mrif,
        Benchmark::Stencil,
        Benchmark::Regtile,
        Benchmark::Cp,
    ] {
        let mut cd = b.task()[0].clone();
        // Tune the CD workload to the GEMM's duration (paper normalizes
        // both components to equal solo runs).
        let t_unit = device.run_launch(&cd.launch()).expect("cd").duration;
        cd.grid = ((cd.grid as f64 * t_gemm.ratio(t_unit)).round() as u64).max(1);
        let t_cd = device.run_launch(&cd.launch()).expect("cd scaled").duration;

        match fuse_direct(&gemm_def, &cd.def, gemm_wk.grid, cd.grid, &spec.sm) {
            Ok(fused) => {
                let launch = fused.launch(&gemm_wk.bindings, &cd.bindings);
                let t_fused = device.run_launch(&launch).expect("fused run").duration;
                // Normalize to the mean solo duration, as in the figure.
                let norm =
                    2.0 * t_fused.as_nanos() as f64 / (t_gemm.as_nanos() + t_cd.as_nanos()) as f64;
                println!(
                    "{:<9} {:>9.0} {:>9.0} {:>10.2}",
                    b.name(),
                    t_cd.as_micros_f64(),
                    t_fused.as_micros_f64(),
                    norm
                );
                norms.push(norm);
            }
            Err(e) => {
                // Resource overflow = cannot even fuse directly: counts as
                // sequential (2.0).
                println!(
                    "{:<9} {:>9.0} {:>9} {:>10}",
                    b.name(),
                    t_cd.as_micros_f64(),
                    "-",
                    "2.00*"
                );
                println!("          (*{e})");
                norms.push(2.0);
            }
        }
    }
    let avg = norms.iter().sum::<f64>() / norms.len() as f64;
    println!();
    println!(
        "average normalized duration: {avg:.2}  (paper: ~1.8-2.0 — direct fusion is inefficient)"
    );
    assert!(
        avg > 1.4,
        "direct fusion should show poor efficiency, got {avg:.2}"
    );
}
