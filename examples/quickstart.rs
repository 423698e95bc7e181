//! Quickstart: fuse a Tensor-Core GEMM with a CUDA-Core kernel, predict
//! the fused duration, and verify against the simulated device.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::error::Error;
use std::sync::Arc;

use tacker::library::FusionLibrary;
use tacker::profile::KernelProfiler;
use tacker_sim::{Device, GpuSpec};
use tacker_workloads::gemm::{gemm_workload, GemmShape};
use tacker_workloads::parboil::Benchmark;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. A simulated RTX 2080Ti and the offline components.
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let profiler = Arc::new(KernelProfiler::new(Arc::clone(&device)));
    let library = FusionLibrary::new(Arc::clone(&profiler));

    // 2. A Tensor-Core kernel (the open wmma GEMM) and a CUDA-Core kernel
    //    (Parboil fft).
    let gemm_def = tacker_workloads::dnn::compile::shared_gemm();
    let tc = gemm_workload(&gemm_def, GemmShape::new(4096, 4096, 512));
    let cd = Benchmark::Fft.task()[0].clone();
    let solo_tc = profiler.measure(&tc)?;
    let solo_cd = profiler.measure(&cd)?;
    println!("solo GEMM: {solo_tc}");
    println!("solo fft:  {solo_cd}");

    // 3. Offline fusion: enumerate ratios, measure candidates, keep the
    //    best, fit the two-stage duration model.
    let entry = library
        .prepare(&tc, &cd)?
        .expect("this pair benefits from fusion");
    let (launch, predicted, config) = {
        let e = entry.lock().expect("entry");
        (
            e.fused.launch(tc.grid, cd.grid, &tc.bindings, &cd.bindings),
            e.model.predict(solo_tc, solo_cd),
            e.fused.config(),
        )
    };
    println!("chosen fusion ratio: {config}");

    // 4. Run the fused kernel and compare with the prediction.
    let run = device.run_launch(&launch)?;
    println!("fused predicted: {predicted}");
    println!(
        "fused actual:    {} (TC busy {:.0}%, CD busy {:.0}%)",
        run.duration,
        100.0 * run.activity.tc_utilization(run.cycles),
        100.0 * run.activity.cd_utilization(run.cycles)
    );
    println!(
        "sequential would take {} — fusion saves {:.0}%",
        solo_tc + solo_cd,
        100.0 * (1.0 - run.duration.ratio(solo_tc + solo_cd))
    );
    Ok(())
}
