//! Table I: the motivation microbenchmarks.
//!
//! Bench-A fuses the Tensor microkernel Kt with the CUDA microkernel Kc
//! (equal solo durations): the fused kernel takes ≈1.03× one solo run.
//! Bench-B (Kt+Kt) and Bench-C (Kc+Kc) take 2× — same-pipeline fusion
//! buys nothing.

use std::sync::Arc;
use tacker_bench::rtx2080ti;
use tacker_fuser::{fuse_flexible, FusionConfig};
use tacker_workloads::microbench::{kc, kt, micro_launch};

fn main() {
    let device = rtx2080ti();
    let spec = device.spec().clone();
    let kt_def = Arc::new(kt());
    let kc_def = Arc::new(kc());
    let iters = 256;
    let blocks_per_sm = 2;

    let solo = |def: &Arc<tacker_kernel::KernelDef>| {
        let wk = micro_launch(def, blocks_per_sm, iters);
        device.run_launch(&wk.launch()).expect("solo run").duration
    };
    let t_kt = solo(&kt_def);
    let t_kc = solo(&kc_def);
    println!("# Table I: microbenchmark durations (normalized to Kt solo)");
    println!(
        "Kt solo: {t_kt}; Kc solo: {t_kc} (tuned equal: ratio {:.3})",
        t_kc.ratio(t_kt)
    );

    // Bench-A: Kt fused with Kc at 1:1.
    let fused_a =
        fuse_flexible(&kt_def, &kc_def, FusionConfig::ONE_TO_ONE, &spec.sm).expect("bench-a fuses");
    let wk_t = micro_launch(&kt_def, blocks_per_sm, iters);
    let wk_c = micro_launch(&kc_def, blocks_per_sm, iters);
    let launch = fused_a.launch(wk_t.grid, wk_c.grid, &wk_t.bindings, &wk_c.bindings);
    let t_a = device.run_launch(&launch).expect("bench-a").duration;

    // Bench-B: two Kt back to back (same pipeline — fusing buys nothing,
    // measure sequential execution of twice the work).
    let wk_t2 = micro_launch(&kt_def, 2 * blocks_per_sm, iters);
    let t_b = device
        .run_launch(&wk_t2.launch())
        .expect("bench-b")
        .duration;
    // Bench-C: two Kc.
    let wk_c2 = micro_launch(&kc_def, 2 * blocks_per_sm, iters);
    let t_c = device
        .run_launch(&wk_c2.launch())
        .expect("bench-c")
        .duration;

    let norm = |t: tacker_kernel::SimTime| t.ratio(t_kt);
    println!();
    println!(
        "{:<10} {:>10} {:>12} {:>8}",
        "bench", "1st half", "2nd half", "norm"
    );
    println!(
        "{:<10} {:>10} {:>12} {:>8.2}",
        "Bench-A",
        "Kt",
        "Kc",
        norm(t_a)
    );
    println!(
        "{:<10} {:>10} {:>12} {:>8.2}",
        "Bench-B",
        "Kt",
        "Kt",
        norm(t_b)
    );
    println!(
        "{:<10} {:>10} {:>12} {:>8.2}",
        "Bench-C",
        "Kc",
        "Kc",
        norm(t_c)
    );
    println!();
    println!("paper: Bench-A 1.03, Bench-B 2.00, Bench-C 2.00");
    assert!(
        norm(t_a) < 1.25,
        "Bench-A should be near 1.0, got {:.2}",
        norm(t_a)
    );
    assert!(
        (norm(t_b) - 2.0).abs() < 0.25,
        "Bench-B should be ≈2, got {:.2}",
        norm(t_b)
    );
    assert!(
        (norm(t_c) - 2.0).abs() < 0.25,
        "Bench-C should be ≈2, got {:.2}",
        norm(t_c)
    );
}
