//! STA throughput benchmark and regression gate — the timing-side
//! sibling of `fsim_bench` / `atpg_bench`.
//!
//! Runs the retained naive [`occ_timing::reference_arrivals`] and the
//! compiled [`occ_timing::Sta`] over the seeded Table-1 SOC,
//! cross-checks that the arrival tables are identical, and times both;
//! then grades a strided transition-fault sample through the **timed**
//! PPSFP detect path (timing view attached) under the counting
//! allocator. Results land in `BENCH_timing.json` so the perf
//! trajectory is tracked in-repo.
//!
//! ```text
//! timing_bench [--out PATH] [--check BASELINE.json]
//! ```
//!
//! Two gates, both rows of [`occ_bench::gate::GATES`]:
//!
//! * **Allocation** (hardware-independent, always on): after warm-up
//!   the timed detect path must stay O(1) allocations per fault.
//! * **Speedup ratio** (with `--check`): the compiled-vs-reference STA
//!   passes/sec ratio — both engines produce identical arrivals on the
//!   same machine, so the ratio cancels out machine speed — must not
//!   regress more than 20% against the committed baseline.
//!   `TIMING_BENCH_SKIP_CHECK` bypasses it on cold machines; the
//!   arrival cross-check always runs.

#[path = "../alloc_track.rs"]
mod alloc_track;

#[global_allocator]
static ALLOC: alloc_track::CountingAlloc = alloc_track::CountingAlloc;

use occ_bench::gate::{self, Cli};
use occ_fault::FaultUniverse;
use occ_fsim::{simulate_good, CaptureModel, FaultSim, FrameSpec, Pattern, SimTiming};
use occ_netlist::{CellKind, Logic};
use occ_server::Json;
use occ_sim::DelayModel;
use occ_soc::{generate, SocConfig};
use occ_timing::{reference_arrivals, CaptureTargets, Sta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Flops per clock domain of the seeded Table-1 SOC.
const FLOPS: usize = 96;

/// Arrival passes timed per STA engine.
const PASSES: usize = 2_000;

/// Size of the strided transition-fault sample for the timed detect path.
const FAULTS: usize = 2_000;

fn main() -> ExitCode {
    let Some(cli) = Cli::from_env("timing_bench") else {
        return ExitCode::from(2);
    };

    let soc = generate(&SocConfig::paper_like(20050307, FLOPS));
    let model =
        CaptureModel::new(soc.netlist(), soc.binding(true)).expect("generated SOC always binds");
    let graph = model.graph();
    let n = graph.cells();
    // A library-like delay model with per-kind and per-cell overrides:
    // the realistic case the compiled flat table exists for (every
    // uncompiled lookup pays mnemonic-keyed HashMap probes).
    let mut delay_model = DelayModel::default();
    delay_model
        .set_kind(CellKind::Nand, 12)
        .set_kind(CellKind::Nor, 14)
        .set_kind(CellKind::Xor, 18)
        .set_kind(CellKind::Xnor, 18)
        .set_kind(CellKind::Mux2, 16)
        .set_kind(CellKind::Not, 6);
    for id in soc.netlist().ids().step_by(17) {
        delay_model.set_cell(id, 11);
    }
    let table = delay_model.compile(soc.netlist());
    let n_domains = model.domain_count();
    let targets = CaptureTargets::all(n_domains);
    println!(
        "timing_bench: {} — {} cells, {} passes, {} faults",
        soc.netlist().name(),
        n,
        PASSES,
        FAULTS,
    );

    // Correctness gate: compiled arrivals must equal the naive oracle.
    let mut sta = Sta::new(n);
    sta.compute_arrivals(graph, table.as_slice());
    let oracle = reference_arrivals(soc.netlist(), &delay_model);
    if sta.arrivals() != oracle.as_slice() {
        let at = sta.arrivals().iter().zip(&oracle).position(|(a, b)| a != b);
        eprintln!(
            "timing_bench: FATAL — compiled STA arrivals diverge from the \
             reference (first at cell {at:?})"
        );
        return ExitCode::FAILURE;
    }

    // Reference STA throughput (allocates per pass, HashMap lookups).
    let t0 = Instant::now();
    for _ in 0..PASSES {
        let a = reference_arrivals(soc.netlist(), &delay_model);
        std::hint::black_box(&a);
    }
    let ref_secs = t0.elapsed().as_secs_f64().max(1e-9);

    // Compiled STA throughput (reused buffers, flat delay table) —
    // the identical arrival pass the reference just ran.
    let t0 = Instant::now();
    for _ in 0..PASSES {
        sta.compute_arrivals(graph, table.as_slice());
        std::hint::black_box(sta.max_arrival());
    }
    let sta_secs = t0.elapsed().as_secs_f64().max(1e-9);
    // The full compute (arrival + departure) feeds the flow; keep the
    // departure pass warm so its cost shows in profiles too.
    sta.compute(graph, table.as_slice(), &targets);

    let ref_passes = PASSES as f64 / ref_secs;
    let sta_passes = PASSES as f64 / sta_secs;
    let speedup = sta_passes / ref_passes.max(1e-9);
    println!(
        "  reference STA {ref_passes:>10.1} passes/s ({ref_secs:.3}s)\n  compiled  STA {sta_passes:>10.1} passes/s ({sta_secs:.3}s)\n  \
         compiled vs reference speedup: {speedup:.2}x",
    );

    // Timed detect path: strided transition-fault sample, 64 random
    // patterns, timing view attached. Warm up one full sweep, then
    // measure allocations per fault (must be O(1): the cap is the
    // always-on, hardware-independent gate).
    let universe = FaultUniverse::transition(soc.netlist());
    let all = universe.faults();
    let stride = (all.len() / FAULTS).max(1);
    let faults: Vec<occ_fault::Fault> = all.iter().copied().step_by(stride).collect();
    let domains: Vec<usize> = (0..n_domains).collect();
    let spec = FrameSpec::broadside("loc", &domains, 2)
        .hold_pi(true)
        .observe_po(false);
    let mut rng = StdRng::seed_from_u64(0x0CC);
    let pats: Vec<Pattern> = (0..64)
        .map(|_| {
            let mut p = Pattern::empty(&model, &spec, 0);
            p.fill_x(|| Logic::from_bool(rng.gen_bool(0.5)));
            p
        })
        .collect();
    let good = simulate_good(&model, &spec, &pats);
    let mut fsim = FaultSim::new(&model);
    fsim.attach_timing(Arc::new(SimTiming::new(
        table.as_slice().to_vec(),
        sta.arrivals().to_vec(),
    )));
    let mut detected = 0usize;
    for &f in &faults {
        if fsim.detect(&spec, &good, f) != 0 {
            detected += 1;
        }
    }
    let before = alloc_track::snapshot();
    let t0 = Instant::now();
    for &f in &faults {
        std::hint::black_box(fsim.detect(&spec, &good, f));
        std::hint::black_box(fsim.last_path_ps());
    }
    let timed_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let delta = alloc_track::snapshot().since(before);
    let timed_fps = faults.len() as f64 / timed_secs;
    let allocs_per_fault = delta.allocs as f64 / faults.len() as f64;
    println!(
        "  timed detect  {:>10.0} faults/s  ({} of {} detected, {} allocs, \
         {:.4} allocs/fault)",
        timed_fps,
        detected,
        faults.len(),
        delta.allocs,
        allocs_per_fault,
    );

    let doc = Json::obj([
        ("design", soc.netlist().name().into()),
        ("cells", n.into()),
        ("flops_per_domain", FLOPS.into()),
        ("passes", PASSES.into()),
        (
            "sta",
            Json::obj([
                ("reference_passes_per_sec", ref_passes.into()),
                ("compiled_passes_per_sec", sta_passes.into()),
            ]),
        ),
        (
            "timed_detect",
            Json::obj([
                ("faults", faults.len().into()),
                ("detected", detected.into()),
                ("faults_per_sec", timed_fps.into()),
                ("allocs_per_fault", allocs_per_fault.into()),
            ]),
        ),
        ("peak_rss_kb", alloc_track::peak_rss_kb().into()),
        ("speedup_compiled_vs_reference", speedup.into()),
    ]);
    gate::finish("timing_bench", &cli, &doc)
}
