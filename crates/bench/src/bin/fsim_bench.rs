//! Fault-simulation throughput benchmark and regression gate.
//!
//! Times the three PPSFP engines — the retained pre-kernel
//! `ReferenceFaultSim`, the compiled zero-allocation `FaultSim` kernel
//! and the sharded `ParallelFaultSim` — over the full transition-fault
//! universe of the seeded Table-1 SOC, cross-checks that all masks are
//! bit-identical, and writes the numbers (patterns/sec, faults/sec,
//! allocations, peak RSS) to `BENCH_fsim.json` so the perf trajectory
//! is tracked in-repo.
//!
//! ```text
//! fsim_bench [--out PATH] [--check BASELINE.json]
//! ```
//!
//! The gates live in [`occ_bench::gate::GATES`]: with `--check`, the
//! hardware-normalized kernel-vs-reference speedup ratio must stay
//! within 20% of the committed baseline (`FSIM_BENCH_SKIP_CHECK`
//! bypasses it on cold machines); the absolute kernel faults/sec floor
//! is advisory only.
//!
//! A hardware-independent gate (never skipped) re-runs the kernel with
//! an `occ_obs` detail span recorder installed and asserts span
//! recording adds **zero** allocations to the fault-sim hot path — the
//! recorder's preallocated shards are the contract that makes tracing
//! safe to leave on in production.

#[path = "../alloc_track.rs"]
mod alloc_track;

#[global_allocator]
static ALLOC: alloc_track::CountingAlloc = alloc_track::CountingAlloc;

use occ_bench::gate::{self, Cli};
use occ_fault::FaultUniverse;
use occ_fsim::{
    simulate_good, CaptureModel, FaultSim, FrameSpec, ParallelFaultSim, Pattern, ReferenceFaultSim,
};
use occ_netlist::Logic;
use occ_server::Json;
use occ_soc::{generate, SocConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;
use std::time::Instant;

/// Flops per clock domain of the seeded Table-1 SOC.
const FLOPS: usize = 256;

/// Random patterns graded per run (one 64-slot packed batch).
const PATTERNS: usize = 64;

/// Timed repetitions per engine; the best wall-clock counts.
const REPS: usize = 3;

struct EngineRow {
    engine: String,
    seconds: f64,
    faults_per_sec: f64,
    pattern_faults_per_sec: f64,
    allocs: u64,
    alloc_bytes: u64,
    cone_pruned: u64,
    events: u64,
}

fn main() -> ExitCode {
    let Some(cli) = Cli::from_env("fsim_bench") else {
        return ExitCode::from(2);
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    let soc = generate(&SocConfig::paper_like(20050307, FLOPS));
    let model =
        CaptureModel::new(soc.netlist(), soc.binding(true)).expect("generated SOC always binds");
    let domains: Vec<usize> = (0..model.domain_count()).collect();
    let spec = FrameSpec::broadside("loc", &domains, 2)
        .hold_pi(true)
        .observe_po(false);

    let mut rng = StdRng::seed_from_u64(0x0CC);
    let patterns: Vec<Pattern> = (0..PATTERNS)
        .map(|_| {
            let mut p = Pattern::empty(&model, &spec, 0);
            p.fill_x(|| Logic::from_bool(rng.gen_bool(0.5)));
            p
        })
        .collect();

    let t0 = Instant::now();
    let good = simulate_good(&model, &spec, &patterns);
    let good_secs = t0.elapsed().as_secs_f64();
    let faults = FaultUniverse::transition(soc.netlist()).faults().to_vec();
    let nf = faults.len();
    println!(
        "fsim_bench: {} — {} cells, {} faults, {} patterns (good-sim {:.3}s, {:.0} patterns/s)",
        soc.netlist().name(),
        soc.netlist().len(),
        nf,
        PATTERNS,
        good_secs,
        PATTERNS as f64 / good_secs.max(1e-9),
    );

    let mut rows: Vec<EngineRow> = Vec::new();
    let mut masks: Vec<(String, Vec<u64>)> = Vec::new();
    let reps = REPS;

    // Reference (pre-kernel) engine.
    {
        let before = alloc_track::snapshot();
        let mut engine = ReferenceFaultSim::new(&model);
        let (secs, m, d) = time_best(reps, before, || engine.detect_many(&spec, &good, &faults));
        rows.push(row("reference", secs, nf, d, 0, 0));
        masks.push(("reference".to_owned(), m));
    }

    // Compiled kernel.
    {
        let before = alloc_track::snapshot();
        let mut engine = FaultSim::new(&model);
        let (secs, m, d) = time_best(reps, before, || engine.detect_many(&spec, &good, &faults));
        let stats = engine.kernel_stats();
        rows.push(row(
            "kernel",
            secs,
            nf,
            d,
            stats.cone_pruned / reps as u64,
            stats.events / reps as u64,
        ));
        masks.push(("kernel".to_owned(), m));
    }

    // Sharded scheduler on the kernel.
    {
        let before = alloc_track::snapshot();
        let engine = ParallelFaultSim::with_threads(&model, threads);
        let (secs, m, d) = time_best(reps, before, || engine.detect_many(&spec, &good, &faults));
        let stats = engine.kernel_stats();
        rows.push(row(
            &format!("sharded:{threads}"),
            secs,
            nf,
            d,
            stats.cone_pruned / reps as u64,
            stats.events / reps as u64,
        ));
        masks.push((format!("sharded:{threads}"), m));
    }

    // Zero-alloc traced-span gate: the same warm kernel batch, with
    // and without a detail span recorder installed, must allocate
    // identically — span recording on the hot path costs no
    // allocations (hardware-independent, never skipped).
    {
        let reps = 8;
        let mut engine = FaultSim::new(&model);
        let _ = engine.detect_many(&spec, &good, &faults); // warm the engine
        let before = alloc_track::snapshot();
        for _ in 0..reps {
            let _ = engine.detect_many(&spec, &good, &faults);
        }
        let untraced = alloc_track::snapshot().since(before);

        occ_obs::set_alloc_probe(|| alloc_track::snapshot().bytes);
        let recorder = occ_obs::SpanRecorder::new();
        let scope = recorder.install(true);
        let before = alloc_track::snapshot();
        for _ in 0..reps {
            let _ = engine.detect_many(&spec, &good, &faults);
        }
        let traced = alloc_track::snapshot().since(before);
        drop(scope);

        if recorder.len() < reps {
            eprintln!(
                "fsim_bench: FATAL — only {} of {reps} traced batches recorded a span; \
                 the fsim.batch instrumentation is gone",
                recorder.len()
            );
            return ExitCode::FAILURE;
        }
        if traced.allocs != untraced.allocs {
            eprintln!(
                "fsim_bench: FATAL — span recording allocated on the fault-sim hot path \
                 ({} allocs traced vs {} untraced over {reps} batches); the recorder's \
                 preallocated-shard contract is broken",
                traced.allocs, untraced.allocs
            );
            return ExitCode::FAILURE;
        }
        println!(
            "  traced-span alloc gate: {} allocs/batch with tracing on == off \
             ({} spans recorded)",
            traced.allocs / reps as u64,
            recorder.len(),
        );
    }

    // Correctness gate: every engine must produce identical masks.
    for (name, m) in &masks[1..] {
        if m != &masks[0].1 {
            eprintln!(
                "fsim_bench: FATAL — '{name}' masks diverge from '{}'",
                masks[0].0
            );
            return ExitCode::FAILURE;
        }
    }

    let speedup = rows[1].faults_per_sec / rows[0].faults_per_sec.max(1e-9);
    for r in &rows {
        println!(
            "  {:<12} {:>8.3}s  {:>12.0} faults/s  {:>14.0} pattern-faults/s  \
             {:>10} allocs  {:>12} bytes",
            r.engine,
            r.seconds,
            r.faults_per_sec,
            r.pattern_faults_per_sec,
            r.allocs,
            r.alloc_bytes
        );
    }
    println!("  kernel vs reference speedup: {speedup:.2}x");

    let doc = Json::obj([
        ("design", soc.netlist().name().into()),
        ("cells", soc.netlist().len().into()),
        ("faults", nf.into()),
        ("patterns", PATTERNS.into()),
        ("flops_per_domain", FLOPS.into()),
        ("goodsim_seconds", good_secs.into()),
        (
            "goodsim_patterns_per_sec",
            (PATTERNS as f64 / good_secs.max(1e-9)).into(),
        ),
        ("peak_rss_kb", alloc_track::peak_rss_kb().into()),
        (
            "engines",
            Json::Arr(rows.iter().map(EngineRow::json).collect()),
        ),
        ("speedup_kernel_vs_reference", speedup.into()),
    ]);
    gate::finish("fsim_bench", &cli, &doc)
}

/// Runs `f` `reps` times, returning the best wall-clock time, the
/// first run's masks and the allocation delta of the first run
/// (engine construction + one full grading pass) since `before`.
fn time_best<F: FnMut() -> Vec<u64>>(
    reps: usize,
    before: alloc_track::AllocSnapshot,
    mut f: F,
) -> (f64, Vec<u64>, alloc_track::AllocSnapshot) {
    let mut best = f64::INFINITY;
    let mut masks = Vec::new();
    let mut delta = alloc_track::AllocSnapshot::default();
    for i in 0..reps {
        let t = Instant::now();
        let m = f();
        best = best.min(t.elapsed().as_secs_f64());
        if i == 0 {
            delta = alloc_track::snapshot().since(before);
            masks = m;
        }
    }
    (best, masks, delta)
}

fn row(
    engine: &str,
    seconds: f64,
    faults: usize,
    d: alloc_track::AllocSnapshot,
    cone_pruned: u64,
    events: u64,
) -> EngineRow {
    let secs = seconds.max(1e-9);
    EngineRow {
        engine: engine.to_owned(),
        seconds,
        faults_per_sec: faults as f64 / secs,
        pattern_faults_per_sec: (faults * PATTERNS) as f64 / secs,
        allocs: d.allocs,
        alloc_bytes: d.bytes,
        cone_pruned,
        events,
    }
}

impl EngineRow {
    fn json(&self) -> Json {
        Json::obj([
            ("engine", self.engine.as_str().into()),
            ("seconds", self.seconds.into()),
            ("faults_per_sec", self.faults_per_sec.into()),
            ("pattern_faults_per_sec", self.pattern_faults_per_sec.into()),
            ("allocs", self.allocs.into()),
            ("alloc_bytes", self.alloc_bytes.into()),
            ("cone_pruned", self.cone_pruned.into()),
            ("events", self.events.into()),
        ])
    }
}
