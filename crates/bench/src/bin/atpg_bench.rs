//! ATPG throughput benchmark and regression gate — the generation-side
//! sibling of `fsim_bench`.
//!
//! Runs the retained `ReferencePodem` and the compiled `CompiledPodem`
//! over a strided sample of the transition-fault universe of the
//! seeded Table-1 SOC (one broadside procedure), cross-checks that
//! every `PodemOutcome` is identical, and writes decisions/sec plus
//! allocation counts to `BENCH_atpg.json` so the perf trajectory is
//! tracked in-repo.
//!
//! ```text
//! atpg_bench [--out PATH] [--check BASELINE.json]
//! ```
//!
//! Three gates:
//!
//! * **Allocation** (hardware-independent, always on): the compiled
//!   engine must stay O(1) allocations per PODEM decision — measured
//!   with the shared counting allocator over the whole run loop
//!   (including per-fault pattern setup) and capped by the
//!   `allocs_per_decision` row of [`occ_bench::gate::GATES`].
//! * **Lint-pruned identity** (hardware-independent, always on): the
//!   full lint → `run_atpg_preclassified` flow must skip at least one
//!   PODEM search on the SOC and still produce a pattern set
//!   byte-identical to the unpruned `run_atpg` (same procedure
//!   indices, scan loads, PI fills, coverage). The skipped-search
//!   count and both wall-clocks land in the JSON as the `lint` row.
//! * **Speedup ratio** (with `--check`): the compiled-vs-reference
//!   decisions/sec ratio — both engines make identical decisions, so
//!   the ratio cancels out machine speed — must not regress more than
//!   20% against the committed baseline. `ATPG_BENCH_SKIP_CHECK`
//!   bypasses it on cold machines; the outcome and identity
//!   cross-checks always run.

#[path = "../alloc_track.rs"]
mod alloc_track;

#[global_allocator]
static ALLOC: alloc_track::CountingAlloc = alloc_track::CountingAlloc;

use occ_atpg::{
    run_atpg, run_atpg_preclassified, AtpgEngine, AtpgOptions, AtpgResult, CompiledPodem,
    Observability, PodemOutcome, ReferencePodem,
};
use occ_bench::gate::{self, Cli};
use occ_core::ClockingMode;
use occ_fault::FaultUniverse;
use occ_fsim::{CaptureModel, FaultSim, FrameSpec};
use occ_lint::Linter;
use occ_server::Json;
use occ_soc::{generate, SocConfig};
use std::process::ExitCode;
use std::time::Instant;

/// Flops per clock domain of the seeded Table-1 SOC.
const FLOPS: usize = 96;

/// Size of the strided transition-fault sample.
const FAULTS: usize = 600;

/// PODEM backtrack limit.
const LIMIT: usize = 48;

/// Timed repetitions per engine; the best wall-clock counts.
const REPS: usize = 2;

struct EngineRow {
    engine: String,
    seconds: f64,
    decisions: u64,
    decisions_per_sec: f64,
    faults_per_sec: f64,
    allocs: u64,
    alloc_bytes: u64,
    events: u64,
    incremental_resims: u64,
}

/// Measurement of the lint → pre-classified ATPG flow vs the plain
/// run, gated on byte-identical pattern sets.
struct LintRow {
    untestable: usize,
    podem_skipped: usize,
    plain_seconds: f64,
    pruned_seconds: f64,
    patterns: usize,
    coverage_pct: f64,
}

fn main() -> ExitCode {
    let Some(cli) = Cli::from_env("atpg_bench") else {
        return ExitCode::from(2);
    };

    let soc = generate(&SocConfig::paper_like(20050307, FLOPS));
    let model =
        CaptureModel::new(soc.netlist(), soc.binding(true)).expect("generated SOC always binds");
    let domains: Vec<usize> = (0..model.domain_count()).collect();
    let spec = FrameSpec::broadside("loc", &domains, 2)
        .hold_pi(true)
        .observe_po(false);
    let obs = Observability::compute(&model, &spec);

    // A strided sample of the universe, so the run touches cones from
    // every block of the design.
    let universe = FaultUniverse::transition(soc.netlist());
    let all = universe.faults();
    let stride = (all.len() / FAULTS).max(1);
    let faults: Vec<occ_fault::Fault> = all.iter().copied().step_by(stride).collect();
    println!(
        "atpg_bench: {} — {} cells, {} of {} faults (stride {}), limit {}",
        soc.netlist().name(),
        soc.netlist().len(),
        faults.len(),
        all.len(),
        stride,
        LIMIT,
    );

    let mut rows: Vec<EngineRow> = Vec::new();
    let mut outcomes: Vec<(String, Vec<PodemOutcome>)> = Vec::new();

    // Reference (retained scalar) engine.
    {
        let mut engine = ReferencePodem::new(&model);
        let (row, outs) = run_engine("reference", &mut engine, &spec, &obs, &faults);
        rows.push(row);
        outcomes.push(("reference".to_owned(), outs));
    }

    // Compiled incremental engine.
    {
        let mut engine = CompiledPodem::new(&model);
        let (row, outs) = run_engine("compiled", &mut engine, &spec, &obs, &faults);
        rows.push(row);
        outcomes.push(("compiled".to_owned(), outs));
    }

    // Correctness gate: every outcome must be identical.
    if outcomes[1].1 != outcomes[0].1 {
        let at = outcomes[0]
            .1
            .iter()
            .zip(&outcomes[1].1)
            .position(|(a, b)| a != b);
        eprintln!(
            "atpg_bench: FATAL — compiled outcomes diverge from reference (first at sample {at:?})"
        );
        return ExitCode::FAILURE;
    }
    let tests_found = outcomes[0]
        .1
        .iter()
        .filter(|o| matches!(o, PodemOutcome::Test(_)))
        .count();

    let speedup = rows[1].decisions_per_sec / rows[0].decisions_per_sec.max(1e-9);
    for r in &rows {
        println!(
            "  {:<10} {:>8.3}s  {:>12.0} decisions/s  {:>9.0} faults/s  \
             {:>10} allocs  {:>12} bytes  {:>12} events",
            r.engine,
            r.seconds,
            r.decisions_per_sec,
            r.faults_per_sec,
            r.allocs,
            r.alloc_bytes,
            r.events,
        );
    }
    println!(
        "  compiled vs reference speedup: {speedup:.2}x ({} tests found, {} decisions)",
        tests_found, rows[1].decisions
    );

    let allocs_per_decision = rows[1].allocs as f64 / (rows[1].decisions.max(1)) as f64;

    // Lint-pruned identity gate: the lint → pre-classified flow must
    // skip searches without changing a single pattern byte.
    let lint = match run_lint_pruned(&soc, &model, &spec) {
        Ok(row) => row,
        Err(e) => {
            eprintln!("atpg_bench: FATAL — lint-pruned flow: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "  lint-pruned  plain {:.3}s  pruned {:.3}s  {} untestable, {} searches \
         skipped, {} patterns, {:.2}% coverage (pattern sets identical)",
        lint.plain_seconds,
        lint.pruned_seconds,
        lint.untestable,
        lint.podem_skipped,
        lint.patterns,
        lint.coverage_pct,
    );

    let doc = Json::obj([
        ("design", soc.netlist().name().into()),
        ("cells", soc.netlist().len().into()),
        ("faults", faults.len().into()),
        ("tests_found", tests_found.into()),
        ("flops_per_domain", FLOPS.into()),
        ("backtrack_limit", LIMIT.into()),
        ("peak_rss_kb", alloc_track::peak_rss_kb().into()),
        (
            "engines",
            Json::Arr(rows.iter().map(EngineRow::json).collect()),
        ),
        ("lint", lint.json()),
        ("allocs_per_decision", allocs_per_decision.into()),
        ("speedup_compiled_vs_reference", speedup.into()),
    ]);
    gate::finish("atpg_bench", &cli, &doc)
}

/// Runs one engine over the fault sample `REPS` times, keeping the
/// best wall-clock and the first rep's outcomes + allocation delta.
fn run_engine(
    name: &str,
    engine: &mut dyn AtpgEngine,
    spec: &FrameSpec,
    obs: &Observability,
    faults: &[occ_fault::Fault],
) -> (EngineRow, Vec<PodemOutcome>) {
    let mut best = f64::INFINITY;
    let mut outcomes = Vec::new();
    let mut delta = alloc_track::AllocSnapshot::default();
    for rep in 0..REPS {
        let before = alloc_track::snapshot();
        let t0 = Instant::now();
        let outs: Vec<PodemOutcome> = faults
            .iter()
            .map(|&f| engine.run(spec, obs, f, LIMIT))
            .collect();
        best = best.min(t0.elapsed().as_secs_f64());
        if rep == 0 {
            delta = alloc_track::snapshot().since(before);
            outcomes = outs;
        }
    }
    let stats = engine.kernel_stats();
    let reps = REPS as u64;
    let decisions = stats.decisions / reps;
    let secs = best.max(1e-9);
    (
        EngineRow {
            engine: name.to_owned(),
            seconds: best,
            decisions,
            decisions_per_sec: decisions as f64 / secs,
            faults_per_sec: faults.len() as f64 / secs,
            allocs: delta.allocs,
            alloc_bytes: delta.bytes,
            events: stats.events / reps,
            incremental_resims: stats.incremental_resims / reps,
        },
        outcomes,
    )
}

/// Runs the full lint → `run_atpg_preclassified` flow next to the
/// plain `run_atpg` on the same universe, times both, and hard-gates
/// on identical results: the statically proven untestable set may
/// change how much work ATPG does, never what it produces.
fn run_lint_pruned(
    soc: &occ_soc::Soc,
    model: &CaptureModel<'_>,
    spec: &FrameSpec,
) -> Result<LintRow, String> {
    let universe = FaultUniverse::transition(soc.netlist());
    let report = Linter::new(model)
        .mode(ClockingMode::EnhancedCpf { max_pulses: 2 })
        .chains(soc.chains())
        .run_with_universe(&universe);
    let options = AtpgOptions {
        random_patterns: 64,
        backtrack_limit: LIMIT,
        ..AtpgOptions::default()
    };
    let procedures = std::slice::from_ref(spec);

    let mut engine = FaultSim::new(model);
    let mut podem = CompiledPodem::new(model);
    let t0 = Instant::now();
    let plain = run_atpg(
        model,
        procedures,
        universe.clone(),
        &options,
        &mut engine,
        &mut podem,
    );
    let plain_seconds = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let pruned = run_atpg_preclassified(
        model,
        procedures,
        universe,
        &options,
        &mut engine,
        &mut podem,
        &report.untestable,
    );
    let pruned_seconds = t0.elapsed().as_secs_f64();

    if pruned.stats.lint_pruned == 0 {
        return Err("lint pre-classification skipped zero PODEM searches".to_owned());
    }
    check_identical(&pruned, &plain)?;
    Ok(LintRow {
        untestable: report.untestable.len(),
        podem_skipped: pruned.stats.lint_pruned,
        plain_seconds,
        pruned_seconds,
        patterns: pruned.patterns.len(),
        coverage_pct: pruned.report().coverage_pct(),
    })
}

/// Byte-level identity between the pruned and plain ATPG results.
fn check_identical(pruned: &AtpgResult, plain: &AtpgResult) -> Result<(), String> {
    if pruned.report().detected != plain.report().detected {
        return Err(format!(
            "detected counts diverge: pruned {} vs plain {}",
            pruned.report().detected,
            plain.report().detected
        ));
    }
    if pruned.patterns.len() != plain.patterns.len() {
        return Err(format!(
            "pattern counts diverge: pruned {} vs plain {}",
            pruned.patterns.len(),
            plain.patterns.len()
        ));
    }
    for (i, (a, b)) in pruned
        .patterns
        .patterns()
        .iter()
        .zip(plain.patterns.patterns())
        .enumerate()
    {
        if a.proc_index != b.proc_index || a.scan_load != b.scan_load || a.pis != b.pis {
            return Err(format!(
                "pattern {i} diverges between pruned and plain runs"
            ));
        }
    }
    Ok(())
}

impl EngineRow {
    fn json(&self) -> Json {
        Json::obj([
            ("engine", self.engine.as_str().into()),
            ("seconds", self.seconds.into()),
            ("decisions", self.decisions.into()),
            ("decisions_per_sec", self.decisions_per_sec.into()),
            ("faults_per_sec", self.faults_per_sec.into()),
            ("allocs", self.allocs.into()),
            ("alloc_bytes", self.alloc_bytes.into()),
            ("events", self.events.into()),
            ("incremental_resims", self.incremental_resims.into()),
        ])
    }
}

impl LintRow {
    fn json(&self) -> Json {
        Json::obj([
            ("untestable", self.untestable.into()),
            ("podem_skipped", self.podem_skipped.into()),
            ("plain_seconds", self.plain_seconds.into()),
            ("pruned_seconds", self.pruned_seconds.into()),
            ("patterns", self.patterns.into()),
            ("coverage_pct", self.coverage_pct.into()),
            ("patterns_identical", true.into()),
        ])
    }
}
