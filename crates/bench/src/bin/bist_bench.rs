//! Pattern-source benchmark and regression gate — the delivery-side
//! sibling of `fsim_bench` / `atpg_bench` / `server_bench`.
//!
//! Runs the same Table-1 SOC flow under all three pattern sources
//! (external ATPG, EDT-compressed delivery, at-speed LBIST) through
//! one in-process [`occ_server::FlowService`] and records per-source
//! throughput (patterns/sec), the EDT compression ratio the
//! auto-derived decompressor geometry achieves, and LBIST coverage at
//! a 1k and a 10k pseudo-random pattern budget. Results land in
//! `BENCH_bist.json` so the embedded-test quality is tracked in-repo.
//!
//! ```text
//! bist_bench [--out PATH] [--check BASELINE.json]
//! ```
//!
//! Three gates:
//!
//! * **Referee identity** (always on, hardware-independent): for every
//!   embedded source, `source_detected + aliased + compactor_masked +
//!   x_masked == kernel_detected` — a compacted detection that is not
//!   a kernel detection (or a loss that is not explained) is a grading
//!   bug, not a perf problem.
//! * **Quality floors** (deterministic for a fixed seed): the EDT
//!   compression ratio must be at least 4x, and LBIST coverage must not
//!   *decrease* when the pattern budget grows from 1k to 10k.
//!   `BIST_BENCH_SKIP_CHECK` bypasses these.
//! * **Regression** (with `--check`): compression ratio and both LBIST
//!   coverage points must not drop below the committed baseline beyond
//!   a small tolerance — all three are deterministic given the seed,
//!   so a drop is a real change in delivery quality, never machine
//!   noise. Throughput is recorded but not gated (machine-dependent).
//!   `BIST_BENCH_SKIP_CHECK` bypasses this too.
//!
//! The floors and the regression bounds are rows of
//! [`occ_bench::gate::GATES`].

use occ_atpg::AtpgOptions;
use occ_bench::gate::{self, Cli};
use occ_core::ClockingMode;
use occ_flow::{BistConfig, EdtConfig, FlowReport, PatternSource};
use occ_server::{FlowService, JobSpec, Json};
use occ_soc::SocConfig;
use std::process::ExitCode;
use std::time::Instant;

/// The Table-1 SOC seed (DATE'05 in Munich) the design derives from.
const TABLE1_SEED: u64 = 20050307;

/// Flops per clock domain of the Table-1 SOC.
const FLOPS: usize = 48;

/// Submits one flow job for `source` and returns the report plus the
/// wall-clock patterns/sec of the whole flow.
fn run_source(service: &FlowService, source: PatternSource) -> (FlowReport, f64, f64) {
    let mut job = JobSpec::new(SocConfig::paper_like(TABLE1_SEED, FLOPS));
    job.clocking = ClockingMode::SimpleCpf;
    job.mask_bidi = true;
    job.atpg = AtpgOptions {
        random_patterns: 64,
        backtrack_limit: 24,
        ..AtpgOptions::default()
    };
    job.pattern_source = source;
    let t0 = Instant::now();
    let outcome = service.submit(&job).expect("Table-1 flow always validates");
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    let report = outcome.report.expect("flow jobs carry a report");
    let pps = report.patterns() as f64 / secs;
    (report, secs, pps)
}

/// The referee identity: every kernel detection either survives the
/// source's compaction or is explained. Returns false (and prints) on
/// violation.
fn refereed(report: &FlowReport, what: &str) -> bool {
    let Some(ps) = &report.pattern_source else {
        return true;
    };
    let explained = ps.source_detected + ps.aliased + ps.compactor_masked + ps.x_masked;
    if explained != ps.kernel_detected {
        eprintln!(
            "bist_bench: FATAL — {what}: {} of {} kernel detections unaccounted \
             ({} detected, {} aliased, {} compactor-masked, {} X-masked)",
            ps.kernel_detected as i64 - explained as i64,
            ps.kernel_detected,
            ps.source_detected,
            ps.aliased,
            ps.compactor_masked,
            ps.x_masked,
        );
        return false;
    }
    true
}

fn main() -> ExitCode {
    let Some(cli) = Cli::from_env("bist_bench") else {
        return ExitCode::from(2);
    };

    // One service: the design compiles once and every source job after
    // the first reuses the cached simulation graph, so the per-source
    // timings compare delivery cost, not compile cost.
    let service = FlowService::new(0);
    let (external, ext_secs, ext_pps) = run_source(&service, PatternSource::ExternalAtpg);
    println!("bist_bench: {} — {FLOPS} flops/domain", external.design);
    println!(
        "  external {ext_pps:>8.1} patterns/s ({} patterns, {ext_secs:.2}s, \
         coverage {:.2}%)",
        external.patterns(),
        external.coverage_pct(),
    );

    let (edt, edt_secs, edt_pps) = run_source(&service, PatternSource::Edt(EdtConfig::auto()));
    let compression = edt
        .pattern_source
        .as_ref()
        .map_or(0.0, |ps| ps.compression_ratio);
    println!(
        "  edt      {edt_pps:>8.1} patterns/s ({} patterns, {edt_secs:.2}s, \
         coverage {:.2}%, compression {compression:.1}x)",
        edt.patterns(),
        edt.coverage_pct(),
    );

    let lbist_at = |patterns: usize| {
        run_source(
            &service,
            PatternSource::Lbist(BistConfig {
                patterns,
                ..BistConfig::default()
            }),
        )
    };
    let (lbist_1k, lb1_secs, lb1_pps) = lbist_at(1_000);
    let (lbist_10k, lb10_secs, lb10_pps) = lbist_at(10_000);
    let (cov_1k, cov_10k) = (lbist_1k.coverage_pct(), lbist_10k.coverage_pct());
    println!(
        "  lbist    {lb1_pps:>8.1} patterns/s (1k patterns, {lb1_secs:.2}s, \
         coverage {cov_1k:.2}%)\n  \
         lbist    {lb10_pps:>8.1} patterns/s (10k patterns, {lb10_secs:.2}s, \
         coverage {cov_10k:.2}%)",
    );

    // Correctness gate: always on, independent of machine and skip
    // flags — an unexplained detection loss is a bug.
    for (report, what) in [
        (&edt, "edt"),
        (&lbist_1k, "lbist@1k"),
        (&lbist_10k, "lbist@10k"),
    ] {
        if !refereed(report, what) {
            return ExitCode::FAILURE;
        }
    }

    let doc = Json::obj([
        ("design", external.design.as_str().into()),
        ("flops_per_domain", FLOPS.into()),
        (
            "external",
            Json::obj([
                ("patterns", external.patterns().into()),
                ("patterns_per_sec", ext_pps.into()),
                ("coverage_pct", external.coverage_pct().into()),
            ]),
        ),
        (
            "edt",
            Json::obj([
                ("patterns", edt.patterns().into()),
                ("patterns_per_sec", edt_pps.into()),
                ("coverage_pct", edt.coverage_pct().into()),
                ("compression_ratio", compression.into()),
            ]),
        ),
        (
            "lbist",
            Json::obj([
                ("patterns_per_sec", lb10_pps.into()),
                ("coverage_pct_1k", cov_1k.into()),
                ("coverage_pct_10k", cov_10k.into()),
            ]),
        ),
    ]);
    gate::finish("bist_bench", &cli, &doc)
}
