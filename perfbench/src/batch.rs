//! The in-process batch workloads: `table1-atpg` and `lbist-timed`.
//!
//! Both run Table-1 rows on several generated SOCs through one
//! `FlowService`, serially, as a CI sweep would. `table1-atpg` is the
//! paper's five rows with deterministic ATPG, where PODEM search does
//! almost all the work. `lbist-timed` runs the four transition rows with
//! LBIST delivery instead, so PODEM never runs and the fault-sim kernel
//! and the timing stage carry the job: it is the bypass workload for any
//! change to ATPG search.

use crate::alloc;
use crate::layers::{compose, same_work, status_digest, Probes};
use crate::report::Outcome;
use crate::stats::{median, Dist, Rng};
use occ_bench::{job_spec, ExperimentId, ExperimentRow, Table1, Table1Options, MATRIX_MODES};
use occ_flow::{BistConfig, EngineChoice, FlowReport, LintGate, PatternSource, Stage};
use occ_server::{CacheStats, FlowService, Fnv64, JobSpec};
use occ_soc::{generate, Soc, SocConfig};
use std::time::Instant;

/// Generator seeds of the SOCs every run uses. The design set is fixed:
/// job cost differs by SOC by tens of percent, so SOCs drawn from the
/// workload seed made runs with different seeds incomparable. The seed
/// drives the flows' own randomness instead (ATPG random fill and
/// bootstrap patterns, the LBIST PRPG/MISR seed).
pub const SOC_SEEDS: [u64; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
/// Flops per clock domain of each SOC. Small SOCs: on a shared host
/// the job times of larger ones swing more with cache contention from
/// other tenants, so a run gets more, smaller jobs instead.
pub const FLOPS_PER_DOMAIN: usize = 24;
/// The set-up runs once before the timed phase and again after each
/// pass while the set-ups so far took less than this many seconds;
/// `setup_s` is their median. Spreading the repetitions over the run
/// samples the host's drift the way the timed phase does.
const SETUP_BUDGET_S: f64 = 8.0;
/// Traced runs compose every this-many-th job a second time with bare
/// engines, for `trace.overhead_frac`.
const OVERHEAD_EVERY: usize = 4;
/// Seed stream the flows' random seeds are drawn from.
const FLOW_STREAM: u64 = 1;

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// Table-1 rows (a)–(e), deterministic ATPG.
    Table1Atpg,
    /// Rows (b)–(e) with LBIST delivery.
    LbistTimed,
}

/// One flow job of the workload.
#[derive(Debug)]
struct Job {
    design: usize,
    row: ExperimentId,
    spec: JobSpec,
}

/// The flow settings every job uses: Table-1 defaults (backtrack limit
/// 48) with timing on, lint at `warn` and the serial fault simulator.
fn options() -> Table1Options {
    Table1Options {
        flops_per_domain: FLOPS_PER_DOMAIN,
        engine: EngineChoice::Serial,
        timing: true,
        lint: Some(LintGate::Warn),
        ..Table1Options::default()
    }
}

fn designs() -> Vec<SocConfig> {
    SOC_SEEDS
        .iter()
        .map(|&s| SocConfig::paper_like(s, FLOPS_PER_DOMAIN))
        .collect()
}

/// The job list, design-major. Every job of one run shares the random
/// seed drawn from the workload seed.
fn jobs(kind: Batch, configs: &[SocConfig], seed: u64) -> Vec<Job> {
    let opts = options();
    let flow_seed = Rng::new(seed, FLOW_STREAM).next_u64();
    let rows: &[ExperimentId] = match kind {
        Batch::Table1Atpg => &ExperimentId::ALL,
        Batch::LbistTimed => &MATRIX_MODES,
    };
    let mut out = Vec::new();
    for (design, config) in configs.iter().enumerate() {
        for &row in rows {
            let mut spec = job_spec(config.clone(), row, &opts);
            spec.atpg.fill_seed = flow_seed;
            if kind == Batch::LbistTimed {
                spec.pattern_source = PatternSource::Lbist(BistConfig {
                    seed: flow_seed,
                    ..BistConfig::default()
                });
            }
            out.push(Job { design, row, spec });
        }
    }
    out
}

/// The outputs a repeated job must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    coverage_bits: u64,
    efficiency_bits: u64,
    patterns: usize,
    sdql_bits: u64,
    statuses: u64,
    report: u64,
}

impl Fingerprint {
    fn of(report: &FlowReport) -> Fingerprint {
        // The JSON report up to its stage timings holds every counter
        // and quality figure the run produced and nothing timed.
        let json = report.to_json();
        let stable = json.split(",\"stages\":").next().unwrap_or(&json);
        let mut h = Fnv64::new();
        h.write_str(stable);
        Fingerprint {
            coverage_bits: report.coverage_pct().to_bits(),
            efficiency_bits: report.efficiency_pct().to_bits(),
            patterns: report.patterns(),
            sdql_bits: sdql(report).to_bits(),
            statuses: status_digest(&report.result.faults),
            report: h.finish(),
        }
    }
}

fn sdql(report: &FlowReport) -> f64 {
    report.delay_quality.as_ref().map_or(f64::NAN, |q| q.sdql)
}

/// The quality figures of the first pass.
#[derive(Debug, Default)]
struct Quality {
    coverage: Vec<f64>,
    efficiency: Vec<f64>,
    patterns: usize,
    sdql: f64,
    checks_ok: usize,
    checks: usize,
    /// Reports of the design whose rows are in progress (for its
    /// shape checks).
    pending: Vec<(ExperimentId, FlowReport)>,
}

impl Quality {
    fn add(
        &mut self,
        kind: Batch,
        job: &Job,
        report: FlowReport,
        per_design: usize,
        out: &mut Outcome,
    ) {
        self.coverage.push(report.coverage_pct());
        self.efficiency.push(report.efficiency_pct());
        self.patterns += report.patterns();
        self.sdql += sdql(&report);
        out.notes.push(format!(
            "design {} row {} {:<24} TC {:>6.2}% eff {:>6.2}% patterns {:>5} SDQL {:>9.4}",
            job.design,
            job.row,
            report.clocking.label(),
            report.coverage_pct(),
            report.efficiency_pct(),
            report.patterns(),
            sdql(&report),
        ));
        self.pending.push((job.row, report));
        if self.pending.len() == per_design {
            let rows = std::mem::take(&mut self.pending);
            for (desc, ok) in shape_checks(kind, rows) {
                self.checks += 1;
                self.checks_ok += usize::from(ok);
                out.notes.push(format!(
                    "  design {} [{}] {desc}",
                    job.design,
                    if ok { "ok" } else { "FAIL" }
                ));
            }
        }
    }
}

/// The paper-shape checks for one design's rows: Table 1's checks plus
/// the quality inversion (enhanced CPF beats the ideal external clock
/// on SDQL) for ATPG; for LBIST, the inversion as the sources matrix
/// states it for that source.
fn shape_checks(kind: Batch, rows: Vec<(ExperimentId, FlowReport)>) -> Vec<(String, bool)> {
    let find = |rows: &[(ExperimentId, FlowReport)], id| {
        rows.iter()
            .find(|(r, _)| *r == id)
            .map(|(_, rep)| (rep.coverage_pct(), sdql(rep)))
            .expect("every row of the design ran")
    };
    let (b_cov, b_sdql) = find(&rows, ExperimentId::B);
    let (c_cov, _) = find(&rows, ExperimentId::C);
    let (_, d_sdql) = find(&rows, ExperimentId::D);
    let mut checks = vec![(
        format!("at-speed enhanced CPF wins SDQL ({d_sdql:.4} < {b_sdql:.4})"),
        d_sdql < b_sdql,
    )];
    match kind {
        Batch::Table1Atpg => {
            let table = Table1 {
                rows: rows
                    .into_iter()
                    .map(|(id, report)| ExperimentRow {
                        id,
                        coverage_pct: report.coverage_pct(),
                        efficiency_pct: report.efficiency_pct(),
                        patterns: report.patterns(),
                        total_faults: report.coverage.total,
                        seconds: report.total_seconds(),
                        report,
                        cache: None,
                    })
                    .collect(),
                options: options(),
                cache: CacheStats::default(),
            };
            checks.extend(table.shape_checks());
        }
        Batch::LbistTimed => checks.push((
            format!("external clock wins logical coverage ({b_cov:.2}% > {c_cov:.2}%)"),
            b_cov > c_cov,
        )),
    }
    checks
}

/// Per-layer totals over the traced run's flow jobs.
#[derive(Debug, Default)]
struct Traced {
    probes: Probes,
    job_wall_s: f64,
    stage_timing_s: f64,
    stage_pattern_source_s: f64,
    stage_lint_s: f64,
    stage_atpg_s: f64,
    stage_sum_s: f64,
    /// Wall of the probed composed jobs that were also composed bare.
    sampled_probed_s: f64,
    /// Wall of the same jobs composed with bare engines.
    sampled_bare_s: f64,
}

/// Runs a batch workload.
pub fn run(kind: Batch, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let configs = designs();
    let jobs = jobs(kind, &configs, seed);
    let per_design = jobs.len() / configs.len();

    // Set-up: the cold first job of every design on a fresh service
    // (see `cold_setup`). The first repetition's service runs the timed
    // phase; its reports are the references the warm repeats of those
    // jobs must reproduce, and every later repetition must match them.
    let cold: Vec<usize> = (0..configs.len())
        .map(|d| d * per_design + d % per_design)
        .collect();
    let mut first: Vec<Option<Fingerprint>> = vec![None; jobs.len()];
    let mut setup = Vec::new();
    let service = match cold_setup(&jobs, &cold, &mut first, &mut setup) {
        Ok(svc) => svc,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };

    // Traced runs compose each job from public pieces on their own copy
    // of the designs; generating those copies times `occ-soc`.
    let mut socs: Vec<Soc> = Vec::new();
    let mut generate_s = Vec::new();
    if trace {
        for config in &configs {
            let mut soc = None;
            for _ in 0..3 {
                let t = Instant::now();
                soc = Some(generate(config));
                generate_s.push(t.elapsed().as_secs_f64());
            }
            socs.push(soc.expect("generated at least once"));
        }
    }

    let mut quality = Quality::default();
    let mut latencies = Vec::new();
    let mut busy_s = 0.0;
    let mut traced = Traced::default();
    let cache0 = service.cache_stats();
    let mut peak = 0;
    // Set-up repetitions inside the run stop the pass clock.
    let mut setup_in_run = 0.0;
    alloc::reset_peak();
    let start = Instant::now();
    // Whole passes over the job list, so every job weighs the same and
    // the sample count does not depend on where the budget falls: as
    // many passes as come nearest to the budget, at least one.
    let mut passes = 0u32;
    'run: loop {
        for (idx, job) in jobs.iter().enumerate() {
            out.attempted += 1;
            let t = Instant::now();
            let submitted = service.submit(&job.spec);
            let wall = t.elapsed().as_secs_f64();
            let report = match submitted.map(|o| o.report) {
                Ok(Some(report)) => report,
                Ok(None) => {
                    out.failed += 1;
                    out.fail(format!("job {idx}: flow job returned no report"));
                    break 'run;
                }
                Err(e) => {
                    out.failed += 1;
                    out.fail(format!("job {idx}: {e}"));
                    break 'run;
                }
            };
            latencies.push(wall * 1e3);
            busy_s += wall;
            let fp = Fingerprint::of(&report);
            match first[idx] {
                None => first[idx] = Some(fp),
                Some(f) if f == fp => {}
                Some(f) => out.fail(format!("job {idx} repeated differently: {f:?} vs {fp:?}")),
            }
            if trace {
                traced.job_wall_s += wall;
                let stage = |s: Stage| report.stage_seconds(s);
                traced.stage_timing_s += stage(Stage::Timing);
                traced.stage_pattern_source_s += stage(Stage::PatternSource);
                traced.stage_lint_s += stage(Stage::Lint);
                traced.stage_atpg_s += stage(Stage::Atpg);
                traced.stage_sum_s += report.total_seconds();
                // Every OVERHEAD_EVERY-th job also composes bare, in
                // alternating order, for the probes' own cost.
                let sampled = idx.is_multiple_of(OVERHEAD_EVERY);
                let bare_first = sampled && (idx / OVERHEAD_EVERY).is_multiple_of(2);
                let mut bare = Probes::default();
                let mut compose_bare = || {
                    compose(&socs[job.design], &job.spec, &mut bare, false)
                        .and_then(|c| same_work(&c, &report))
                };
                let mut checked = Vec::new();
                if bare_first {
                    checked.push(compose_bare());
                }
                let probed0 = traced.probes.wall_s;
                checked.push(
                    compose(&socs[job.design], &job.spec, &mut traced.probes, true)
                        .and_then(|c| same_work(&c, &report)),
                );
                if sampled && !bare_first {
                    checked.push(compose_bare());
                }
                if sampled {
                    traced.sampled_probed_s += traced.probes.wall_s - probed0;
                    traced.sampled_bare_s += bare.wall_s;
                }
                for e in checked.into_iter().filter_map(Result::err) {
                    out.fail(format!("job {idx}: composed pipeline: {e}"));
                }
            }
            if passes == 0 {
                quality.add(kind, job, report, per_design, &mut out);
            }
        }
        passes += 1;
        let elapsed = start.elapsed().as_secs_f64() - setup_in_run;
        if setup.iter().sum::<f64>() < SETUP_BUDGET_S {
            // The timed phase's heap high-water mark excludes the set-up.
            peak = peak.max(alloc::peak_bytes());
            let t = Instant::now();
            if let Err(e) = cold_setup(&jobs, &cold, &mut first, &mut setup) {
                out.fail(e);
            }
            setup_in_run += t.elapsed().as_secs_f64();
            alloc::reset_peak();
        }
        if elapsed + elapsed / f64::from(passes) / 2.0 >= seconds {
            break;
        }
    }
    let peak = peak.max(alloc::peak_bytes());
    out.notes.push(format!(
        "set-up: {} cold first jobs, median {:.3} s of {:.3?}",
        cold.len(),
        median(&setup),
        setup
    ));
    out.set("setup_s", median(&setup));
    let done = latencies.len() as f64;
    let lat = Dist::of(&latencies);
    out.notes.push(format!(
        "{} requests; latency p50 {:.2} ms, tail p{:.1} {:.2} ms ({} samples beyond)",
        lat.n,
        lat.p50,
        lat.tail_pct,
        lat.tail.unwrap_or(f64::NAN),
        crate::stats::TAIL_BEYOND
    ));
    out.set("req_per_s", done / busy_s);
    out.set("req_latency_ms_p50", lat.p50);
    out.set("req_latency_ms_tail", lat.tail.unwrap_or(f64::NAN));
    out.set("peak_heap_mb", peak as f64 / (1 << 20) as f64);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    out.set("test_coverage_pct", mean(&quality.coverage));
    out.set("fault_efficiency_pct", mean(&quality.efficiency));
    out.set("pattern_count", quality.patterns as f64);
    out.set("sdql_sum", quality.sdql);
    out.set("shape_checks_ok", quality.checks_ok as f64);
    out.notes.push(format!(
        "shape checks: {}/{} hold",
        quality.checks_ok, quality.checks
    ));

    if trace {
        let cache1 = service.cache_stats();
        set_traced(&mut out, &traced, &generate_s, &cache0, &cache1);
    }
    out
}

/// One set-up: a fresh `FlowService` runs the `cold` jobs — the first
/// job of every design, so it generates and compiles each design, the
/// procedures and the delay tables, then runs the flow. Design `d` runs
/// its row `d mod rows`, so the cold jobs cover every row. Pushes the
/// wall time to `setup`, records or checks each report's fingerprint in
/// `first`, and returns the warm service.
fn cold_setup(
    jobs: &[Job],
    cold: &[usize],
    first: &mut [Option<Fingerprint>],
    setup: &mut Vec<f64>,
) -> Result<FlowService, String> {
    let t = Instant::now();
    let service = FlowService::new(0);
    let mut reports = Vec::with_capacity(cold.len());
    for &idx in cold {
        match service.submit(&jobs[idx].spec).map(|o| o.report) {
            Ok(Some(report)) => reports.push(report),
            Ok(None) => return Err(format!("set-up job {idx}: flow job returned no report")),
            Err(e) => return Err(format!("set-up job {idx}: {e}")),
        }
    }
    setup.push(t.elapsed().as_secs_f64());
    for (&idx, report) in cold.iter().zip(&reports) {
        let fp = Fingerprint::of(report);
        match first[idx] {
            None => first[idx] = Some(fp),
            Some(f) if f == fp => {}
            Some(f) => {
                return Err(format!(
                    "set-up job {idx} repeated differently: {f:?} vs {fp:?}"
                ))
            }
        }
    }
    Ok(service)
}

fn set_traced(
    out: &mut Outcome,
    t: &Traced,
    generate_s: &[f64],
    cache0: &CacheStats,
    cache1: &CacheStats,
) {
    let p = &t.probes;
    let n = p.jobs.max(1) as f64;
    let per = |x: f64| x / n;
    out.set("atpg.run_s", per(p.atpg_run_s));
    out.set(
        "atpg.self_s",
        per(p.atpg_run_s - p.podem_busy_s - p.fsim_busy_s),
    );
    out.set("atpg.podem.calls", per(p.podem_calls as f64));
    out.set("atpg.podem.busy_s", per(p.podem_busy_s));
    out.set("atpg.podem.aborted", per(p.podem_aborted as f64));
    out.set("atpg.podem.aborted_busy_s", per(p.podem_aborted_busy_s));
    out.set(
        "atpg.podem.useful_frac",
        if p.podem_calls == 0 {
            0.0
        } else {
            p.podem_tests as f64 / p.podem_calls as f64
        },
    );
    out.set("atpg.decisions", per(p.decisions as f64));
    out.set("atpg.backtracks", per(p.backtracks as f64));
    out.set("atpg.alloc_bytes", per(p.atpg_alloc_bytes as f64));
    out.set("atpg.classify_s", per(p.classify_s));
    out.set("atpg.lint_pruned", per(p.lint_pruned as f64));
    out.set("fsim.calls", per(p.fsim_calls as f64));
    out.set("fsim.busy_s", per(p.fsim_busy_s));
    out.set("fsim.pattern_faults", per(p.fsim_pattern_faults as f64));
    out.set("fsim.bulk_busy_s", per(p.fsim_bulk_busy_s));
    out.set("fsim.compaction_busy_s", per(p.fsim_compaction_busy_s));
    out.set("fsim.model_build_s", per(p.model_build_s));
    out.set("bist.run_lbist_s", per(p.lbist_run_s));
    out.set("bist.kernel_detected", per(p.kernel_detected as f64));
    out.set("bist.x_masked", per(p.x_masked as f64));
    out.set("flow.stage.timing_s", per(t.stage_timing_s));
    out.set("flow.stage.pattern_source_s", per(t.stage_pattern_source_s));
    out.set("flow.stage.lint_s", per(t.stage_lint_s));
    out.set("flow.stage.atpg_s", per(t.stage_atpg_s));
    out.set("flow.overhead_s", per(t.job_wall_s - t.stage_sum_s));
    out.set("lint.run_s", per(p.lint_run_s));
    out.set("lint.untestable", per(p.lint_untestable as f64));
    out.set("soc.generate_s", median(generate_s));
    for name in [
        "server.op.ping_ms_p50",
        "server.op.analyze_warm_ms_p50",
        "server.op.analyze_cold_ms_p50",
        "server.op.flow_ms_p50",
        "server.op.metrics_ms_p50",
        "server.queue_wait_ms_p50",
        "server.flow_report_ms_p50",
        "server.refused",
    ] {
        out.set(name, 0.0);
    }
    let hits = cache1.design.hits + cache1.procedures.hits + cache1.delays.hits
        - (cache0.design.hits + cache0.procedures.hits + cache0.delays.hits);
    let misses = cache1.design.misses + cache1.procedures.misses + cache1.delays.misses
        - (cache0.design.misses + cache0.procedures.misses + cache0.delays.misses);
    let evictions = cache1.design.evictions + cache1.procedures.evictions + cache1.delays.evictions
        - (cache0.design.evictions + cache0.procedures.evictions + cache0.delays.evictions);
    out.set(
        "server.cache.hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("server.cache.evictions", evictions as f64);
    out.set(
        "server.cache.resident_mb",
        cache1.bytes as f64 / (1 << 20) as f64,
    );
    out.set("trace.unattributed_frac", p.unattributed_s() / p.wall_s);
    // What the probes cost: the same composed jobs, probed against bare
    // (untraced over traced throughput, minus 1).
    out.set(
        "trace.overhead_frac",
        t.sampled_probed_s / t.sampled_bare_s.max(f64::MIN_POSITIVE) - 1.0,
    );
}
