//! Per-layer probes, taken from outside the program.
//!
//! The traced run rebuilds a flow job from the crates' public pieces —
//! capture model, procedures, fault universe, lint, ATPG or LBIST,
//! classification — and times each call. ATPG runs through
//! [`TimedPodem`] and [`TimedFsim`], wrappers around the public engine
//! traits that time every call and forward it unchanged. The composed
//! job must reproduce the `TestFlow` job it stands in for
//! ([`same_work`]), which shows the probes measured the same work.

use crate::alloc;
use occ_atpg::{
    classify_faults, run_atpg_cancellable, AtpgEngine, AtpgKernelStats, AtpgResult, AtpgStats,
    CompiledPodem, Observability, PodemOutcome,
};
use occ_bist::{run_lbist, x_source_count, LbistReport};
use occ_fault::{Fault, FaultList, FaultModel, FaultStatus, FaultUniverse};
use occ_flow::{
    build_procedures, AtpgEngineChoice, EngineChoice, FlowReport, Linter, PatternSource,
};
use occ_fsim::{
    CancelToken, CaptureModel, FaultSim, FaultSimEngine, FrameSpec, GoodBatch, KernelStats,
};
use occ_server::{Fnv64, JobSpec};
use occ_soc::Soc;
use std::time::Instant;

/// An [`AtpgEngine`] that times every PODEM call and classifies its
/// outcome, forwarding the call unchanged.
#[derive(Debug)]
pub struct TimedPodem<E> {
    inner: E,
    /// PODEM calls.
    pub calls: u64,
    /// Seconds inside PODEM.
    pub busy_s: f64,
    /// Calls that hit the backtrack limit.
    pub aborted: u64,
    /// Seconds spent in calls that hit the backtrack limit.
    pub aborted_busy_s: f64,
    /// Calls that returned a test.
    pub tests: u64,
}

impl<E> TimedPodem<E> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: E) -> Self {
        TimedPodem {
            inner,
            calls: 0,
            busy_s: 0.0,
            aborted: 0,
            aborted_busy_s: 0.0,
            tests: 0,
        }
    }
}

impl<E: AtpgEngine> AtpgEngine for TimedPodem<E> {
    fn run(
        &mut self,
        spec: &FrameSpec,
        obs: &Observability,
        fault: Fault,
        backtrack_limit: usize,
    ) -> PodemOutcome {
        let t = Instant::now();
        let outcome = self.inner.run(spec, obs, fault, backtrack_limit);
        let dt = t.elapsed().as_secs_f64();
        self.calls += 1;
        self.busy_s += dt;
        match outcome {
            PodemOutcome::Aborted => {
                self.aborted += 1;
                self.aborted_busy_s += dt;
            }
            PodemOutcome::Test(_) => self.tests += 1,
            PodemOutcome::Untestable => {}
        }
        outcome
    }

    fn engine_name(&self) -> &'static str {
        self.inner.engine_name()
    }

    fn kernel_stats(&self) -> AtpgKernelStats {
        self.inner.kernel_stats()
    }
}

/// A [`FaultSimEngine`] that times every batch, split into bulk grading
/// (more than one pattern) and one-pattern compaction batches,
/// forwarding the call unchanged.
#[derive(Debug)]
pub struct TimedFsim<E> {
    inner: E,
    /// Batches graded.
    pub calls: u64,
    /// Seconds inside the fault simulator.
    pub busy_s: f64,
    /// Patterns × faults graded.
    pub pattern_faults: u64,
    /// Seconds in batches of more than one pattern.
    pub bulk_busy_s: f64,
    /// Seconds in one-pattern batches (static compaction).
    pub compaction_busy_s: f64,
}

impl<E> TimedFsim<E> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: E) -> Self {
        TimedFsim {
            inner,
            calls: 0,
            busy_s: 0.0,
            pattern_faults: 0,
            bulk_busy_s: 0.0,
            compaction_busy_s: 0.0,
        }
    }
}

impl<E: FaultSimEngine> FaultSimEngine for TimedFsim<E> {
    fn detect_batch(&mut self, spec: &FrameSpec, good: &GoodBatch, faults: &[Fault]) -> Vec<u64> {
        let t = Instant::now();
        let masks = self.inner.detect_batch(spec, good, faults);
        let dt = t.elapsed().as_secs_f64();
        self.calls += 1;
        self.busy_s += dt;
        self.pattern_faults += (good.n_patterns * faults.len()) as u64;
        if good.n_patterns > 1 {
            self.bulk_busy_s += dt;
        } else {
            self.compaction_busy_s += dt;
        }
        masks
    }

    fn engine_name(&self) -> &'static str {
        self.inner.engine_name()
    }

    fn worker_threads(&self) -> usize {
        self.inner.worker_threads()
    }

    fn kernel_stats(&self) -> KernelStats {
        self.inner.kernel_stats()
    }

    fn attach_cancel(&mut self, token: CancelToken) {
        self.inner.attach_cancel(token);
    }
}

/// Layer totals accumulated over composed jobs.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// Composed jobs.
    pub jobs: u64,
    /// Wall seconds of the composed jobs.
    pub wall_s: f64,
    /// `CaptureModel::new` seconds.
    pub model_build_s: f64,
    /// `Linter::run_with_universe` seconds.
    pub lint_run_s: f64,
    /// Faults lint proved structurally untestable.
    pub lint_untestable: u64,
    /// `run_atpg_cancellable` seconds.
    pub atpg_run_s: f64,
    /// Bytes allocated inside `run_atpg_cancellable`.
    pub atpg_alloc_bytes: u64,
    /// `classify_faults` seconds.
    pub classify_s: f64,
    /// PODEM searches skipped for lint-proven untestable faults.
    pub lint_pruned: u64,
    /// PODEM decisions.
    pub decisions: u64,
    /// PODEM backtracks.
    pub backtracks: u64,
    /// PODEM calls.
    pub podem_calls: u64,
    /// Seconds inside PODEM.
    pub podem_busy_s: f64,
    /// Aborted PODEM calls.
    pub podem_aborted: u64,
    /// Seconds inside aborted PODEM calls.
    pub podem_aborted_busy_s: f64,
    /// PODEM calls that found a test.
    pub podem_tests: u64,
    /// Fault-simulation batches.
    pub fsim_calls: u64,
    /// Seconds inside the fault simulator.
    pub fsim_busy_s: f64,
    /// Patterns × faults graded.
    pub fsim_pattern_faults: u64,
    /// Seconds in multi-pattern batches.
    pub fsim_bulk_busy_s: f64,
    /// Seconds in one-pattern batches.
    pub fsim_compaction_busy_s: f64,
    /// `run_lbist` seconds.
    pub lbist_run_s: f64,
    /// Faults the LBIST kernel detected before compaction.
    pub kernel_detected: u64,
    /// Kernel detections lost to X-masking.
    pub x_masked: u64,
}

impl Probes {
    /// Seconds of the composed jobs no probe covers.
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s
            - (self.model_build_s
                + self.lint_run_s
                + self.atpg_run_s
                + self.lbist_run_s
                + self.classify_s)
    }
}

/// What a composed job produced.
#[derive(Debug)]
pub struct Composed {
    /// Final patterns and classified fault statuses.
    pub result: AtpgResult,
    /// The LBIST referee counts, for LBIST jobs.
    pub lbist: Option<LbistReport>,
}

/// Runs `job` on `soc` composed from public pieces, adding each layer's
/// time and counters to `probes`. Covers what the batch workloads run:
/// the serial fault simulator, the compiled ATPG engine, and external
/// ATPG or LBIST delivery. With `probed` false the ATPG engines run
/// bare, without the per-call wrappers, so comparing the two walls
/// measures what the wrappers cost; the engine counters then stay 0.
///
/// # Errors
///
/// A job outside that scope, or any error the pieces return.
pub fn compose(
    soc: &Soc,
    job: &JobSpec,
    probes: &mut Probes,
    probed: bool,
) -> Result<Composed, String> {
    if job.engine != EngineChoice::Serial || job.atpg_engine != AtpgEngineChoice::Compiled {
        return Err("composition covers the serial/compiled engine pair only".to_owned());
    }
    let start = Instant::now();
    let netlist = soc.netlist();
    let t = Instant::now();
    let model =
        CaptureModel::new(netlist, soc.binding(job.mask_bidi)).map_err(|e| e.to_string())?;
    probes.model_build_s += t.elapsed().as_secs_f64();
    let procedures = build_procedures(job.clocking, job.fault_model, model.domain_count())
        .map_err(|e| e.to_string())?;
    let universe = match job.fault_model {
        FaultModel::StuckAt => FaultUniverse::stuck_at(netlist),
        FaultModel::Transition => FaultUniverse::transition(netlist),
    };
    let lint = job.lint.map(|_| {
        let t = Instant::now();
        let report = Linter::new(&model)
            .mode(job.clocking)
            .chains(soc.chains())
            .run_with_universe(&universe);
        probes.lint_run_s += t.elapsed().as_secs_f64();
        probes.lint_untestable += report.untestable.len() as u64;
        report
    });
    let pre_untestable: &[Fault] = lint.as_ref().map_or(&[], |l| l.untestable.as_slice());
    let never = CancelToken::never();

    let (result, lbist) = match &job.pattern_source {
        PatternSource::ExternalAtpg => {
            let mut timed = probed.then(|| {
                (
                    TimedFsim::new(FaultSim::new(&model)),
                    TimedPodem::new(CompiledPodem::new(&model)),
                )
            });
            let mut bare = (!probed).then(|| (FaultSim::new(&model), CompiledPodem::new(&model)));
            let (fsim, podem): (&mut dyn FaultSimEngine, &mut dyn AtpgEngine) =
                match (&mut timed, &mut bare) {
                    (Some((f, p)), _) => (f, p),
                    (None, Some((f, p))) => (f, p),
                    (None, None) => unreachable!("one engine pair is built"),
                };
            let bytes0 = alloc::allocated_bytes();
            let t = Instant::now();
            let result = run_atpg_cancellable(
                &model,
                &procedures,
                universe,
                &job.atpg,
                fsim,
                podem,
                pre_untestable,
                &never,
            )
            .map_err(|c| format!("atpg cancelled: {c:?}"))?;
            probes.atpg_run_s += t.elapsed().as_secs_f64();
            probes.atpg_alloc_bytes += alloc::allocated_bytes() - bytes0;
            let k = podem.kernel_stats();
            probes.decisions += k.decisions;
            probes.backtracks += k.backtracks;
            probes.lint_pruned += result.stats.lint_pruned as u64;
            let Some((fsim, podem)) = timed else {
                return finish(&model, result, None, probes, start);
            };
            probes.podem_calls += podem.calls;
            probes.podem_busy_s += podem.busy_s;
            probes.podem_aborted += podem.aborted;
            probes.podem_aborted_busy_s += podem.aborted_busy_s;
            probes.podem_tests += podem.tests;
            probes.fsim_calls += fsim.calls;
            probes.fsim_busy_s += fsim.busy_s;
            probes.fsim_pattern_faults += fsim.pattern_faults;
            probes.fsim_bulk_busy_s += fsim.bulk_busy_s;
            probes.fsim_compaction_busy_s += fsim.compaction_busy_s;
            (result, None)
        }
        PatternSource::Lbist(cfg) => {
            // As in the flow: the lint report's X-source findings, or a
            // lint pass of its own when the job has no lint stage.
            let x_sources = match &lint {
                Some(l) => x_source_count(&l.diagnostics),
                None => {
                    let r = Linter::new(&model)
                        .mode(job.clocking)
                        .chains(soc.chains())
                        .run();
                    x_source_count(&r.diagnostics)
                }
            };
            let t = Instant::now();
            let outcome = run_lbist(
                &model,
                &procedures,
                universe,
                soc.chains(),
                cfg,
                pre_untestable,
                x_sources,
                &never,
            )
            .map_err(|c| format!("lbist cancelled: {c:?}"))?;
            probes.lbist_run_s += t.elapsed().as_secs_f64();
            probes.kernel_detected += outcome.report.kernel_detected as u64;
            probes.x_masked += outcome.report.x_masked as u64;
            let result = AtpgResult {
                patterns: outcome.patterns,
                faults: outcome.faults,
                stats: AtpgStats::default(),
            };
            (result, Some(outcome.report))
        }
        PatternSource::Edt(_) => {
            return Err("composition covers external ATPG and LBIST only".to_owned())
        }
    };
    finish(&model, result, lbist, probes, start)
}

/// The composed job's last step: fault classification.
fn finish(
    model: &CaptureModel<'_>,
    mut result: AtpgResult,
    lbist: Option<LbistReport>,
    probes: &mut Probes,
    start: Instant,
) -> Result<Composed, String> {
    let t = Instant::now();
    classify_faults(model, &mut result.faults);
    probes.classify_s += t.elapsed().as_secs_f64();
    probes.jobs += 1;
    probes.wall_s += start.elapsed().as_secs_f64();
    Ok(Composed { result, lbist })
}

/// Checks that a composed job did the work of the flow job `report`
/// came from: identical patterns, fault statuses and ATPG counters, and
/// for LBIST identical referee counts and signature.
///
/// # Errors
///
/// Names the first field that differs.
pub fn same_work(composed: &Composed, report: &FlowReport) -> Result<(), String> {
    let (a, b) = (&composed.result, &report.result);
    if a.patterns.patterns() != b.patterns.patterns() {
        return Err("pattern sets differ".to_owned());
    }
    if status_digest(&a.faults) != status_digest(&b.faults) {
        return Err("fault statuses differ".to_owned());
    }
    if a.stats != b.stats {
        return Err(format!("ATPG stats differ: {:?} vs {:?}", a.stats, b.stats));
    }
    match (&composed.lbist, &report.pattern_source) {
        (None, None) => Ok(()),
        (Some(l), Some(ps)) => {
            let theirs = (
                ps.kernel_detected,
                ps.source_detected,
                ps.aliased,
                ps.x_masked,
                ps.signature,
            );
            let ours = (
                l.kernel_detected,
                l.bist_detected,
                l.aliased,
                l.x_masked,
                l.signature,
            );
            if ours == theirs {
                Ok(())
            } else {
                Err(format!("LBIST counts differ: {ours:?} vs {theirs:?}"))
            }
        }
        _ => Err("pattern-source blocks differ".to_owned()),
    }
}

/// A digest of every fault's status, in fault-list order (which is
/// fixed by the netlist).
pub fn status_digest(faults: &FaultList) -> u64 {
    let mut h = Fnv64::new();
    for (_, status) in faults.iter() {
        let (tag, pattern) = match status {
            FaultStatus::Undetected => (0, 0),
            FaultStatus::Detected { pattern } => (1, u64::from(pattern)),
            FaultStatus::Untestable => (2, 0),
            FaultStatus::Aborted => (3, 0),
            FaultStatus::Constrained => (4, 0),
        };
        h.write_u64(tag);
        h.write_u64(pattern);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_atpg::AtpgOptions;
    use occ_core::ClockingMode;
    use occ_soc::{generate, SocConfig};

    fn tiny_run(
        model: &CaptureModel<'_>,
        procs: &[FrameSpec],
        soc: &Soc,
        fsim: &mut dyn FaultSimEngine,
        podem: &mut dyn AtpgEngine,
    ) -> AtpgResult {
        let options = AtpgOptions {
            random_patterns: 32,
            backtrack_limit: 12,
            ..AtpgOptions::default()
        };
        run_atpg_cancellable(
            model,
            procs,
            FaultUniverse::transition(soc.netlist()),
            &options,
            fsim,
            podem,
            &[],
            &CancelToken::never(),
        )
        .expect("never-cancelled run completes")
    }

    #[test]
    fn wrapped_engines_forward_transparently() {
        let soc = generate(&SocConfig::tiny(3));
        let model = CaptureModel::new(soc.netlist(), soc.binding(true)).expect("tiny SOC binds");
        let procs = build_procedures(
            ClockingMode::SimpleCpf,
            FaultModel::Transition,
            model.domain_count(),
        )
        .expect("simple CPF builds transition procedures");

        let mut bare_fsim = FaultSim::new(&model);
        let mut bare_podem = CompiledPodem::new(&model);
        let bare = tiny_run(&model, &procs, &soc, &mut bare_fsim, &mut bare_podem);

        let mut fsim = TimedFsim::new(FaultSim::new(&model));
        let mut podem = TimedPodem::new(CompiledPodem::new(&model));
        let wrapped = tiny_run(&model, &procs, &soc, &mut fsim, &mut podem);

        assert_eq!(bare.patterns.patterns(), wrapped.patterns.patterns());
        assert_eq!(status_digest(&bare.faults), status_digest(&wrapped.faults));
        assert_eq!(bare.stats, wrapped.stats);
        assert_eq!(bare_podem.kernel_stats(), podem.kernel_stats());
        assert_eq!(
            FaultSimEngine::kernel_stats(&bare_fsim),
            fsim.kernel_stats()
        );
        // The probes saw exactly the calls the flow counted.
        assert_eq!(podem.calls, wrapped.stats.podem_calls as u64);
        assert_eq!(podem.aborted, wrapped.stats.aborted_calls as u64);
        assert_eq!(podem.tests, wrapped.stats.tests_found as u64);
        assert_eq!(fsim.calls, wrapped.stats.fsim_batches as u64);
        assert!(podem.calls > 0 && fsim.calls > 0);
    }

    #[test]
    fn composed_job_reproduces_the_flow_job() {
        let config = SocConfig::tiny(5);
        let soc = generate(&config);
        let service = occ_server::FlowService::new(0);
        for source in [
            PatternSource::ExternalAtpg,
            PatternSource::Lbist(occ_flow::BistConfig {
                patterns: 128,
                ..occ_flow::BistConfig::default()
            }),
        ] {
            let mut job = JobSpec::new(config.clone());
            job.clocking = ClockingMode::EnhancedCpf { max_pulses: 4 };
            job.mask_bidi = true;
            job.timing = true;
            job.lint = Some(occ_flow::LintGate::Warn);
            job.atpg = AtpgOptions {
                random_patterns: 32,
                backtrack_limit: 12,
                ..AtpgOptions::default()
            };
            job.pattern_source = source;
            let report = service
                .submit(&job)
                .expect("tiny flow runs")
                .report
                .expect("flow jobs carry a report");
            let mut probes = Probes::default();
            let composed = compose(&soc, &job, &mut probes, true).expect("composition runs");
            same_work(&composed, &report).expect("same work");
            assert_eq!(probes.jobs, 1);
            assert!(probes.unattributed_s() >= 0.0);
            let mut bare = Probes::default();
            let composed = compose(&soc, &job, &mut bare, false).expect("bare composition runs");
            same_work(&composed, &report).expect("same work without probes");
            assert_eq!(bare.podem_calls, 0, "bare engines count nothing");
        }
    }
}
