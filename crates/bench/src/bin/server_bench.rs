//! Flow-service throughput benchmark and regression gate — the
//! caching-side sibling of `fsim_bench` / `atpg_bench` /
//! `timing_bench`.
//!
//! Hammers an in-process [`occ_server::FlowService`] with analyze jobs
//! on the seeded Table-1 SOC family from N concurrent client threads,
//! cold (every design compiles: generate + levelize + compile the
//! simulation graph) and warm (every artifact served as an `Arc` clone
//! out of the content-hash cache), then runs one full flow job cold vs
//! warm to record the compile stages a warm flow skips. Results land
//! in `BENCH_server.json` so the cache's value is tracked in-repo.
//!
//! A fourth, *degraded-mode* phase then stands up the real TCP daemon
//! with ~10% of jobs hit by a seeded injected worker panic
//! (`worker.job` site of [`occ_server::FaultPlan`]) and hammers it
//! over the wire: every request must still draw a response line —
//! failed jobs as typed `internal` errors, the rest correct — so the
//! row records degraded throughput *and* availability.
//!
//! Between the warm flow and the degraded phase, an *observability
//! overhead* phase re-runs the warm flow job with per-job span
//! recording off vs on (`JobSpec::trace`), as mirrored quads of four
//! adjacent jobs; each quad yields one locally controlled traced/
//! untraced ratio and the gate takes the median over quads, so
//! machine-load swings, frequency windows and position effects cancel
//! instead of landing on one mode. Tracing is built to be effectively
//! free, and the row records the median overhead plus both peak
//! throughputs so the claim is checked on every run.
//!
//! ```text
//! server_bench [--out PATH] [--check BASELINE.json]
//! ```
//!
//! Five gates (the last four are rows of [`occ_bench::gate::GATES`]):
//!
//! * **Warm correctness** (always on, hardware-independent): the warm
//!   flow job must report every artifact as a cache hit — a warm job
//!   that recompiles anything is a cache-key bug, not a perf problem.
//! * **Hard floor**: warm jobs/sec must be at least 2x cold — the
//!   ratio cancels machine speed (both sides ran on this machine); in
//!   practice it is orders of magnitude above the floor.
//!   `SERVER_BENCH_SKIP_CHECK` bypasses it.
//! * **Availability** (always on, hardware-independent): under the
//!   injected panic storm, every degraded-mode request must be
//!   answered (0.999), and at least 0.75 of them successfully — a
//!   daemon that dies, hangs, or sheds healthy jobs under ~10% worker
//!   failure is broken regardless of machine speed.
//! * **Observability overhead** (always on): warm flow jobs with
//!   per-job tracing on must run within 5% of the untraced rate — span
//!   recording growing a real cost is a regression in the recorder,
//!   not a machine-speed question.
//! * **Regression** (with `--check`): the warm/cold ratio must not
//!   drop more than 20% below the committed baseline.
//!   `SERVER_BENCH_SKIP_CHECK` bypasses it.

use occ_atpg::AtpgOptions;
use occ_bench::gate::{self, Cli};
use occ_core::ClockingMode;
use occ_server::{
    request, serve, FaultAction, FaultPlan, FlowService, JobSpec, Json, ServerConfig, Trigger,
};
use occ_soc::SocConfig;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The Table-1 SOC seed (DATE'05 in Munich) the designs derive from.
const TABLE1_SEED: u64 = 20050307;

/// Flops per clock domain of the analyze-job designs.
const FLOPS: usize = 120;

/// Concurrent client threads (and daemon workers in degraded mode).
const CLIENTS: usize = 4;

/// Distinct designs: the cold phase compiles each once.
const DESIGNS: usize = 32;

/// Warm-phase replays of the whole design set.
const ROUNDS: usize = 3_125;

/// Flops per clock domain of the full flow job.
const FLOW_FLOPS: usize = 48;

/// Requests sent to the degraded-mode daemon.
const DEGRADED_JOBS: usize = 400;

/// Injected worker-panic probability for the degraded-mode phase.
const DEGRADED_PANIC_P: f64 = 0.10;

/// Seed of the degraded phase's fault plan — fixed, so the injected
/// failure sequence is reproducible run to run.
const DEGRADED_SEED: u64 = 0xD05;

/// Mirrored untraced/traced quads for the observability-overhead
/// gate. Warm job times on a shared runner swing 20%+ with machine
/// load and frequency scaling, so comparing aggregate (or even floor)
/// times across modes is noise-dominated. Each quad instead yields
/// one locally controlled traced/untraced ratio — its four jobs are
/// adjacent in time, the mirrored order cancels linear drift, and
/// alternating which mode sits in the middle cancels the position
/// effect. The row reports the *median* ratio; the gate reads the
/// *lower quartile*, because a real recorder regression shifts the
/// whole distribution while a host-load episode only inflates the
/// upper tail.
const OBS_QUADS: usize = 12;

/// Runs `jobs(i)` for `i in 0..total` across `clients` threads pulling
/// work from a shared index; returns elapsed seconds.
fn drive_clients(
    service: &Arc<FlowService>,
    clients: usize,
    total: usize,
    job_of: impl Fn(usize) -> JobSpec + Send + Sync,
) -> f64 {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                service
                    .submit(&job_of(i))
                    .expect("bench jobs always validate");
            });
        }
    });
    t0.elapsed().as_secs_f64().max(1e-9)
}

fn main() -> ExitCode {
    let Some(cli) = Cli::from_env("server_bench") else {
        return ExitCode::from(2);
    };

    // Analyze jobs over the Table-1 SOC family: seed i derives design
    // i, so the cold phase compiles `designs` distinct netlists and
    // the warm phase replays the same hashes round-robin.
    let design_of = |i: usize| {
        let mut job = JobSpec::new(SocConfig::paper_like(
            TABLE1_SEED + (i % DESIGNS) as u64,
            FLOPS,
        ));
        job.analyze_only = true;
        job
    };
    let service = Arc::new(FlowService::new(0));
    let probe = service
        .submit(&design_of(0))
        .expect("Table-1 SOC always analyzes");
    println!(
        "server_bench: {} — {} cells, {} clients, {} designs",
        probe.analysis.design, probe.analysis.cells, CLIENTS, DESIGNS,
    );

    // Cold: a fresh service per measurement (the probe above warmed
    // the first entry of `service`).
    let cold_service = Arc::new(FlowService::new(0));
    let cold_secs = drive_clients(&cold_service, CLIENTS, DESIGNS, design_of);
    let stats = cold_service.cache_stats();
    if stats.design.misses != DESIGNS as u64 {
        eprintln!(
            "server_bench: FATAL — cold phase expected {} design compiles, \
             cache counted {} (build dedup broken?)",
            DESIGNS, stats.design.misses
        );
        return ExitCode::FAILURE;
    }
    let cold_jobs = DESIGNS;
    let cold_jps = cold_jobs as f64 / cold_secs;

    // Warm: replay the same designs round-robin on the now-hot cache.
    let warm_jobs = DESIGNS * ROUNDS;
    let warm_secs = drive_clients(&cold_service, CLIENTS, warm_jobs, design_of);
    let warm_jps = warm_jobs as f64 / warm_secs;
    let ratio = warm_jps / cold_jps.max(1e-9);
    println!(
        "  cold analyze {cold_jps:>10.1} jobs/s ({cold_jobs} jobs, {cold_secs:.3}s)\n  \
         warm analyze {warm_jps:>10.1} jobs/s ({warm_jobs} jobs, {warm_secs:.3}s)\n  \
         warm over cold: {ratio:.1}x",
    );

    // One full flow job cold vs warm: the warm run must hit every
    // artifact (graph, procedures, delay table) — i.e. run zero
    // compile stages. Timings are informational; the hit flags gate.
    let flow_service = FlowService::new(0);
    let flow_job = {
        let mut job = JobSpec::new(SocConfig::paper_like(TABLE1_SEED, FLOW_FLOPS));
        job.clocking = ClockingMode::SimpleCpf;
        job.mask_bidi = true;
        job.timing = true;
        job.atpg = AtpgOptions {
            random_patterns: 64,
            backtrack_limit: 16,
            ..AtpgOptions::default()
        };
        job
    };
    let t0 = Instant::now();
    let cold_flow = flow_service
        .submit(&flow_job)
        .expect("Table-1 flow always validates");
    let flow_cold_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let warm_flow = flow_service
        .submit(&flow_job)
        .expect("Table-1 flow always validates");
    let flow_warm_secs = t0.elapsed().as_secs_f64();
    println!(
        "  flow job: cold {flow_cold_secs:.2}s, warm {flow_warm_secs:.2}s \
         (warm cache: design {}, procedures {:?}, delays {:?})",
        warm_flow.cache.design_hit, warm_flow.cache.procedures_hit, warm_flow.cache.delays_hit,
    );
    if !warm_flow.warm {
        eprintln!(
            "server_bench: FATAL — the warm flow job recompiled an artifact \
             ({:?}); the content-hash cache key is broken",
            warm_flow.cache
        );
        return ExitCode::FAILURE;
    }
    drop(cold_flow);

    // Observability overhead: the same warm flow job with per-job
    // span recording off vs on, run as mirrored untraced/traced/
    // traced/untraced quads. Each quad yields one locally controlled
    // ratio; the gate takes the median over all quads (see
    // [`OBS_QUADS`]). A warm-up pair settles caches before measuring.
    let traced_job = {
        let mut job = flow_job.clone();
        job.trace = true;
        job
    };
    let time_one = |job: &JobSpec| {
        let t0 = Instant::now();
        flow_service
            .submit(job)
            .expect("Table-1 flow always validates");
        t0.elapsed().as_secs_f64().max(1e-9)
    };
    let _ = (time_one(&flow_job), time_one(&traced_job));
    let mut ratios = Vec::with_capacity(OBS_QUADS);
    let mut untraced_secs = f64::INFINITY;
    let mut traced_secs = f64::INFINITY;
    for quad in 0..OBS_QUADS {
        // Alternate the quad's orientation: the middle pair of a quad
        // measures ~1% slower than the outer pair whichever mode runs
        // there (cache/thermal position effect), so half the quads put
        // each mode in the middle and the bias cancels in the median.
        let (u0, t0, t1, u1) = if quad % 2 == 0 {
            let u0 = time_one(&flow_job);
            let t0 = time_one(&traced_job);
            let t1 = time_one(&traced_job);
            let u1 = time_one(&flow_job);
            (u0, t0, t1, u1)
        } else {
            let t0 = time_one(&traced_job);
            let u0 = time_one(&flow_job);
            let u1 = time_one(&flow_job);
            let t1 = time_one(&traced_job);
            (u0, t0, t1, u1)
        };
        // Best-of-two per side inside the quad: a load spike that
        // lands on one of a side's two jobs is discarded before the
        // ratio is formed.
        ratios.push(t0.min(t1) / u0.min(u1));
        untraced_secs = untraced_secs.min(u0).min(u1);
        traced_secs = traced_secs.min(t0).min(t1);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    let median_ratio = ratios[ratios.len() / 2];
    // The gate reads the lower quartile, not the median: a real
    // recorder regression shifts the whole ratio distribution — q1
    // included — while a transient host-load episode only inflates
    // the upper tail. q1 above the ceiling therefore means at least
    // three quarters of the quads ran that much slower traced, which
    // no load spike produces.
    let q1_ratio = ratios[ratios.len() / 4];
    let untraced_jps = untraced_secs.recip();
    let traced_jps = traced_secs.recip();
    let overhead_pct = (median_ratio - 1.0) * 100.0;
    let gate_pct = (q1_ratio - 1.0) * 100.0;
    println!(
        "  obs overhead: warm flow peak {untraced_jps:.2} jobs/s untraced, \
         {traced_jps:.2} jobs/s traced, overhead median {overhead_pct:+.1}% \
         / lower quartile {gate_pct:+.1}%",
    );

    // Degraded mode: the real daemon over TCP, with ~10% of jobs hit
    // by a seeded injected worker panic. One warm-up request compiles
    // the design so the row measures serving under failure, not
    // compilation.
    let faults = FaultPlan::seeded(DEGRADED_SEED).inject(
        "worker.job",
        Trigger::Probability(DEGRADED_PANIC_P),
        FaultAction::Panic("injected degraded-mode panic".into()),
    );
    // The injected panics are expected and caught at the worker seam;
    // keep their backtraces out of the bench output.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let server = match serve(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: CLIENTS,
        cache_budget: 0,
        faults: faults.clone(),
        ..ServerConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("server_bench: cannot bind degraded-mode daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.addr();
    let analyze_line = format!(
        "{{\"op\":\"analyze\",\"design\":{{\"preset\":\"paper_like\",\
         \"seed\":{TABLE1_SEED},\"flops_per_domain\":{FLOPS}}}}}"
    );
    // Warm-up (retried: the warm-up itself can draw an injected panic).
    let mut warmed = false;
    for _ in 0..50 {
        if request(addr, &analyze_line).is_ok_and(|r| r.contains("\"ok\":true")) {
            warmed = true;
            break;
        }
    }
    if !warmed {
        eprintln!("server_bench: FATAL — degraded-mode daemon never answered the warm-up");
        return ExitCode::FAILURE;
    }

    let answered = AtomicUsize::new(0);
    let succeeded = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                if next.fetch_add(1, Ordering::Relaxed) >= DEGRADED_JOBS {
                    break;
                }
                if let Ok(response) = request(addr, &analyze_line) {
                    answered.fetch_add(1, Ordering::Relaxed);
                    if response.contains("\"ok\":true") {
                        succeeded.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let degraded_secs = t0.elapsed().as_secs_f64().max(1e-9);
    drop(server); // graceful drain; nothing pending by now
    std::panic::set_hook(prev_hook);

    let answered = answered.load(Ordering::Relaxed);
    let succeeded = succeeded.load(Ordering::Relaxed);
    let availability = answered as f64 / DEGRADED_JOBS as f64;
    let ok_fraction = succeeded as f64 / DEGRADED_JOBS as f64;
    let degraded_jps = answered as f64 / degraded_secs;
    let injected = faults.fired("worker.job");
    println!(
        "  degraded ({:.0}% injected worker panics): {degraded_jps:>8.1} jobs/s, \
         availability {availability:.3}, ok {ok_fraction:.3} \
         ({answered}/{DEGRADED_JOBS} answered, {succeeded} ok, {injected} panics injected)",
        DEGRADED_PANIC_P * 100.0,
    );

    if injected == 0 {
        eprintln!(
            "server_bench: FATAL — the degraded-mode phase injected no panics; \
             the worker.job fault site is no longer consulted"
        );
        return ExitCode::FAILURE;
    }

    let doc = Json::obj([
        ("design", probe.analysis.design.as_str().into()),
        ("cells", probe.analysis.cells.into()),
        ("flops_per_domain", FLOPS.into()),
        ("clients", CLIENTS.into()),
        ("designs", DESIGNS.into()),
        (
            "analyze",
            Json::obj([
                ("cold_jobs", cold_jobs.into()),
                ("cold_jobs_per_sec", cold_jps.into()),
                ("warm_jobs", warm_jobs.into()),
                ("warm_jobs_per_sec", warm_jps.into()),
            ]),
        ),
        (
            "flow",
            Json::obj([
                ("flops_per_domain", FLOW_FLOPS.into()),
                ("cold_seconds", flow_cold_secs.into()),
                ("warm_seconds", flow_warm_secs.into()),
                ("warm_all_hits", warm_flow.warm.into()),
            ]),
        ),
        (
            "obs_overhead",
            Json::obj([
                ("quads", OBS_QUADS.into()),
                ("untraced_jobs_per_sec", untraced_jps.into()),
                ("traced_jobs_per_sec", traced_jps.into()),
                ("overhead_pct", overhead_pct.into()),
                ("gate_overhead_pct", gate_pct.into()),
            ]),
        ),
        (
            "degraded",
            Json::obj([
                ("jobs", DEGRADED_JOBS.into()),
                ("injected_panic_p", DEGRADED_PANIC_P.into()),
                ("jobs_per_sec", degraded_jps.into()),
                ("availability", availability.into()),
                ("ok_fraction", ok_fraction.into()),
                ("injected_panics", injected.into()),
            ]),
        ),
        ("warm_over_cold", ratio.into()),
    ]);
    gate::finish("server_bench", &cli, &doc)
}
