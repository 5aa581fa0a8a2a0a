//! The `daemon-mix` workload: an in-process daemon driven over loopback
//! by closed-loop clients.
//!
//! Each client sends its next request only after the previous reply,
//! as CI callers that wait for each result do, and opens a connection
//! per request through `occ_server::request`, the helper `occ_client`
//! and the CI smoke step use. It draws the request
//! from a seeded mix of reads (warm `analyze` and small `flow` jobs on a
//! hot set of designs, across clocking modes and pattern sources),
//! writes (`analyze` on fresh designs: generate, compile, insert) and
//! monitor ops. The artifact cache's byte budget is below the working
//! set, so fresh designs evict. This is the one workload with the wire,
//! the JSON codec, the job pool, the artifact cache and SOC generation
//! on the blocking path.
//!
//! The proportions of the mix and the hot-set/fresh-design sizes are
//! assumptions, not measured traffic: the repository records no
//! production request log to draw them from.

use crate::alloc;
use crate::report::Outcome;
use crate::stats::{median, Dist, Rng};
use occ_bench::{job_spec, Table1Options, MATRIX_MODES};
use occ_server::{request, serve, Fnv64, Json, ServerConfig, ServerHandle};
use occ_soc::{generate, SocConfig};
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Closed-loop clients (one per core of the reference host).
pub const CLIENTS: usize = 2;
/// Daemon job-pool workers.
pub const WORKERS: usize = 2;
/// Designs in the hot set.
pub const HOT: usize = 4;
/// SOC seeds of the hot set. The hot set is a fixed property of the
/// workload; the seed drives the traffic (which request comes next, and
/// the fresh designs).
pub const HOT_SEEDS: [u64; HOT] = [101, 202, 303, 404];
/// Flops per domain of a hot design (small flow jobs).
pub const HOT_FLOPS: usize = 16;
/// Flops per domain of a fresh design (a write large enough to evict).
pub const FRESH_FLOPS: usize = 96;
/// Artifact-cache byte budget (split over 8 shards): the hot set fits,
/// hot set plus the stream of fresh designs does not.
pub const CACHE_BUDGET: usize = 1 << 20;
/// Pattern sources the flow jobs use, as wire values.
pub const SOURCES: [&str; 3] = ["external", "edt", "lbist:256"];
/// Transition clocking rows the flow jobs use (Table 1 (b)–(e)).
const ROWS: usize = MATRIX_MODES.len();
/// Flow-job kinds: hot design × transition clocking row × source.
pub const FLOW_KINDS: usize = HOT * ROWS * SOURCES.len();
/// One block of the mix, in requests: 6 `flow` on the hot set (30%),
/// 7 `analyze` of a hot design (35%), 3 `analyze` of a fresh design
/// (15%) and one each of `ping`, `health`, `stats` and `metrics` (20%).
/// Every block of 20 requests a client sends holds exactly these, in a
/// seeded order, and flow kinds and hot designs are dealt from shuffled
/// decks, so runs with different seeds send the same mix in a different
/// order instead of different mixes.
pub const BLOCK: [Slot; 20] = [
    Slot::Flow,
    Slot::Flow,
    Slot::Flow,
    Slot::Flow,
    Slot::Flow,
    Slot::Flow,
    Slot::Warm,
    Slot::Warm,
    Slot::Warm,
    Slot::Warm,
    Slot::Warm,
    Slot::Warm,
    Slot::Warm,
    Slot::Fresh,
    Slot::Fresh,
    Slot::Fresh,
    Slot::Ping,
    Slot::Health,
    Slot::Stats,
    Slot::Metrics,
];
/// ATPG backtrack limit of the small flow jobs.
const FLOW_BACKTRACK: usize = 8;
/// Random bootstrap patterns of the small flow jobs.
const FLOW_RANDOM: usize = 128;
/// Set-up repetitions before the timed phase and again after it (each
/// starts its own daemon); `setup_s` is the median of all of them.
/// Repeating on both sides samples the host's drift across the run.
const SETUP_REPS: usize = 3;
const CLIENT_STREAM: u64 = 100;

/// One request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// Liveness check.
    Ping,
    /// Serving state.
    Health,
    /// Cache counters.
    Stats,
    /// Metric exposition.
    Metrics,
    /// `analyze` on hot design `i`.
    Warm(usize),
    /// `analyze` on a fresh design with this seed.
    Fresh(u64),
    /// `flow` job of kind `k` (see [`FLOW_KINDS`]).
    Flow(usize),
}

/// A request class of the mix [`BLOCK`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// A `flow` job; the kind is dealt from a deck.
    Flow,
    /// `analyze` of a hot design; the design is dealt from a deck.
    Warm,
    /// `analyze` of a fresh design.
    Fresh,
    /// `ping`.
    Ping,
    /// `health`.
    Health,
    /// `stats`.
    Stats,
    /// `metrics`.
    Metrics,
}

/// A shuffled deck that reshuffles when empty.
#[derive(Debug, Clone)]
struct Deck<T> {
    full: Vec<T>,
    left: Vec<T>,
}

impl<T: Copy> Deck<T> {
    fn new(full: Vec<T>) -> Self {
        Deck {
            full,
            left: Vec::new(),
        }
    }

    fn deal(&mut self, rng: &mut Rng) -> T {
        if self.left.is_empty() {
            self.left.clone_from(&self.full);
            for i in (1..self.left.len()).rev() {
                self.left.swap(i, rng.below(i + 1));
            }
        }
        self.left.pop().expect("decks are never empty")
    }
}

/// A client's seeded request stream.
#[derive(Debug, Clone)]
pub struct Mix {
    rng: Rng,
    slots: Deck<Slot>,
    flows: Deck<usize>,
    hot: Deck<usize>,
}

impl Mix {
    /// The stream of client `client` under workload seed `seed`.
    pub fn new(seed: u64, client: usize) -> Mix {
        Mix {
            rng: Rng::new(seed, CLIENT_STREAM + client as u64),
            slots: Deck::new(BLOCK.to_vec()),
            flows: Deck::new((0..FLOW_KINDS).collect()),
            hot: Deck::new((0..HOT).collect()),
        }
    }

    /// Draws the next request.
    pub fn draw(&mut self) -> Req {
        match self.slots.deal(&mut self.rng) {
            Slot::Flow => Req::Flow(self.flows.deal(&mut self.rng)),
            Slot::Warm => Req::Warm(self.hot.deal(&mut self.rng)),
            // Above every hot seed and exact in a JSON number.
            Slot::Fresh => Req::Fresh((self.rng.next_u64() >> 12) | (1 << 40)),
            Slot::Ping => Req::Ping,
            Slot::Health => Req::Health,
            Slot::Stats => Req::Stats,
            Slot::Metrics => Req::Metrics,
        }
    }
}

/// The first `n` requests client `client` sends under `seed`.
#[cfg(test)]
fn requests(seed: u64, client: usize, n: usize) -> Vec<Req> {
    let mut mix = Mix::new(seed, client);
    (0..n).map(|_| mix.draw()).collect()
}

fn design_json(seed: u64, flops: usize) -> String {
    format!(r#"{{"preset":"paper_like","seed":{seed},"flops_per_domain":{flops}}}"#)
}

/// Flow kind `k` as `(hot design, row index into MATRIX_MODES, source
/// index into SOURCES)`.
fn kind(k: usize) -> (usize, usize, usize) {
    let s = SOURCES.len();
    (k / (ROWS * s), (k / s) % ROWS, k % s)
}

/// The wire form of `req` (without the newline).
pub fn line(req: Req) -> String {
    match req {
        Req::Ping => r#"{"op":"ping"}"#.to_owned(),
        Req::Health => r#"{"op":"health"}"#.to_owned(),
        Req::Stats => r#"{"op":"stats"}"#.to_owned(),
        Req::Metrics => r#"{"op":"metrics"}"#.to_owned(),
        Req::Warm(i) => format!(
            r#"{{"op":"analyze","design":{}}}"#,
            design_json(HOT_SEEDS[i], HOT_FLOPS)
        ),
        Req::Fresh(seed) => format!(
            r#"{{"op":"analyze","design":{}}}"#,
            design_json(seed, FRESH_FLOPS)
        ),
        Req::Flow(k) => {
            let (d, row, source) = kind(k);
            // The row's clocking mode and bidi masking, as Table 1
            // defines them.
            let spec = job_spec(
                SocConfig::paper_like(HOT_SEEDS[d], HOT_FLOPS),
                MATRIX_MODES[row],
                &Table1Options::default(),
            );
            format!(
                r#"{{"op":"flow","design":{},"clocking":"{}","fault_model":"transition","engine":"serial","backtrack_limit":{FLOW_BACKTRACK},"random_patterns":{FLOW_RANDOM},"mask_bidi":{},"timing":true,"lint":"warn","pattern_source":"{}"}}"#,
                design_json(HOT_SEEDS[d], HOT_FLOPS),
                spec.clocking.label(),
                spec.mask_bidi,
                SOURCES[source],
            )
        }
    }
}

/// What a flow reply reported, for the quality metrics, the repeat
/// check and the per-layer view.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FlowFacts {
    digest: u64,
    coverage: f64,
    efficiency: f64,
    patterns: u64,
    sdql: f64,
}

/// Per-layer sums over the flow replies a client saw.
#[derive(Debug, Default, Clone)]
struct FlowSums {
    flows: u64,
    latency_s: f64,
    stage_sum_s: f64,
    stage_timing_s: f64,
    stage_pattern_source_s: f64,
    stage_lint_s: f64,
    stage_atpg_s: f64,
    podem_calls: u64,
    podem_aborted: u64,
    podem_tests: u64,
    decisions: u64,
    backtracks: u64,
    lint_pruned: u64,
    lint_untestable: u64,
    kernel_detected: u64,
    x_masked: u64,
}

impl FlowSums {
    fn merge(&mut self, o: &FlowSums) {
        self.flows += o.flows;
        self.latency_s += o.latency_s;
        self.stage_sum_s += o.stage_sum_s;
        self.stage_timing_s += o.stage_timing_s;
        self.stage_pattern_source_s += o.stage_pattern_source_s;
        self.stage_lint_s += o.stage_lint_s;
        self.stage_atpg_s += o.stage_atpg_s;
        self.podem_calls += o.podem_calls;
        self.podem_aborted += o.podem_aborted;
        self.podem_tests += o.podem_tests;
        self.decisions += o.decisions;
        self.backtracks += o.backtracks;
        self.lint_pruned += o.lint_pruned;
        self.lint_untestable += o.lint_untestable;
        self.kernel_detected += o.kernel_detected;
        self.x_masked += o.x_masked;
    }
}

/// Latency classes the per-op metrics are reported by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Ping,
    Health,
    Stats,
    Metrics,
    AnalyzeWarm,
    AnalyzeCold,
    Flow,
}

/// What one client recorded.
#[derive(Debug, Default)]
struct Log {
    attempted: u64,
    failed: u64,
    refused: u64,
    samples: Vec<(Class, f64)>,
    queue_ms: Vec<f64>,
    /// The flow reports' own `total_seconds`, in ms: server-side time
    /// the wire does not touch.
    report_ms: Vec<f64>,
    sums: FlowSums,
    errors: Vec<String>,
}

/// Reference answers shared by the clients: the first reply of each
/// flow kind and each hot design's analysis.
#[derive(Debug)]
struct Refs {
    flows: Vec<Option<FlowFacts>>,
    analyses: Vec<Option<u64>>,
}

fn num(v: &Json, path: &[&str]) -> f64 {
    let mut cur = Some(v);
    for key in path {
        cur = cur.and_then(|c| c.get(key));
    }
    cur.and_then(Json::as_f64).unwrap_or(0.0)
}

fn digest_between(text: &str, from: &str, to: &str) -> Option<u64> {
    let a = text.find(from)?;
    let b = a + text[a..].find(to)?;
    let mut h = Fnv64::new();
    h.write_str(&text[a..b]);
    Some(h.finish())
}

/// Sends `req` and checks the reply; records the sample and any
/// mismatch into `log`.
fn exchange(addr: SocketAddr, req: Req, refs: &Mutex<Refs>, log: &mut Log) {
    log.attempted += 1;
    let line = line(req);
    let t = Instant::now();
    let reply = match request(addr, &line) {
        Ok(r) => r,
        Err(e) => {
            log.failed += 1;
            log.errors.push(format!("{req:?}: transport: {e}"));
            return;
        }
    };
    let secs = t.elapsed().as_secs_f64();
    let v = match Json::parse(&reply) {
        Ok(v) => v,
        Err(e) => {
            log.failed += 1;
            log.errors.push(format!("{req:?}: unparsable reply: {e}"));
            return;
        }
    };
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        log.failed += 1;
        let code = v
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("?");
        if code == "overloaded" || code == "shutting-down" {
            log.refused += 1;
        }
        log.errors.push(format!("{req:?}: {reply}"));
        return;
    }
    let class = match req {
        Req::Ping => Class::Ping,
        Req::Health => Class::Health,
        Req::Stats => Class::Stats,
        Req::Metrics => Class::Metrics,
        Req::Warm(_) | Req::Fresh(_) => {
            if v.get("warm").and_then(Json::as_bool) == Some(true) {
                Class::AnalyzeWarm
            } else {
                Class::AnalyzeCold
            }
        }
        Req::Flow(_) => Class::Flow,
    };
    log.samples.push((class, secs * 1e3));
    let mismatch = match req {
        Req::Warm(i) => {
            let digest = digest_between(&reply, "\"analysis\":", "}");
            let mut r = refs.lock().expect("reference lock poisoned");
            match (r.analyses[i], digest) {
                (_, None) => Some("analysis missing".to_owned()),
                (None, Some(d)) => {
                    r.analyses[i] = Some(d);
                    None
                }
                (Some(a), Some(d)) => (a != d).then(|| "analysis changed".to_owned()),
            }
        }
        Req::Fresh(_) => {
            (num(&v, &["analysis", "cells"]) <= 0.0).then(|| "empty analysis".to_owned())
        }
        Req::Flow(k) => flow_reply(&reply, &v, secs, log)
            .and_then(|facts| {
                let mut r = refs.lock().expect("reference lock poisoned");
                match r.flows[k] {
                    None => {
                        r.flows[k] = Some(facts);
                        Ok(())
                    }
                    Some(f) if f == facts => Ok(()),
                    Some(f) => Err(format!("repeated differently: {f:?} vs {facts:?}")),
                }
            })
            .err(),
        Req::Ping | Req::Health | Req::Stats | Req::Metrics => None,
    };
    if let Some(why) = mismatch {
        log.failed += 1;
        log.errors.push(format!("{req:?}: {why}"));
    }
}

/// Reads a flow reply into the per-layer sums and returns its facts.
fn flow_reply(reply: &str, v: &Json, secs: f64, log: &mut Log) -> Result<FlowFacts, String> {
    let report = v.get("report").ok_or("flow reply without a report")?;
    // Everything the report holds before its stage timings is
    // deterministic for a given job.
    let digest =
        digest_between(reply, "\"report\":", ",\"stages\":").ok_or("report without stages")?;
    let total_s = num(report, &["total_seconds"]);
    log.queue_ms.push((secs - total_s) * 1e3);
    log.report_ms.push(total_s * 1e3);
    let s = &mut log.sums;
    s.flows += 1;
    s.latency_s += secs;
    s.stage_sum_s += total_s;
    for st in report.get("stages").and_then(Json::as_array).unwrap_or(&[]) {
        let seconds = num(st, &["seconds"]);
        match st.get("stage").and_then(Json::as_str) {
            Some("timing") => s.stage_timing_s += seconds,
            Some("pattern-source") => s.stage_pattern_source_s += seconds,
            Some("lint") => s.stage_lint_s += seconds,
            Some("atpg") => s.stage_atpg_s += seconds,
            _ => {}
        }
    }
    let count = |path: &[&str]| num(report, path) as u64;
    s.podem_calls += count(&["stats", "podem_calls"]);
    s.podem_aborted += count(&["stats", "aborted_calls"]);
    s.podem_tests += count(&["stats", "tests_found"]);
    s.lint_pruned += count(&["stats", "lint_pruned"]);
    s.decisions += count(&["atpg_kernel", "decisions"]);
    s.backtracks += count(&["atpg_kernel", "backtracks"]);
    s.lint_untestable += count(&["lint", "untestable"]);
    if report
        .get("pattern_source")
        .and_then(|p| p.get("source"))
        .and_then(Json::as_str)
        == Some("lbist")
    {
        s.kernel_detected += count(&["pattern_source", "kernel_detected"]);
        s.x_masked += count(&["pattern_source", "x_masked"]);
    }
    Ok(FlowFacts {
        digest,
        coverage: num(report, &["coverage_pct"]),
        efficiency: num(report, &["efficiency_pct"]),
        patterns: count(&["patterns"]),
        sdql: num(report, &["delay_quality", "sdql"]),
    })
}

/// Artifact-cache counters summed over artifact kinds, from a `stats`
/// reply.
#[derive(Debug, Clone, Copy)]
struct CacheCounters {
    hits: f64,
    misses: f64,
    evictions: f64,
    resident_bytes: f64,
}

fn cache_counters(addr: SocketAddr) -> Result<CacheCounters, String> {
    let reply = request(addr, r#"{"op":"stats"}"#).map_err(|e| e.to_string())?;
    let v = Json::parse(&reply).map_err(|e| e.to_string())?;
    let mut c = CacheCounters {
        hits: 0.0,
        misses: 0.0,
        evictions: 0.0,
        resident_bytes: num(&v, &["cache", "bytes"]),
    };
    for kind in ["design", "procedures", "delays"] {
        c.hits += num(&v, &["cache", kind, "hits"]);
        c.misses += num(&v, &["cache", kind, "misses"]);
        c.evictions += num(&v, &["cache", kind, "evictions"]);
    }
    Ok(c)
}

/// The flow kind each hot design's cold set-up job runs: design `d`
/// on row `d mod rows` with source `d mod sources`.
fn cold_kind(d: usize) -> usize {
    (d * ROWS + d % ROWS) * SOURCES.len() + d % SOURCES.len()
}

/// Starts a daemon and runs each hot design's first flow job cold over
/// the wire: generating and compiling the design, the procedures and
/// the delay tables. The replies seed (or must reproduce) `refs`.
fn start(refs: &Mutex<Refs>) -> Result<ServerHandle, String> {
    let handle = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: WORKERS,
        cache_budget: CACHE_BUDGET,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let mut log = Log::default();
    for d in 0..HOT {
        exchange(handle.addr(), Req::Flow(cold_kind(d)), refs, &mut log);
    }
    match log.errors.first() {
        None => Ok(handle),
        Some(e) => Err(format!("set-up: {e}")),
    }
}

/// Runs the daemon workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };

    let refs = Mutex::new(Refs {
        flows: vec![None; FLOW_KINDS],
        analyses: vec![None; HOT],
    });
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut running: Option<ServerHandle> = None;
    for _ in 0..SETUP_REPS {
        // Shut the previous daemon down before timing the next start.
        if let Some(mut handle) = running.take() {
            handle.shutdown();
        }
        let t = Instant::now();
        match start(&refs) {
            Ok(h) => running = Some(h),
            Err(e) => {
                out.fail(e);
                return out;
            }
        }
        setup.push(t.elapsed().as_secs_f64());
    }
    let mut handle = running.expect("at least one set-up repetition");
    let addr = handle.addr();

    let cache0 = match cache_counters(addr) {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("stats: {e}"));
            return out;
        }
    };
    let budget = Duration::from_secs_f64(seconds);
    alloc::reset_peak();
    let t0 = Instant::now();
    let logs: Vec<Log> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let refs = &refs;
                s.spawn(move || {
                    let mut mix = Mix::new(seed, c);
                    let mut log = Log::default();
                    while t0.elapsed() < budget {
                        exchange(addr, mix.draw(), refs, &mut log);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let peak = alloc::peak_bytes();

    let mut all = Log::default();
    for log in logs {
        all.attempted += log.attempted;
        all.failed += log.failed;
        all.refused += log.refused;
        all.samples.extend(log.samples);
        all.queue_ms.extend(log.queue_ms);
        all.report_ms.extend(log.report_ms);
        all.sums.merge(&log.sums);
        all.errors.extend(log.errors);
    }
    out.attempted = all.attempted;
    out.failed = all.failed;
    for e in all.errors.iter().take(5) {
        out.fail(e.clone());
    }
    if all.failed > 0 {
        out.fail(format!(
            "{} of {} requests failed",
            all.failed, all.attempted
        ));
    }

    let cache1 = cache_counters(addr).unwrap_or_else(|e| {
        out.fail(format!("stats: {e}"));
        cache0
    });
    // Quality covers every flow kind: kinds the timed phase did not
    // draw run now, outside the timing.
    let mut extra = Log::default();
    for k in 0..FLOW_KINDS {
        let missing = refs.lock().expect("reference lock poisoned").flows[k].is_none();
        if missing {
            exchange(addr, Req::Flow(k), &refs, &mut extra);
        }
    }
    for e in extra.errors {
        out.fail(e);
    }
    handle.shutdown();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        match start(&refs) {
            Ok(mut h) => {
                setup.push(t.elapsed().as_secs_f64());
                h.shutdown();
            }
            Err(e) => out.fail(e),
        }
    }
    out.notes.push(format!(
        "set-up: median {:.3} s of {:.3?}",
        median(&setup),
        setup
    ));
    out.set("setup_s", median(&setup));

    let lat: Vec<f64> = all.samples.iter().map(|&(_, ms)| ms).collect();
    let dist = Dist::of(&lat);
    out.notes.push(format!(
        "{} requests by {CLIENTS} closed-loop clients; latency p50 {:.3} ms, tail p{:.2} {:.2} ms",
        dist.n,
        dist.p50,
        dist.tail_pct,
        dist.tail.unwrap_or(f64::NAN)
    ));
    out.set("req_per_s", dist.n as f64 / elapsed);
    out.set("req_latency_ms_p50", dist.p50);
    out.set("req_latency_ms_tail", dist.tail.unwrap_or(f64::NAN));
    out.set("peak_heap_mb", peak as f64 / (1 << 20) as f64);
    quality(
        &mut out,
        &refs.into_inner().expect("reference lock poisoned"),
    );

    if trace {
        set_traced(&mut out, seed, &all, cache0, cache1);
    }
    out
}

/// Quality metrics over every flow kind's reply: mean coverage and
/// efficiency, total patterns and SDQL, and per hot design and source
/// the quality inversion (external clock wins coverage over simple CPF,
/// enhanced CPF wins SDQL over the external clock).
fn quality(out: &mut Outcome, refs: &Refs) {
    let facts: Vec<FlowFacts> = refs.flows.iter().flatten().copied().collect();
    if facts.len() != FLOW_KINDS {
        out.fail(format!(
            "{} of {FLOW_KINDS} flow kinds answered",
            facts.len()
        ));
        return;
    }
    let n = facts.len() as f64;
    out.set(
        "test_coverage_pct",
        facts.iter().map(|f| f.coverage).sum::<f64>() / n,
    );
    out.set(
        "fault_efficiency_pct",
        facts.iter().map(|f| f.efficiency).sum::<f64>() / n,
    );
    out.set(
        "pattern_count",
        facts.iter().map(|f| f.patterns as f64).sum(),
    );
    out.set("sdql_sum", facts.iter().map(|f| f.sdql).sum());
    let mut ok = 0;
    for d in 0..HOT {
        for (s, source) in SOURCES.iter().enumerate() {
            // Rows in MATRIX_MODES order: (b), (c), (d), (e).
            let at = |row: usize| facts[(d * ROWS + row) * SOURCES.len() + s];
            let (b, c, dd) = (at(0), at(1), at(2));
            let checks = [b.coverage > c.coverage, dd.sdql < b.sdql];
            ok += checks.iter().filter(|&&x| x).count();
            out.notes.push(format!(
                "hot design {d} [{source}] TC (b) {:.2}% > (c) {:.2}%: {}; SDQL (d) {:.3} < (b) {:.3}: {}",
                b.coverage, c.coverage, checks[0], dd.sdql, b.sdql, checks[1]
            ));
        }
    }
    out.set("shape_checks_ok", ok as f64);
}

fn set_traced(out: &mut Outcome, seed: u64, all: &Log, c0: CacheCounters, c1: CacheCounters) {
    let p50 = |class: Class| {
        let v: Vec<f64> = all
            .samples
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|&(_, ms)| ms)
            .collect();
        median(&v)
    };
    out.set("server.op.ping_ms_p50", p50(Class::Ping));
    out.set("server.op.analyze_warm_ms_p50", p50(Class::AnalyzeWarm));
    out.set("server.op.analyze_cold_ms_p50", p50(Class::AnalyzeCold));
    out.set("server.op.flow_ms_p50", p50(Class::Flow));
    out.set("server.op.metrics_ms_p50", p50(Class::Metrics));
    out.set("server.queue_wait_ms_p50", median(&all.queue_ms));
    out.set("server.flow_report_ms_p50", median(&all.report_ms));
    let (hits, misses) = (c1.hits - c0.hits, c1.misses - c0.misses);
    out.set("server.cache.hit_frac", hits / (hits + misses).max(1.0));
    out.set("server.cache.evictions", c1.evictions - c0.evictions);
    out.set(
        "server.cache.resident_mb",
        c1.resident_bytes / (1 << 20) as f64,
    );
    out.set("server.refused", all.refused as f64);

    // The flow replies' own counters and stage times, per flow job.
    let s = &all.sums;
    let n = s.flows.max(1) as f64;
    let per = |x: f64| x / n;
    out.set("atpg.podem.calls", per(s.podem_calls as f64));
    out.set("atpg.podem.aborted", per(s.podem_aborted as f64));
    out.set(
        "atpg.podem.useful_frac",
        s.podem_tests as f64 / s.podem_calls.max(1) as f64,
    );
    out.set("atpg.decisions", per(s.decisions as f64));
    out.set("atpg.backtracks", per(s.backtracks as f64));
    out.set("atpg.lint_pruned", per(s.lint_pruned as f64));
    out.set("lint.untestable", per(s.lint_untestable as f64));
    out.set("bist.kernel_detected", per(s.kernel_detected as f64));
    out.set("bist.x_masked", per(s.x_masked as f64));
    out.set("flow.stage.timing_s", per(s.stage_timing_s));
    out.set("flow.stage.pattern_source_s", per(s.stage_pattern_source_s));
    out.set("flow.stage.lint_s", per(s.stage_lint_s));
    out.set("flow.stage.atpg_s", per(s.stage_atpg_s));
    out.set("flow.overhead_s", per(s.latency_s - s.stage_sum_s));
    out.set(
        "trace.unattributed_frac",
        (s.latency_s - s.stage_sum_s) / s.latency_s.max(f64::MIN_POSITIVE),
    );
    // No probe sits on the request path here: the per-layer view comes
    // from replies the untraced run receives too.
    out.set("trace.overhead_frac", 0.0);
    // Probes that need the composed pipeline have no daemon equivalent.
    for name in [
        "atpg.run_s",
        "atpg.self_s",
        "atpg.podem.busy_s",
        "atpg.podem.aborted_busy_s",
        "atpg.alloc_bytes",
        "atpg.classify_s",
        "fsim.calls",
        "fsim.busy_s",
        "fsim.pattern_faults",
        "fsim.bulk_busy_s",
        "fsim.compaction_busy_s",
        "fsim.model_build_s",
        "bist.run_lbist_s",
        "lint.run_s",
    ] {
        out.set(name, 0.0);
    }

    // SOC generation of the designs the mix writes and reads, timed
    // in-process: the cost a cold analyze pays before compiling.
    let mut mix = Mix::new(seed, 0);
    let fresh: Vec<u64> = std::iter::from_fn(|| Some(mix.draw()))
        .filter_map(|r| match r {
            Req::Fresh(s) => Some(s),
            _ => None,
        })
        .take(HOT)
        .collect();
    let mut times = Vec::new();
    for config in HOT_SEEDS
        .iter()
        .map(|&s| SocConfig::paper_like(s, HOT_FLOPS))
        .chain(fresh.iter().map(|&s| SocConfig::paper_like(s, FRESH_FLOPS)))
    {
        for _ in 0..3 {
            let t = Instant::now();
            let soc = generate(&config);
            times.push(t.elapsed().as_secs_f64());
            drop(soc);
        }
    }
    out.set("soc.generate_s", median(&times));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_list_is_a_function_of_the_seed() {
        let a = requests(11, 0, 500);
        assert_eq!(a, requests(11, 0, 500));
        assert_ne!(a, requests(12, 0, 500));
        assert_ne!(a, requests(11, 1, 500), "clients draw different streams");
        let lines = |reqs: &[Req]| reqs.iter().map(|&r| line(r)).collect::<Vec<_>>();
        assert_eq!(lines(&a), lines(&requests(11, 0, 500)));
        assert_ne!(lines(&a), lines(&requests(12, 0, 500)));
    }

    #[test]
    fn every_block_of_twenty_holds_the_mix() {
        let reqs = requests(3, 0, 20 * 50);
        for block in reqs.chunks(BLOCK.len()) {
            let count = |f: fn(&Req) -> bool| block.iter().filter(|r| f(r)).count();
            assert_eq!(count(|r| matches!(r, Req::Flow(_))), 6);
            assert_eq!(count(|r| matches!(r, Req::Warm(_))), 7);
            assert_eq!(count(|r| matches!(r, Req::Fresh(_))), 3);
            assert_eq!(count(|r| matches!(r, Req::Ping)), 1);
            assert_eq!(count(|r| matches!(r, Req::Metrics)), 1);
        }
        // The first deck of flow kinds deals each kind exactly once.
        let mut kinds: Vec<usize> = reqs
            .iter()
            .filter_map(|r| match r {
                Req::Flow(k) => Some(*k),
                _ => None,
            })
            .take(FLOW_KINDS)
            .collect();
        kinds.sort_unstable();
        assert_eq!(kinds, (0..FLOW_KINDS).collect::<Vec<_>>());
    }

    #[test]
    fn request_lines_parse_on_the_server() {
        for req in [
            Req::Ping,
            Req::Health,
            Req::Stats,
            Req::Metrics,
            Req::Warm(1),
            Req::Fresh(1 << 41),
        ]
        .into_iter()
        .chain((0..FLOW_KINDS).map(Req::Flow))
        {
            occ_server::parse_request(&line(req)).unwrap_or_else(|e| panic!("{req:?}: {e:?}"));
        }
    }
}
