//! The per-layer bench gate table and its verdict logic.
//!
//! The table test pins every gate to the values the five gate binaries
//! enforced as hand-written constants before they shared one harness
//! (tolerance 0.20, allocation caps 4.0 and 1.0, warm floor 2.0,
//! availability 0.999, degraded-ok 0.75, overhead ceiling 5.0,
//! compression floor 4.0, ratio tolerance 0.10, coverage tolerance
//! 0.5 points): loosening a gate has to show up as an edit here.

use occ_bench::gate::{evaluate, lookup, Bound, Cli, Gate, Status, GATES};
use occ_server::Json;
use std::path::{Path, PathBuf};

type Row = (
    &'static str,
    &'static str,
    Bound,
    Option<&'static str>,
    &'static [&'static str],
    bool,
);

const EXPECTED: &[Row] = &[
    (
        "fsim_bench",
        "speedup_kernel_vs_reference",
        Bound::RelativeFloor(0.20),
        Some("FSIM_BENCH_SKIP_CHECK"),
        &["faults"],
        false,
    ),
    (
        "fsim_bench",
        "engines[engine=kernel].faults_per_sec",
        Bound::RelativeFloor(0.20),
        Some("FSIM_BENCH_SKIP_CHECK"),
        &["faults"],
        true,
    ),
    (
        "atpg_bench",
        "allocs_per_decision",
        Bound::Ceiling(4.0),
        None,
        &[],
        false,
    ),
    (
        "atpg_bench",
        "speedup_compiled_vs_reference",
        Bound::RelativeFloor(0.20),
        Some("ATPG_BENCH_SKIP_CHECK"),
        &["faults"],
        false,
    ),
    (
        "timing_bench",
        "timed_detect.allocs_per_fault",
        Bound::Ceiling(1.0),
        None,
        &[],
        false,
    ),
    (
        "timing_bench",
        "speedup_compiled_vs_reference",
        Bound::RelativeFloor(0.20),
        Some("TIMING_BENCH_SKIP_CHECK"),
        &["cells"],
        false,
    ),
    (
        "server_bench",
        "degraded.availability",
        Bound::Floor(0.999),
        None,
        &[],
        false,
    ),
    (
        "server_bench",
        "degraded.ok_fraction",
        Bound::Floor(0.75),
        None,
        &[],
        false,
    ),
    (
        "server_bench",
        "obs_overhead.gate_overhead_pct",
        Bound::Ceiling(5.0),
        None,
        &[],
        false,
    ),
    (
        "server_bench",
        "warm_over_cold",
        Bound::Floor(2.0),
        Some("SERVER_BENCH_SKIP_CHECK"),
        &[],
        false,
    ),
    (
        "server_bench",
        "warm_over_cold",
        Bound::RelativeFloor(0.20),
        Some("SERVER_BENCH_SKIP_CHECK"),
        &["flops_per_domain", "clients", "designs"],
        false,
    ),
    (
        "bist_bench",
        "edt.compression_ratio",
        Bound::Floor(4.0),
        Some("BIST_BENCH_SKIP_CHECK"),
        &[],
        false,
    ),
    (
        "bist_bench",
        "lbist.coverage_pct_10k",
        Bound::AtLeast("lbist.coverage_pct_1k"),
        Some("BIST_BENCH_SKIP_CHECK"),
        &[],
        false,
    ),
    (
        "bist_bench",
        "edt.compression_ratio",
        Bound::RelativeFloor(0.10),
        Some("BIST_BENCH_SKIP_CHECK"),
        &["flops_per_domain"],
        false,
    ),
    (
        "bist_bench",
        "lbist.coverage_pct_1k",
        Bound::PointsFloor(0.5),
        Some("BIST_BENCH_SKIP_CHECK"),
        &["flops_per_domain"],
        false,
    ),
    (
        "bist_bench",
        "lbist.coverage_pct_10k",
        Bound::PointsFloor(0.5),
        Some("BIST_BENCH_SKIP_CHECK"),
        &["flops_per_domain"],
        false,
    ),
];

#[test]
fn gate_table_matches_the_pre_refactor_constants() {
    let actual: Vec<Row> = GATES
        .iter()
        .map(|g| (g.bench, g.key, g.bound, g.skip, g.config, g.advisory))
        .collect();
    assert_eq!(actual, EXPECTED);
}

fn committed_baseline(bench: &str) -> Json {
    let layer = bench.trim_end_matches("_bench");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{layer}.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

#[test]
fn every_gate_key_resolves_to_a_number_in_the_committed_baselines() {
    for gate in GATES {
        let baseline = committed_baseline(gate.bench);
        let mut keys = vec![gate.key];
        keys.extend(gate.config);
        if let Bound::AtLeast(other) = gate.bound {
            keys.push(other);
        }
        for key in keys {
            assert!(
                lookup(&baseline, key).and_then(Json::as_f64).is_some(),
                "{}: {key} is not a number in its committed baseline",
                gate.bench
            );
        }
    }
}

#[test]
fn the_committed_baselines_pass_their_own_gates() {
    for bench in [
        "fsim_bench",
        "atpg_bench",
        "timing_bench",
        "server_bench",
        "bist_bench",
    ] {
        let layer = bench.trim_end_matches("_bench");
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{layer}.json"));
        let rows = GATES.iter().filter(|g| g.bench == bench);
        let verdicts = evaluate(rows, &committed_baseline(bench), Some(&path), |_| false);
        assert!(!verdicts.is_empty(), "{bench} has no gates");
        for v in verdicts {
            assert_eq!(
                v.status,
                Status::Pass,
                "{bench} {}: {}",
                v.gate.key,
                v.message
            );
        }
    }
}

const RATIO: Gate = Gate {
    bench: "test_bench",
    key: "run.ratio",
    bound: Bound::RelativeFloor(0.20),
    skip: Some("TEST_BENCH_SKIP_CHECK"),
    config: &["size"],
    advisory: false,
};

const CAP: Gate = Gate {
    bench: "test_bench",
    key: "allocs",
    bound: Bound::Ceiling(1.0),
    skip: None,
    config: &[],
    advisory: false,
};

/// A baseline file unique to this test process and case.
fn baseline_file(case: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("occ-gate-{}-{case}.json", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

fn fresh(ratio: f64, size: u64, allocs: f64) -> Json {
    Json::obj([
        ("size", size.into()),
        ("run", Json::obj([("ratio", ratio.into())])),
        ("allocs", allocs.into()),
    ])
}

fn statuses(
    gates: &[Gate],
    fresh: &Json,
    baseline: Option<&Path>,
    skip: impl Fn(&str) -> bool,
) -> Vec<Status> {
    evaluate(gates, fresh, baseline, skip)
        .into_iter()
        .map(|v| v.status)
        .collect()
}

const BASELINE: &str = r#"{"size":7,"run":{"ratio":10.0},"allocs":0.5}"#;

#[test]
fn verdict_pass_and_fail() {
    let base = baseline_file("pass-fail", BASELINE);
    let never = |_: &str| false;
    // Floor is 10 × (1 − 0.2) = 8.
    assert_eq!(
        statuses(&[RATIO, CAP], &fresh(8.0, 7, 1.0), Some(&base), never),
        [Status::Pass, Status::Pass]
    );
    assert_eq!(
        statuses(&[RATIO, CAP], &fresh(7.9, 7, 1.5), Some(&base), never),
        [Status::Fail, Status::Fail]
    );
    // An advisory row notes its miss instead of failing.
    let advisory = Gate {
        advisory: true,
        ..RATIO
    };
    assert_eq!(
        statuses(&[advisory], &fresh(7.9, 7, 0.0), Some(&base), never),
        [Status::Note]
    );
    // Without --check only the constant rows run.
    assert_eq!(
        statuses(&[RATIO, CAP], &fresh(1.0, 7, 0.0), None, never),
        [Status::Pass]
    );
    let _ = std::fs::remove_file(base);
}

#[test]
fn verdict_skip_variable_bypasses_only_its_rows() {
    let base = baseline_file("skip", BASELINE);
    let set = |var: &str| var == "TEST_BENCH_SKIP_CHECK";
    assert_eq!(
        statuses(&[RATIO, CAP], &fresh(1.0, 7, 2.0), Some(&base), set),
        [Status::Skipped, Status::Fail]
    );
    // A skipped baseline row never reads the baseline.
    let missing = Path::new("/nonexistent/occ-gate-baseline.json");
    assert_eq!(
        statuses(&[RATIO], &fresh(1.0, 7, 0.0), Some(missing), set),
        [Status::Skipped]
    );
    let _ = std::fs::remove_file(base);
}

#[test]
fn verdict_config_mismatch_skips_baseline_rows() {
    let base = baseline_file("config", BASELINE);
    assert_eq!(
        statuses(&[RATIO, CAP], &fresh(1.0, 8, 0.0), Some(&base), |_| false),
        [Status::Skipped, Status::Pass]
    );
    // A config key the baseline lacks is no mismatch.
    let bare = baseline_file("config-bare", r#"{"run":{"ratio":10.0}}"#);
    assert_eq!(
        statuses(&[RATIO], &fresh(1.0, 8, 0.0), Some(&bare), |_| false),
        [Status::Fail]
    );
    let _ = std::fs::remove_file(base);
    let _ = std::fs::remove_file(bare);
}

#[test]
fn verdict_missing_key_fails() {
    let base = baseline_file("missing-key", r#"{"size":7,"run":{}}"#);
    assert_eq!(
        statuses(&[RATIO], &fresh(9.0, 7, 0.0), Some(&base), |_| false),
        [Status::Fail]
    );
    let no_allocs = Json::obj([("size", 7u64.into())]);
    assert_eq!(
        statuses(&[CAP], &no_allocs, None, |_| false),
        [Status::Fail]
    );
    let _ = std::fs::remove_file(base);
}

#[test]
fn verdict_missing_or_broken_baseline_file_fails() {
    let missing = Path::new("/nonexistent/occ-gate-baseline.json");
    assert_eq!(
        statuses(&[RATIO, CAP], &fresh(9.0, 7, 0.0), Some(missing), |_| false),
        [Status::Fail, Status::Pass]
    );
    let broken = baseline_file("broken", "{\"size\":");
    assert_eq!(
        statuses(&[RATIO], &fresh(9.0, 7, 0.0), Some(&broken), |_| false),
        [Status::Fail]
    );
    let _ = std::fs::remove_file(broken);
}

#[test]
fn at_least_bound_compares_two_fresh_keys() {
    let growth = Gate {
        key: "b",
        bound: Bound::AtLeast("a"),
        ..CAP
    };
    let doc = |a: f64, b: f64| Json::obj([("a", a.into()), ("b", b.into())]);
    assert_eq!(
        statuses(&[growth], &doc(1.0, 1.0), None, |_| false),
        [Status::Pass]
    );
    assert_eq!(
        statuses(&[growth], &doc(1.0, 0.9), None, |_| false),
        [Status::Fail]
    );
}

#[test]
fn lookup_follows_dotted_paths_and_array_selectors() {
    let doc = Json::parse(
        r#"{"faults":9,"engines":[{"engine":"reference","faults_per_sec":1},
            {"engine":"kernel","faults_per_sec":5}],"faults_per_sec":2}"#,
    )
    .unwrap();
    let num = |path| lookup(&doc, path).and_then(Json::as_f64);
    assert_eq!(num("engines[engine=kernel].faults_per_sec"), Some(5.0));
    assert_eq!(num("engines[engine=reference].faults_per_sec"), Some(1.0));
    assert_eq!(num("faults_per_sec"), Some(2.0));
    assert_eq!(num("engines[engine=sharded].faults_per_sec"), None);
    assert_eq!(num("faults.x"), None);
}

#[test]
fn cli_accepts_only_out_and_check() {
    let args = |a: &[&str]| a.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
    assert_eq!(
        Cli::parse("atpg_bench", args(&[])),
        Ok(Cli {
            out: "BENCH_atpg.json".to_owned(),
            check: None
        })
    );
    assert_eq!(
        Cli::parse(
            "fsim_bench",
            args(&["--check", "BENCH_fsim.json", "--out", "target/x.json"])
        ),
        Ok(Cli {
            out: "target/x.json".to_owned(),
            check: Some("BENCH_fsim.json".to_owned())
        })
    );
    for removed in [
        "--flops",
        "--patterns",
        "--threads",
        "--reps",
        "--faults",
        "--limit",
    ] {
        assert!(
            Cli::parse("fsim_bench", args(&[removed, "8"])).is_err(),
            "{removed}"
        );
    }
    assert!(Cli::parse("bist_bench", args(&["--out"])).is_err());
}
