//! The one harness behind the per-layer bench gates: `fsim_bench`,
//! `atpg_bench`, `timing_bench`, `server_bench` and `bist_bench`.
//!
//! Each binary measures its layer, runs its correctness cross-checks,
//! builds its result as one [`Json`] document and hands it to
//! [`finish`]. That writes the document to `--out` and evaluates the
//! binary's rows of [`GATES`]: constant bounds on every run, baseline
//! bounds against the committed `BENCH_*.json` named by `--check`.
//!
//! ```text
//! <bench> [--out PATH] [--check BASELINE.json]
//! ```
//!
//! A gate's skip variable, when set to a non-empty value, bypasses
//! that gate (for cold or heavily shared machines); gates without one
//! always run. A baseline produced with a different configuration
//! (any of the row's config keys differs) skips the baseline bounds —
//! regenerate the baseline instead of comparing unlike runs.

use occ_server::Json;
use std::path::Path;
use std::process::ExitCode;

/// How a gate bounds its fresh value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Fresh ≥ baseline × (1 − tolerance).
    RelativeFloor(f64),
    /// Fresh ≥ baseline − tolerance (absolute points).
    PointsFloor(f64),
    /// Fresh ≥ the constant.
    Floor(f64),
    /// Fresh ≤ the constant.
    Ceiling(f64),
    /// Fresh ≥ the fresh value at another key path.
    AtLeast(&'static str),
}

impl Bound {
    fn needs_baseline(self) -> bool {
        matches!(self, Bound::RelativeFloor(_) | Bound::PointsFloor(_))
    }
}

/// One row of the gate table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// The binary the row belongs to.
    pub bench: &'static str,
    /// Key path of the gated value, in the fresh output and the
    /// baseline (see [`lookup`]).
    pub key: &'static str,
    /// The bound the value must meet.
    pub bound: Bound,
    /// Environment variable that bypasses the row; `None` = always on.
    pub skip: Option<&'static str>,
    /// Key paths whose baseline value must equal the fresh one for a
    /// baseline bound to apply.
    pub config: &'static [&'static str],
    /// A miss prints a note instead of failing the run.
    pub advisory: bool,
}

const FSIM_SKIP: Option<&str> = Some("FSIM_BENCH_SKIP_CHECK");
const ATPG_SKIP: Option<&str> = Some("ATPG_BENCH_SKIP_CHECK");
const TIMING_SKIP: Option<&str> = Some("TIMING_BENCH_SKIP_CHECK");
const SERVER_SKIP: Option<&str> = Some("SERVER_BENCH_SKIP_CHECK");
const BIST_SKIP: Option<&str> = Some("BIST_BENCH_SKIP_CHECK");

/// Every per-layer gate. Speedup ratios race a compiled engine against
/// its retained reference on the same machine, so they cancel machine
/// speed; quality numbers are seed-determined, so a drop is never
/// machine noise; allocation, availability and overhead bounds hold on
/// any hardware.
pub const GATES: &[Gate] = &[
    Gate {
        bench: "fsim_bench",
        key: "speedup_kernel_vs_reference",
        bound: Bound::RelativeFloor(0.20),
        skip: FSIM_SKIP,
        config: &["faults"],
        advisory: false,
    },
    // Missing the absolute floor while the ratio holds means slower
    // hardware, not a kernel regression.
    Gate {
        bench: "fsim_bench",
        key: "engines[engine=kernel].faults_per_sec",
        bound: Bound::RelativeFloor(0.20),
        skip: FSIM_SKIP,
        config: &["faults"],
        advisory: true,
    },
    Gate {
        bench: "atpg_bench",
        key: "allocs_per_decision",
        bound: Bound::Ceiling(4.0),
        skip: None,
        config: &[],
        advisory: false,
    },
    Gate {
        bench: "atpg_bench",
        key: "speedup_compiled_vs_reference",
        bound: Bound::RelativeFloor(0.20),
        skip: ATPG_SKIP,
        config: &["faults"],
        advisory: false,
    },
    Gate {
        bench: "timing_bench",
        key: "timed_detect.allocs_per_fault",
        bound: Bound::Ceiling(1.0),
        skip: None,
        config: &[],
        advisory: false,
    },
    Gate {
        bench: "timing_bench",
        key: "speedup_compiled_vs_reference",
        bound: Bound::RelativeFloor(0.20),
        skip: TIMING_SKIP,
        config: &["cells"],
        advisory: false,
    },
    Gate {
        bench: "server_bench",
        key: "degraded.availability",
        bound: Bound::Floor(0.999),
        skip: None,
        config: &[],
        advisory: false,
    },
    Gate {
        bench: "server_bench",
        key: "degraded.ok_fraction",
        bound: Bound::Floor(0.75),
        skip: None,
        config: &[],
        advisory: false,
    },
    // Read at the lower quartile of the traced/untraced quad ratios: a
    // recorder regression shifts the whole distribution, a host-load
    // episode only its upper tail.
    Gate {
        bench: "server_bench",
        key: "obs_overhead.gate_overhead_pct",
        bound: Bound::Ceiling(5.0),
        skip: None,
        config: &[],
        advisory: false,
    },
    Gate {
        bench: "server_bench",
        key: "warm_over_cold",
        bound: Bound::Floor(2.0),
        skip: SERVER_SKIP,
        config: &[],
        advisory: false,
    },
    Gate {
        bench: "server_bench",
        key: "warm_over_cold",
        bound: Bound::RelativeFloor(0.20),
        skip: SERVER_SKIP,
        config: &["flops_per_domain", "clients", "designs"],
        advisory: false,
    },
    Gate {
        bench: "bist_bench",
        key: "edt.compression_ratio",
        bound: Bound::Floor(4.0),
        skip: BIST_SKIP,
        config: &[],
        advisory: false,
    },
    // The 10k pseudo-random sequence extends the 1k one, so it can
    // never lose a detection.
    Gate {
        bench: "bist_bench",
        key: "lbist.coverage_pct_10k",
        bound: Bound::AtLeast("lbist.coverage_pct_1k"),
        skip: BIST_SKIP,
        config: &[],
        advisory: false,
    },
    Gate {
        bench: "bist_bench",
        key: "edt.compression_ratio",
        bound: Bound::RelativeFloor(0.10),
        skip: BIST_SKIP,
        config: &["flops_per_domain"],
        advisory: false,
    },
    Gate {
        bench: "bist_bench",
        key: "lbist.coverage_pct_1k",
        bound: Bound::PointsFloor(0.5),
        skip: BIST_SKIP,
        config: &["flops_per_domain"],
        advisory: false,
    },
    Gate {
        bench: "bist_bench",
        key: "lbist.coverage_pct_10k",
        bound: Bound::PointsFloor(0.5),
        skip: BIST_SKIP,
        config: &["flops_per_domain"],
        advisory: false,
    },
];

/// The command line every gate binary accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// Where the fresh result is written (`BENCH_<layer>.json` by default).
    pub out: String,
    /// The committed baseline to compare against, if any.
    pub check: Option<String>,
}

impl Cli {
    /// Parses `args` (without the program name) for `bench`.
    ///
    /// # Errors
    ///
    /// Any flag other than `--out PATH` / `--check BASELINE`, or a
    /// flag without its value.
    pub fn parse(bench: &str, args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let layer = bench.trim_end_matches("_bench");
        let mut cli = Cli {
            out: format!("BENCH_{layer}.json"),
            check: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let slot = match arg.as_str() {
                "--out" => &mut cli.out,
                "--check" => cli.check.insert(String::new()),
                other => {
                    let usage = "[--out PATH] [--check BASELINE.json]";
                    return Err(format!("unknown flag '{other}' (usage: {bench} {usage})"));
                }
            };
            *slot = args
                .next()
                .ok_or_else(|| format!("{arg} expects a value"))?;
        }
        Ok(cli)
    }

    /// Parses the process arguments, printing the error on failure.
    #[must_use]
    pub fn from_env(bench: &str) -> Option<Cli> {
        Cli::parse(bench, std::env::args().skip(1))
            .map_err(|e| eprintln!("{bench}: {e}"))
            .ok()
    }
}

/// Looks up a dotted key path. A segment `name[field=value]` picks the
/// element of array `name` whose string member `field` is `value`.
#[must_use]
pub fn lookup<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(doc, |cur, segment| {
        let Some((name, select)) = segment.strip_suffix(']').and_then(|s| s.split_once('[')) else {
            return cur.get(segment);
        };
        let (field, value) = select.split_once('=')?;
        cur.get(name)?
            .as_array()?
            .iter()
            .find(|item| item.get(field).and_then(Json::as_str) == Some(value))
    })
}

fn number(doc: &Json, path: &str) -> Option<f64> {
    lookup(doc, path).and_then(Json::as_f64)
}

/// The outcome of one gate row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The bound held.
    Pass,
    /// An advisory bound missed.
    Note,
    /// Bypassed by its skip variable or a config mismatch.
    Skipped,
    /// The bound missed, or its inputs were unreadable.
    Fail,
}

/// One row's outcome with its explanation.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict<'g> {
    /// The row.
    pub gate: &'g Gate,
    /// The outcome.
    pub status: Status,
    /// A one-line account of the comparison.
    pub message: String,
}

/// Evaluates `gates` against the `fresh` output and, for baseline
/// bounds, the baseline file at `baseline` (baseline rows are not
/// evaluated without one). `skip_set` says whether a skip variable is
/// set; the baseline is read only if some baseline row is not skipped.
pub fn evaluate<'g>(
    gates: impl IntoIterator<Item = &'g Gate>,
    fresh: &Json,
    baseline: Option<&Path>,
    skip_set: impl Fn(&str) -> bool,
) -> Vec<Verdict<'g>> {
    let mut loaded = None;
    gates
        .into_iter()
        .filter(|gate| baseline.is_some() || !gate.bound.needs_baseline())
        .map(|gate| {
            let (status, message) = judge(gate, fresh, baseline, &mut loaded, &skip_set)
                .unwrap_or_else(|e| (Status::Fail, e));
            Verdict {
                gate,
                status,
                message,
            }
        })
        .collect()
}

/// One row's verdict; `Err` when its inputs are unreadable.
fn judge(
    gate: &Gate,
    fresh: &Json,
    baseline: Option<&Path>,
    loaded: &mut Option<Result<Json, String>>,
    skip_set: impl Fn(&str) -> bool,
) -> Result<(Status, String), String> {
    if let Some(var) = gate.skip.filter(|v| skip_set(v)) {
        return Ok((Status::Skipped, format!("skipped ({var} set)")));
    }
    let value = number(fresh, gate.key).ok_or("no number in the fresh output")?;
    let (limit, basis) = match gate.bound {
        Bound::Floor(c) | Bound::Ceiling(c) => (c, String::new()),
        Bound::AtLeast(other) => {
            let v = number(fresh, other).ok_or_else(|| format!("no number at {other}"))?;
            (v, format!(" ({other})"))
        }
        Bound::RelativeFloor(tol) | Bound::PointsFloor(tol) => {
            let path = baseline.expect("baseline rows are filtered without a baseline");
            let base = loaded
                .get_or_insert_with(|| load(path))
                .as_ref()
                .map_err(Clone::clone)?;
            let differs = gate
                .config
                .iter()
                .find(|k| lookup(base, k).is_some_and(|b| lookup(fresh, k) != Some(b)));
            if let Some(k) = differs {
                let why = format!(
                    "baseline {} was produced with a different {k}; regenerate the baseline",
                    path.display()
                );
                return Ok((Status::Skipped, why));
            }
            let b = number(base, gate.key)
                .ok_or_else(|| format!("no number in baseline {}", path.display()))?;
            if matches!(gate.bound, Bound::RelativeFloor(_)) {
                (
                    b * (1.0 - tol),
                    format!(" (baseline {b} - {:.0}%)", tol * 100.0),
                )
            } else {
                (b - tol, format!(" (baseline {b} - {tol} pts)"))
            }
        }
    };
    let (held, op) = if matches!(gate.bound, Bound::Ceiling(_)) {
        (value <= limit, "<=")
    } else {
        (value >= limit, ">=")
    };
    let status = match (held, gate.advisory) {
        (true, _) => Status::Pass,
        (false, true) => Status::Note,
        (false, false) => Status::Fail,
    };
    let not = if held { "" } else { "NOT " };
    Ok((status, format!("{value:.4} {not}{op} {limit:.4}{basis}")))
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("baseline {}: {e}", path.display()))
}

/// Writes `fresh` to `cli.out`, evaluates `bench`'s rows of [`GATES`]
/// and prints every verdict; the run fails on any failed row.
#[must_use]
pub fn finish(bench: &str, cli: &Cli, fresh: &Json) -> ExitCode {
    if let Err(e) = std::fs::write(&cli.out, format!("{fresh}\n")) {
        eprintln!("{bench}: cannot write {}: {e}", cli.out);
        return ExitCode::FAILURE;
    }
    println!("  wrote {}", cli.out);
    let rows = GATES.iter().filter(|g| g.bench == bench);
    let skip_set = |var: &str| std::env::var(var).is_ok_and(|v| !v.is_empty());
    let mut failed = false;
    for v in evaluate(rows, fresh, cli.check.as_deref().map(Path::new), skip_set) {
        let gate = v.gate;
        match v.status {
            Status::Pass => println!("  gate {}: {} — ok", gate.key, v.message),
            Status::Skipped => println!("  gate {}: {}", gate.key, v.message),
            Status::Note => println!(
                "  gate {}: {} — advisory only, not failing",
                gate.key, v.message
            ),
            Status::Fail => {
                failed = true;
                let bypass = gate
                    .skip
                    .map_or(String::new(), |var| format!("; set {var}=1 to bypass"));
                eprintln!("{bench}: GATE FAILED — {}: {}{bypass}", gate.key, v.message);
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
