//! The repository benchmark: one command, three seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <etl_lazy|etl_spill|service_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` it runs the traced variant and prints the per-layer
//! metrics, writing the spans to `.bench_work/trace-<workload>-<seed>.jsonl`. The
//! last line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Every output is checked cell for cell
//! against the reference executor (`Session::reference()`); a mismatch makes the
//! exit code 1.
//! Scratch files (the CSV input, spill directories) live under `.bench_work/`.

mod etl;
mod micro;
mod service;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use df_types::error::{DfError, DfResult};

use crate::etl::Variant;
use crate::util::{result_line, Metrics, Tally};

/// Environment switches the library still reads. Any of them would silently change
/// the measured program, so the benchmark refuses to run when one is set.
const AMBIENT_SWITCHES: [&str; 6] = [
    "DF_THREADS",
    "DF_BACKEND",
    "DF_COLUMNAR",
    "DF_FAILPOINTS",
    "DF_FAILPOINT_SEED",
    "DF_WORKER_BIN",
];

const WORK_DIR: &str = ".bench_work";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EtlLazy,
    EtlSpill,
    ServiceMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "etl_lazy" => Some(Workload::EtlLazy),
            "etl_spill" => Some(Workload::EtlSpill),
            "service_mix" => Some(Workload::ServiceMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::EtlLazy => "etl_lazy",
            Workload::EtlSpill => "etl_spill",
            Workload::ServiceMix => "service_mix",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Engine threads of the ETL sessions: the machine's parallelism.
    pub threads: usize,
    /// Set in the peak-RSS child process: run one job and report `VmHWM`. Holds the
    /// CSV path for the ETL workloads, `-` for the service.
    rss_probe: Option<String>,
    /// The ETL working set in bytes, handed to the peak-RSS child so it need not
    /// parse the file to size its budget.
    working_set: usize,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rss_probe = None;
    let mut working_set = 0;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--rss-probe" => rss_probe = Some(value.clone()),
            "--working-set" => {
                working_set = value.parse().map_err(|e| format!("--working-set: {e}"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rss_probe,
        working_set,
    })
}

/// Child processes per run that measure peak RSS; `peak_rss_mb` is their median.
const RSS_PROBES: usize = 5;

/// Peak RSS of one job, each run in a fresh child process (this binary again, with
/// `--rss-probe`) so no heap an earlier job left behind can inflate it; the median
/// over [`RSS_PROBES`] children.
pub fn peak_rss_mb(args: &Args, csv: Option<(&Path, usize)>) -> DfResult<f64> {
    let exe = std::env::current_exe()?;
    let (probe, working_set) = csv.map_or(("-".to_string(), 0), |(p, ws)| {
        (p.display().to_string(), ws)
    });
    let mut peaks = Vec::with_capacity(RSS_PROBES);
    for _ in 0..RSS_PROBES {
        let output = Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", "1", "--trace", "0"])
            .args(["--rss-probe", &probe])
            .args(["--working-set", &working_set.to_string()])
            .output()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let reported = stdout
            .lines()
            .find_map(|l| l.strip_prefix("peak_rss_mb "))
            .and_then(|v| v.trim().parse::<f64>().ok());
        match reported {
            Some(mb) if output.status.success() => peaks.push(mb),
            _ => {
                return Err(DfError::Internal(format!(
                    "peak-RSS probe failed: {}",
                    String::from_utf8_lossy(&output.stderr)
                )))
            }
        }
    }
    Ok(util::median(&peaks))
}

fn run_rss_probe(args: &Args, probe: &str) -> DfResult<()> {
    match args.workload {
        Workload::EtlLazy => etl::rss_job(args, Variant::Lazy, Path::new(probe))?,
        Workload::EtlSpill => etl::rss_job(args, Variant::Spill, Path::new(probe))?,
        Workload::ServiceMix => service::rss_job(args)?,
    }
    let mb = util::vm_hwm_mb().ok_or(DfError::Internal("cannot read VmHWM".into()))?;
    println!("peak_rss_mb {mb}");
    Ok(())
}

fn run(args: &Args, dir: &Path) -> DfResult<(Tally, Metrics)> {
    let variant = match args.workload {
        Workload::EtlLazy => Some(Variant::Lazy),
        Workload::EtlSpill => Some(Variant::Spill),
        Workload::ServiceMix => None,
    };
    if !args.trace {
        return match variant {
            Some(variant) => etl::run(args, dir, variant),
            None => service::run(args),
        };
    }
    let (tally, metrics, summary, tracer) = match variant {
        Some(variant) => etl::run_traced(args, dir, variant)?,
        None => service::run_traced(args)?,
    };
    let path = Path::new(WORK_DIR).join(format!(
        "trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    tracer.write_jsonl(&path, &summary)?;
    eprintln!("spans written to {}", path.display());
    for line in &summary {
        eprintln!("{line}");
    }
    Ok((tally, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let ambient: Vec<&str> = AMBIENT_SWITCHES
        .iter()
        .copied()
        .filter(|name| std::env::var_os(name).is_some())
        .collect();
    if !ambient.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: the benchmark pins its configuration explicitly",
            ambient.join(", ")
        );
        return ExitCode::from(2);
    }
    if let Some(probe) = &args.rss_probe {
        return match run_rss_probe(&args, probe) {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("perfbench: {err}");
                ExitCode::FAILURE
            }
        };
    }

    // Everything the run writes, spill directories included, stays in the working
    // directory: point the temp dir there before any engine exists.
    let dir: PathBuf = Path::new(WORK_DIR).join(format!("run-{}", std::process::id()));
    let tmp = dir.join("tmp");
    if let Err(err) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {err}", tmp.display());
        return ExitCode::FAILURE;
    }
    let tmp = std::fs::canonicalize(&tmp).unwrap_or(tmp);
    std::env::set_var("TMPDIR", &tmp);

    let outcome = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok((tally, metrics)) => {
            for (name, value, unit) in metrics.iter() {
                eprintln!("{:<28} {value:>14.6} {unit}", name);
            }
            eprintln!(
                "attempted={} failed={} fail_frac={}",
                tally.attempted,
                tally.failed,
                tally.failed as f64 / tally.attempted.max(1) as f64
            );
            println!("{}", result_line(tally, &metrics));
            if tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}
