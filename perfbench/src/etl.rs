//! The two ETL workloads: one scripted pandas session over a taxi CSV file, run
//! either in a lazy in-memory session (`etl_lazy`) or in an eager session whose
//! memory budget is a quarter of the working set (`etl_spill`).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use df_core::algebra::{AggFunc, Aggregation, JoinType};
use df_core::dataframe::DataFrame;
use df_engine::engine::{ModinConfig, ModinEngine};
use df_engine::session::{EvalMode, QuerySession};
use df_pandas::{PandasFrame, Session};
use df_storage::csv::{read_csv_path, write_csv_path, CsvOptions};
use df_types::backend::BackendKind;
use df_types::cell::Cell;
use df_types::error::{DfError, DfResult};
use df_workloads::taxi::{generate_typed, TaxiConfig};

use crate::micro;
use crate::trace::{Tracer, TracingEngine, ENGINE_COLLECT, ENGINE_EXECUTE, ENGINE_PREFIX};
use crate::util::{io_chars, median, min_max, quantile, repeat_setup, secs, Metrics, Tally, MB};
use crate::Args;

/// Rows of the taxi file (about 4.8 MB of CSV). One scripted session then takes
/// about 0.6 s on two cores, so a 30-second run times about 50 jobs.
pub const ROWS: usize = 25_000;
/// Step 2's filter threshold on `fare_amount`; about two thirds of the trips pass.
pub const FARE_FLOOR: f64 = 20.0;
/// The five of the fourteen columns the script keeps after its filter.
pub const KEPT: [&str; 5] = [
    "passenger_count",
    "payment_type",
    "trip_distance",
    "fare_amount",
    "tip_amount",
];
/// The pair of columns step 5 de-duplicates.
pub const PAIR: [&str; 2] = ["passenger_count", "payment_type"];
/// Statements (script steps) per job.
const STEPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Lazy MODIN session, no memory budget.
    Lazy,
    /// Eager MODIN session, budget = working set / 4.
    Spill,
}

impl Variant {
    fn mode(self) -> EvalMode {
        match self {
            Variant::Lazy => EvalMode::Lazy,
            Variant::Spill => EvalMode::Eager,
        }
    }
}

/// The engine configuration, pinned field by field so no environment variable can
/// change what is measured.
fn engine_config(variant: Variant, threads: usize, working_set: usize) -> ModinConfig {
    let config = ModinConfig::default()
        .with_threads(threads)
        .with_backend(BackendKind::Threads);
    match variant {
        Variant::Lazy => ModinConfig {
            memory_budget_bytes: None,
            ..config
        },
        Variant::Spill => config.with_memory_budget((working_set / 4).max(1)),
    }
}

/// A fresh MODIN session (new engine, new caches) and its typed engine handle. With
/// a tracer the session's engine is the forwarding [`TracingEngine`].
fn open_session(
    variant: Variant,
    threads: usize,
    working_set: usize,
    tracer: Option<(&Arc<Tracer>, usize)>,
) -> DfResult<(Arc<Session>, Arc<ModinEngine>)> {
    let engine = Arc::new(ModinEngine::try_with_config(engine_config(
        variant,
        threads,
        working_set,
    ))?);
    let front: Arc<dyn df_core::engine::Engine> = match tracer {
        Some((tracer, job)) => Arc::new(TracingEngine::new(
            Arc::clone(&engine),
            Arc::clone(tracer),
            job,
        )),
        None => Arc::clone(&engine) as Arc<dyn df_core::engine::Engine>,
    };
    let session = Session::from_query(
        QuerySession::new(front, variant.mode()),
        Some(Arc::clone(&engine)),
    );
    Ok((session, engine))
}

fn infer() -> CsvOptions {
    CsvOptions {
        infer_schema: true,
        ..CsvOptions::default()
    }
}

/// The 8-row zone dimension table joined in step 3.
pub fn zone_frame() -> DfResult<DataFrame> {
    let ids: Vec<Cell> = (0..8).map(Cell::Int).collect();
    let zones: Vec<Cell> = (0..8)
        .map(|i| Cell::Str(format!("zone-{}", i % 4)))
        .collect();
    DataFrame::from_columns(vec!["passenger_count", "zone"], vec![ids, zones])
}

pub fn zone_aggregations() -> Vec<Aggregation> {
    vec![
        Aggregation::count_rows(),
        Aggregation::of("fare_amount", AggFunc::Mean).with_alias("fare_mean"),
        Aggregation::of("tip_amount", AggFunc::Sum).with_alias("tip_sum"),
    ]
}

/// Everything the script materialises.
pub struct Outputs {
    peek: DataFrame,
    by_zone: DataFrame,
    top_fares: DataFrame,
    pairs: DataFrame,
}

impl Outputs {
    /// Cell-for-cell comparison of every output; names the first that differs.
    fn mismatch(&self, other: &Outputs) -> Option<&'static str> {
        [
            ("head(5)", &self.peek, &other.peek, true),
            ("merge/groupby", &self.by_zone, &other.by_zone, false),
            ("sort/head(10)", &self.top_fares, &other.top_fares, true),
            ("drop_duplicates", &self.pairs, &other.pairs, true),
        ]
        .into_iter()
        .find(|(_, out, expected, exact)| !crate::util::same_result(out, expected, *exact))
        .map(|(name, out, expected, _)| {
            eprintln!(
                "{name} differs from the reference:\n{}\nreference:\n{}",
                out.display_with(5),
                expected.display_with(5)
            );
            name
        })
    }
}

/// One job's outputs and timings.
pub struct Job {
    outputs: Outputs,
    /// Seconds per script step.
    steps: [f64; STEPS],
    first_peek_s: f64,
    job_s: f64,
}

fn step<T>(tracer: Option<(&Arc<Tracer>, usize)>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some((tracer, job)) => tracer.span(job, name, f),
        None => f(),
    }
}

/// The scripted pandas session: read, filter and peek, join and aggregate, sort and
/// peek, de-duplicate. Each step ends in a materialisation except the lazy read.
pub fn script(
    session: &Arc<Session>,
    csv: &Path,
    tracer: Option<(&Arc<Tracer>, usize)>,
) -> DfResult<Job> {
    let mut steps = [0.0; STEPS];
    let start = Instant::now();
    let mut mark = start;
    let mut lap = |i: usize| {
        let now = Instant::now();
        steps[i] = secs(now - mark);
        mark = now;
    };

    let trips = step(tracer, "pandas.read_csv_path", || {
        PandasFrame::read_csv_path(session, csv, &infer())
    })?;
    lap(0);

    let kept = step(tracer, "pandas.filter_select", || {
        Ok::<_, DfError>(trips.filter_gt("fare_amount", FARE_FLOOR)?.select(&KEPT))
    })?;
    let peek = step(tracer, "pandas.head", || kept.head(5))?;
    lap(1);
    let first_peek_s = secs(start.elapsed());

    let by_zone = step(tracer, "pandas.merge_groupby", || {
        let zones = PandasFrame::from_dataframe(session, zone_frame()?);
        kept.merge_on(&zones, &["passenger_count"], JoinType::Inner)
            .groupby_agg(&["zone"], zone_aggregations(), false)
            .collect()
    })?;
    lap(2);

    let top_fares = step(tracer, "pandas.sort_head", || {
        kept.sort_values(&["fare_amount"], true).head(10)
    })?;
    lap(3);

    let pairs = step(tracer, "pandas.drop_duplicates", || {
        kept.select(&PAIR).drop_duplicates().collect()
    })?;
    lap(4);

    Ok(Job {
        outputs: Outputs {
            peek,
            by_zone,
            top_fares,
            pairs,
        },
        steps,
        first_peek_s,
        job_s: secs(start.elapsed()),
    })
}

/// The inputs of one run, made from the seed.
pub struct Inputs {
    pub csv: PathBuf,
    pub file_bytes: u64,
    /// In-memory size of the parsed file: the working set the budget is a share of.
    pub working_set: usize,
    /// The file as the serial reader parses it (the kernel benchmarks' input).
    pub parsed: DataFrame,
    reference: Outputs,
}

/// Generate the file, compute the reference outputs with the reference executor,
/// and start the engine the warm-up job runs on.
fn setup(args: &Args, dir: &Path, variant: Variant) -> DfResult<(Inputs, Arc<Session>)> {
    let frame = generate_typed(&TaxiConfig {
        base_rows: ROWS,
        replication: 1,
        null_fraction: 0.05,
        seed: args.seed,
    })?;
    let csv = dir.join("taxi.csv");
    write_csv_path(&frame, &csv, &CsvOptions::default())?;
    drop(frame);
    let file_bytes = std::fs::metadata(&csv)?.len();
    let parsed = read_csv_path(&csv, &infer())?;
    let working_set = parsed.approx_size_bytes();
    let reference = script(&Session::reference(), &csv, None)?.outputs;
    let (session, _) = open_session(variant, args.threads, working_set, None)?;
    Ok((
        Inputs {
            csv,
            file_bytes,
            working_set,
            parsed,
            reference,
        },
        session,
    ))
}

/// Set-ups per run; `setup_s` is their median. One takes about a second and single
/// set-ups spread widely on a shared host, so the median is over five, not three.
const SETUPS: usize = 5;

/// Set up several times (reporting the median) and run one warm-up job, so file
/// pages, allocator arenas and lazy statics are in place before anything is timed.
fn prepare(
    args: &Args,
    dir: &Path,
    variant: Variant,
    tally: &mut Tally,
) -> DfResult<(Inputs, f64)> {
    let ((inputs, session), setup_s) = repeat_setup(SETUPS, || setup(args, dir, variant))?;
    let warm = script(&session, &inputs.csv, None)?;
    tally.record(warm.outputs.mismatch(&inputs.reference).is_none());
    Ok((inputs, setup_s))
}

/// Record one job's correctness: a job that fails counts every step as failed.
fn check(job: &DfResult<Job>, inputs: &Inputs, tally: &mut Tally) {
    let ok = matches!(job, Ok(job) if job.outputs.mismatch(&inputs.reference).is_none());
    if let Err(err) = job {
        eprintln!("job failed: {err}");
    }
    for _ in 0..STEPS {
        tally.record(ok);
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args, dir: &Path, variant: Variant) -> DfResult<(Tally, Metrics)> {
    let mut tally = Tally::default();
    let (inputs, setup_s) = prepare(args, dir, variant, &mut tally)?;

    let mut jobs = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    loop {
        let (session, _) = open_session(variant, args.threads, inputs.working_set, None)?;
        let job = script(&session, &inputs.csv, None);
        check(&job, &inputs, &mut tally);
        jobs.extend(job);
        if Instant::now() >= deadline {
            break;
        }
    }
    if jobs.is_empty() {
        return Err(DfError::Internal("every job failed".into()));
    }

    let peak_rss_mb = crate::peak_rss_mb(args, Some((&inputs.csv, inputs.working_set)))?;

    let job_s: Vec<f64> = jobs.iter().map(|j| j.job_s).collect();
    let (lo, hi) = min_max(&job_s);
    eprintln!(
        "jobs: {} (job_s min {lo:.4}, quartiles {:.4} {:.4} {:.4}, max {hi:.4})",
        job_s.len(),
        quantile(&job_s, 0.25),
        median(&job_s),
        quantile(&job_s, 0.75)
    );
    let steps: Vec<f64> = jobs.iter().flat_map(|j| j.steps).collect();
    let mut metrics = Metrics::default();
    metrics.put("setup_s", setup_s, "s");
    metrics.put("job_s", median(&job_s), "s");
    metrics.put(
        "first_peek_s",
        median(&jobs.iter().map(|j| j.first_peek_s).collect::<Vec<_>>()),
        "s",
    );
    metrics.put("peak_rss_mb", peak_rss_mb, "MB");
    metrics.put(
        "stmt_per_s",
        steps.len() as f64 / job_s.iter().sum::<f64>(),
        "1/s",
    );
    metrics.put("stmt_p50_ms", median(&steps) * 1e3, "ms");
    metrics.put("stmt_p99_ms", quantile(&steps, 0.99) * 1e3, "ms");
    Ok((tally, metrics))
}

/// The peak-RSS probe, run in a fresh child process: one job and nothing else, so
/// no earlier job's retained heap inflates the figure.
pub fn rss_job(args: &Args, variant: Variant, csv: &Path) -> DfResult<()> {
    let (session, _) = open_session(variant, args.threads, args.working_set, None)?;
    script(&session, csv, None).map(drop)
}

/// Counters that do not depend on thread interleaving; traced and untraced jobs must
/// agree on them exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Deterministic {
    chunks_skipped: u64,
    columns_pruned: u64,
    predicates_pushed: u64,
    projections_pushed: u64,
    joins_broadcast: u64,
    joins_shuffled: u64,
    files_ingested: u64,
    bands_parsed: u64,
    ingest_bytes: u64,
}

fn deterministic(engine: &ModinEngine) -> Deterministic {
    use df_core::engine::Engine;
    let p = engine.pushdown_stats();
    let i = engine.ingest_stats();
    Deterministic {
        chunks_skipped: p.chunks_skipped,
        columns_pruned: p.columns_pruned,
        predicates_pushed: p.predicates_pushed,
        projections_pushed: p.projections_pushed,
        joins_broadcast: p.joins_broadcast,
        joins_shuffled: p.joins_shuffled,
        files_ingested: i.files_ingested,
        bands_parsed: i.bands_parsed,
        ingest_bytes: i.ingest_bytes,
    }
}

/// Per-layer figures of one traced job.
struct TracedJob {
    job_s: f64,
    read_csv_s: f64,
    execute_s: f64,
    prefix_s: f64,
    collect_s: f64,
    optimize_s: f64,
    calls: f64,
    tasks: f64,
    shuffles: f64,
    fallbacks: f64,
    assemblies: f64,
    spill_outs: f64,
    load_backs: f64,
    peak_store_mb: f64,
    write_mb: f64,
    read_mb: f64,
}

/// The traced run: traced and untraced jobs alternate; the traced ones give the
/// per-layer figures, the untraced ones the base of `trace.overhead_frac`.
pub fn run_traced(
    args: &Args,
    dir: &Path,
    variant: Variant,
) -> DfResult<(Tally, Metrics, Vec<String>, Arc<Tracer>)> {
    let mut tally = Tally::default();
    let (inputs, _) = prepare(args, dir, variant, &mut tally)?;
    let tracer = Tracer::new();

    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let mut counters = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut job_id = 0;
    while traced.len() < 2 || untraced.len() < 2 || Instant::now() < deadline {
        job_id += 1;
        let is_traced = job_id % 2 == 1;
        let trace_with = is_traced.then_some((&tracer, job_id));
        let (session, engine) =
            open_session(variant, args.threads, inputs.working_set, trace_with)?;
        let (r0, w0) = io_chars();
        let job = script(&session, &inputs.csv, trace_with);
        let (r1, w1) = io_chars();
        check(&job, &inputs, &mut tally);
        let job = job?;
        counters.push(deterministic(&engine));
        if !is_traced {
            untraced.push(job.job_s);
            continue;
        }
        let spill = engine.spill_stats();
        let engine_s = [ENGINE_EXECUTE, ENGINE_PREFIX, ENGINE_COLLECT]
            .iter()
            .map(|names| tracer.total(job_id, names))
            .collect::<Vec<_>>();
        traced.push(TracedJob {
            job_s: job.job_s,
            read_csv_s: tracer.total(job_id, &["pandas.read_csv_path"]),
            execute_s: engine_s[0],
            prefix_s: engine_s[1],
            collect_s: engine_s[2],
            optimize_s: tracer.total(job_id, &["optimizer.optimize"]),
            calls: tracer.count(job_id, "engine.") as f64,
            tasks: engine.tasks_dispatched() as f64,
            shuffles: engine.shuffles_dispatched() as f64,
            fallbacks: engine.fallbacks_dispatched() as f64,
            assemblies: engine.assemblies_dispatched() as f64,
            spill_outs: spill.spill_outs as f64,
            load_backs: spill.load_backs as f64,
            peak_store_mb: spill.peak_memory_bytes as f64 / MB,
            write_mb: (w1 - w0) as f64 / MB,
            read_mb: (r1 - r0) as f64 / MB,
        });
    }
    // Traced and untraced jobs run the same program: their deterministic counters
    // must match exactly.
    let agree = counters.windows(2).all(|w| w[0] == w[1]);
    if !agree {
        eprintln!("traced and untraced jobs disagree on deterministic counters: {counters:?}");
    }
    tally.record(agree);

    let col = |f: fn(&TracedJob) -> f64| traced.iter().map(f).collect::<Vec<_>>();
    let med = |f: fn(&TracedJob) -> f64| median(&col(f));
    let ws_mb = inputs.working_set as f64 / MB;
    let d = counters[0];
    let mut m = Metrics::default();
    m.put("pandas.read_csv_s", med(|j| j.read_csv_s), "s");
    m.put(
        "pandas.self_s",
        med(|j| j.job_s - j.read_csv_s - j.execute_s - j.prefix_s - j.collect_s - j.optimize_s),
        "s",
    );
    m.put("engine.execute_s", med(|j| j.execute_s), "s");
    m.put("engine.prefix_s", med(|j| j.prefix_s), "s");
    m.put("engine.collect_s", med(|j| j.collect_s), "s");
    m.put("engine.calls", med(|j| j.calls), "count");
    m.put("engine.tasks", med(|j| j.tasks), "count");
    m.put("engine.shuffles", med(|j| j.shuffles), "count");
    m.put("engine.fallbacks", med(|j| j.fallbacks), "count");
    m.put("engine.assemblies", med(|j| j.assemblies), "count");
    m.put("optimizer.optimize_s", med(|j| j.optimize_s), "s");
    m.put("optimizer.columns_pruned", d.columns_pruned as f64, "count");
    m.put("optimizer.chunks_skipped", d.chunks_skipped as f64, "count");
    m.put(
        "optimizer.predicates_pushed",
        d.predicates_pushed as f64,
        "count",
    );
    m.put("ingest.parsed_mb", d.ingest_bytes as f64 / MB, "MB");
    m.put(
        "ingest.reparse_ratio",
        d.ingest_bytes as f64 / inputs.file_bytes as f64,
        "ratio",
    );
    m.put("spill.outs", med(|j| j.spill_outs), "count");
    m.put("spill.load_backs", med(|j| j.load_backs), "count");
    m.put("spill.peak_store_mb", med(|j| j.peak_store_mb), "MB");
    m.put("spill.write_mb", med(|j| j.write_mb), "MB");
    m.put("spill.write_amp", med(|j| j.write_mb) / ws_mb, "ratio");
    let untraced_job_s = median(&untraced);
    m.put(
        "trace.overhead_frac",
        med(|j| j.job_s) / untraced_job_s - 1.0,
        "ratio",
    );

    m.put(
        "csv.parse_mb_per_s",
        micro::csv_parse_mb_per_s(&inputs.csv, inputs.file_bytes)?,
        "MB/s",
    );
    micro::kernels(&inputs.parsed, &mut m)?;
    let codec = match variant {
        Variant::Spill => micro::codec_mb_per_s(&inputs.parsed, dir)?,
        Variant::Lazy => 0.0,
    };
    m.put("spill.codec_mb_per_s", codec, "MB/s");
    // A pandas session has no service in front of its engine: no shared result
    // cache and no admission gate.
    for (name, unit) in [
        ("cache.hit_ratio", "ratio"),
        ("cache.shared_hits", "count"),
        ("cache.evictions", "count"),
        ("cache.single_flight_waits", "count"),
        ("service.executions", "count"),
        ("service.exec_p50_ms", "ms"),
        ("service.hit_p50_ms", "ms"),
        ("admission.queued_grants", "count"),
        ("admission.max_queue_depth", "count"),
        ("admission.refused", "count"),
    ] {
        m.put(name, 0.0, unit);
    }

    let range = |f: fn(&TracedJob) -> f64| {
        let (lo, hi) = min_max(&col(f));
        format!("[{lo}, {hi}]")
    };
    let summary = vec![
        format!(
            "{{\"summary\": \"etl\", \"traced_jobs\": {}, \"untraced_jobs\": {}, \"untraced_job_s\": {untraced_job_s}, \
             \"file_mb\": {}, \"working_set_mb\": {ws_mb}, \"deterministic_counters_agree\": {agree}, \
             \"rchar_mb_range\": {}, \"spill_outs_range\": {}, \"load_backs_range\": {}, \
             \"peak_store_mb_range\": {}, \"write_mb_range\": {}}}",
            traced.len(),
            untraced.len(),
            inputs.file_bytes as f64 / MB,
            range(|j| j.read_mb),
            range(|j| j.spill_outs),
            range(|j| j.load_backs),
            range(|j| j.peak_store_mb),
            range(|j| j.write_mb),
        ),
    ];
    Ok((tally, m, summary, tracer))
}
