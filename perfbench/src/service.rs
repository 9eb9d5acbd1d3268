//! The `service_mix` workload: notebook users in a closed loop against one
//! multi-tenant `QueryService`, mixing shared dashboard statements (cache reads)
//! with ad-hoc filters (cache writes and evictions).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use df_core::algebra::{AggFunc, Aggregation, AlgebraExpr, ColumnSelector, SortSpec};
use df_core::dataframe::DataFrame;
use df_engine::engine::ModinConfig;
use df_engine::session::EvalMode;
use df_pandas::Session;
use df_service::{QueryService, ServiceConfig, ServiceStats};
use df_types::backend::BackendKind;
use df_types::error::DfResult;
use df_workloads::taxi::{generate_typed, TaxiConfig};

use crate::etl::KEPT;
use crate::micro;
use crate::trace::Tracer;
use crate::util::{
    greater, io_chars, labels, median, repeat_setup, same_result, secs, windowed_quantile, Metrics,
    SplitMix64, Tally, MB,
};
use crate::Args;

/// Rows of the in-memory taxi frame every statement reads.
pub const ROWS: usize = 12_000;
/// Seconds per window of `stmt_p99_ms`: the p99 of each window, median over windows.
const P99_WINDOW_S: f64 = 2.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Tenant threads, each one notebook user waiting for every reply.
pub const TENANTS: usize = 2;
/// Statements per tenant session (one job) after its opening peek.
const STATEMENTS_PER_SESSION: usize = 40;
/// Distinct ad-hoc filters; tenants draw thresholds from this pool.
const ADHOC_POOL: usize = 160;
/// Opening peeks, one per session in turn: more sessions than a run of up to 40
/// seconds opens, so every session's first look is a cache miss.
const PEEK_POOL: usize = 256;
/// Share of statements drawn from the shared dashboard set.
const DASHBOARD_SHARE: f64 = 0.7;

/// The statements tenants send, all over one `Arc` literal so identical statements
/// share a fingerprint across tenants.
pub struct Mix {
    frame: Arc<DataFrame>,
    dashboard: Vec<AlgebraExpr>,
    adhoc: Vec<AlgebraExpr>,
    peeks: Vec<AlgebraExpr>,
}

/// Dashboard statements whose outputs hold float aggregates (compared with a
/// tolerance, see [`crate::util::same_result`]).
const FLOAT_AGGREGATES: [usize; 2] = [1, 5];

impl Mix {
    pub fn new(seed: u64) -> DfResult<Mix> {
        let frame = Arc::new(generate_typed(&TaxiConfig {
            base_rows: ROWS,
            replication: 1,
            null_fraction: 0.05,
            seed,
        })?);
        let leaf = || AlgebraExpr::literal_arc(Arc::clone(&frame));
        let dashboard = vec![
            leaf().group_by(
                labels(&["passenger_count"]),
                vec![Aggregation::count_rows()],
                false,
            ),
            leaf().group_by(
                labels(&["payment_type"]),
                vec![
                    Aggregation::of("fare_amount", AggFunc::Mean).with_alias("fare_mean"),
                    Aggregation::of("tip_amount", AggFunc::Sum).with_alias("tip_sum"),
                ],
                false,
            ),
            // Top 20 trips over three columns, so an execution costs about what an
            // ad-hoc filter does: a full-width sort takes twice as long as any
            // other statement, and then the few dozen evictions of this one result
            // a run would decide the p99 on their own.
            leaf()
                .project(ColumnSelector::ByLabels(labels(&[
                    "vendor_id",
                    "total_amount",
                    "tip_amount",
                ])))
                .sort(SortSpec {
                    by: labels(&["total_amount"]),
                    ascending: vec![false],
                    stable: true,
                })
                .limit(20, false),
            leaf()
                .project(ColumnSelector::ByLabels(labels(&[
                    "passenger_count",
                    "payment_type",
                ])))
                .drop_duplicates(),
            leaf()
                .select(greater("tip_amount", 15.0))
                .project(ColumnSelector::ByLabels(labels(&[
                    "vendor_id",
                    "tip_amount",
                ]))),
            leaf().group_by(
                labels(&["vendor_id", "passenger_count"]),
                vec![Aggregation::of("trip_distance", AggFunc::Mean).with_alias("distance_mean")],
                false,
            ),
        ];
        // Fare thresholds between 8 and 60, from most of the trips down to a few:
        // one per equal slice of that range, jittered and shuffled by the seed, so
        // every seed's pool has the same spread of result sizes.
        let mut rng = SplitMix64::new(seed ^ 0xAD_0C);
        let mut filtered = |pool: usize| {
            let mut thresholds: Vec<f64> = (0..pool)
                .map(|k| 8.0 + 52.0 * (k as f64 + rng.next_f64()) / pool as f64)
                .collect();
            for i in (1..pool).rev() {
                thresholds.swap(i, rng.below(i + 1));
            }
            thresholds
                .into_iter()
                .map(|threshold| {
                    leaf()
                        .select(greater("fare_amount", threshold))
                        .project(ColumnSelector::ByLabels(labels(&KEPT)))
                })
                .collect::<Vec<_>>()
        };
        let adhoc = filtered(ADHOC_POOL);
        let peeks = filtered(PEEK_POOL)
            .into_iter()
            .map(|expr| expr.limit(5, false))
            .collect();
        Ok(Mix {
            frame,
            dashboard,
            adhoc,
            peeks,
        })
    }

    /// The opening peek of session number `session`: `(index, expression)`.
    fn peek(&self, session: usize) -> (usize, &AlgebraExpr) {
        let i = session % self.peeks.len();
        (self.dashboard.len() + self.adhoc.len() + i, &self.peeks[i])
    }

    /// Draw the next statement: `(index into dashboard ++ adhoc, expression)`.
    fn pick(&self, rng: &mut SplitMix64) -> (usize, &AlgebraExpr) {
        if rng.next_f64() < DASHBOARD_SHARE {
            let i = rng.below(self.dashboard.len());
            (i, &self.dashboard[i])
        } else {
            let i = rng.below(self.adhoc.len());
            (self.dashboard.len() + i, &self.adhoc[i])
        }
    }

    /// Every statement, in index order.
    fn all(&self) -> impl Iterator<Item = &AlgebraExpr> {
        self.dashboard.iter().chain(&self.adhoc).chain(&self.peeks)
    }
}

/// The service configuration, pinned field by field: one engine thread on the
/// threads backend, one execution slot, and a result cache as large as the frame:
/// it holds the dashboard results and a few ad-hoc ones, so ad-hoc results keep
/// evicting one another and, now and then, a dashboard result.
fn service_config(frame: &DataFrame) -> ServiceConfig {
    ServiceConfig::default()
        .with_engine(
            ModinConfig {
                memory_budget_bytes: None,
                ..ModinConfig::default()
            }
            .with_threads(1)
            .with_backend(BackendKind::Threads),
        )
        .with_mode(EvalMode::Eager)
        .with_max_concurrent(1)
        .with_queue(64, Duration::from_secs(30))
        .with_cache_budget(2 * frame.approx_size_bytes())
}

/// One statement as a tenant saw it.
struct Stmt {
    started: Instant,
    latency_s: f64,
    executed: bool,
}

/// One tenant session (a job).
struct SessionRun {
    job_s: f64,
    first_peek_s: f64,
    traced: bool,
}

#[derive(Default)]
struct TenantLog {
    stmts: Vec<Stmt>,
    sessions: Vec<SessionRun>,
    tally: Tally,
}

/// What the tenants run against.
struct Target<'a> {
    service: &'a Arc<QueryService>,
    mix: &'a Mix,
    /// Reference outputs in `Mix::all` order; `None` skips checking (the
    /// peak-RSS probe).
    expected: Option<&'a [DataFrame]>,
    tracer: Option<&'a Arc<Tracer>>,
    jobs: &'a AtomicUsize,
}

/// One tenant session: open, peek at a fresh filter, send `STATEMENTS_PER_SESSION`
/// statements of the mix one after another, close.
fn tenant_session(
    target: &Target<'_>,
    name: &str,
    rng: &mut SplitMix64,
    traced: bool,
    log: &mut TenantLog,
) {
    let job = target.jobs.fetch_add(1, Ordering::Relaxed);
    let tracer = target.tracer.filter(|_| traced);
    let opened = Instant::now();
    let tenant = target.service.tenant(name);
    let mut busy = secs(opened.elapsed());
    let mut first_peek_s = 0.0;
    for i in 0..=STATEMENTS_PER_SESSION {
        let (index, expr) = if i == 0 {
            target.mix.peek(job)
        } else {
            target.mix.pick(rng)
        };
        let before = tenant.stats().executions;
        let start = Instant::now();
        let out = tenant.query().collect(expr);
        let end = Instant::now();
        let executed = tenant.stats().executions > before;
        if let Some(tracer) = tracer {
            tracer.record(
                job,
                if executed {
                    "service.exec"
                } else {
                    "service.hit"
                },
                start,
                end,
            );
        }
        let latency_s = secs(end - start);
        busy += latency_s;
        if i == 0 {
            first_peek_s = busy;
        }
        let ok = match (&out, target.expected) {
            (Ok(frame), Some(expected)) => {
                let same = same_result(frame, &expected[index], !FLOAT_AGGREGATES.contains(&index));
                if !same {
                    eprintln!(
                        "{name}: statement {index} differs from the reference:\n{}\nreference:\n{}",
                        frame.display_with(3),
                        expected[index].display_with(3)
                    );
                }
                same
            }
            (Ok(_), None) => true,
            (Err(err), _) => {
                eprintln!("{name}: statement {index} failed: {err}");
                false
            }
        };
        log.tally.record(ok);
        log.stmts.push(Stmt {
            started: start,
            latency_s,
            executed,
        });
    }
    log.sessions.push(SessionRun {
        job_s: busy,
        first_peek_s,
        traced,
    });
}

/// Every tenant runs sessions until `deadline` (at least `min_sessions` each);
/// returns the logs and the wall time of the whole window.
fn drive(
    target: &Target<'_>,
    seed: u64,
    deadline: Option<Instant>,
    min_sessions: usize,
) -> (Vec<TenantLog>, f64) {
    let barrier = Barrier::new(TENANTS);
    let start = Instant::now();
    let logs = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..TENANTS)
            .map(|t| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let name = format!("tenant-{t}");
                    let mut rng = SplitMix64::new(seed.wrapping_mul(31).wrapping_add(t as u64 + 1));
                    let mut log = TenantLog::default();
                    barrier.wait();
                    let mut round = 0;
                    while round < min_sessions || deadline.is_some_and(|d| Instant::now() < d) {
                        tenant_session(target, &name, &mut rng, round % 2 == 0, &mut log);
                        round += 1;
                    }
                    log
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("tenant thread panicked"))
            .collect::<Vec<_>>()
    });
    (logs, secs(start.elapsed()))
}

/// Generate the frame and the mix, compute every statement's reference output with
/// the reference executor, start the service.
fn setup(seed: u64) -> DfResult<(Mix, Vec<DataFrame>, Arc<QueryService>)> {
    let mix = Mix::new(seed)?;
    let oracle = Session::reference();
    let expected = mix
        .all()
        .map(|expr| oracle.query().collect(expr))
        .collect::<DfResult<Vec<_>>>()?;
    let service = QueryService::start(service_config(&mix.frame))?;
    Ok((mix, expected, service))
}

fn merge(logs: Vec<TenantLog>) -> TenantLog {
    logs.into_iter().fold(TenantLog::default(), |mut all, log| {
        all.stmts.extend(log.stmts);
        all.sessions.extend(log.sessions);
        all.tally.merge(log.tally);
        all
    })
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args) -> DfResult<(Tally, Metrics)> {
    let ((mix, expected, service), setup_s) = repeat_setup(SETUPS, || setup(args.seed))?;
    let jobs = AtomicUsize::new(0);
    let target = Target {
        service: &service,
        mix: &mix,
        expected: Some(&expected),
        tracer: None,
        jobs: &jobs,
    };
    // Warm-up: one session per tenant fills the cache before timing.
    let (warm, _) = drive(&target, args.seed ^ 0x57A7, None, 1);
    let mut tally = merge(warm).tally;
    let opened = Instant::now();
    let deadline = opened + Duration::from_secs(args.seconds);
    let (logs, wall_s) = drive(&target, args.seed, Some(deadline), 1);
    let log = merge(logs);
    tally.merge(log.tally);

    let peak_rss_mb = crate::peak_rss_mb(args, None)?;

    let latencies: Vec<f64> = log.stmts.iter().map(|s| s.latency_s).collect();
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put(
        "job_s",
        median(&log.sessions.iter().map(|s| s.job_s).collect::<Vec<_>>()),
        "s",
    );
    m.put(
        "first_peek_s",
        median(
            &log.sessions
                .iter()
                .map(|s| s.first_peek_s)
                .collect::<Vec<_>>(),
        ),
        "s",
    );
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    m.put("stmt_per_s", latencies.len() as f64 / wall_s, "1/s");
    m.put("stmt_p50_ms", median(&latencies) * 1e3, "ms");
    let timed: Vec<(f64, f64)> = log
        .stmts
        .iter()
        .map(|s| {
            (
                secs(s.started.saturating_duration_since(opened)),
                s.latency_s,
            )
        })
        .collect();
    m.put(
        "stmt_p99_ms",
        windowed_quantile(&timed, P99_WINDOW_S, args.seconds as f64, 0.99) * 1e3,
        "ms",
    );
    Ok((tally, m))
}

/// The peak-RSS probe, in a fresh child process: start the service and let each
/// tenant run one session, unchecked.
pub fn rss_job(args: &Args) -> DfResult<()> {
    let mix = Mix::new(args.seed)?;
    let service = QueryService::start(service_config(&mix.frame))?;
    let jobs = AtomicUsize::new(0);
    let target = Target {
        service: &service,
        mix: &mix,
        expected: None,
        tracer: None,
        jobs: &jobs,
    };
    let (logs, _) = drive(&target, args.seed, None, 1);
    let tally = merge(logs).tally;
    if tally.failed > 0 {
        return Err(df_types::error::DfError::Internal(
            "statement failed in the RSS probe".into(),
        ));
    }
    Ok(())
}

fn executions(stats: &ServiceStats) -> u64 {
    stats.tenants.iter().map(|(_, s)| s.executions).sum()
}

/// The traced run: per-statement spans split into cache hits and executions, and
/// the cache, admission and engine counters over the measured window. Tenant
/// sessions alternate between traced and untraced for `trace.overhead_frac`.
pub fn run_traced(args: &Args) -> DfResult<(Tally, Metrics, Vec<String>, Arc<Tracer>)> {
    let ((mix, expected, service), _) = repeat_setup(SETUPS, || setup(args.seed))?;
    let tracer = Tracer::new();
    let jobs = AtomicUsize::new(0);
    let warm_target = Target {
        service: &service,
        mix: &mix,
        expected: Some(&expected),
        tracer: None,
        jobs: &jobs,
    };
    let (warm, _) = drive(&warm_target, args.seed ^ 0x57A7, None, 1);
    let mut tally = merge(warm).tally;

    let engine = service.engine();
    let before = service.stats();
    let (tasks0, shuffles0, fallbacks0, assemblies0) = (
        engine.tasks_dispatched(),
        engine.shuffles_dispatched(),
        engine.fallbacks_dispatched(),
        engine.assemblies_dispatched(),
    );
    let pushdown0 = df_core::engine::Engine::pushdown_stats(engine.as_ref());
    let ingest0 = engine.ingest_stats().ingest_bytes;
    let (_, w0) = io_chars();
    let target = Target {
        tracer: Some(&tracer),
        ..warm_target
    };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (logs, wall_s) = drive(&target, args.seed, Some(deadline), 2);
    let (_, w1) = io_chars();
    let after = service.stats();
    let log = merge(logs);
    tally.merge(log.tally);

    let pushdown = df_core::engine::Engine::pushdown_stats(engine.as_ref());
    let spill = service.spill_stats();
    let cache0 = before.cache.clone().unwrap_or_default();
    let cache1 = after.cache.clone().unwrap_or_default();
    let statements = log.stmts.len() as f64;
    let pick = |executed: bool| {
        log.stmts
            .iter()
            .filter(|s| s.executed == executed)
            .map(|s| s.latency_s)
            .collect::<Vec<_>>()
    };
    let session_s = |traced: bool| {
        median(
            &log.sessions
                .iter()
                .filter(|s| s.traced == traced)
                .map(|s| s.job_s)
                .collect::<Vec<_>>(),
        )
    };
    let refused = |a: &df_service::admission::AdmissionStats| {
        a.rejected_full + a.rejected_draining + a.timed_out
    };

    let mut m = Metrics::default();
    // The pandas layer and the engine wrapper are not on this path (tenants send
    // algebra statements and the service owns its engine), and neither a CSV file
    // nor a spill store exists here.
    for (name, unit) in [
        ("pandas.read_csv_s", "s"),
        ("pandas.self_s", "s"),
        ("engine.execute_s", "s"),
        ("engine.prefix_s", "s"),
        ("engine.collect_s", "s"),
        ("engine.calls", "count"),
        ("optimizer.optimize_s", "s"),
        ("ingest.reparse_ratio", "ratio"),
        ("csv.parse_mb_per_s", "MB/s"),
        ("spill.codec_mb_per_s", "MB/s"),
    ] {
        m.put(name, 0.0, unit);
    }
    m.put(
        "engine.tasks",
        (engine.tasks_dispatched() - tasks0) as f64,
        "count",
    );
    m.put(
        "engine.shuffles",
        (engine.shuffles_dispatched() - shuffles0) as f64,
        "count",
    );
    m.put(
        "engine.fallbacks",
        (engine.fallbacks_dispatched() - fallbacks0) as f64,
        "count",
    );
    m.put(
        "engine.assemblies",
        (engine.assemblies_dispatched() - assemblies0) as f64,
        "count",
    );
    m.put(
        "optimizer.columns_pruned",
        (pushdown.columns_pruned - pushdown0.columns_pruned) as f64,
        "count",
    );
    m.put(
        "optimizer.chunks_skipped",
        (pushdown.chunks_skipped - pushdown0.chunks_skipped) as f64,
        "count",
    );
    m.put(
        "optimizer.predicates_pushed",
        (pushdown.predicates_pushed - pushdown0.predicates_pushed) as f64,
        "count",
    );
    let parsed = (engine.ingest_stats().ingest_bytes - ingest0) as f64;
    m.put("ingest.parsed_mb", parsed / MB, "MB");
    m.put("spill.outs", spill.spill_outs as f64, "count");
    m.put("spill.load_backs", spill.load_backs as f64, "count");
    m.put(
        "spill.peak_store_mb",
        spill.peak_memory_bytes as f64 / MB,
        "MB",
    );
    m.put("spill.write_mb", (w1 - w0) as f64 / MB, "MB");
    m.put(
        "spill.write_amp",
        (w1 - w0) as f64 / mix.frame.approx_size_bytes() as f64,
        "ratio",
    );
    m.put(
        "cache.hit_ratio",
        (cache1.hits - cache0.hits) as f64 / statements,
        "ratio",
    );
    m.put(
        "cache.shared_hits",
        (cache1.shared_hits - cache0.shared_hits) as f64,
        "count",
    );
    m.put(
        "cache.evictions",
        (cache1.evictions - cache0.evictions) as f64,
        "count",
    );
    m.put(
        "cache.single_flight_waits",
        (cache1.single_flight_waits - cache0.single_flight_waits) as f64,
        "count",
    );
    m.put(
        "service.executions",
        (executions(&after) - executions(&before)) as f64,
        "count",
    );
    m.put("service.exec_p50_ms", median(&pick(true)) * 1e3, "ms");
    m.put("service.hit_p50_ms", median(&pick(false)) * 1e3, "ms");
    m.put(
        "admission.queued_grants",
        (after.admission.queued_grants - before.admission.queued_grants) as f64,
        "count",
    );
    m.put(
        "admission.max_queue_depth",
        after.admission.max_queue_depth as f64,
        "count",
    );
    m.put(
        "admission.refused",
        (refused(&after.admission) - refused(&before.admission)) as f64,
        "count",
    );
    m.put(
        "trace.overhead_frac",
        session_s(true) / session_s(false) - 1.0,
        "ratio",
    );
    micro::kernels(&mix.frame, &mut m)?;

    let summary = vec![format!(
        "{{\"summary\": \"service_mix\", \"statements\": {}, \"sessions\": {}, \"wall_s\": {wall_s}, \
         \"stmt_per_s\": {}, \"cache_budget_mb\": {}, \"frame_mb\": {}}}",
        log.stmts.len(),
        log.sessions.len(),
        statements / wall_s,
        cache1.budget.unwrap_or(0) as f64 / MB,
        mix.frame.approx_size_bytes() as f64 / MB,
    )];
    Ok((tally, m, summary, tracer))
}
