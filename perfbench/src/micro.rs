//! Single-layer measurements of the traced run, each on the workload's own data:
//! the serial CSV parser, the single-threaded operator kernels, and the spill codec.

use std::path::Path;
use std::time::Instant;

use df_core::algebra::{ColumnSelector, JoinOn, JoinType, SortSpec};
use df_core::columnar::ColumnBlock;
use df_core::dataframe::DataFrame;
use df_core::ops::{group, rowwise, setops};
use df_storage::csv::{read_csv_path, CsvOptions};
use df_storage::spill::{read_spill_part, write_spill_part, StoredPart};
use df_types::error::{DfError, DfResult};

use crate::etl::{zone_aggregations, zone_frame, FARE_FLOOR, KEPT, PAIR};
use crate::util::{greater, labels, median, secs, Metrics, MB};

/// Repetitions per measurement; the median is reported.
const REPS: usize = 5;

/// Median seconds of `REPS` calls of `f`.
fn time<T>(mut f: impl FnMut() -> DfResult<T>) -> DfResult<f64> {
    let mut times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        std::hint::black_box(f()?);
        times.push(secs(t.elapsed()));
    }
    Ok(median(&times))
}

/// Throughput of the serial reader `df_storage::csv::read_csv_path` on `csv`.
pub fn csv_parse_mb_per_s(csv: &Path, file_bytes: u64) -> DfResult<f64> {
    let options = CsvOptions {
        infer_schema: true,
        ..CsvOptions::default()
    };
    let t = time(|| read_csv_path(csv, &options))?;
    Ok(file_bytes as f64 / MB / t)
}

/// The `df_core::ops` kernels behind the ETL script's steps, on one thread: the
/// filter on the whole frame, then join, group-by, sort and de-duplication on the
/// filtered, projected frame.
pub fn kernels(full: &DataFrame, metrics: &mut Metrics) -> DfResult<()> {
    let predicate = greater("fare_amount", FARE_FLOOR);
    let kept_columns = ColumnSelector::ByLabels(labels(&KEPT));
    let kept = rowwise::projection(&rowwise::selection(full, &predicate)?, &kept_columns)?;
    let zones = zone_frame()?;
    let on = JoinOn::Columns(labels(&["passenger_count"]));
    let joined = setops::join(&kept, &zones, &on, JoinType::Inner)?;
    let aggs = zone_aggregations();
    let pairs = rowwise::projection(&kept, &ColumnSelector::ByLabels(labels(&PAIR)))?;
    let spec = SortSpec::ascending(labels(&["fare_amount"]));

    metrics.put(
        "kernel.select_s",
        time(|| rowwise::selection(full, &predicate))?,
        "s",
    );
    metrics.put(
        "kernel.join_s",
        time(|| setops::join(&kept, &zones, &on, JoinType::Inner))?,
        "s",
    );
    metrics.put(
        "kernel.groupby_s",
        time(|| group::group_by(&joined, &labels(&["zone"]), &aggs, false))?,
        "s",
    );
    metrics.put("kernel.sort_s", time(|| group::sort(&kept, &spec))?, "s");
    metrics.put(
        "kernel.dedup_s",
        time(|| group::drop_duplicates(&pairs))?,
        "s",
    );
    Ok(())
}

/// Spill codec throughput: a write-then-read round trip of one band of the workload
/// (the engine's default band height) as a typed column block, in MB of block per
/// second of round trip. The decoded block must equal the original.
pub fn codec_mb_per_s(full: &DataFrame, dir: &Path) -> DfResult<f64> {
    let band_rows = df_engine::partition::PartitionConfig::default().target_rows;
    let band = full.slice_rows(0, band_rows.min(full.n_rows()));
    let part = StoredPart::Block(ColumnBlock::from_frame(&band));
    let path = dir.join("codec.spill");
    let t = time(|| {
        write_spill_part(&part, &path)?;
        read_spill_part(&path)
    })?;
    let back = read_spill_part(&path)?;
    std::fs::remove_file(&path)?;
    if !back.to_frame().same_data(&band) {
        return Err(DfError::Internal(
            "spill codec round trip changed the band".into(),
        ));
    }
    Ok(part.approx_size_bytes() as f64 / MB / t)
}
