//! Criterion bench for the durable checkpoint pipeline: checksummed frame
//! encode + backend commit, stream verification and verified restore, on the
//! in-memory and the chunked-file (fsync + rename) backends.
//!
//! Beyond the raw distributions, the reporter prints the `WasteModel`
//! comparison column the durable pipeline enables: the paper's closed forms
//! assume a scalar recovery cost `R = C`; the pipeline *measures* the
//! restore/write asymmetry (and the checksum overhead), and the JSON
//! records the §IV waste for the scalar assumption next to the waste with
//! `R` replaced by the measured ratio — the measured-C/R column.
//!
//! Each leg drives the life cycle `repeats()` times on a fresh pipeline and
//! reports, per operation, the median next to min/mean/max over every
//! record; the derived ratios use the medians.
//!
//! Run with `cargo bench -p ft-bench --bench ckpt_pipeline`; the final line
//! prints a JSON summary suitable for `BENCH_ckpt_pipeline.json`.  Set
//! `FT_BENCH_SMOKE=1` (as CI does) for a seconds-long smoke run.

use criterion::{criterion_group, criterion_main, Criterion};
use ft_bench::host_json_fields;
use ft_ckpt::backend::{CheckpointBackend, ChunkedFileBackend, MemoryBackend};
use ft_ckpt::coordinated::CoordinatedCheckpoint;
use ft_ckpt::incremental::IncrementalCheckpoint;
use ft_ckpt::pipeline::{CheckpointPipeline, CostSummary, GenerationCost, PipelineOp};
use ft_ckpt::state::ProcessSet;
use ft_composite::model;
use ft_composite::params::ModelParams;
use ft_platform::checksum::{ChecksumGen, Crc32, NullChecksum};
use ft_platform::units::minutes;
use std::hint::black_box;

/// Whether CI asked for the tiny smoke image.
fn smoke() -> bool {
    std::env::var_os("FT_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn make_set() -> ProcessSet {
    if smoke() {
        ProcessSet::uniform(4, 32 * 1024, 8 * 1024)
    } else {
        ProcessSet::uniform(16, 256 * 1024, 64 * 1024)
    }
}

/// Generations committed per life cycle: every fourth is a full image and
/// the count is one past a multiple of four, so the cycle ends on a full
/// image and the measured restore reads exactly one stream.
fn generations() -> usize {
    if smoke() {
        9
    } else {
        33
    }
}

/// Life cycles driven per leg; each contributes one restore record.
fn repeats() -> usize {
    if smoke() {
        2
    } else {
        7
    }
}

fn evolve(set: &mut ProcessSet, round: u8) {
    for p in set.iter_mut() {
        let ids: Vec<usize> = p.regions().iter().map(|r| r.id).collect();
        for id in ids {
            p.region_mut(id).unwrap().update(|d| {
                for b in d.iter_mut() {
                    *b = b.wrapping_add(round);
                }
            });
        }
        p.advance(1.0);
    }
}

/// Drives one pipeline through a full write/verify/restore life cycle
/// (full commits with incremental deltas in between, every generation
/// verified, one verified restore of the final full image at the end) and
/// returns its per-op cost records.
fn drive<C: ChecksumGen + Clone, B: CheckpointBackend>(
    mut pipeline: CheckpointPipeline<C, B>,
) -> Vec<GenerationCost> {
    let mut set = make_set();
    let mut base_image = CoordinatedCheckpoint::capture(&set, 0.0);
    let mut base_generation = pipeline.commit_full(&base_image).unwrap();
    pipeline.verify(base_generation).unwrap();
    let mut latest = base_generation;
    for g in 1..generations() {
        evolve(&mut set, g as u8);
        let time = g as f64;
        let generation = if g % 4 == 0 {
            base_image = CoordinatedCheckpoint::capture(&set, time);
            base_generation = pipeline.commit_full(&base_image).unwrap();
            base_generation
        } else {
            let delta = IncrementalCheckpoint::capture_since(&set, &base_image, time);
            pipeline.commit_delta(&delta, base_generation).unwrap()
        };
        pipeline.verify(generation).unwrap();
        latest = generation;
    }
    let (restored, outcome) = pipeline.restore_latest().unwrap();
    assert_eq!(outcome.fallback_depth, 0);
    // The restored generation is the newest one and a full image, so the
    // restore fetched one stream and no delta chain: its cost matches the
    // one-image `raw_bytes` it reports.
    assert_eq!(outcome.generation, latest);
    assert_eq!(
        latest, base_generation,
        "the life cycle must end on a full image"
    );
    assert_eq!(
        restored.materialize().unwrap().fingerprint(),
        set.fingerprint(),
        "restored image must match the live state"
    );
    pipeline.costs().to_vec()
}

/// Per-op summaries over `repeats()` life cycles, each on a fresh pipeline.
fn drive_repeated<C: ChecksumGen + Clone, B: CheckpointBackend>(
    new_pipeline: impl Fn() -> CheckpointPipeline<C, B>,
) -> Vec<CostSummary> {
    let records: Vec<GenerationCost> = (0..repeats()).flat_map(|_| drive(new_pipeline())).collect();
    CostSummary::of(&records)
}

fn summary_of(summaries: &[CostSummary], op: PipelineOp) -> Option<&CostSummary> {
    summaries.iter().find(|s| s.op == op)
}

fn bench_pipeline_ops(c: &mut Criterion) {
    let set = make_set();
    let image = CoordinatedCheckpoint::capture(&set, 0.0);
    let mut group = c.benchmark_group("ckpt_pipeline");
    group.sample_size(10);
    group.bench_function("commit_full_crc32_memory", |b| {
        b.iter(|| {
            let mut p = CheckpointPipeline::new(Crc32::new(), MemoryBackend::new());
            black_box(p.commit_full(black_box(&image)).unwrap())
        })
    });
    group.bench_function("commit_full_null_memory", |b| {
        b.iter(|| {
            let mut p = CheckpointPipeline::new(NullChecksum, MemoryBackend::new());
            black_box(p.commit_full(black_box(&image)).unwrap())
        })
    });
    group.bench_function("verify_crc32_memory", |b| {
        let mut p = CheckpointPipeline::new(Crc32::new(), MemoryBackend::new());
        let generation = p.commit_full(&image).unwrap();
        b.iter(|| p.verify(black_box(generation)).unwrap())
    });
    group.bench_function("restore_latest_crc32_memory", |b| {
        let mut p = CheckpointPipeline::new(Crc32::new(), MemoryBackend::new());
        p.commit_full(&image).unwrap();
        b.iter(|| black_box(p.restore_latest().unwrap()))
    });
    group.finish();
}

/// One reported pipeline leg: its cost distributions plus identity.
/// `bytes_per_s` is the median record's throughput.
fn leg_json(name: &str, summaries: &[CostSummary]) -> String {
    let op_json = |label: &str, op: PipelineOp| {
        summary_of(summaries, op).map_or_else(
            || format!("\"{label}\": null"),
            |s| {
                let throughput = if s.median_seconds > 0.0 {
                    (s.total_raw_bytes as f64 / s.count as f64) / s.median_seconds
                } else {
                    0.0
                };
                format!(
                    "\"{label}\": {{\"count\": {}, \"repeats\": {}, \"min_s\": {:.9}, \
                     \"median_s\": {:.9}, \"mean_s\": {:.9}, \"max_s\": {:.9}, \
                     \"raw_bytes\": {}, \"bytes_per_s\": {:.0}}}",
                    s.count,
                    repeats(),
                    s.min_seconds,
                    s.median_seconds,
                    s.mean_seconds,
                    s.max_seconds,
                    s.total_raw_bytes,
                    throughput,
                )
            },
        )
    };
    format!(
        "\"{name}\": {{{}, {}, {}, {}}}",
        op_json("write_full", PipelineOp::WriteFull),
        op_json("write_delta", PipelineOp::WriteDelta),
        op_json("verify", PipelineOp::Verify),
        op_json("restore", PipelineOp::Restore),
    )
}

/// Prints the `BENCH_ckpt_pipeline.json` payload: measured write/verify/
/// restore distributions per leg, the checksum overhead, and the waste-model
/// comparison column with the measured restore/write ratio replacing the
/// scalar `R = C` assumption.
fn report_json(_c: &mut Criterion) {
    let crc_memory = drive_repeated(|| CheckpointPipeline::new(Crc32::new(), MemoryBackend::new()));
    let null_memory = drive_repeated(|| CheckpointPipeline::new(NullChecksum, MemoryBackend::new()));
    let crc_file = drive_repeated(|| {
        CheckpointPipeline::new(Crc32::new(), ChunkedFileBackend::new(256 * 1024).unwrap())
    });

    let write_crc = summary_of(&crc_memory, PipelineOp::WriteFull).unwrap().median_seconds;
    let write_null = summary_of(&null_memory, PipelineOp::WriteFull).unwrap().median_seconds;
    let restore_crc = summary_of(&crc_memory, PipelineOp::Restore).unwrap().median_seconds;
    let checksum_overhead = if write_null > 0.0 { write_crc / write_null } else { 1.0 };
    // Measured restore/write asymmetry: what the paper's scalar model pins
    // at R/C = 1.  Either direction occurs in practice — a write pays
    // serialization + checksum + commit while a restore pays fetch +
    // re-verify + decode, and which side dominates depends on the backend.
    let measured_ratio = if write_crc > 0.0 { restore_crc / write_crc } else { 1.0 };

    // The WasteModel comparison column: §IV waste with the scalar R = C
    // assumption versus R = C × measured ratio, for the headline scenario.
    let scalar = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
    let measured = ModelParams::builder()
        .epoch_duration(scalar.epoch_duration)
        .alpha(scalar.alpha)
        .checkpoint_cost(scalar.checkpoint_cost)
        .recovery_cost(scalar.checkpoint_cost * measured_ratio)
        .downtime(scalar.downtime)
        .rho(scalar.rho)
        .phi(scalar.phi)
        .abft_reconstruction(scalar.abft_reconstruction)
        .platform_mtbf(scalar.platform_mtbf)
        .build()
        .unwrap();
    let column = |params: &ModelParams| {
        (
            model::pure::waste(params).unwrap().value(),
            model::composite::waste(params).unwrap().value(),
        )
    };
    let (pure_scalar, composite_scalar) = column(&scalar);
    let (pure_measured, composite_measured) = column(&measured);

    println!(
        "{{\"bench\": \"ckpt_pipeline\", \"smoke\": {}, \"image_bytes\": {}, \
         \"generations\": {}, {}, {}, {}, \
         \"checksum_overhead_write\": {checksum_overhead:.4}, \
         \"measured_restore_write_ratio\": {measured_ratio:.4}, \
         \"waste_scalar\": {{\"pure\": {pure_scalar:.6}, \"composite\": {composite_scalar:.6}}}, \
         \"waste_measured_cr\": {{\"pure\": {pure_measured:.6}, \"composite\": {composite_measured:.6}}}, \
         {}}}",
        smoke(),
        make_set().total_footprint(),
        generations(),
        leg_json("crc32_memory", &crc_memory),
        leg_json("null_memory", &null_memory),
        leg_json("crc32_chunked_file", &crc_file),
        host_json_fields(),
    );
}

criterion_group!(benches, bench_pipeline_ops, report_json);
criterion_main!(benches);
