//! The `ckpt-cycle` workload: the paper's checkpoint traffic through
//! `CheckpointPipeline` on the in-memory backend.
//!
//! One cycle takes a full coordinated checkpoint (cost C), then
//! `PARTIALS` REMAINDER partial checkpoints ((1 − ρ)C with ρ = 0.8), each
//! verified after its commit, and ends with a verified `restore_latest`
//! (cost R) that resolves the newest partial onto its full base.  The image
//! is 16 ranks × (256 KiB LIBRARY + 64 KiB REMAINDER) = 5 MiB, the shape of
//! `BENCH_ckpt_pipeline.json`.  The chunked-file backend is left out: on a
//! shared VM its fsync latency measures the disk, not this code.

use std::hint::black_box;
use std::time::Instant;

use ft_ckpt::backend::{CheckpointBackend, MemoryBackend, StoreFault};
use ft_ckpt::coordinated::CoordinatedCheckpoint;
use ft_ckpt::frame::{
    decode_coordinated, decode_partial, decode_stream, encode_coordinated, encode_partial,
    encode_stream, FrameHeader, PayloadKind, DEFAULT_CHUNK_SIZE,
};
use ft_ckpt::partial::PartialCheckpoint;
use ft_ckpt::pipeline::CheckpointPipeline;
use ft_ckpt::state::{DatasetKind, ProcessSet};
use ft_platform::checksum::{ChecksumGen, Crc32};
use ft_platform::rng::{DeterministicRng, Xoshiro256};

use crate::timing::{
    describe, median, peak_rss_mb, raw_median, repeat_for, report, since, timed, DriftClock,
};
use crate::{Checks, Options};

const RANKS: usize = 16;
const LIBRARY_BYTES: usize = 256 * 1024;
const REMAINDER_BYTES: usize = 64 * 1024;
/// REMAINDER partial checkpoints per cycle.
const PARTIALS: usize = 4;
/// Minimum timed cycles of each driver per run.
const MIN_CYCLES: usize = 5;
/// Back-to-back set-ups per `setup_s` sample: one set-up (8–13 ms,
/// depending on whether the allocator hands back recycled pages) varies
/// too much from sample to sample to time alone.
const SETUP_BATCH: usize = 4;

/// The set-up phase: allocate the process set and fill it from the seed,
/// eight bytes per draw.
fn make_set(seed: u64) -> ProcessSet {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut set = ProcessSet::uniform(RANKS, LIBRARY_BYTES, REMAINDER_BYTES);
    for p in set.iter_mut() {
        let ids: Vec<usize> = p.regions().iter().map(|r| r.id).collect();
        for id in ids {
            let region = p.region_mut(id).expect("ids come from the process");
            region.update(|d| {
                for chunk in d.chunks_mut(8) {
                    let bytes = rng.next_u64().to_le_bytes();
                    chunk.copy_from_slice(&bytes[..chunk.len()]);
                }
            });
        }
    }
    set
}

/// Application progress between two checkpoints: the GENERAL phase
/// rewrites the REMAINDER dataset.
fn evolve(set: &mut ProcessSet, round: u64) {
    for p in set.iter_mut() {
        let ids: Vec<usize> = p.regions_of(DatasetKind::Remainder).map(|r| r.id).collect();
        for id in ids {
            let region = p.region_mut(id).expect("ids come from the process");
            region.update(|d| {
                for (i, b) in d.iter_mut().enumerate() {
                    *b = b.wrapping_add((round as u8) ^ (i as u8));
                }
            });
        }
        p.advance(1.0);
    }
}

/// Per-operation latencies and outcome of one cycle.
#[derive(Default)]
struct Cycle {
    full: f64,
    partial: Vec<f64>,
    verify: Vec<f64>,
    restore: f64,
    retries: u32,
    fallback_depth: usize,
    /// The image `restore_latest` returned, checked against the live state
    /// by `check_restore` outside the timed span.
    restored: Option<CoordinatedCheckpoint>,
    /// Correctness checks made on the cycle, and the failures among them.
    checks: usize,
    problems: Vec<String>,
}

impl Cycle {
    /// The restore check: the restored image must materialize to the live
    /// state's fingerprint.
    fn check_restore(&mut self, live: &ProcessSet) {
        let Some(image) = self.restored.take() else {
            return;
        };
        match image.materialize() {
            Ok(state) if state.fingerprint() == live.fingerprint() => {}
            Ok(_) => self
                .problems
                .push("restored state differs from the live state".into()),
            Err(e) => self
                .problems
                .push(format!("restored image does not materialize: {e}")),
        }
    }
}

/// One cycle on a fresh pipeline over `backend`.  `round` advances the
/// application clock so every cycle writes new data.  The restored image is
/// returned unchecked; `Cycle::check_restore` checks it.
fn cycle<B: CheckpointBackend>(
    set: &mut ProcessSet,
    round: &mut u64,
    pipeline: &mut CheckpointPipeline<Crc32, B>,
    mut stage: impl FnMut(&mut CheckpointPipeline<Crc32, B>, FrameHeader, &ProcessSet),
) -> Cycle {
    // Every verify and the restore are one check each.
    let mut out = Cycle {
        checks: PARTIALS + 2,
        ..Cycle::default()
    };
    let verify = |p: &mut CheckpointPipeline<Crc32, B>, g: u64, out: &mut Cycle| {
        let (r, t) = timed(|| p.verify(g));
        out.verify.push(t);
        if let Err(e) = r {
            out.problems
                .push(format!("verify of generation {g} failed: {e}"));
        }
    };
    let image = CoordinatedCheckpoint::capture(set, *round as f64);
    let (base, t) = timed(|| pipeline.commit_full(&image));
    out.full = t;
    let base = base.expect("the memory backend never fails a put");
    let header = FrameHeader {
        generation: base,
        payload: PayloadKind::Full,
        time: image.time,
    };
    stage(pipeline, header, set);
    verify(pipeline, base, &mut out);
    for _ in 0..PARTIALS {
        *round += 1;
        evolve(set, *round);
        let partial = PartialCheckpoint::capture(set, DatasetKind::Remainder, *round as f64);
        let (g, t) = timed(|| pipeline.commit_partial(&partial, base));
        out.partial.push(t);
        let g = g.expect("the memory backend never fails a put");
        let header = FrameHeader {
            generation: g,
            payload: PayloadKind::Partial {
                dataset: DatasetKind::Remainder,
                base,
            },
            time: partial.time,
        };
        stage(pipeline, header, set);
        verify(pipeline, g, &mut out);
    }
    *round += 1;
    let (restored, t) = timed(|| pipeline.restore_latest());
    out.restore = t;
    match restored {
        Ok((image, outcome)) => {
            out.retries = outcome.transient_retries;
            out.fallback_depth = outcome.fallback_depth;
            if outcome.fallback_depth != 0 || outcome.transient_retries != 0 {
                out.problems.push(format!("restore degraded: {outcome:?}"));
            }
            out.restored = Some(image);
        }
        Err(e) => out.problems.push(format!("restore failed: {e}")),
    }
    out
}

/// Tallies a cycle's checks; each problem found fails one of them.
fn record(checks: &mut Checks, c: &Cycle) {
    for problem in &c.problems {
        checks.check(false, || problem.clone());
    }
    for _ in c.problems.len()..c.checks {
        checks.check(true, String::new);
    }
}

pub fn run(opts: &Options, checks: &mut Checks) -> Vec<(&'static str, f64)> {
    let mut set = make_set(opts.seed);
    println!(
        "# workload ckpt-cycle: seed {}, {} ranks, {} B image, 1 full + {PARTIALS} REMAINDER partial commits per cycle, chunk {DEFAULT_CHUNK_SIZE} B",
        opts.seed,
        RANKS,
        set.total_footprint()
    );
    if opts.trace {
        return traced_run(opts, checks, &mut set);
    }
    let mut round = 0u64;
    // The warm-up cycle is a traced one, so every run also checks the
    // stored streams byte for byte.
    record(checks, &traced_cycle(&mut set, &mut round).0);
    let fresh = || CheckpointPipeline::new(Crc32::new(), MemoryBackend::new());
    // The 2-thread driver: two rank groups checkpoint concurrently, each
    // with its own pipeline, as on a 2-core node.
    let mut sets = [set.clone(), set.clone()];
    let mut clock = DriftClock::new();
    let (mut serial, mut two, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    repeat_for(opts.seconds, MIN_CYCLES, |i| {
        for parallel in [i % 2 == 1, i % 2 == 0] {
            if parallel {
                let mut cycles: Vec<Cycle> = clock.time(&mut two, || {
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = sets
                            .iter_mut()
                            .map(|s| {
                                let mut r = round;
                                scope.spawn(move || cycle(s, &mut r, &mut fresh(), |_, _, _| {}))
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("checkpoint worker panicked"))
                            .collect()
                    })
                });
                for (c, s) in cycles.iter_mut().zip(&sets) {
                    c.check_restore(s);
                    record(checks, c);
                }
            } else {
                let mut c = clock.time(&mut serial, || {
                    cycle(&mut set, &mut round, &mut fresh(), |_, _, _| {})
                });
                c.check_restore(&set);
                record(checks, &c);
            }
        }
        clock.time_each(&mut setups, SETUP_BATCH, || make_set(opts.seed));
    });
    // The cycles stream megabytes through memory, and their speed does not
    // follow the register-bound reference kernel: over four ten-seed sets
    // the raw medians spread 0.02-0.05 across seeds, the normalised ones
    // 0.03-0.11.  So the cycle times are reported raw; the set-up, whose
    // time does follow the kernel, is normalised.
    report("wall_s (one cycle)", &serial);
    report("wall_2t_s (two concurrent cycles)", &two);
    let (wall, wall_2t) = (raw_median(&serial), raw_median(&two));
    let setup = report("setup_s", &setups);
    clock.report();
    vec![
        ("wall_s", wall),
        ("wall_2t_s", wall_2t),
        ("setup_s", setup),
        ("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN)),
    ]
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// The in-memory backend with its `put`/`get` time measured.
#[derive(Default)]
struct TimedBackend {
    inner: MemoryBackend,
    put_s: f64,
    get_s: f64,
}

impl CheckpointBackend for TimedBackend {
    fn put(&mut self, generation: u64, bytes: &[u8]) -> Result<(), StoreFault> {
        let (r, t) = timed(|| self.inner.put(generation, bytes));
        self.put_s += t;
        r
    }

    fn get(&mut self, generation: u64) -> Result<Vec<u8>, StoreFault> {
        let (r, t) = timed(|| self.inner.get(generation));
        self.get_s += t;
        r
    }

    fn generations(&self) -> Vec<u64> {
        self.inner.generations()
    }

    fn delete(&mut self, generation: u64) -> Result<(), StoreFault> {
        self.inner.delete(generation)
    }

    fn name(&self) -> &'static str {
        "timed-memory"
    }
}

/// Stage times and byte counts of one traced cycle.
#[derive(Default, Clone)]
struct Stages {
    capture: f64,
    encode: f64,
    frame: f64,
    crc: f64,
    decode: f64,
    materialize: f64,
    put: f64,
    get: f64,
    /// The whole traced cycle, stages included.
    wall: f64,
    raw_bytes: u64,
    stored_bytes: u64,
}

/// One cycle with every pipeline stage traced.  After each commit its
/// stages are redone one by one from public calls, and the stream the
/// pipeline stored must equal `encode_stream` of the captured body.
fn traced_cycle(set: &mut ProcessSet, round: &mut u64) -> (Cycle, Stages) {
    let start = Instant::now();
    let mut pipeline = CheckpointPipeline::new(Crc32::new(), TimedBackend::default());
    let mut st = Stages::default();
    let mut problems = Vec::new();
    let mut c = cycle(set, round, &mut pipeline, |p, header, live| {
        let g = header.generation;
        let stored = p.backend_mut().inner.get(g).expect("just committed");
        let (body, t) = match header.payload {
            PayloadKind::Full => {
                let (image, t) = timed(|| CoordinatedCheckpoint::capture(live, header.time));
                st.capture += t;
                timed(|| encode_coordinated(&image))
            }
            _ => {
                let (part, t) =
                    timed(|| PartialCheckpoint::capture(live, DatasetKind::Remainder, header.time));
                st.capture += t;
                timed(|| encode_partial(&part))
            }
        };
        st.encode += t;
        let (framed, t) = timed(|| encode_stream(header, &body, DEFAULT_CHUNK_SIZE, Crc32::new()));
        st.frame += t;
        let (crc, t) = timed(|| Crc32::new().checksum_of(&body));
        st.crc += t;
        black_box(crc);
        if framed != stored {
            problems.push(format!(
                "generation {g}: stored stream differs from encode_stream output"
            ));
        }
        let (decoded, t) = timed(|| {
            decode_stream(&stored, Crc32::new()).map(|(_, b)| match header.payload {
                PayloadKind::Full => decode_coordinated(&b).is_ok(),
                _ => decode_partial(&b).is_ok(),
            })
        });
        st.decode += t;
        if decoded != Ok(true) {
            problems.push(format!("generation {g}: stored stream does not decode"));
        }
        st.raw_bytes += body.len() as u64;
        st.stored_bytes += stored.len() as u64;
    });
    st.wall = since(start);
    c.check_restore(set);
    st.put = pipeline.backend().put_s;
    st.get = pipeline.backend().get_s;
    match pipeline.restore_latest() {
        Ok((image, _)) => {
            let (live, t) = timed(|| image.materialize());
            st.materialize = t;
            if live.is_err() {
                problems.push("restored image does not materialize".into());
            }
        }
        Err(e) => problems.push(format!("second restore failed: {e}")),
    }
    // Each commit's stored stream is checked twice (bytes, decode), and the
    // second restore once.
    c.checks += 2 * (PARTIALS + 1) + 1;
    c.problems.extend(problems);
    (c, st)
}

fn traced_run(
    opts: &Options,
    checks: &mut Checks,
    set: &mut ProcessSet,
) -> Vec<(&'static str, f64)> {
    let mut round = 0u64;
    let fresh = || CheckpointPipeline::new(Crc32::new(), MemoryBackend::new());
    let mut c = cycle(set, &mut round, &mut fresh(), |_, _, _| {});
    c.check_restore(set);
    record(checks, &c);
    let mut clock = DriftClock::new();
    let mut cycles: Vec<(Cycle, Stages)> = Vec::new();
    // Untraced cycles interleaved with the traced ones give the overhead
    // figure under the same host drift.
    let mut untraced = Vec::new();
    repeat_for(opts.seconds, 3, |_| {
        let mut c = clock.time(&mut untraced, || {
            cycle(set, &mut round, &mut fresh(), |_, _, _| {})
        });
        c.check_restore(set);
        record(checks, &c);
        cycles.push(traced_cycle(set, &mut round));
    });
    let first = &cycles[0].1;
    for (_, st) in &cycles {
        checks.check(
            (st.raw_bytes, st.stored_bytes) == (first.raw_bytes, first.stored_bytes),
            || "per-cycle byte counts changed between cycles".into(),
        );
    }
    for (c, _) in &cycles {
        record(checks, c);
    }
    let stage =
        |f: fn(&Stages) -> f64| median(&cycles.iter().map(|(_, s)| f(s)).collect::<Vec<_>>());
    let op = |f: fn(&Cycle) -> Vec<f64>| {
        median(&cycles.iter().flat_map(|(c, _)| f(c)).collect::<Vec<_>>())
    };
    let walls: Vec<f64> = cycles.iter().map(|(_, s)| s.wall).collect();
    let traced = median(&walls);
    println!("{}", describe("traced cycle", &walls));
    println!(
        "# tracing overhead: traced cycle {traced:.6} s vs untraced wall_s {:.6} s ({:.3}x)",
        raw_median(&untraced),
        traced / raw_median(&untraced)
    );
    println!(
        "# per-cycle counts (must repeat exactly): raw {} B, stored {} B",
        first.raw_bytes, first.stored_bytes
    );
    clock.report();
    vec![
        ("ckpt.commit_full_s", op(|c| vec![c.full])),
        ("ckpt.commit_partial_s", op(|c| c.partial.clone())),
        ("ckpt.verify_s", op(|c| c.verify.clone())),
        ("ckpt.restore_s", op(|c| vec![c.restore])),
        ("ckpt.capture_s", stage(|s| s.capture)),
        ("ckpt.encode_s", stage(|s| s.encode)),
        ("ckpt.frame_s", stage(|s| s.frame)),
        ("checksum.crc_s", stage(|s| s.crc)),
        ("ckpt.put_s", stage(|s| s.put)),
        ("ckpt.get_s", stage(|s| s.get)),
        ("ckpt.decode_s", stage(|s| s.decode)),
        ("ckpt.materialize_s", stage(|s| s.materialize)),
        ("ckpt.raw_bytes", first.raw_bytes as f64),
        ("ckpt.stored_bytes", first.stored_bytes as f64),
        (
            "ckpt.retries",
            cycles.iter().map(|(c, _)| f64::from(c.retries)).sum(),
        ),
        (
            "ckpt.fallback_depth",
            cycles.iter().map(|(c, _)| c.fallback_depth as f64).sum(),
        ),
    ]
}
