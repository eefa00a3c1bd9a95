//! Batched structure-of-arrays simulation engine.
//!
//! The scalar executors in [`crate::engine`] advance one replication at a
//! time through a chain of dependent float additions: every `try_run` waits
//! on the previous one's clock value.  This module advances **many
//! replications of the same parameter point in lockstep** over
//! structure-of-arrays state (per-lane current time, next-failure time and
//! failure count), so failure-free stretches — the overwhelmingly common
//! case on realistic MTBFs — collapse into fused, branch-free array passes
//! with independent per-lane dependency chains.
//!
//! # Why lockstep is possible at all
//!
//! In every protocol of the study, failures only cause *retries*: they never
//! change **which** activities run in **what order**.  The sequence of
//! "program positions" — periods of checkpointed work, forced checkpoints,
//! ABFT-protected phases — is a pure function of `(protocol, profile,
//! plan)`.  [`BatchProgram::compile`] materialises that sequence once per
//! parameter point; lanes then share the program position while owning their
//! simulation clocks.  The same compiled program is what crash-resume
//! ([`crate::resume`]) walks, one clock at a time.
//!
//! # Why the result is bit-exact
//!
//! For each program step, a lane is advanced by one of two paths:
//!
//! * **fast path** — the optimistic pass computes the step's end time with
//!   *exactly the float additions, in exactly the order*, that the scalar
//!   engine's first attempt would perform, and commits it only if the step
//!   provably completes before the lane's next failure.  For a work+checkpoint
//!   period the single test `(now + work) + ckpt < next_failure` implies the
//!   scalar engine's two sequential tests (`now + work ≥ (now + work) + ckpt`
//!   can't hold for a nonnegative checkpoint under round-to-nearest), and the
//!   committed end time is the bit pattern the scalar clock would hold;
//! * **slow path** — a lane whose step may be interrupted is left untouched
//!   by the optimistic pass and is then replayed through the step
//!   interpreter, whose retry loops are the scalar control flow of
//!   [`crate::engine`] / [`crate::clock::SimClock::try_run`], drawing from
//!   that lane's own failure source.
//!
//! Per-lane failure sequences come from [`BatchFailureSource`]s whose lanes
//! are bit-identical to the scalar sources (see `ft_platform::batch`), so
//! every lane reproduces its scalar replication's [`SimOutcome`] exactly —
//! the contract the differential oracle harness
//! (`tests/batch_engine_oracle.rs`) enforces across failure families,
//! protocols, profiles, batch widths and source flavours.
//!
//! # Entry points
//!
//! * [`simulate_profile_batch`] / [`simulate_profile_batch_antithetic`] /
//!   [`simulate_profile_batch_replay`] — one batch, one outcome per lane
//!   (the oracle harness surface);
//! * [`accumulate_batch`] — the replication driver over one or more
//!   pre-compiled (usually [`BatchProgramCache`]d) programs: the batch
//!   counterpart of [`crate::replicate::accumulate_profile_engine`] (one
//!   program, read `outcomes[0]`) and of
//!   [`crate::replicate::accumulate_paired_engine`] (several programs,
//!   common random numbers).  Same seed stream, same push order, same
//!   stopping checks, bit-identical accumulators — at every lane width and
//!   every intra-point `threads` count.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use ft_composite::scenario::ApplicationProfile;
use ft_platform::batch::{BatchFailureSource, BatchFailureStream, BatchTraceBuffer};
use ft_platform::failure::{AnyFailureModel, FailureModel};
use ft_platform::rng::SeedStream;

use crate::clock::{ActivityResult, TryRun};
use crate::engine::{Engine, PeriodPlan};
use crate::protocols::{Protocol, SimOutcome};
use crate::replicate::{PairedAccumulator, ReplicationBudget, ReplicationPlan};
use crate::stats::{OutcomeAccumulator, Welford};

/// Default lane width of the batch engine: wide enough to amortise the
/// per-step pass and expose plenty of independent dependency chains, small
/// enough that the SoA state stays resident in L1.
pub const DEFAULT_BATCH_LANES: usize = 128;

/// One failure-interruptible step of a compiled protocol program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Step {
    /// One checkpointed-stream attempt unit: `work` seconds of rollback-
    /// protected work followed by a checkpoint of cost `ckpt`; a failure
    /// anywhere in the attempt discards it (after a rollback recovery).
    Period { work: f64, ckpt: f64 },
    /// A forced checkpoint retried (after rollback recovery) until clean.
    Forced { cost: f64 },
    /// An ABFT-protected work phase: failures cost an ABFT recovery but lose
    /// no work.
    AbftWork { work: f64 },
    /// The forced LIBRARY exit checkpoint, retried after ABFT recoveries.
    AbftCkpt { cost: f64 },
}

/// A protocol × profile × plan compiled into the straight-line sequence of
/// failure-interruptible steps every replication of the point executes.
///
/// Compilation happens once per parameter point; running the program
/// advances all lanes of a [`BatchState`] through the steps in lockstep.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchProgram {
    protocol: Protocol,
    pub(crate) steps: Vec<Step>,
    base_time: f64,
    downtime: f64,
    recovery: f64,
    recovery_remainder: f64,
    abft_reconstruction: f64,
}

/// Structure-of-arrays per-lane simulation state: the batch counterpart of a
/// bank of [`crate::clock::SimClock`]s.
#[derive(Debug, Clone, Default)]
pub struct BatchState {
    now: Vec<f64>,
    next_failure: Vec<f64>,
    failures: Vec<usize>,
    /// Dense worklist of the lanes whose current step missed the fast path,
    /// in ascending lane order.  The slow path walks only this compacted
    /// list, so a step with few interrupted lanes never re-reads the dead
    /// ones.
    interrupted: Vec<u32>,
}

impl BatchState {
    /// An empty state; [`BatchProgram::run`] sizes it to the source's lanes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lanes currently held.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.now.len()
    }

    /// Resets to `source.lanes()` fresh lanes at time zero, drawing each
    /// lane's first failure — the batch counterpart of
    /// [`crate::clock::SimClock::with_source`]'s eager first draw, taken
    /// through the source's columnar bulk path.
    fn reset<S: BatchFailureSource>(&mut self, source: &mut S) {
        let lanes = source.lanes();
        self.now.clear();
        self.now.resize(lanes, 0.0);
        self.failures.clear();
        self.failures.resize(lanes, 0);
        self.next_failure.clear();
        self.next_failure.resize(lanes, 0.0);
        source.fill_next_failures(lanes, &mut self.next_failure);
        self.interrupted.clear();
    }

    /// Loads one lane's clock into registers for a slow-path excursion.
    #[inline]
    fn load<'s, S>(&self, source: &'s mut S, lane: usize) -> LaneClock<'s, S> {
        LaneClock {
            now: self.now[lane],
            next_failure: self.next_failure[lane],
            failures: self.failures[lane],
            source,
            lane,
        }
    }

    /// Writes a slow-path excursion's result back to the lane's slots.
    #[inline]
    fn store<S>(&mut self, clock: &LaneClock<'_, S>) {
        self.now[clock.lane] = clock.now;
        self.next_failure[clock.lane] = clock.next_failure;
        self.failures[clock.lane] = clock.failures;
    }
}

/// One lane's clock held in registers while its slow path runs, together
/// with the batch source it redraws from — the register-resident
/// counterpart of [`crate::clock::SimClock`], so the step interpreter runs
/// on locals exactly like the scalar engine instead of bounds-checked array
/// accesses.
struct LaneClock<'s, S> {
    now: f64,
    next_failure: f64,
    failures: usize,
    source: &'s mut S,
    lane: usize,
}

impl<S: BatchFailureSource> TryRun for LaneClock<'_, S> {
    /// Mirrors [`crate::clock::SimClock::try_run`] bit for bit (early return
    /// on non-positive durations, strict completion test, eager redraw of
    /// the lane's next failure on interrupt).
    #[inline]
    fn try_run(&mut self, duration: f64) -> ActivityResult {
        if duration <= 0.0 {
            return ActivityResult::Completed;
        }
        if self.now + duration < self.next_failure {
            self.now += duration;
            ActivityResult::Completed
        } else {
            let progress = (self.next_failure - self.now).max(0.0);
            self.now = self.next_failure;
            self.failures += 1;
            self.next_failure = self.source.next_failure(self.lane);
            ActivityResult::Interrupted { progress }
        }
    }
}

/// Advances every lane one failure-free step of `a + b` cost, branch-free:
/// lanes whose optimistic end time `(now + a) + b` stays strictly before the
/// next failure commit it (the exact float additions, in the exact order, of
/// the scalar engine's first attempt); the rest are **compacted** into
/// `interrupted`, a dense worklist of lane indices in ascending order.  The
/// worklist write is unconditional with a predicated length bump, so the
/// pass stays branch-free even when interrupts are common.
#[inline]
fn fast_pass_two(now: &mut [f64], next_failure: &[f64], interrupted: &mut Vec<u32>, a: f64, b: f64) {
    let lanes = now.len();
    interrupted.clear();
    interrupted.resize(lanes, 0);
    let mut hits = 0usize;
    for (lane, (t, &nf)) in now.iter_mut().zip(next_failure).enumerate() {
        let end = (*t + a) + b;
        let ok = end < nf;
        *t = if ok { end } else { *t };
        interrupted[hits] = lane as u32;
        hits += usize::from(!ok);
    }
    interrupted.truncate(hits);
}

/// Single-addition counterpart of [`fast_pass_two`] for steps with one cost
/// term.
#[inline]
fn fast_pass_one(now: &mut [f64], next_failure: &[f64], interrupted: &mut Vec<u32>, a: f64) {
    let lanes = now.len();
    interrupted.clear();
    interrupted.resize(lanes, 0);
    let mut hits = 0usize;
    for (lane, (t, &nf)) in now.iter_mut().zip(next_failure).enumerate() {
        let end = *t + a;
        let ok = end < nf;
        *t = if ok { end } else { *t };
        interrupted[hits] = lane as u32;
        hits += usize::from(!ok);
    }
    interrupted.truncate(hits);
}

impl BatchProgram {
    /// Compiles the straight-line step program `protocol` executes over
    /// `profile` under `plan` — the exact activity sequence the scalar
    /// executors of [`crate::engine`] walk, with the retry loops factored
    /// into the steps.
    pub fn compile(protocol: Protocol, profile: &ApplicationProfile, plan: &PeriodPlan) -> Self {
        let mut steps = Vec::new();
        match protocol {
            Protocol::PurePeriodicCkpt => {
                push_stream(
                    &mut steps,
                    profile.total_duration(),
                    plan.ckpt_full,
                    plan.full_period,
                );
            }
            Protocol::BiPeriodicCkpt => {
                for epoch in profile.epochs() {
                    push_stream(&mut steps, epoch.general, plan.ckpt_full, plan.full_period);
                    push_stream(
                        &mut steps,
                        epoch.library,
                        plan.ckpt_library,
                        plan.library_period,
                    );
                }
            }
            Protocol::AbftPeriodicCkpt => {
                for epoch in profile.epochs() {
                    let work = epoch.general;
                    if work <= 0.0 {
                        if epoch.library > 0.0 {
                            steps.push(Step::Forced {
                                cost: plan.ckpt_remainder,
                            });
                        }
                    } else if work < plan.full_period {
                        // Short GENERAL phase: one attempt unit ending in the
                        // forced REMAINDER checkpoint — structurally the same
                        // retry loop as a checkpointed-stream period.
                        steps.push(Step::Period {
                            work,
                            ckpt: plan.ckpt_remainder,
                        });
                    } else {
                        push_stream(&mut steps, work, plan.ckpt_full, plan.full_period);
                    }
                    if epoch.library > 0.0 {
                        steps.push(Step::AbftWork {
                            work: plan.phi * epoch.library,
                        });
                        steps.push(Step::AbftCkpt {
                            cost: plan.ckpt_library,
                        });
                    }
                }
            }
        }
        Self {
            protocol,
            steps,
            base_time: profile.total_duration(),
            downtime: plan.downtime,
            recovery: plan.recovery,
            recovery_remainder: plan.recovery_remainder,
            abft_reconstruction: plan.abft_reconstruction,
        }
    }

    /// The protocol the program was compiled from.
    #[inline]
    pub(crate) fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The failure-free application duration lanes are normalised against.
    #[inline]
    pub fn base_time(&self) -> f64 {
        self.base_time
    }

    /// Number of compiled steps (one per failure-interruptible attempt unit).
    #[inline]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the program performs no work at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Runs every lane of `source` through the whole program in lockstep.
    /// `state` is reset to the source's lane count first; read per-lane
    /// results with [`BatchProgram::outcome`] afterwards.
    ///
    /// Each step first sweeps all lanes through a branch-free fast pass —
    /// two adds, a compare, and a select per lane over contiguous arrays —
    /// committing every lane the step completes failure-free and compacting
    /// the rest into a dense worklist of lane indices.  Only the worklist
    /// lanes take the step interpreter, with each lane's clock held in
    /// registers for the retry loop — no re-scan of the committed lanes.
    pub fn run<S: BatchFailureSource>(&self, source: &mut S, state: &mut BatchState) {
        state.reset(source);
        let lanes = state.lanes();
        for &step in &self.steps {
            match step {
                Step::Period { work, ckpt } => fast_pass_two(
                    &mut state.now[..lanes],
                    &state.next_failure[..lanes],
                    &mut state.interrupted,
                    work,
                    ckpt,
                ),
                Step::Forced { cost } | Step::AbftCkpt { cost } => fast_pass_one(
                    &mut state.now[..lanes],
                    &state.next_failure[..lanes],
                    &mut state.interrupted,
                    cost,
                ),
                Step::AbftWork { work } => fast_pass_one(
                    &mut state.now[..lanes],
                    &state.next_failure[..lanes],
                    &mut state.interrupted,
                    work,
                ),
            }
            // Interrupted lanes replay the whole step through the
            // interpreter; indexing the worklist (instead of holding a
            // borrow on it) keeps `state` free for the per-lane load/store.
            for k in 0..state.interrupted.len() {
                let lane = state.interrupted[k] as usize;
                let mut clock = state.load(source, lane);
                self.run_step(step, &mut clock, 0.0, &mut || false);
                state.store(&clock);
            }
        }
    }

    /// The finished outcome of one lane after [`BatchProgram::run`].
    #[inline]
    pub fn outcome(&self, state: &BatchState, lane: usize) -> SimOutcome {
        SimOutcome {
            final_time: state.now[lane],
            base_time: self.base_time,
            failures: state.failures[lane],
        }
    }

    /// The step interpreter: runs `step` on one clock to completion, with
    /// the retry loops of [`crate::engine`]'s executors.  `done` is the ABFT
    /// progress an [`Step::AbftWork`] step starts from (`0.0` everywhere
    /// else).
    ///
    /// `after_abft_recovery` is called after every ABFT recovery — the
    /// points where no work is lost, so a run can stop there and resume
    /// later.  When it returns `true` the interpreter stops and returns the
    /// step's ABFT progress at that point; it returns `None` once the step
    /// completes.  The batch slow path passes a hook that never stops.
    pub(crate) fn run_step<C: TryRun, H: FnMut() -> bool>(
        &self,
        step: Step,
        clock: &mut C,
        mut done: f64,
        after_abft_recovery: &mut H,
    ) -> Option<f64> {
        match step {
            Step::Period { work, ckpt } => loop {
                // One attempt: the work from scratch after every rollback,
                // then the checkpoint; an interrupted checkpoint discards it.
                let mut done = 0.0;
                while done < work {
                    match clock.try_run(work - done) {
                        ActivityResult::Completed => done = work,
                        ActivityResult::Interrupted { .. } => {
                            self.recover(clock);
                            done = 0.0;
                        }
                    }
                }
                if clock.try_run(ckpt).is_completed() {
                    return None;
                }
                self.recover(clock);
            },
            Step::Forced { cost } => {
                while !clock.try_run(cost).is_completed() {
                    self.recover(clock);
                }
                None
            }
            Step::AbftWork { work } => {
                while done < work {
                    match clock.try_run(work - done) {
                        ActivityResult::Completed => done = work,
                        ActivityResult::Interrupted { progress } => {
                            done += progress;
                            self.abft_recover(clock);
                            if after_abft_recovery() {
                                return Some(done);
                            }
                        }
                    }
                }
                None
            }
            Step::AbftCkpt { cost } => {
                while !clock.try_run(cost).is_completed() {
                    self.abft_recover(clock);
                    if after_abft_recovery() {
                        return Some(0.0);
                    }
                }
                None
            }
        }
    }

    /// Rollback recovery ([`crate::clock::SimClock::recover`]): downtime and
    /// full reload, restarted until both complete.
    #[inline]
    fn recover<C: TryRun>(&self, clock: &mut C) {
        loop {
            if clock.try_run(self.downtime).is_completed()
                && clock.try_run(self.recovery).is_completed()
            {
                return;
            }
        }
    }

    /// ABFT recovery ([`crate::engine::abft_recover`]): downtime, REMAINDER
    /// reload and checksum reconstruction, restarted until all complete.
    #[inline]
    fn abft_recover<C: TryRun>(&self, clock: &mut C) {
        loop {
            if clock.try_run(self.downtime).is_completed()
                && clock.try_run(self.recovery_remainder).is_completed()
                && clock.try_run(self.abft_reconstruction).is_completed()
            {
                return;
            }
        }
    }
}

/// Unrolls [`crate::engine::checkpointed_stream`]'s outer period loop into
/// [`Step::Period`]s, replicating its float bookkeeping (`saved` accumulation
/// and `min` clamping) exactly so the per-step `work` values are the bit
/// patterns the scalar engine computes.
fn push_stream(steps: &mut Vec<Step>, work: f64, ckpt: f64, period: f64) {
    if work <= 0.0 {
        return;
    }
    let work_per_period = if period.is_finite() && period > ckpt {
        period - ckpt
    } else {
        work
    };
    let mut saved = 0.0;
    while saved < work {
        let target = work_per_period.min(work - saved);
        steps.push(Step::Period { work: target, ckpt });
        saved += target;
    }
}

/// Simulates one batch of `protocol` over `profile`: lane `i` draws a fresh
/// failure sequence from `seeds[i]` and reproduces, bit for bit, the scalar
/// [`Engine::simulate_profile`] outcome on that seed.
pub fn simulate_profile_batch(
    engine: &Engine,
    protocol: Protocol,
    profile: &ApplicationProfile,
    seeds: &[u64],
) -> Vec<SimOutcome> {
    let program = BatchProgram::compile(protocol, profile, engine.plan());
    let mut stream = BatchFailureStream::new(*engine.failure_model(), seeds);
    let mut state = BatchState::new();
    program.run(&mut stream, &mut state);
    (0..seeds.len()).map(|lane| program.outcome(&state, lane)).collect()
}

/// [`simulate_profile_batch`] over the **antithetic partner** sequences of
/// the seeds: lane `i` reproduces the scalar replay of
/// [`ft_platform::trace::TraceBuffer::reset_antithetic`] on `seeds[i]`.
pub fn simulate_profile_batch_antithetic(
    engine: &Engine,
    protocol: Protocol,
    profile: &ApplicationProfile,
    seeds: &[u64],
) -> Vec<SimOutcome> {
    let program = BatchProgram::compile(protocol, profile, engine.plan());
    let mut stream = BatchFailureStream::new(*engine.failure_model(), seeds);
    stream.reset_antithetic(seeds);
    let mut state = BatchState::new();
    program.run(&mut stream, &mut state);
    (0..seeds.len()).map(|lane| program.outcome(&state, lane)).collect()
}

/// Simulates one batch of `protocol` over `profile`, **replaying** the
/// failure sequences recorded in `buffer` lane by lane (batch common random
/// numbers): lane `i` reproduces the scalar
/// [`Engine::simulate_profile_replay`] outcome over `buffer`'s lane `i`.
pub fn simulate_profile_batch_replay<M: FailureModel + Clone>(
    engine: &Engine,
    protocol: Protocol,
    profile: &ApplicationProfile,
    buffer: &mut BatchTraceBuffer<M>,
) -> Vec<SimOutcome> {
    let program = BatchProgram::compile(protocol, profile, engine.plan());
    let lanes = buffer.lanes();
    let mut cursors = buffer.cursors();
    let mut state = BatchState::new();
    program.run(&mut cursors, &mut state);
    (0..lanes).map(|lane| program.outcome(&state, lane)).collect()
}

/// A compiled-program cache keyed by the exact `(protocol, profile, plan)`
/// triple, shared across the threads of a sweep executor.
///
/// Sweep grids revisit the same compiled step sequence many times — every
/// period-plan candidate of a bisection, every replication budget probe —
/// and [`BatchProgram::compile`] walks the whole profile each time.  The
/// cache keys on the protocol, every epoch duration and every plan field *by
/// bit pattern*, so two triples share a program only when compilation would
/// be bit-identical anyway.
#[derive(Debug, Default)]
pub struct BatchProgramCache {
    programs: Mutex<BTreeMap<ProgramKey, Arc<BatchProgram>>>,
}

/// Bit-pattern identity of a compilation input triple.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ProgramKey {
    protocol: Protocol,
    epochs: Vec<(u64, u64)>,
    plan: [u64; 10],
}

impl ProgramKey {
    fn new(protocol: Protocol, profile: &ApplicationProfile, plan: &PeriodPlan) -> Self {
        Self {
            protocol,
            epochs: profile
                .epochs()
                .iter()
                .map(|e| (e.general.to_bits(), e.library.to_bits()))
                .collect(),
            plan: [
                plan.full_period.to_bits(),
                plan.library_period.to_bits(),
                plan.ckpt_full.to_bits(),
                plan.ckpt_library.to_bits(),
                plan.ckpt_remainder.to_bits(),
                plan.recovery.to_bits(),
                plan.recovery_remainder.to_bits(),
                plan.downtime.to_bits(),
                plan.phi.to_bits(),
                plan.abft_reconstruction.to_bits(),
            ],
        }
    }
}

impl BatchProgramCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The program compiled from `(protocol, profile, plan)`, compiling on
    /// the first request and returning the cached copy afterwards.
    pub fn get(
        &self,
        protocol: Protocol,
        profile: &ApplicationProfile,
        plan: &PeriodPlan,
    ) -> Arc<BatchProgram> {
        let key = ProgramKey::new(protocol, profile, plan);
        let mut programs = self.programs.lock().expect("program cache poisoned");
        Arc::clone(
            programs
                .entry(key)
                .or_insert_with(|| Arc::new(BatchProgram::compile(protocol, profile, plan))),
        )
    }

    /// Number of distinct compiled programs held.
    pub fn len(&self) -> usize {
        self.programs.lock().expect("program cache poisoned").len()
    }

    /// Whether the cache holds no program yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Resolves the `threads` knob of [`accumulate_batch`]: `0` means "use the
/// host's available parallelism", anything else is taken literally.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Lays out the next speculative *wave* of replication blocks in `blocks`:
/// block boundaries are a pure function of the budget and the replications
/// already merged (see [`ReplicationBudget::next_block`]), so the driver can
/// lay out the blocks a wave executes before knowing whether stopping fires
/// inside it.  The wave is capped at `threads` lane-width segments so at
/// most one wave of work is ever speculated past a stopping decision; with
/// one thread a wave is exactly one block.
fn next_wave(
    budget: &ReplicationBudget,
    done: usize,
    lanes: usize,
    threads: usize,
    blocks: &mut Vec<(usize, usize)>,
) {
    blocks.clear();
    let mut wave_done = done;
    let mut segments = 0usize;
    while segments < threads {
        let block = budget.next_block(wave_done);
        if block == 0 {
            break;
        }
        blocks.push((wave_done, block));
        segments += block.div_ceil(lanes);
        wave_done += block;
    }
}

/// Splits a wave's blocks into `(start, width)` segments — lane-width chunks
/// with a ragged tail per block, in replication order.
fn wave_segments(blocks: &[(usize, usize)], lanes: usize, segments: &mut Vec<(usize, usize)>) {
    segments.clear();
    for &(block_start, block_len) in blocks {
        let mut start = block_start;
        let mut remaining = block_len;
        while remaining > 0 {
            let width = remaining.min(lanes);
            segments.push((start, width));
            start += width;
            remaining -= width;
        }
    }
}

/// One worker's scratch, reused across every segment it runs: the lane seed
/// column, the failure stream, the SoA state and one outcome buffer per
/// segment of its share of a wave.
struct Worker {
    seeds: Vec<u64>,
    stream: BatchFailureStream<AnyFailureModel>,
    state: BatchState,
    /// Per segment: `width` outcomes of each program in order, followed
    /// (antithetic plans) by the partner outcomes in the same layout.
    outs: Vec<Vec<SimOutcome>>,
}

impl Worker {
    fn new(model: AnyFailureModel) -> Self {
        Self {
            seeds: Vec::new(),
            stream: BatchFailureStream::new(model, &[]),
            state: BatchState::new(),
            outs: Vec::new(),
        }
    }

    /// Runs every program over each segment into `outs[k]`.  Replication
    /// `start + j` draws seed `nth_seed(master_seed, start + j)` — the value
    /// a sequential [`SeedStream`] hands it — so a segment's outcomes are a
    /// pure function of its `(start, width)` and the thread layout is
    /// unobservable.  Every program's stream restarts from the same seeds:
    /// common random numbers, the batch form of replaying one recorded
    /// trace per seed to all protocols.
    fn run(
        &mut self,
        programs: &[&BatchProgram],
        master_seed: u64,
        antithetic: bool,
        segments: &[(usize, usize)],
    ) {
        let Self {
            seeds,
            stream,
            state,
            outs,
        } = self;
        if outs.len() < segments.len() {
            outs.resize_with(segments.len(), Vec::new);
        }
        for (out, &(start, width)) in outs.iter_mut().zip(segments) {
            seeds.clear();
            seeds.extend(
                (start..start + width).map(|r| SeedStream::nth_seed(master_seed, r as u64)),
            );
            out.clear();
            for program in programs {
                stream.reset(seeds);
                program.run(stream, state);
                out.extend((0..width).map(|lane| program.outcome(state, lane)));
            }
            if antithetic {
                for program in programs {
                    stream.reset_antithetic(seeds);
                    program.run(stream, state);
                    out.extend((0..width).map(|lane| program.outcome(state, lane)));
                }
            }
        }
    }
}

/// Pushes one segment's outcomes into `acc` in the scalar paired loop's
/// order — per lane, per program — and returns the segment's width.
fn merge_segment(acc: &mut PairedAccumulator, out: &[SimOutcome], antithetic: bool) -> usize {
    let programs = acc.outcomes.len();
    let width = out.len() / if antithetic { 2 * programs } else { programs };
    for lane in 0..width {
        let mut baseline_waste = 0.0;
        for i in 0..programs {
            let first = &out[i * width + lane];
            let waste = if antithetic {
                let partner = &out[(programs + i) * width + lane];
                acc.outcomes[i].push_pair(first, partner);
                (first.waste() + partner.waste()) / 2.0
            } else {
                acc.outcomes[i].push(first);
                first.waste()
            };
            if i == 0 {
                baseline_waste = waste;
            } else {
                acc.deltas[i].push(waste - baseline_waste);
            }
        }
    }
    width
}

/// The scalar paired loop's stopping rule: every per-trace delta resolved
/// under a paired-delta budget, or every marginal satisfied.  With a single
/// program there is no delta and only the marginal rule applies.
fn stopped(acc: &PairedAccumulator, budget: &ReplicationBudget) -> bool {
    let deltas_resolved = budget.is_paired_delta()
        && acc.deltas.len() > 1
        && acc.deltas[1..].iter().all(|d| budget.delta_resolved(d));
    deltas_resolved || acc.outcomes.iter().all(|o| budget.satisfied(&o.waste))
}

/// The batch replication driver: replications advance `lanes` at a time
/// through pre-compiled `programs` (one per protocol; `programs[0]` is the
/// baseline of the paired deltas), consuming the **same seed stream in the
/// same order**, feeding the accumulators with the same push sequence and
/// applying the same block-wise stopping checks as the scalar
/// [`crate::replicate::accumulate_paired_engine`].  With one program the
/// push order and stopping rule are those of
/// [`crate::replicate::accumulate_profile_engine`], whose accumulator is
/// `outcomes[0]`.  The result is bit-identical to the scalar path either
/// way, so the sweep fast path switches freely between the engines.
///
/// Replication blocks that are not a multiple of `lanes` run a ragged tail
/// segment of the remaining width.  `threads == 0` resolves to the host's
/// available parallelism.  With one thread every segment runs on the
/// calling thread, on scratch reused across segments; with more, each wave
/// of segments is dealt to scoped OS threads in contiguous runs and merged
/// in replication order, stopping on the same block boundaries — so the
/// result is bit-identical at every thread count, speculating at most one
/// wave of blocks past the stopping decision.
pub fn accumulate_batch(
    engine: &Engine,
    programs: &[&BatchProgram],
    plan: impl Into<ReplicationPlan>,
    master_seed: u64,
    lanes: usize,
    threads: usize,
) -> PairedAccumulator {
    let plan: ReplicationPlan = plan.into();
    let lanes = lanes.max(1);
    let threads = resolve_threads(threads);
    let mut acc = PairedAccumulator {
        protocols: programs.iter().map(|p| p.protocol()).collect(),
        outcomes: vec![OutcomeAccumulator::new(); programs.len()],
        deltas: vec![Welford::new(); programs.len()],
    };
    if programs.is_empty() {
        return acc;
    }
    let mut workers: Vec<Worker> = (0..threads)
        .map(|_| Worker::new(*engine.failure_model()))
        .collect();
    let (mut blocks, mut segments) = (Vec::new(), Vec::new());
    let mut done = 0usize;
    'drive: loop {
        next_wave(&plan.budget, done, lanes, threads, &mut blocks);
        if blocks.is_empty() {
            break;
        }
        wave_segments(&blocks, lanes, &mut segments);
        let per_worker = segments.len().div_ceil(threads);
        if threads > 1 {
            std::thread::scope(|scope| {
                for (worker, share) in workers.iter_mut().zip(segments.chunks(per_worker)) {
                    scope.spawn(move || worker.run(programs, master_seed, plan.antithetic, share));
                }
            });
        }
        // Merge in replication order, block by block; a wave that
        // over-speculated simply drops its unmerged tail.
        let mut segment = 0usize;
        for &(_, block_len) in &blocks {
            let mut merged = 0usize;
            while merged < block_len {
                let out = if threads > 1 {
                    &workers[segment / per_worker].outs[segment % per_worker]
                } else {
                    let worker = &mut workers[0];
                    worker.run(
                        programs,
                        master_seed,
                        plan.antithetic,
                        &segments[segment..=segment],
                    );
                    &worker.outs[0]
                };
                merged += merge_segment(&mut acc, out, plan.antithetic);
                segment += 1;
            }
            done += block_len;
            if stopped(&acc, &plan.budget) {
                break 'drive;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replicate::{
        accumulate_paired_engine, accumulate_profile_engine, ReplicationBudget,
    };
    use ft_composite::params::ModelParams;
    use ft_platform::failure::FailureSpec;
    use ft_platform::units::minutes;

    fn fig7_engine(spec: FailureSpec) -> Engine {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        Engine::with_failure_spec(&params, spec).unwrap()
    }

    fn seeds(n: usize) -> Vec<u64> {
        SeedStream::new(0xFEED).take(n).collect()
    }

    #[test]
    fn batch_lanes_match_scalar_simulations_bit_for_bit() {
        for spec in [FailureSpec::Exponential, FailureSpec::Weibull { shape: 0.7 }] {
            let engine = fig7_engine(spec);
            let profile = ApplicationProfile::from_params_repeated(engine.params(), 3);
            let seeds = seeds(33);
            for protocol in Protocol::all() {
                let batch = simulate_profile_batch(&engine, protocol, &profile, &seeds);
                for (lane, &seed) in seeds.iter().enumerate() {
                    let scalar = engine.simulate_profile(protocol, &profile, seed);
                    assert_eq!(
                        batch[lane].final_time.to_bits(),
                        scalar.final_time.to_bits(),
                        "{spec} {protocol:?} lane {lane}"
                    );
                    assert_eq!(batch[lane], scalar);
                }
            }
        }
    }

    #[test]
    fn antithetic_batch_matches_scalar_antithetic_replay() {
        let engine = fig7_engine(FailureSpec::Weibull { shape: 1.4 });
        let profile = ApplicationProfile::from_params(engine.params());
        let seeds = seeds(9);
        let mut buffer = engine.trace_buffer(0);
        for protocol in Protocol::all() {
            let batch = simulate_profile_batch_antithetic(&engine, protocol, &profile, &seeds);
            for (lane, &seed) in seeds.iter().enumerate() {
                buffer.reset_antithetic(seed);
                let scalar = engine.simulate_profile_replay(protocol, &profile, &mut buffer);
                assert_eq!(batch[lane], scalar, "{protocol:?} lane {lane}");
            }
        }
    }

    #[test]
    fn replay_batch_reuses_recorded_lanes() {
        let engine = fig7_engine(FailureSpec::Exponential);
        let profile = ApplicationProfile::from_params(engine.params());
        let seeds = seeds(7);
        let mut batch_buffer = BatchTraceBuffer::new(*engine.failure_model(), &seeds);
        // Two protocols replay the SAME recorded lanes — common random
        // numbers — and each lane matches its scalar replay.
        let pure = simulate_profile_batch_replay(
            &engine,
            Protocol::PurePeriodicCkpt,
            &profile,
            &mut batch_buffer,
        );
        let composite = simulate_profile_batch_replay(
            &engine,
            Protocol::AbftPeriodicCkpt,
            &profile,
            &mut batch_buffer,
        );
        let mut scalar_buffer = engine.trace_buffer(0);
        for (lane, &seed) in seeds.iter().enumerate() {
            scalar_buffer.reset(seed);
            let a = engine.simulate_profile_replay(
                Protocol::PurePeriodicCkpt,
                &profile,
                &mut scalar_buffer,
            );
            let b = engine.simulate_profile_replay(
                Protocol::AbftPeriodicCkpt,
                &profile,
                &mut scalar_buffer,
            );
            assert_eq!(pure[lane], a, "lane {lane}");
            assert_eq!(composite[lane], b, "lane {lane}");
        }
    }

    #[test]
    fn batch_accumulator_is_bit_identical_to_the_scalar_path() {
        let engine = fig7_engine(FailureSpec::Exponential);
        let profile = ApplicationProfile::from_params(engine.params());
        let program = BatchProgram::compile(Protocol::AbftPeriodicCkpt, &profile, engine.plan());
        for budget in [
            ReplicationBudget::Fixed(130), // ragged: 130 = 2×50 + 30 over 50-lanes
            ReplicationBudget::Adaptive {
                rel_precision: 0.05,
                min: 60,
                max: 400,
            },
        ] {
            for antithetic in [false, true] {
                let plan = ReplicationPlan::new(budget).antithetic(antithetic);
                let scalar = accumulate_profile_engine(
                    &engine,
                    Protocol::AbftPeriodicCkpt,
                    &profile,
                    plan,
                    77,
                );
                for lanes in [1, 7, 50, 256] {
                    let batch = accumulate_batch(&engine, &[&program], plan, 77, lanes, 1)
                        .outcomes
                        .swap_remove(0);
                    assert_eq!(scalar, batch, "{budget:?} antithetic={antithetic} lanes={lanes}");
                }
            }
        }
    }

    #[test]
    fn paired_batch_accumulator_is_bit_identical_to_the_scalar_path() {
        let engine = fig7_engine(FailureSpec::Weibull { shape: 0.7 });
        let profile = ApplicationProfile::from_params(engine.params());
        let protocols = [Protocol::PurePeriodicCkpt, Protocol::AbftPeriodicCkpt];
        let programs = protocols.map(|p| BatchProgram::compile(p, &profile, engine.plan()));
        let refs: Vec<&BatchProgram> = programs.iter().collect();
        for budget in [
            ReplicationBudget::Fixed(90),
            ReplicationBudget::AdaptiveDelta {
                rel_precision: 0.05,
                min: 60,
                max: 300,
            },
        ] {
            for antithetic in [false, true] {
                let plan = ReplicationPlan::new(budget).antithetic(antithetic);
                let scalar = accumulate_paired_engine(&engine, &protocols, &profile, plan, 5);
                for lanes in [1, 32, 128] {
                    let batch = accumulate_batch(&engine, &refs, plan, 5, lanes, 1);
                    assert_eq!(scalar, batch, "{budget:?} antithetic={antithetic} lanes={lanes}");
                }
            }
        }
    }

    #[test]
    fn paired_batch_of_no_protocols_is_an_empty_no_op() {
        let engine = fig7_engine(FailureSpec::Exponential);
        let paired = accumulate_batch(&engine, &[], ReplicationBudget::Fixed(10), 1, 64, 1);
        assert_eq!(paired.replications(), 0);
        assert!(paired.outcomes.is_empty());
    }

    #[test]
    fn program_cache_hits_return_the_identical_compiled_program() {
        let engine = fig7_engine(FailureSpec::Exponential);
        let profile = ApplicationProfile::from_params(engine.params());
        let cache = BatchProgramCache::new();
        assert!(cache.is_empty());
        let first = cache.get(Protocol::AbftPeriodicCkpt, &profile, engine.plan());
        let second = cache.get(Protocol::AbftPeriodicCkpt, &profile, engine.plan());
        // A hit is the same allocation, and its steps are exactly what a
        // fresh compilation produces.
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(
            *first,
            BatchProgram::compile(Protocol::AbftPeriodicCkpt, &profile, engine.plan())
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn program_cache_never_crosses_protocol_profile_or_plan_keys() {
        let engine = fig7_engine(FailureSpec::Exponential);
        let profile = ApplicationProfile::from_params(engine.params());
        let cache = BatchProgramCache::new();
        let base = cache.get(Protocol::AbftPeriodicCkpt, &profile, engine.plan());
        // Different protocol, same profile and plan.
        let other_protocol = cache.get(Protocol::PurePeriodicCkpt, &profile, engine.plan());
        assert!(!Arc::ptr_eq(&base, &other_protocol));
        // Different profile (extra epoch), same protocol and plan.
        let longer = ApplicationProfile::from_params_repeated(engine.params(), 2);
        let other_profile = cache.get(Protocol::AbftPeriodicCkpt, &longer, engine.plan());
        assert!(!Arc::ptr_eq(&base, &other_profile));
        // Different plan (perturbed period), same protocol and profile.
        let mut plan = *engine.plan();
        plan.full_period += 1.0;
        let other_plan = cache.get(Protocol::AbftPeriodicCkpt, &profile, &plan);
        assert!(!Arc::ptr_eq(&base, &other_plan));
        assert_eq!(cache.len(), 4);
        // Every distinct key holds the program its own triple compiles.
        assert_eq!(
            *other_plan,
            BatchProgram::compile(Protocol::AbftPeriodicCkpt, &profile, &plan)
        );
        // Re-requesting the original triple after the inserts still hits the
        // original program.
        let again = cache.get(Protocol::AbftPeriodicCkpt, &profile, engine.plan());
        assert!(Arc::ptr_eq(&base, &again));
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn parallel_block_driver_is_bit_identical_across_thread_counts() {
        let engine = fig7_engine(FailureSpec::Weibull { shape: 0.7 });
        let profile = ApplicationProfile::from_params(engine.params());
        let program = BatchProgram::compile(Protocol::AbftPeriodicCkpt, &profile, engine.plan());
        for budget in [
            ReplicationBudget::Fixed(130),
            ReplicationBudget::Adaptive {
                rel_precision: 0.05,
                min: 60,
                max: 400,
            },
        ] {
            for antithetic in [false, true] {
                let plan = ReplicationPlan::new(budget).antithetic(antithetic);
                let serial = accumulate_batch(&engine, &[&program], plan, 77, 50, 1);
                for threads in [2, 3, 5, 8] {
                    let parallel = accumulate_batch(&engine, &[&program], plan, 77, 50, threads);
                    assert_eq!(
                        serial, parallel,
                        "{budget:?} antithetic={antithetic} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_paired_driver_is_bit_identical_across_thread_counts() {
        let engine = fig7_engine(FailureSpec::Exponential);
        let profile = ApplicationProfile::from_params(engine.params());
        let protocols = [Protocol::PurePeriodicCkpt, Protocol::AbftPeriodicCkpt];
        let programs: Vec<BatchProgram> = protocols
            .iter()
            .map(|&p| BatchProgram::compile(p, &profile, engine.plan()))
            .collect();
        let refs: Vec<&BatchProgram> = programs.iter().collect();
        for budget in [
            ReplicationBudget::Fixed(90),
            ReplicationBudget::AdaptiveDelta {
                rel_precision: 0.05,
                min: 60,
                max: 300,
            },
        ] {
            for antithetic in [false, true] {
                let plan = ReplicationPlan::new(budget).antithetic(antithetic);
                let serial = accumulate_batch(&engine, &refs, plan, 5, 32, 1);
                for threads in [2, 4, 7] {
                    let parallel = accumulate_batch(&engine, &refs, plan, 5, 32, threads);
                    assert_eq!(
                        serial, parallel,
                        "{budget:?} antithetic={antithetic} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn compiled_programs_cover_degenerate_profiles() {
        let engine = fig7_engine(FailureSpec::Exponential);
        // Zero-work profile compiles to an empty program for pure/bi and a
        // lone forced checkpoint for the composite when only library work
        // exists.
        let empty = ApplicationProfile::uniform(1, 0.0, 0.0).unwrap();
        let p = BatchProgram::compile(Protocol::PurePeriodicCkpt, &empty, engine.plan());
        assert!(p.is_empty());
        assert_eq!(p.base_time(), 0.0);
        let lib_only = ApplicationProfile::uniform(1, 0.0, minutes(30.0)).unwrap();
        let p = BatchProgram::compile(Protocol::AbftPeriodicCkpt, &lib_only, engine.plan());
        assert_eq!(p.len(), 3); // Forced + AbftWork + AbftCkpt
        let scalar = engine.simulate_profile(Protocol::AbftPeriodicCkpt, &lib_only, 3);
        let batch = simulate_profile_batch(&engine, Protocol::AbftPeriodicCkpt, &lib_only, &[3]);
        assert_eq!(batch[0], scalar);
    }

    #[test]
    fn compile_respects_the_composite_phase_structure() {
        let engine = fig7_engine(FailureSpec::Exponential);
        let plan = engine.plan();
        let library = Step::AbftWork {
            work: plan.phi * 100.0,
        };
        let exit = Step::AbftCkpt {
            cost: plan.ckpt_library,
        };
        // A short general phase compiles to one period ending in the forced
        // REMAINDER checkpoint; a zero general phase with library work
        // compiles to a forced entry checkpoint.
        let short = ApplicationProfile::uniform(1, plan.full_period / 2.0, 100.0).unwrap();
        let p = BatchProgram::compile(Protocol::AbftPeriodicCkpt, &short, plan);
        assert_eq!(
            p.steps,
            [
                Step::Period {
                    work: plan.full_period / 2.0,
                    ckpt: plan.ckpt_remainder,
                },
                library,
                exit,
            ]
        );
        let none = ApplicationProfile::uniform(1, 0.0, 100.0).unwrap();
        let p = BatchProgram::compile(Protocol::AbftPeriodicCkpt, &none, plan);
        assert_eq!(
            p.steps,
            [
                Step::Forced {
                    cost: plan.ckpt_remainder,
                },
                library,
                exit,
            ]
        );
        // A long general phase streams with full periodic checkpoints.
        let long = ApplicationProfile::uniform(1, plan.full_period * 3.0, 100.0).unwrap();
        let p = BatchProgram::compile(Protocol::AbftPeriodicCkpt, &long, plan);
        let periods = p.len() - 2;
        assert!(periods >= 3, "{periods} periods");
        assert!(p.steps[..periods]
            .iter()
            .all(|s| matches!(s, Step::Period { ckpt, .. } if *ckpt == plan.ckpt_full)));
        assert_eq!(p.steps[periods..], [library, exit]);
        // Pure compiles to one full-checkpoint stream over the whole
        // profile; bi to a full-checkpoint stream over the general phase and
        // a library-checkpoint stream over the library phase, per epoch.
        let stream = |steps: &[Step], ckpt: f64| -> f64 {
            steps
                .iter()
                .map(|s| match *s {
                    Step::Period { work, ckpt: c } if c == ckpt => work,
                    other => panic!("{other:?} is not a period with checkpoint {ckpt}"),
                })
                .sum()
        };
        let pure = BatchProgram::compile(Protocol::PurePeriodicCkpt, &long, plan);
        assert!(pure.len() > 3);
        assert!((stream(&pure.steps, plan.ckpt_full) - long.total_duration()).abs() < 1e-6);
        let bi = BatchProgram::compile(Protocol::BiPeriodicCkpt, &long, plan);
        let general = bi.len() - 1; // 100 s of library work fit one library period
        assert!(
            (stream(&bi.steps[..general], plan.ckpt_full) - plan.full_period * 3.0).abs() < 1e-6
        );
        assert_eq!(stream(&bi.steps[general..], plan.ckpt_library), 100.0);
        assert_eq!(pure.protocol(), Protocol::PurePeriodicCkpt);
        assert_eq!(bi.protocol(), Protocol::BiPeriodicCkpt);
    }
}
