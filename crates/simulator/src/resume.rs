//! Crash-resume for protocol simulations: kill a run mid-epoch, persist a
//! snapshot through the durable checkpoint pipeline, reload, and continue
//! **bit-identically**.
//!
//! [`ResumableSim`] compiles a protocol × profile pair into the same
//! [`BatchProgram`] the batch engine runs, and walks its steps on one
//! [`SimClock`] through the same step interpreter, while tracking *snapshot
//! boundaries*: the points where a consistent [`SimSnapshot`] can be taken
//! — at every transition between two steps (so after every committed
//! checkpoint period, each being one step) and after every ABFT recovery
//! (work is never lost there).
//!
//! A snapshot records the program step index, the step's ABFT progress (raw
//! `f64` bits; zero outside an ABFT work phase), and the clock's `(now,
//! next_failure, failures)` state.  Because the trace-backed clock's draw
//! count is a pure function of the interrupt count (`failures + 1` draws
//! consumed), resuming positions the cursor with [`TraceBuffer::cursor_at`]
//! and continues the run through the identical arithmetic on identical
//! inputs — so the resumed outcome equals the uninterrupted one bit for bit
//! (`tests/crash_resume.rs` proves this differentially across protocols,
//! failure laws and every kill point, and anchors the uninterrupted run to
//! the engine's executors).
//!
//! Snapshots persist through `ft-ckpt`'s checksummed frame pipeline
//! ([`SimSnapshot::persist`] / [`SimSnapshot::load`]), so a resumed run
//! only ever starts from a *verified* snapshot.  A record that cannot be a
//! state of the run it is resumed into is refused with a typed
//! [`SnapshotError`] ([`SimSnapshot::from_bytes`], [`ResumableSim::resume`]).

use std::fmt;

use ft_ckpt::backend::CheckpointBackend;
use ft_ckpt::pipeline::{CheckpointPipeline, RestoreOutcome};
use ft_ckpt::verify::RestoreFault;
use ft_composite::scenario::ApplicationProfile;
use ft_platform::checksum::ChecksumGen;
use ft_platform::failure::{FailureModel, FailureSource};
use ft_platform::trace::TraceBuffer;

use crate::batch::{BatchProgram, Step};
use crate::clock::SimClock;
use crate::engine::Engine;
use crate::protocols::{Protocol, SimOutcome};

/// A consistent, serializable snapshot of a simulation mid-run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSnapshot {
    /// Protocol the run simulates (resume must use the same).
    pub protocol: Protocol,
    /// Index of the program step the run is in (or about to enter).
    pub step: usize,
    /// ABFT progress within that step, raw bits: the φ-inflated work done
    /// so far of an ABFT work phase, `0.0` for every other step.
    pub done_bits: u64,
    /// Clock `now`, raw bits.
    pub now_bits: u64,
    /// Clock `next_failure`, raw bits.
    pub next_failure_bits: u64,
    /// Failures counted so far (⇒ the failure source has consumed
    /// `failures + 1` draws).
    pub failures: u64,
}

const SNAPSHOT_BYTES: usize = 1 + 8 + 8 + 8 + 8 + 8;

/// Why a snapshot record cannot be resumed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SnapshotError {
    /// The record is not the fixed snapshot length.
    Length {
        /// Length of the record, bytes.
        len: usize,
    },
    /// The protocol tag names no protocol.
    UnknownProtocol {
        /// The tag byte read.
        tag: u8,
    },
    /// The snapshot was taken under another protocol than the run resuming
    /// it.
    ProtocolMismatch {
        /// Protocol recorded in the snapshot.
        snapshot: Protocol,
        /// Protocol of the resuming run.
        run: Protocol,
    },
    /// The step index is at or past the end of the run's program.
    StepOutOfRange {
        /// Step index recorded in the snapshot.
        step: usize,
        /// Number of steps of the run's program.
        steps: usize,
    },
    /// The ABFT progress is negative or not finite, or non-zero on a step
    /// that keeps no progress.
    Progress {
        /// Step index recorded in the snapshot.
        step: usize,
        /// The recorded progress.
        done: f64,
    },
    /// The clock's `now` or `next_failure` is not finite.
    NonFiniteClock {
        /// Recorded `now`.
        now: f64,
        /// Recorded `next_failure`.
        next_failure: f64,
    },
    /// The failure count is too large to position the failure cursor
    /// (`failures + 1` draws overflow).
    FailureCount {
        /// The recorded failure count.
        failures: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SnapshotError::Length { len } => {
                write!(
                    f,
                    "snapshot record is {len} bytes, expected {SNAPSHOT_BYTES}"
                )
            }
            SnapshotError::UnknownProtocol { tag } => write!(f, "unknown protocol tag {tag}"),
            SnapshotError::ProtocolMismatch { snapshot, run } => {
                write!(f, "snapshot of {snapshot:?} resumed under {run:?}")
            }
            SnapshotError::StepOutOfRange { step, steps } => {
                write!(
                    f,
                    "snapshot step {step} is not below the program's {steps} steps"
                )
            }
            SnapshotError::Progress { step, done } => {
                write!(f, "ABFT progress {done} does not fit step {step}")
            }
            SnapshotError::NonFiniteClock { now, next_failure } => {
                write!(
                    f,
                    "non-finite clock (now {now}, next failure {next_failure})"
                )
            }
            SnapshotError::FailureCount { failures } => {
                write!(
                    f,
                    "failure count {failures} cannot position the failure cursor"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

fn protocol_tag(p: Protocol) -> u8 {
    match p {
        Protocol::PurePeriodicCkpt => 0,
        Protocol::BiPeriodicCkpt => 1,
        Protocol::AbftPeriodicCkpt => 2,
    }
}

/// Little-endian `u64` from the first 8 bytes of `s`.
fn le_u64(s: &[u8]) -> u64 {
    u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]])
}

impl SimSnapshot {
    /// Serializes the snapshot into a fixed-size little-endian record.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SNAPSHOT_BYTES);
        out.push(protocol_tag(self.protocol));
        out.extend_from_slice(&(self.step as u64).to_le_bytes());
        out.extend_from_slice(&self.done_bits.to_le_bytes());
        out.extend_from_slice(&self.now_bits.to_le_bytes());
        out.extend_from_slice(&self.next_failure_bits.to_le_bytes());
        out.extend_from_slice(&self.failures.to_le_bytes());
        out
    }

    /// Deserializes a snapshot, refusing a malformed record and any field
    /// no run can reach: a non-finite clock, negative or non-finite ABFT
    /// progress, a failure count the cursor cannot skip.  Whether the step
    /// fits a particular run is checked by [`ResumableSim::resume`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() != SNAPSHOT_BYTES {
            return Err(SnapshotError::Length { len: bytes.len() });
        }
        let protocol = match bytes[0] {
            0 => Protocol::PurePeriodicCkpt,
            1 => Protocol::BiPeriodicCkpt,
            2 => Protocol::AbftPeriodicCkpt,
            tag => return Err(SnapshotError::UnknownProtocol { tag }),
        };
        let snapshot = Self {
            protocol,
            step: usize::try_from(le_u64(&bytes[1..])).unwrap_or(usize::MAX),
            done_bits: le_u64(&bytes[9..]),
            now_bits: le_u64(&bytes[17..]),
            next_failure_bits: le_u64(&bytes[25..]),
            failures: le_u64(&bytes[33..]),
        };
        snapshot.check()?;
        Ok(snapshot)
    }

    /// Checks the fields that need no program — a finite clock, a finite
    /// non-negative ABFT progress, a countable draw position — and returns
    /// the failure count.
    fn check(&self) -> Result<usize, SnapshotError> {
        let now = f64::from_bits(self.now_bits);
        let next_failure = f64::from_bits(self.next_failure_bits);
        if !now.is_finite() || !next_failure.is_finite() {
            return Err(SnapshotError::NonFiniteClock { now, next_failure });
        }
        let done = f64::from_bits(self.done_bits);
        if !(done.is_finite() && done >= 0.0) {
            return Err(SnapshotError::Progress {
                step: self.step,
                done,
            });
        }
        usize::try_from(self.failures)
            .ok()
            .filter(|failures| failures.checked_add(1).is_some())
            .ok_or(SnapshotError::FailureCount {
                failures: self.failures,
            })
    }

    /// Persists the snapshot through a durable checkpoint pipeline as a
    /// checksummed `State` frame stream; returns its generation.
    pub fn persist<C, B>(
        &self,
        pipeline: &mut CheckpointPipeline<C, B>,
    ) -> Result<u64, ft_ckpt::backend::StoreFault>
    where
        C: ChecksumGen + Clone,
        B: CheckpointBackend,
    {
        pipeline.commit_state(&self.to_bytes(), f64::from_bits(self.now_bits))
    }

    /// Loads the newest **verified** snapshot from a pipeline (walking back
    /// over damaged generations like any other restore).
    pub fn load<C, B>(
        pipeline: &mut CheckpointPipeline<C, B>,
    ) -> Result<(Self, RestoreOutcome), RestoreFault>
    where
        C: ChecksumGen + Clone,
        B: CheckpointBackend,
    {
        let (bytes, outcome) = pipeline.restore_state()?;
        let snapshot = Self::from_bytes(&bytes).map_err(|_| RestoreFault::CorruptFrame {
            generation: outcome.generation,
            frame_index: 0,
        })?;
        Ok((snapshot, outcome))
    }
}

/// Outcome of a (possibly killed) resumable run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunStatus {
    /// The run completed; here is its outcome.
    Finished(SimOutcome),
    /// The run was killed at the requested snapshot boundary.
    Killed(SimSnapshot),
}

/// A protocol run that can be killed at any snapshot boundary and resumed
/// bit-identically from the resulting [`SimSnapshot`].
#[derive(Debug, Clone)]
pub struct ResumableSim {
    program: BatchProgram,
}

impl ResumableSim {
    /// Compiles a resumable run of `protocol` over `profile` on `engine`'s
    /// plan and failure model.
    pub fn new(engine: &Engine, protocol: Protocol, profile: &ApplicationProfile) -> Self {
        Self {
            program: BatchProgram::compile(protocol, profile, engine.plan()),
        }
    }

    /// Runs the program from step `step`, with ABFT progress `done`, on
    /// `clock`, counting snapshot boundaries.  Returns the boundary count
    /// and, when boundary `kill_after` is reached, the `(step, done)`
    /// position the run stopped at.
    fn drive<F: FailureSource>(
        &self,
        clock: &mut SimClock<F>,
        mut step: usize,
        mut done: f64,
        kill_after: Option<usize>,
    ) -> (usize, Option<(usize, f64)>) {
        let steps = &self.program.steps;
        let mut boundaries = 0usize;
        let mut boundary = || {
            boundaries += 1;
            kill_after == Some(boundaries)
        };
        while step < steps.len() {
            if let Some(done) = self
                .program
                .run_step(steps[step], clock, done, &mut boundary)
            {
                return (boundaries, Some((step, done)));
            }
            step += 1;
            done = 0.0;
            if step < steps.len() && boundary() {
                return (boundaries, Some((step, done)));
            }
        }
        (boundaries, None)
    }

    fn outcome<F: FailureSource>(&self, clock: &SimClock<F>) -> SimOutcome {
        SimOutcome {
            final_time: clock.now(),
            base_time: self.program.base_time(),
            failures: clock.failures(),
        }
    }

    /// Runs to completion, replaying `buffer`'s failure sequence.
    pub fn run<M: FailureModel>(&self, buffer: &mut TraceBuffer<M>) -> SimOutcome {
        let mut clock = SimClock::with_source(buffer.cursor());
        self.drive(&mut clock, 0, 0.0, None);
        self.outcome(&clock)
    }

    /// Runs until the `kill_after`-th snapshot boundary (1-based); returns
    /// `Killed` with the snapshot, or `Finished` if the run completes with
    /// fewer boundaries.
    pub fn run_killed<M: FailureModel>(
        &self,
        buffer: &mut TraceBuffer<M>,
        kill_after: usize,
    ) -> RunStatus {
        let mut clock = SimClock::with_source(buffer.cursor());
        match self.drive(&mut clock, 0, 0.0, Some(kill_after.max(1))).1 {
            Some((step, done)) => RunStatus::Killed(SimSnapshot {
                protocol: self.program.protocol(),
                step,
                done_bits: done.to_bits(),
                now_bits: clock.now().to_bits(),
                next_failure_bits: clock.next_failure_time().to_bits(),
                failures: clock.failures() as u64,
            }),
            None => RunStatus::Finished(self.outcome(&clock)),
        }
    }

    /// Total number of snapshot boundaries of the full run on this failure
    /// sequence (kill points `1..=count` are all valid).
    pub fn count_boundaries<M: FailureModel>(&self, buffer: &mut TraceBuffer<M>) -> usize {
        let mut clock = SimClock::with_source(buffer.cursor());
        self.drive(&mut clock, 0, 0.0, None).0
    }

    /// Resumes a killed run from its snapshot, repositioning the failure
    /// cursor at `failures + 1` draws (see [`SimClock::resume`]), and runs
    /// to completion.
    ///
    /// A snapshot that is not a state of this run — another protocol, a
    /// step past the program, ABFT progress outside an ABFT work phase, or
    /// a field [`SimSnapshot::from_bytes`] would refuse — is an error, and
    /// the buffer is left untouched.
    pub fn resume<M: FailureModel>(
        &self,
        buffer: &mut TraceBuffer<M>,
        snapshot: &SimSnapshot,
    ) -> Result<SimOutcome, SnapshotError> {
        let failures = snapshot.check()?;
        let run = self.program.protocol();
        if snapshot.protocol != run {
            return Err(SnapshotError::ProtocolMismatch {
                snapshot: snapshot.protocol,
                run,
            });
        }
        let step = *self
            .program
            .steps
            .get(snapshot.step)
            .ok_or(SnapshotError::StepOutOfRange {
                step: snapshot.step,
                steps: self.program.len(),
            })?;
        let done = f64::from_bits(snapshot.done_bits);
        if done != 0.0 && !matches!(step, Step::AbftWork { .. }) {
            return Err(SnapshotError::Progress {
                step: snapshot.step,
                done,
            });
        }
        let mut clock = SimClock::resume(
            buffer.cursor_at(failures + 1),
            f64::from_bits(snapshot.now_bits),
            f64::from_bits(snapshot.next_failure_bits),
            failures,
        );
        self.drive(&mut clock, snapshot.step, done, None);
        Ok(self.outcome(&clock))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_composite::params::ModelParams;
    use ft_platform::units::minutes;

    fn engine() -> Engine {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        Engine::new(&params)
    }

    /// A snapshot killed mid-run of the composite protocol, and its run.
    fn killed_composite(engine: &Engine) -> (ResumableSim, SimSnapshot) {
        let profile = ApplicationProfile::from_params_repeated(engine.params(), 2);
        let sim = ResumableSim::new(engine, Protocol::AbftPeriodicCkpt, &profile);
        let mut buffer = engine.trace_buffer(5);
        buffer.reset(5);
        let RunStatus::Killed(snapshot) = sim.run_killed(&mut buffer, 2) else {
            panic!("kill point 2 did not kill");
        };
        (sim, snapshot)
    }

    #[test]
    fn uninterrupted_resumable_run_matches_the_engine_executor() {
        let engine = engine();
        let profile = ApplicationProfile::from_params_repeated(engine.params(), 3);
        let mut buffer = engine.trace_buffer(0);
        for protocol in Protocol::all() {
            let sim = ResumableSim::new(&engine, protocol, &profile);
            buffer.reset(17);
            let via_resume_harness = sim.run(&mut buffer);
            buffer.reset(17);
            let via_engine = engine.simulate_profile_replay(protocol, &profile, &mut buffer);
            assert_eq!(
                via_resume_harness.final_time.to_bits(),
                via_engine.final_time.to_bits(),
                "{protocol:?}"
            );
            assert_eq!(via_resume_harness.failures, via_engine.failures);
        }
    }

    #[test]
    fn kill_and_resume_is_bit_identical_at_a_few_points() {
        let engine = engine();
        let profile = ApplicationProfile::from_params_repeated(engine.params(), 2);
        let mut buffer = engine.trace_buffer(0);
        for protocol in Protocol::all() {
            let sim = ResumableSim::new(&engine, protocol, &profile);
            buffer.reset(5);
            let reference = sim.run(&mut buffer);
            buffer.reset(5);
            let total = sim.count_boundaries(&mut buffer);
            assert!(total > 0, "{protocol:?} produced no boundaries");
            for kill in [1, total / 2 + 1, total] {
                buffer.reset(5);
                let RunStatus::Killed(snapshot) = sim.run_killed(&mut buffer, kill) else {
                    panic!("{protocol:?}: kill point {kill}/{total} did not kill");
                };
                buffer.reset(5);
                let resumed = sim.resume(&mut buffer, &snapshot).unwrap();
                assert_eq!(
                    resumed.final_time.to_bits(),
                    reference.final_time.to_bits(),
                    "{protocol:?} kill {kill}/{total}"
                );
                assert_eq!(resumed.failures, reference.failures);
                assert_eq!(resumed.base_time, reference.base_time);
            }
            // One boundary past the last finishes the run instead.
            buffer.reset(5);
            assert_eq!(
                sim.run_killed(&mut buffer, total + 1),
                RunStatus::Finished(reference)
            );
        }
    }

    #[test]
    fn snapshot_codec_round_trips() {
        let snapshot = SimSnapshot {
            protocol: Protocol::AbftPeriodicCkpt,
            step: 7,
            done_bits: 1234.5f64.to_bits(),
            now_bits: 42.0f64.to_bits(),
            next_failure_bits: 99.75f64.to_bits(),
            failures: 13,
        };
        let bytes = snapshot.to_bytes();
        assert_eq!(bytes.len(), SNAPSHOT_BYTES);
        assert_eq!(SimSnapshot::from_bytes(&bytes), Ok(snapshot));
    }

    #[test]
    fn resume_refuses_a_record_of_the_wrong_length() {
        let bytes = killed_composite(&engine()).1.to_bytes();
        assert_eq!(
            SimSnapshot::from_bytes(&bytes[1..]),
            Err(SnapshotError::Length {
                len: SNAPSHOT_BYTES - 1
            })
        );
    }

    #[test]
    fn resume_refuses_an_unknown_protocol_tag() {
        let mut bytes = killed_composite(&engine()).1.to_bytes();
        bytes[0] = 9;
        assert_eq!(
            SimSnapshot::from_bytes(&bytes),
            Err(SnapshotError::UnknownProtocol { tag: 9 })
        );
    }

    #[test]
    fn resume_refuses_a_snapshot_of_another_protocol() {
        let engine = engine();
        let (sim, snapshot) = killed_composite(&engine);
        let foreign = SimSnapshot {
            protocol: Protocol::PurePeriodicCkpt,
            ..snapshot
        };
        let mut buffer = engine.trace_buffer(5);
        assert_eq!(
            sim.resume(&mut buffer, &foreign),
            Err(SnapshotError::ProtocolMismatch {
                snapshot: Protocol::PurePeriodicCkpt,
                run: Protocol::AbftPeriodicCkpt,
            })
        );
    }

    #[test]
    fn resume_refuses_a_step_at_or_past_the_end() {
        let engine = engine();
        let (sim, snapshot) = killed_composite(&engine);
        let steps = sim.program.len();
        let mut buffer = engine.trace_buffer(5);
        for step in [steps, steps + 1, usize::MAX] {
            let past = SimSnapshot {
                step,
                done_bits: 0,
                ..snapshot
            };
            assert_eq!(
                sim.resume(&mut buffer, &past),
                Err(SnapshotError::StepOutOfRange { step, steps })
            );
        }
    }

    #[test]
    fn resume_refuses_progress_that_does_not_fit_its_step() {
        let engine = engine();
        let (sim, snapshot) = killed_composite(&engine);
        let mut buffer = engine.trace_buffer(5);
        // ABFT progress on the first step, a checkpointed period.
        assert!(matches!(sim.program.steps[0], Step::Period { .. }));
        let misplaced = SimSnapshot {
            step: 0,
            done_bits: 60.0f64.to_bits(),
            ..snapshot
        };
        assert_eq!(
            sim.resume(&mut buffer, &misplaced),
            Err(SnapshotError::Progress {
                step: 0,
                done: 60.0
            })
        );
        // Negative or non-finite progress never decodes.
        for done in [-1.0, f64::NAN, f64::INFINITY] {
            let bad = SimSnapshot {
                done_bits: f64::to_bits(done),
                ..snapshot
            };
            assert!(matches!(
                SimSnapshot::from_bytes(&bad.to_bytes()),
                Err(SnapshotError::Progress { .. })
            ));
            assert!(matches!(
                sim.resume(&mut buffer, &bad),
                Err(SnapshotError::Progress { .. })
            ));
        }
    }

    #[test]
    fn resume_refuses_a_non_finite_clock() {
        let engine = engine();
        let (sim, snapshot) = killed_composite(&engine);
        let mut buffer = engine.trace_buffer(5);
        for bad in [
            SimSnapshot {
                now_bits: f64::NAN.to_bits(),
                ..snapshot
            },
            SimSnapshot {
                next_failure_bits: f64::INFINITY.to_bits(),
                ..snapshot
            },
        ] {
            assert!(matches!(
                SimSnapshot::from_bytes(&bad.to_bytes()),
                Err(SnapshotError::NonFiniteClock { .. })
            ));
            assert!(matches!(
                sim.resume(&mut buffer, &bad),
                Err(SnapshotError::NonFiniteClock { .. })
            ));
        }
    }

    #[test]
    fn resume_refuses_a_failure_count_past_the_cursor_range() {
        let engine = engine();
        let (sim, snapshot) = killed_composite(&engine);
        let bad = SimSnapshot {
            failures: u64::MAX,
            ..snapshot
        };
        let err = SnapshotError::FailureCount { failures: u64::MAX };
        assert_eq!(SimSnapshot::from_bytes(&bad.to_bytes()), Err(err));
        let mut buffer = engine.trace_buffer(5);
        assert_eq!(sim.resume(&mut buffer, &bad), Err(err));
    }

    #[test]
    fn snapshots_persist_and_load_through_the_checkpoint_pipeline() {
        use ft_ckpt::backend::MemoryBackend;
        use ft_platform::checksum::Crc32;
        let snapshot = SimSnapshot {
            protocol: Protocol::PurePeriodicCkpt,
            step: 1,
            done_bits: 0,
            now_bits: 1000.0f64.to_bits(),
            next_failure_bits: 1100.0f64.to_bits(),
            failures: 2,
        };
        let mut pipeline = CheckpointPipeline::new(Crc32::new(), MemoryBackend::new());
        let generation = snapshot.persist(&mut pipeline).unwrap();
        let (loaded, outcome) = SimSnapshot::load(&mut pipeline).unwrap();
        assert_eq!(loaded, snapshot);
        assert_eq!(outcome.generation, generation);
        assert_eq!(outcome.fallback_depth, 0);
    }
}
