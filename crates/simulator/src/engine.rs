//! The protocol engine: a shared event loop driving the three protocols.
//!
//! Where the original simulator hard-coded one epoch unfolding per protocol,
//! this module factors the machinery into three layers:
//!
//! * [`PeriodPlan`] — everything a protocol needs that can be computed
//!   *once per parameter point* instead of once per phase: the optimal
//!   periods `P_opt` for full and LIBRARY-only checkpoints, the split
//!   checkpoint costs, the recovery costs.  Replications of the same point
//!   share the plan, keeping `sqrt`s and parameter validation off the
//!   simulation hot path;
//! * the shared event loop — [`checkpointed_stream`], [`forced_checkpoint`]
//!   and [`abft_protected_stream`], the failure-interruptible building
//!   blocks every protocol composes;
//! * one executor per protocol — given a clock, a multi-epoch
//!   [`ApplicationProfile`] and the plan, unfold the whole application.
//!   [`Engine`] dispatches on [`Protocol`] to them.
//!
//! The executors are generic over the clock's [`FailureSource`], so the same
//! protocol code runs under exponential (the paper) and Weibull (robustness
//! studies) failures, freshly sampled or replayed from a recorded
//! [`TraceBuffer`] — the latter is how [`Engine::simulate_paired`] shows the
//! **same** failure sequence to every protocol (common random numbers),
//! turning protocol comparisons into paired comparisons.
//!
//! These executors are the scalar reference of the workspace: the batch
//! engine and crash-resume ([`crate::batch`], [`crate::resume`]) share one
//! compiled step program and interpreter instead, and the differential
//! harnesses check them against the loops here.  For a single-epoch profile
//! the engine reproduces the pre-refactor `simulate()` results on the same
//! seed (see the pinned-seed regression test in
//! `tests/engine_regression.rs`).

use ft_composite::model::analytic::{AnyWasteModel, WasteModel};
use ft_composite::params::ModelParams;
use ft_composite::scenario::{ApplicationProfile, Epoch};
use ft_platform::failure::{
    AnyFailureModel, ExponentialFailures, FailureModel, FailureSource, FailureSpec,
};
use ft_platform::trace::TraceBuffer;

use crate::clock::{ActivityResult, SimClock};
use crate::protocols::{Protocol, SimOutcome};

/// Per-parameter-point precomputation shared by every replication: optimal
/// checkpoint periods and the split checkpoint/recovery costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodPlan {
    /// Optimal period for full checkpoints of cost `C`
    /// (`+∞` when no finite period is viable).
    pub full_period: f64,
    /// Optimal period for LIBRARY-only checkpoints of cost `ρC`.
    pub library_period: f64,
    /// Full checkpoint cost `C`.
    pub ckpt_full: f64,
    /// LIBRARY-dataset checkpoint cost `C_L = ρC`.
    pub ckpt_library: f64,
    /// REMAINDER-dataset checkpoint cost `C_L̄ = (1 − ρ)C`.
    pub ckpt_remainder: f64,
    /// Full rollback reload cost `R`.
    pub recovery: f64,
    /// REMAINDER-dataset reload cost `(1 − ρ)R`.
    pub recovery_remainder: f64,
    /// Downtime `D` after a failure.
    pub downtime: f64,
    /// ABFT slowdown factor `φ`.
    pub phi: f64,
    /// ABFT reconstruction time.
    pub abft_reconstruction: f64,
}

impl PeriodPlan {
    /// Precomputes the plan for one parameter point under the paper's
    /// exponential first-order periods (Equation 11) — bit-identical to
    /// `with_model(params, &AnyWasteModel::first_order())`.
    pub fn new(params: &ModelParams) -> Self {
        Self::with_model(params, &ft_composite::model::analytic::FirstOrderExponential)
    }

    /// Precomputes the plan with the checkpoint periods an arbitrary
    /// [`WasteModel`] prescribes: a protocol tuned for a Weibull clock
    /// checkpoints at the Weibull-corrected optimal period, not at the
    /// exponential one.  Everything besides the two periods is
    /// model-independent.
    pub fn with_model<M: WasteModel + ?Sized>(params: &ModelParams, model: &M) -> Self {
        let period_for = |ckpt: f64| {
            model
                .optimal_period(
                    ckpt,
                    params.platform_mtbf,
                    params.downtime,
                    params.recovery_cost,
                )
                .unwrap_or(f64::INFINITY)
        };
        Self {
            full_period: period_for(params.checkpoint_cost),
            library_period: period_for(params.checkpoint_cost_library()),
            ckpt_full: params.checkpoint_cost,
            ckpt_library: params.checkpoint_cost_library(),
            ckpt_remainder: params.checkpoint_cost_remainder(),
            recovery: params.recovery_cost,
            recovery_remainder: params.recovery_cost_remainder(),
            downtime: params.downtime,
            phi: params.phi,
            abft_reconstruction: params.abft_reconstruction,
        }
    }
}

/// Runs `work` seconds of useful work protected by periodic checkpoints of
/// cost `ckpt` at period `period` (pass `+∞` to disable periodic
/// checkpointing and save the phase in one attempt).  Work performed since
/// the last completed checkpoint is lost when a failure strikes — wherever
/// it strikes, during the work or during the checkpoint itself.
pub fn checkpointed_stream<F: FailureSource>(
    clock: &mut SimClock<F>,
    work: f64,
    ckpt: f64,
    period: f64,
    plan: &PeriodPlan,
) {
    if work <= 0.0 {
        return;
    }
    // Work executed per period (the period includes the checkpoint).
    let work_per_period = if period.is_finite() && period > ckpt {
        period - ckpt
    } else {
        work
    };
    let mut saved = 0.0;
    while saved < work {
        let target = work_per_period.min(work - saved);
        // One attempt = the period's work followed by its checkpoint; any
        // failure before the checkpoint completes discards the attempt.
        'attempt: loop {
            // Execute the work of this period.
            let mut done = 0.0;
            while done < target {
                match clock.try_run(target - done) {
                    ActivityResult::Completed => done = target,
                    ActivityResult::Interrupted { .. } => {
                        clock.recover(plan.downtime, plan.recovery);
                        done = 0.0;
                    }
                }
            }
            // Take the checkpoint that makes this period's work durable.
            match clock.try_run(ckpt) {
                ActivityResult::Completed => break 'attempt,
                ActivityResult::Interrupted { .. } => {
                    clock.recover(plan.downtime, plan.recovery);
                    // The checkpoint did not complete: the period's work is
                    // lost and the attempt restarts.
                }
            }
        }
        saved += target;
    }
}

/// Takes a forced checkpoint of the given cost, retrying (after a rollback
/// recovery) until it completes.
pub fn forced_checkpoint<F: FailureSource>(clock: &mut SimClock<F>, cost: f64, plan: &PeriodPlan) {
    loop {
        match clock.try_run(cost) {
            ActivityResult::Completed => return,
            ActivityResult::Interrupted { .. } => {
                clock.recover(plan.downtime, plan.recovery);
            }
        }
    }
}

/// ABFT recovery: downtime, reload of the REMAINDER dataset from the entry
/// checkpoint, reconstruction of the LIBRARY dataset from the checksums.
/// Failures during the recovery restart it.
pub fn abft_recover<F: FailureSource>(clock: &mut SimClock<F>, plan: &PeriodPlan) {
    loop {
        if clock.try_run(plan.downtime).is_completed()
            && clock.try_run(plan.recovery_remainder).is_completed()
            && clock.try_run(plan.abft_reconstruction).is_completed()
        {
            return;
        }
    }
}

/// ABFT-protected execution of `library` seconds of LIBRARY work: the work
/// is inflated by `φ`, failures cost an ABFT recovery but lose **no work**,
/// and the phase ends with the forced exit checkpoint of the LIBRARY
/// dataset.
pub fn abft_protected_stream<F: FailureSource>(
    clock: &mut SimClock<F>,
    library: f64,
    plan: &PeriodPlan,
) {
    if library <= 0.0 {
        return;
    }
    let abft_work = plan.phi * library;
    let mut done = 0.0;
    while done < abft_work {
        match clock.try_run(abft_work - done) {
            ActivityResult::Completed => done = abft_work,
            ActivityResult::Interrupted { progress } => {
                // ABFT recovery: the work performed so far is NOT lost.
                done += progress;
                abft_recover(clock, plan);
            }
        }
    }
    // Forced exit checkpoint of the LIBRARY dataset. A failure during the
    // checkpoint is recovered with ABFT (the library data is still encoded)
    // and the checkpoint is retried.
    while !clock.try_run(plan.ckpt_library).is_completed() {
        abft_recover(clock, plan);
    }
}

/// Phase-oblivious coordinated periodic checkpointing: the whole application
/// — all epochs, GENERAL and LIBRARY phases alike — is one checkpointed
/// stream with full checkpoints (epoch boundaries are invisible to the
/// protocol).
fn run_pure<F: FailureSource>(
    clock: &mut SimClock<F>,
    profile: &ApplicationProfile,
    plan: &PeriodPlan,
) {
    checkpointed_stream(
        clock,
        profile.total_duration(),
        plan.ckpt_full,
        plan.full_period,
        plan,
    );
}

/// Phase-aware periodic checkpointing: GENERAL phases carry full
/// checkpoints, LIBRARY phases carry incremental (`ρC`) checkpoints;
/// recovery still reloads everything.
fn run_bi<F: FailureSource>(
    clock: &mut SimClock<F>,
    profile: &ApplicationProfile,
    plan: &PeriodPlan,
) {
    for epoch in profile.epochs() {
        checkpointed_stream(clock, epoch.general, plan.ckpt_full, plan.full_period, plan);
        checkpointed_stream(
            clock,
            epoch.library,
            plan.ckpt_library,
            plan.library_period,
            plan,
        );
    }
}

/// The composite protocol: periodic checkpointing in GENERAL phases (with
/// the forced entry checkpoint of the REMAINDER dataset before each library
/// call), ABFT inside LIBRARY phases (with the forced exit checkpoint of
/// the LIBRARY dataset after each call).
fn run_composite<F: FailureSource>(
    clock: &mut SimClock<F>,
    profile: &ApplicationProfile,
    plan: &PeriodPlan,
) {
    for epoch in profile.epochs() {
        composite_general(clock, epoch, plan);
        abft_protected_stream(clock, epoch.library, plan);
    }
}

/// GENERAL phase of one composite epoch: periodic checkpointing when the
/// phase is long, otherwise only the forced entry checkpoint of the
/// REMAINDER dataset (a failure rolls back to the start of the phase).
fn composite_general<F: FailureSource>(clock: &mut SimClock<F>, epoch: &Epoch, plan: &PeriodPlan) {
    let work = epoch.general;
    if work <= 0.0 {
        // Even with no GENERAL work, entering the library requires the
        // forced partial checkpoint of the REMAINDER dataset.
        if epoch.library > 0.0 {
            forced_checkpoint(clock, plan.ckpt_remainder, plan);
        }
        return;
    }
    if work < plan.full_period {
        // Short phase: no periodic checkpoint, a failure rolls back to
        // the start of the phase; the phase ends with the forced partial
        // checkpoint of the REMAINDER dataset.
        'attempt: loop {
            let mut done = 0.0;
            while done < work {
                match clock.try_run(work - done) {
                    ActivityResult::Completed => done = work,
                    ActivityResult::Interrupted { .. } => {
                        clock.recover(plan.downtime, plan.recovery);
                        done = 0.0;
                    }
                }
            }
            match clock.try_run(plan.ckpt_remainder) {
                ActivityResult::Completed => break 'attempt,
                ActivityResult::Interrupted { .. } => {
                    clock.recover(plan.downtime, plan.recovery);
                }
            }
        }
    } else {
        // Long phase: regular periodic checkpointing; the last checkpoint
        // doubles as the forced entry checkpoint (the paper's "the last
        // periodic checkpoint replaces that of size C_L̄").
        checkpointed_stream(clock, work, plan.ckpt_full, plan.full_period, plan);
    }
}

/// The simulation engine for one parameter point: owns the precomputed
/// [`PeriodPlan`], the point's failure model and assembles [`SimOutcome`]s
/// from executor runs.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    params: ModelParams,
    plan: PeriodPlan,
    model: AnyFailureModel,
}

impl Engine {
    /// Builds an engine (and its plan) for one parameter point, under the
    /// paper's exponential failure assumption.
    pub fn new(params: &ModelParams) -> Self {
        Self::with_failure_model(
            params,
            AnyFailureModel::Exponential(
                ExponentialFailures::new(params.platform_mtbf).expect("validated positive MTBF"),
            ),
        )
    }

    /// Builds an engine whose simulation arm draws failures from an
    /// arbitrary model (e.g. Weibull for the robustness studies).  The
    /// model's mean should be the point's platform MTBF for the closed-form
    /// predictions to stay comparable.
    ///
    /// The plan is derived from the **matching analytic waste model**
    /// ([`Engine::waste_model`]): under a Weibull clock the simulated
    /// protocols checkpoint at the Weibull-corrected optimal period, so the
    /// model arm and the simulation arm always describe the same protocol
    /// tuned for the same failure law.  (At `k = 1`, and for every
    /// exponential engine, the corrected periods are bit-identical to the
    /// paper's Equation 11 — the historical behaviour.)
    pub fn with_failure_model(params: &ModelParams, model: AnyFailureModel) -> Self {
        let waste_model = AnyWasteModel::from_spec(model.spec())
            .expect("a built failure model always has a valid spec");
        Self {
            params: *params,
            plan: PeriodPlan::with_model(params, &waste_model),
            model,
        }
    }

    /// Builds an engine from a declarative [`FailureSpec`], resolving the
    /// model at the point's platform MTBF.
    pub fn with_failure_spec(
        params: &ModelParams,
        spec: FailureSpec,
    ) -> ft_platform::error::Result<Self> {
        Ok(Self::with_failure_model(params, spec.build(params.platform_mtbf)?))
    }

    /// The parameter point this engine simulates.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// The precomputed plan.
    pub fn plan(&self) -> &PeriodPlan {
        &self.plan
    }

    /// The failure model the simulation arm draws from.
    pub fn failure_model(&self) -> &AnyFailureModel {
        &self.model
    }

    /// The declarative spec of the engine's failure clock.
    pub fn failure_spec(&self) -> FailureSpec {
        self.model.spec()
    }

    /// The analytic waste model matching the engine's failure clock — the
    /// model arm of a model-versus-simulation pairing over this engine.
    pub fn waste_model(&self) -> AnyWasteModel {
        AnyWasteModel::from_spec(self.model.spec())
            .expect("a built failure model always has a valid spec")
    }

    /// Simulates one of the paper's protocols over an arbitrary multi-epoch
    /// profile, under the engine's failure model seeded deterministically.
    pub fn simulate_profile(
        &self,
        protocol: Protocol,
        profile: &ApplicationProfile,
        seed: u64,
    ) -> SimOutcome {
        let clock = SimClock::with_model(self.model, seed);
        self.dispatch(protocol, profile, clock)
    }

    /// Runs the executor of `protocol` on an arbitrary clock.
    fn dispatch<F: FailureSource>(
        &self,
        protocol: Protocol,
        profile: &ApplicationProfile,
        mut clock: SimClock<F>,
    ) -> SimOutcome {
        match protocol {
            Protocol::PurePeriodicCkpt => run_pure(&mut clock, profile, &self.plan),
            Protocol::BiPeriodicCkpt => run_bi(&mut clock, profile, &self.plan),
            Protocol::AbftPeriodicCkpt => run_composite(&mut clock, profile, &self.plan),
        }
        SimOutcome {
            final_time: clock.now(),
            base_time: profile.total_duration(),
            failures: clock.failures(),
        }
    }

    /// A failure buffer matching this engine's parameter point and failure
    /// model, ready to be reset once per replication and replayed to every
    /// protocol.
    pub fn trace_buffer(&self, seed: u64) -> TraceBuffer<AnyFailureModel> {
        TraceBuffer::new(self.model, seed)
    }

    /// Simulates `protocol` over `profile`, *replaying* the failure sequence
    /// recorded in `buffer` instead of sampling a fresh one.  Replaying the
    /// same buffer (same [`TraceBuffer::reset`] seed) to several protocols
    /// gives a common-random-numbers comparison; with the buffer reset to
    /// seed `s` over the engine's own model, the outcome is bit-identical to
    /// `simulate_profile(p, _, s)` — under exponential *and* Weibull clocks
    /// alike (the buffer is generic over the model).
    pub fn simulate_profile_replay<M: FailureModel>(
        &self,
        protocol: Protocol,
        profile: &ApplicationProfile,
        buffer: &mut TraceBuffer<M>,
    ) -> SimOutcome {
        self.dispatch(protocol, profile, SimClock::with_source(buffer.cursor()))
    }

    /// Single-epoch counterpart of [`Engine::simulate_profile_replay`]:
    /// replays `buffer` through the exact event sequence of
    /// [`Engine::simulate`], bit-for-bit.
    pub fn simulate_replay<M: FailureModel>(
        &self,
        protocol: Protocol,
        buffer: &mut TraceBuffer<M>,
    ) -> SimOutcome {
        match protocol {
            Protocol::PurePeriodicCkpt => {
                let mut clock = SimClock::with_source(buffer.cursor());
                checkpointed_stream(
                    &mut clock,
                    self.params.epoch_duration,
                    self.plan.ckpt_full,
                    self.plan.full_period,
                    &self.plan,
                );
                SimOutcome {
                    final_time: clock.now(),
                    base_time: self.params.epoch_duration,
                    failures: clock.failures(),
                }
            }
            _ => {
                let profile = ApplicationProfile::from_params(&self.params);
                let outcome = self.simulate_profile_replay(protocol, &profile, buffer);
                SimOutcome {
                    base_time: self.params.epoch_duration,
                    ..outcome
                }
            }
        }
    }

    /// Simulates all three protocols over `profile` on **one** failure
    /// sequence (reseeded from `seed`): the paired, common-random-numbers
    /// counterpart of calling [`Engine::simulate_profile`] three times.
    /// Outcomes are returned in [`Protocol::all`] order.
    pub fn simulate_paired<M: FailureModel>(
        &self,
        profile: &ApplicationProfile,
        seed: u64,
        buffer: &mut TraceBuffer<M>,
    ) -> [SimOutcome; 3] {
        buffer.reset(seed);
        Protocol::all().map(|p| self.simulate_profile_replay(p, profile, buffer))
    }

    /// Simulates the single-epoch application described by the engine's
    /// parameters (the pre-refactor `simulate()` behaviour).
    pub fn simulate(&self, protocol: Protocol, seed: u64) -> SimOutcome {
        // The pure protocol treats the epoch as one opaque stream of
        // `epoch_duration` seconds, exactly like the closed-form model.
        match protocol {
            Protocol::PurePeriodicCkpt => {
                let mut clock = SimClock::with_model(self.model, seed);
                checkpointed_stream(
                    &mut clock,
                    self.params.epoch_duration,
                    self.plan.ckpt_full,
                    self.plan.full_period,
                    &self.plan,
                );
                SimOutcome {
                    final_time: clock.now(),
                    base_time: self.params.epoch_duration,
                    failures: clock.failures(),
                }
            }
            _ => {
                let profile = ApplicationProfile::from_params(&self.params);
                let outcome = self.simulate_profile(protocol, &profile, seed);
                SimOutcome {
                    base_time: self.params.epoch_duration,
                    ..outcome
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_composite::young_daly::paper_optimal_period;
    use ft_platform::units::{hours, minutes, weeks};

    fn calm_params() -> ModelParams {
        ModelParams::builder()
            .epoch_duration(weeks(1.0))
            .alpha(0.5)
            .checkpoint_cost(minutes(10.0))
            .recovery_cost(minutes(10.0))
            .downtime(minutes(1.0))
            .rho(0.8)
            .phi(1.03)
            .abft_reconstruction(2.0)
            .platform_mtbf(weeks(20_000.0))
            .build()
            .unwrap()
    }

    #[test]
    fn plan_precomputes_the_paper_periods() {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        let plan = PeriodPlan::new(&params);
        let expected_full = paper_optimal_period(
            params.checkpoint_cost,
            params.platform_mtbf,
            params.downtime,
            params.recovery_cost,
        )
        .unwrap();
        assert_eq!(plan.full_period, expected_full);
        assert!(plan.library_period < plan.full_period);
        assert!((plan.ckpt_library + plan.ckpt_remainder - plan.ckpt_full).abs() < 1e-9);
    }

    #[test]
    fn weibull_engines_checkpoint_at_the_corrected_period() {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        let exponential = Engine::new(&params);
        assert_eq!(exponential.failure_spec(), FailureSpec::Exponential);
        // Bursty clock: less rework per failure, longer corrected period.
        let bursty =
            Engine::with_failure_spec(&params, FailureSpec::Weibull { shape: 0.7 }).unwrap();
        assert_eq!(bursty.failure_spec(), FailureSpec::Weibull { shape: 0.7 });
        assert!(bursty.plan().full_period > exponential.plan().full_period);
        assert!(bursty.plan().library_period > exponential.plan().library_period);
        // k = 1 degenerates to the exponential plan bit for bit.
        let k1 = Engine::with_failure_spec(&params, FailureSpec::Weibull { shape: 1.0 }).unwrap();
        assert_eq!(
            k1.plan().full_period.to_bits(),
            exponential.plan().full_period.to_bits()
        );
        assert_eq!(
            k1.plan().library_period.to_bits(),
            exponential.plan().library_period.to_bits()
        );
        // The paired waste model follows the clock.
        use ft_composite::model::analytic::AnyWasteModel;
        assert!(matches!(exponential.waste_model(), AnyWasteModel::FirstOrder(_)));
        assert!(matches!(bursty.waste_model(), AnyWasteModel::Weibull(_)));
    }

    #[test]
    fn engine_matches_the_wrapper_simulate() {
        let params = ModelParams::paper_figure7(0.8, minutes(90.0)).unwrap();
        let engine = Engine::new(&params);
        for protocol in Protocol::all() {
            for seed in 0..10 {
                assert_eq!(
                    engine.simulate(protocol, seed),
                    crate::protocols::simulate(protocol, &params, seed)
                );
            }
        }
    }

    #[test]
    fn multi_epoch_profile_with_no_failures_has_deterministic_overhead() {
        // Huge MTBF: every epoch is short relative to the optimal period, so
        // the per-protocol time is exactly the work plus a computable number
        // of checkpoints.
        let params = calm_params();
        let engine = Engine::new(&params);
        let (general, library) = (hours(2.0), hours(1.0));
        let epochs = 5;
        let profile = ApplicationProfile::uniform(epochs, general, library).unwrap();
        let work: f64 = profile.total_duration();
        let n = epochs as f64;

        // Pure: one stream, one trailing full checkpoint (period >> work).
        let pure = engine.simulate_profile(Protocol::PurePeriodicCkpt, &profile, 1);
        assert_eq!(pure.failures, 0);
        assert!((pure.final_time - (work + engine.plan().ckpt_full)).abs() < 1e-6);

        // Bi: per epoch, one full checkpoint after GENERAL and one
        // incremental checkpoint after LIBRARY.
        let bi = engine.simulate_profile(Protocol::BiPeriodicCkpt, &profile, 1);
        let bi_expected = work + n * (engine.plan().ckpt_full + engine.plan().ckpt_library);
        assert_eq!(bi.failures, 0);
        assert!((bi.final_time - bi_expected).abs() < 1e-6);

        // Composite: per epoch, the entry (REMAINDER) checkpoint, the
        // φ-inflated library work and the exit (LIBRARY) checkpoint.
        let composite = engine.simulate_profile(Protocol::AbftPeriodicCkpt, &profile, 1);
        let composite_expected = n
            * (general
                + engine.plan().ckpt_remainder
                + engine.plan().phi * library
                + engine.plan().ckpt_library);
        assert_eq!(composite.failures, 0);
        assert!((composite.final_time - composite_expected).abs() < 1e-6);
    }

    #[test]
    fn splitting_an_epoch_only_adds_forced_checkpoint_overhead_when_calm() {
        // Failure-free: a 4-epoch split of the same total work costs exactly
        // 3 extra (entry + exit) checkpoint pairs under the composite
        // protocol.
        let params = calm_params();
        let engine = Engine::new(&params);
        let one = ApplicationProfile::from_params_repeated(&params, 1);
        let four = ApplicationProfile::from_params_repeated(&params, 4);
        let t1 = engine
            .simulate_profile(Protocol::AbftPeriodicCkpt, &one, 3)
            .final_time;
        let t4 = engine
            .simulate_profile(Protocol::AbftPeriodicCkpt, &four, 3)
            .final_time;
        assert!(t4 > t1);
        let extra = t4 - t1;
        // At most 4 extra entry+exit pairs' worth of overhead (the split
        // also moves each shorter GENERAL phase below the periodic-regime
        // threshold, trading periodic checkpoints for the forced one).
        assert!(
            extra <= 4.0 * (engine.plan().ckpt_remainder + engine.plan().ckpt_library) + 1e-6,
            "extra {extra}"
        );
    }

    #[test]
    fn executors_run_under_weibull_failures() {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        let engine =
            Engine::with_failure_spec(&params, FailureSpec::Weibull { shape: 0.7 }).unwrap();
        let profile = ApplicationProfile::from_params(&params);
        for protocol in Protocol::all() {
            let out = engine.simulate_profile(protocol, &profile, 11);
            assert!(out.final_time > out.base_time);
            assert!(out.failures > 0);
            let again = engine.simulate_profile(protocol, &profile, 11);
            assert_eq!(out, again);
        }
    }

    #[test]
    fn weibull_engine_replays_bit_identically_and_differs_from_exponential() {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        let weibull =
            Engine::with_failure_spec(&params, FailureSpec::Weibull { shape: 0.7 }).unwrap();
        assert_eq!(weibull.failure_model().name(), "weibull");
        assert!(Engine::with_failure_spec(&params, FailureSpec::Weibull { shape: -1.0 }).is_err());
        let exponential = Engine::new(&params);
        let profile = ApplicationProfile::from_params(&params);
        let mut buffer = weibull.trace_buffer(0);
        for protocol in Protocol::all() {
            buffer.reset(9);
            let replayed = weibull.simulate_profile_replay(protocol, &profile, &mut buffer);
            let fresh = weibull.simulate_profile(protocol, &profile, 9);
            assert_eq!(replayed.final_time.to_bits(), fresh.final_time.to_bits());
            assert_eq!(replayed, fresh);
            // Same seed, different clock distribution: genuinely different
            // adversity, not a relabelled exponential run.
            assert_ne!(fresh, exponential.simulate_profile(protocol, &profile, 9));
        }
    }

    #[test]
    fn replay_reproduces_fresh_sampling_bit_for_bit() {
        let params = ModelParams::paper_figure7(0.8, minutes(90.0)).unwrap();
        let engine = Engine::new(&params);
        let profile = ApplicationProfile::from_params_repeated(&params, 3);
        let mut buffer = engine.trace_buffer(0);
        for protocol in Protocol::all() {
            for seed in [1u64, 7, 42] {
                buffer.reset(seed);
                let replayed = engine.simulate_replay(protocol, &mut buffer);
                let fresh = engine.simulate(protocol, seed);
                assert_eq!(replayed.final_time.to_bits(), fresh.final_time.to_bits());
                assert_eq!(replayed, fresh);

                buffer.reset(seed);
                let replayed = engine.simulate_profile_replay(protocol, &profile, &mut buffer);
                let fresh = engine.simulate_profile(protocol, &profile, seed);
                assert_eq!(replayed.final_time.to_bits(), fresh.final_time.to_bits());
                assert_eq!(replayed, fresh);
            }
        }
    }

    #[test]
    fn paired_simulation_shows_every_protocol_the_same_failures() {
        let params = ModelParams::paper_figure7(0.5, minutes(120.0)).unwrap();
        let engine = Engine::new(&params);
        let profile = ApplicationProfile::from_params(&params);
        let mut buffer = engine.trace_buffer(0);
        let [pure, bi, composite] = engine.simulate_paired(&profile, 11, &mut buffer);
        // Each outcome is bit-identical to its unpaired run on the same seed
        // (common random numbers change the *correlation*, not the marginals).
        assert_eq!(pure, engine.simulate_profile(Protocol::PurePeriodicCkpt, &profile, 11));
        assert_eq!(bi, engine.simulate_profile(Protocol::BiPeriodicCkpt, &profile, 11));
        assert_eq!(
            composite,
            engine.simulate_profile(Protocol::AbftPeriodicCkpt, &profile, 11)
        );
        // And the whole paired run is reproducible.
        let again = engine.simulate_paired(&profile, 11, &mut buffer);
        assert_eq!([pure, bi, composite], again);
    }
}
