//! The simulation workloads: sweep grids driven through the batch engine.
//!
//! A timed pass is one call of the program's own grid driver,
//! `SweepSpec::run_serial` or `SweepSpec::run` on two threads, plus the
//! rendered table; its results are checked bit for bit against a reference
//! `run_serial`.  `setup_s` times the set-up share of such a pass on its
//! own: grid expansion, engine and plan construction, and compiling every
//! `(protocol, point)` program through a `BatchProgramCache`.  The traced
//! run reuses that set-up and replays the serial driver from public calls
//! with every layer boundary instrumented; its results must match too.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ft_bench::experiment::{GridPoint, PairedDelta, PointResult, SweepResults};
use ft_bench::output::OutputFormat;
use ft_bench::{figure7_base, Axis, Parameter, SweepSpec};
use ft_composite::scaling::WeakScalingScenario;
use ft_composite::scenario::ApplicationProfile;
use ft_platform::batch::{BatchFailureSource, BatchFailureStream};
use ft_platform::failure::AnyFailureModel;
use ft_platform::rng::{SeedStream, SplitMix64};
use ft_platform::scenario::ScenarioSpec;
use ft_platform::units::minutes;
use ft_sim::{
    accumulate_paired_engine, accumulate_profile_engine, model_waste_with, BatchProgram,
    BatchProgramCache, BatchState, Engine, OutcomeAccumulator, PairedAccumulator, Protocol,
    ReplicationBudget, SimStats, Welford,
};

use crate::timing::{
    describe, median, peak_rss_mb, raw_median, repeat_for, report, since, timed, DriftClock,
};
use crate::{Checks, Options};

/// Minimum timed passes of each driver per run.
const MIN_PASSES: usize = 10;
/// Back-to-back set-ups per `setup_s` sample: one set-up is under 2 ms,
/// too short to time alone against the host's noise.
const SETUP_BATCH: usize = 8;
/// Tasks per run re-checked against the scalar engine.
const SCALAR_SAMPLE: usize = 3;

/// The sweep of one workload.  The benchmark seed only picks the master
/// seed; the grids are the paper's.
fn spec_for(workload: &str, seed: u64) -> SweepSpec {
    let mut mix = SplitMix64::new(seed ^ 0x5045_5246_4245_4e43);
    let master = mix.derive_seed();
    let fig7_grid = |name: &str, mtbf_points: usize, alpha_points: usize| {
        SweepSpec::new(name, figure7_base())
            .axis(Axis::linspace(
                Parameter::Mtbf,
                minutes(60.0),
                minutes(240.0),
                mtbf_points,
            ))
            .axis(Axis::linspace(Parameter::Alpha, 0.0, 1.0, alpha_points))
    };
    let spec = match workload {
        "fig7-dense" => fig7_grid("fig7-dense", 7, 6).replications(200),
        "weak-scaling" => SweepSpec::scaling("weak-scaling", WeakScalingScenario::figure9())
            .axis(Axis::decades(Parameter::Nodes, 3, 4, 8))
            .replications(1000),
        "cascade-paired" => fig7_grid("cascade-paired", 7, 6)
            .scenario(ScenarioSpec::Cascade)
            .paired(true)
            .budget(ReplicationBudget::Adaptive {
                rel_precision: 0.02,
                min: 100,
                max: 1000,
            }),
        other => unreachable!("unknown simulation workload {other}"),
    };
    spec.seed(master)
}

/// The simulation arm of one task, built at set-up.
struct TaskSim {
    engine: Engine,
    programs: Vec<Arc<BatchProgram>>,
    seed: u64,
    profile: ApplicationProfile,
}

/// One grid task: a `(point, protocol)` pair, or a whole point when paired.
struct Task {
    point: usize,
    protocol: Option<Protocol>,
    sim: Option<TaskSim>,
}

/// The set-up of a pass, built ahead for `setup_s`, the traced run and
/// the scalar-engine sample.
struct Prepared {
    grid: Vec<GridPoint>,
    tasks: Vec<Task>,
    compiles: usize,
    compile_s: f64,
}

/// `ft_bench::experiment`'s per-task seed derivation.
fn task_seed(master: u64, point: u64, protocol: Option<Protocol>) -> u64 {
    let tag = match protocol {
        None => 0u64,
        Some(Protocol::PurePeriodicCkpt) => 1,
        Some(Protocol::BiPeriodicCkpt) => 2,
        Some(Protocol::AbftPeriodicCkpt) => 3,
    };
    SplitMix64::new(
        master
            .wrapping_add(point.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(tag.wrapping_mul(0xD1B5_4A32_D192_ED03)),
    )
    .derive_seed()
}

/// The set-up phase: grid expansion, engines, plans and compiled programs.
fn prepare(spec: &SweepSpec) -> Prepared {
    let grid = spec.expand().expect("benchmark grids are valid");
    let cache = BatchProgramCache::new();
    let mut compile_s = 0.0;
    let units: Vec<Option<Protocol>> = if spec.paired {
        vec![None]
    } else {
        spec.protocols.iter().copied().map(Some).collect()
    };
    let mut tasks = Vec::with_capacity(grid.len() * units.len());
    for point in &grid {
        for &protocol in &units {
            let sim = point
                .params
                .filter(|_| spec.budget.runs_simulation())
                .map(|params| {
                    let profile = match point.scenario {
                        Some((scenario, nodes)) => ApplicationProfile::uniform(
                            scenario.epochs,
                            scenario.general_duration(nodes),
                            scenario.library_duration(nodes),
                        )
                        .expect("scenario durations are non-negative"),
                        None => ApplicationProfile::from_params_repeated(&params, spec.epochs),
                    };
                    let engine = if spec.failure_scenario.is_iid() {
                        Engine::with_failure_spec(&params, point.failure_spec(spec.failure))
                            .expect("failure specs are valid")
                    } else {
                        let horizon = params.epoch_duration * spec.epochs.max(1) as f64;
                        let model = spec
                            .failure_scenario
                            .resolve(params.platform_mtbf, horizon)
                            .expect("scenarios are valid");
                        Engine::with_failure_model(&params, model)
                    };
                    let compile_start = Instant::now();
                    let programs = match protocol {
                        Some(p) => vec![cache.get(p, &profile, engine.plan())],
                        None => spec
                            .protocols
                            .iter()
                            .map(|&p| cache.get(p, &profile, engine.plan()))
                            .collect(),
                    };
                    compile_s += since(compile_start);
                    TaskSim {
                        seed: task_seed(spec.seed, point.index as u64, protocol),
                        engine,
                        programs,
                        profile,
                    }
                });
            tasks.push(Task {
                point: point.index,
                protocol,
                sim,
            });
        }
    }
    Prepared {
        grid,
        tasks,
        compiles: cache.len(),
        compile_s,
    }
}

/// The model arm of one `(point, protocol)` task.
fn model_arm(spec: &SweepSpec, point: &GridPoint, protocol: Protocol) -> (f64, f64) {
    let model = point.waste_model(spec.failure);
    match point.scenario {
        Some((scenario, nodes)) => match scenario.point_with(&model, nodes) {
            Ok(sp) => {
                let pp = match protocol {
                    Protocol::PurePeriodicCkpt => sp.pure,
                    Protocol::BiPeriodicCkpt => sp.bi,
                    Protocol::AbftPeriodicCkpt => sp.composite,
                };
                (pp.waste.value(), pp.expected_failures)
            }
            Err(_) => (1.0, f64::INFINITY),
        },
        None => {
            let params = point.params.expect("non-scenario points resolve");
            let waste = model_waste_with(&model, protocol, &params);
            let expected = if waste < 1.0 {
                params.epoch_duration * spec.epochs as f64 / (1.0 - waste) / params.platform_mtbf
            } else {
                f64::INFINITY
            };
            (waste, expected)
        }
    }
}

/// The simulation outcome of one task, in either mode.
enum SimOut {
    Single(OutcomeAccumulator),
    Paired(PairedAccumulator),
}

/// Turns a task's model arm and simulation outcome into result rows.
fn rows(
    spec: &SweepSpec,
    point: &GridPoint,
    task: &Task,
    sim: Option<SimOut>,
    mut model: impl FnMut(Protocol) -> (f64, f64),
) -> Vec<PointResult> {
    let row = |protocol, (model_waste, expected_failures), sim, paired| PointResult {
        index: point.index,
        protocol,
        model_waste,
        expected_failures,
        sim,
        paired,
    };
    match task.protocol {
        Some(protocol) => {
            let stats = match sim {
                Some(SimOut::Single(acc)) => Some(SimStats::from_accumulator(protocol, &acc)),
                _ => None,
            };
            vec![row(protocol, model(protocol), stats, None)]
        }
        None => spec
            .protocols
            .iter()
            .enumerate()
            .map(|(i, &protocol)| {
                let (stats, paired) = match &sim {
                    Some(SimOut::Paired(acc)) => (
                        Some(SimStats::from_accumulator(protocol, &acc.outcomes[i])),
                        acc.delta(protocol).map(|d| PairedDelta {
                            baseline: spec.protocols[0],
                            mean: d.mean(),
                            ci95: d.ci95_half_width(),
                        }),
                    ),
                    _ => (None, None),
                };
                row(protocol, model(protocol), stats, paired)
            })
            .collect(),
    }
}

/// One pass of the program's grid driver, serial (`SweepSpec::run_serial`)
/// or on the 2-thread pool (`SweepSpec::run`), with the table the figure
/// binaries print rendered from its results.
fn drive(spec: &SweepSpec, parallel: bool) -> SweepResults {
    let swept = if parallel {
        spec.run()
    } else {
        spec.run_serial()
    }
    .expect("benchmark grids are valid");
    black_box(swept.render(OutputFormat::Table));
    swept
}

/// Bit-level identity of a result list (`{:?}` prints every f64 exactly).
fn fingerprint(results: &[PointResult]) -> Vec<String> {
    results.iter().map(|r| format!("{r:?}")).collect()
}

fn check_same(checks: &mut Checks, what: &str, got: &[String], want: &[String]) {
    checks.check(got.len() == want.len(), || {
        format!("{what}: {} rows, expected {}", got.len(), want.len())
    });
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        checks.check(g == w, || {
            format!("{what}: row {i} differs:\n  got  {g}\n  want {w}")
        });
    }
}

/// Re-runs a seeded sample of tasks through the scalar engine and checks
/// that the batch results match it.
fn check_scalar_sample(
    checks: &mut Checks,
    spec: &SweepSpec,
    prep: &Prepared,
    reference: &[String],
    seed: u64,
) {
    let simulated: Vec<usize> = (0..prep.tasks.len())
        .filter(|&i| prep.tasks[i].sim.is_some())
        .collect();
    let mut pick = SplitMix64::new(seed ^ 0x5343_414c_4152);
    let width = if spec.paired { spec.protocols.len() } else { 1 };
    for _ in 0..SCALAR_SAMPLE.min(simulated.len()) {
        let i = simulated[(pick.derive_seed() % simulated.len() as u64) as usize];
        let task = &prep.tasks[i];
        let s = task.sim.as_ref().expect("filtered to simulated tasks");
        let point = &prep.grid[task.point];
        let sim = match task.protocol {
            Some(p) => SimOut::Single(accumulate_profile_engine(
                &s.engine,
                p,
                &s.profile,
                spec.plan(),
                s.seed,
            )),
            None => SimOut::Paired(accumulate_paired_engine(
                &s.engine,
                &spec.protocols,
                &s.profile,
                spec.plan(),
                s.seed,
            )),
        };
        let got = fingerprint(&rows(spec, point, task, Some(sim), |p| {
            model_arm(spec, point, p)
        }));
        check_same(
            checks,
            &format!("scalar engine, task {i}"),
            &got,
            &reference[i * width..(i + 1) * width],
        );
    }
}

/// Totals of the reference results: replications and failures per pass.
fn profile_line(results: &[PointResult]) -> String {
    let (mut reps, mut failures) = (0.0, 0.0);
    for s in results.iter().filter_map(|r| r.sim) {
        reps += s.replications as f64;
        failures += s.mean_failures * s.replications as f64;
    }
    format!(
        "# workload profile: {} result rows, {reps:.0} simulated runs, {failures:.0} failures ({:.2} per run)",
        results.len(),
        failures / reps.max(1.0)
    )
}

pub fn run(workload: &str, opts: &Options, checks: &mut Checks) -> Vec<(&'static str, f64)> {
    let spec = spec_for(workload, opts.seed);
    // The 2-thread driver is rayon's, as in `SweepSpec::run`; the host may
    // have fewer cores, in which case the comparison shows it.
    rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build_global()
        .expect("the thread-pool stand-in always configures");
    let reference = spec.run_serial().expect("benchmark grids are valid");
    let want = fingerprint(&reference.results);
    println!(
        "# workload {workload}: seed {} -> master seed {:#018x}",
        opts.seed, spec.seed
    );
    println!("{}", profile_line(&reference.results));
    if opts.trace {
        traced_run(&spec, opts, checks, &want)
    } else {
        untraced_run(&spec, opts, checks, &want)
    }
}

fn untraced_run(
    spec: &SweepSpec,
    opts: &Options,
    checks: &mut Checks,
    want: &[String],
) -> Vec<(&'static str, f64)> {
    let prep = prepare(spec);
    check_scalar_sample(checks, spec, &prep, want, opts.seed);
    for parallel in [false, true] {
        let r = drive(spec, parallel);
        check_same(checks, "warm-up pass", &fingerprint(&r.results), want);
    }

    // Serial and 2-thread passes interleaved (alternating which goes
    // first), each pair followed by fresh set-ups, so all three series see
    // the same host phases.
    let mut clock = DriftClock::new();
    let (mut serial, mut two, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    repeat_for(opts.seconds, MIN_PASSES, |i| {
        for parallel in [i % 2 == 1, i % 2 == 0] {
            let series = if parallel { &mut two } else { &mut serial };
            let r = clock.time(series, || drive(spec, parallel));
            let what = if parallel {
                "SweepSpec::run pass"
            } else {
                "SweepSpec::run_serial pass"
            };
            check_same(checks, what, &fingerprint(&r.results), want);
        }
        clock.time_each(&mut setups, SETUP_BATCH, || prepare(spec));
    });
    let wall = report("wall_s (serial driver)", &serial);
    let wall_2t = report("wall_2t_s (2-thread driver)", &two);
    let setup = report("setup_s", &setups);
    println!(
        "# serial/2-thread ratio {:.3} (raw medians) on {} available core(s)",
        raw_median(&serial) / raw_median(&two),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
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

/// Per-layer counts of one traced pass; they must repeat exactly.
#[derive(Debug, Default, Clone, PartialEq)]
struct Counts {
    fill_draws: u64,
    scalar_draws: u64,
    lane_steps: u64,
    failures: u64,
    pushes: u64,
    stop_checks: u64,
    replications: u64,
    model_evals: u64,
    tasks: u64,
    render_bytes: u64,
}

/// Per-layer busy times of one traced pass, in seconds.
#[derive(Debug, Default, Clone)]
struct Times {
    pass: f64,
    run: f64,
    accumulate: f64,
    model: f64,
    task_sum: f64,
    task_max: f64,
    render: f64,
}

/// The draws one `BatchProgram::run` call made, kept so that draw time can
/// be measured in a separate pass (timing each draw inline would triple
/// the run).
struct DrawLog {
    model: AnyFailureModel,
    seeds: Vec<u64>,
    scalar: Vec<u32>,
}

#[derive(Default)]
struct Tracer {
    counts: Counts,
    times: Times,
    draws: Vec<DrawLog>,
}

/// A `BatchFailureSource` that counts the draws it forwards.
struct Counting<'a, S> {
    inner: &'a mut S,
    fill_draws: u64,
    scalar: Vec<u32>,
}

impl<S: BatchFailureSource> BatchFailureSource for Counting<'_, S> {
    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn next_failure(&mut self, lane: usize) -> f64 {
        self.scalar[lane] += 1;
        self.inner.next_failure(lane)
    }

    fn mean_interarrival(&self) -> f64 {
        self.inner.mean_interarrival()
    }

    fn fill_next_failures(&mut self, lanes: usize, out: &mut [f64]) {
        self.fill_draws += lanes as u64;
        self.inner.fill_next_failures(lanes, out);
    }
}

impl Tracer {
    /// `BatchProgram::run` on fresh lanes seeded from `seeds`, counted.
    fn run_program(
        &mut self,
        program: &BatchProgram,
        stream: &mut BatchFailureStream<AnyFailureModel>,
        seeds: &[u64],
        state: &mut BatchState,
    ) {
        stream.reset(seeds);
        let model = *stream.model();
        let mut source = Counting {
            inner: stream,
            fill_draws: 0,
            scalar: vec![0; seeds.len()],
        };
        let start = Instant::now();
        program.run(&mut source, state);
        self.times.run += since(start);
        self.counts.fill_draws += source.fill_draws;
        self.counts.scalar_draws += source.scalar.iter().map(|&n| u64::from(n)).sum::<u64>();
        self.counts.lane_steps += (program.len() * seeds.len()) as u64;
        self.draws.push(DrawLog {
            model,
            seeds: seeds.to_vec(),
            scalar: source.scalar,
        });
    }

    /// Times a stopping decision.
    fn stop(&mut self, decide: impl FnOnce() -> bool) -> bool {
        let (stop, t) = timed(decide);
        self.times.accumulate += t;
        self.counts.stop_checks += 1;
        stop
    }
}

// The replication budget's stopping rule, as `ft_sim::replicate` applies it.
fn precision_target(rel_precision: f64, mean: f64) -> f64 {
    (rel_precision * mean.abs()).max(ReplicationBudget::ABS_PRECISION_FLOOR)
}

fn satisfied(budget: &ReplicationBudget, acc: &Welford) -> bool {
    match *budget {
        ReplicationBudget::Fixed(n) => acc.count() >= n as u64,
        ReplicationBudget::Adaptive {
            rel_precision,
            min,
            max,
        }
        | ReplicationBudget::AdaptiveDelta {
            rel_precision,
            min,
            max,
        } => {
            let n = acc.count();
            n >= min.max(2) as u64
                && (n >= max.max(min) as u64
                    || acc.ci95_half_width() <= precision_target(rel_precision, acc.mean()))
        }
    }
}

fn next_block(budget: &ReplicationBudget, done: usize) -> usize {
    match *budget {
        ReplicationBudget::Fixed(n) => n.saturating_sub(done),
        ReplicationBudget::Adaptive { min, max, .. }
        | ReplicationBudget::AdaptiveDelta { min, max, .. } => {
            if done < min {
                min - done
            } else {
                ReplicationBudget::BLOCK.min(max.max(min).saturating_sub(done))
            }
        }
    }
}

/// The serial batch driver of one task, traced: seed stream → counted
/// failure stream → `BatchProgram::run` → accumulators.
fn simulate_traced(tr: &mut Tracer, spec: &SweepSpec, task: &Task, s: &TaskSim) -> SimOut {
    let budget = spec.budget;
    let lanes = spec.batch_lanes.max(1);
    let n = s.programs.len();
    let mut seeds = SeedStream::new(s.seed);
    let mut seed_buf = vec![0u64; lanes];
    let mut stream = BatchFailureStream::new(*s.engine.failure_model(), &[]);
    let mut state = BatchState::new();
    let mut single = OutcomeAccumulator::new();
    let mut paired = PairedAccumulator {
        protocols: spec.protocols.clone(),
        outcomes: vec![OutcomeAccumulator::new(); n],
        deltas: vec![Welford::new(); n],
    };
    let mut firsts = vec![Vec::with_capacity(lanes); n];
    let mut done = 0usize;
    loop {
        let block = next_block(&budget, done);
        if block == 0 {
            break;
        }
        let mut remaining = block;
        while remaining > 0 {
            let width = remaining.min(lanes);
            let chunk = &mut seed_buf[..width];
            seeds.fill(chunk);
            for (program, out) in s.programs.iter().zip(&mut firsts) {
                tr.run_program(program, &mut stream, chunk, &mut state);
                out.clear();
                out.extend((0..width).map(|lane| program.outcome(&state, lane)));
                tr.counts.failures += out.iter().map(|o| o.failures as u64).sum::<u64>();
            }
            let start = Instant::now();
            if task.protocol.is_some() {
                for o in &firsts[0] {
                    single.push(o);
                }
            } else {
                for lane in 0..width {
                    let mut baseline = 0.0;
                    for (i, outs) in firsts.iter().enumerate() {
                        let waste = outs[lane].waste();
                        paired.outcomes[i].push(&outs[lane]);
                        if i == 0 {
                            baseline = waste;
                        } else {
                            paired.deltas[i].push(waste - baseline);
                        }
                    }
                }
            }
            tr.times.accumulate += since(start);
            tr.counts.pushes += (width * n) as u64;
            remaining -= width;
        }
        done += block;
        let stop = if task.protocol.is_some() {
            tr.stop(|| satisfied(&budget, &single.waste))
        } else {
            // No workload uses a paired-delta budget, so only the marginal
            // rule applies.
            tr.stop(|| paired.outcomes.iter().all(|o| satisfied(&budget, &o.waste)))
        };
        if stop {
            break;
        }
    }
    tr.counts.replications += done as u64;
    if task.protocol.is_some() {
        SimOut::Single(single)
    } else {
        SimOut::Paired(paired)
    }
}

/// One serial pass with every layer boundary traced.
fn traced_pass(spec: &SweepSpec, prep: &Prepared) -> (Vec<PointResult>, Tracer) {
    let mut tr = Tracer::default();
    let pass_start = Instant::now();
    let mut results = Vec::new();
    for task in &prep.tasks {
        let task_start = Instant::now();
        let point = &prep.grid[task.point];
        let sim = task
            .sim
            .as_ref()
            .map(|s| simulate_traced(&mut tr, spec, task, s));
        let mut model_s = 0.0;
        let mut evals = 0u64;
        let out = rows(spec, point, task, sim, |p| {
            let (m, t) = timed(|| model_arm(spec, point, p));
            model_s += t;
            evals += 1;
            m
        });
        tr.times.model += model_s;
        tr.counts.model_evals += evals;
        results.extend(out);
        let t = since(task_start);
        tr.times.task_sum += t;
        tr.times.task_max = tr.times.task_max.max(t);
        tr.counts.tasks += 1;
    }
    // The results as `SweepSpec::run_serial` returns them, rendered as the
    // figure binaries print them.
    let swept = SweepResults {
        name: spec.name.clone(),
        budget: spec.budget,
        paired: spec.paired,
        failure: spec.failure,
        failure_scenario: spec.failure_scenario.clone(),
        antithetic: spec.antithetic,
        model_gap: spec.model_gap,
        axes: spec.axes.iter().map(|a| a.parameter).collect(),
        points: prep.grid.iter().map(|g| g.coordinates.clone()).collect(),
        elapsed_seconds: since(pass_start),
        results,
    };
    let (text, t) = timed(|| swept.render(OutputFormat::Table));
    tr.times.render = t;
    tr.counts.render_bytes = black_box(text).len() as u64;
    tr.times.pass = since(pass_start);
    (swept.results, tr)
}

/// Re-makes the draws a traced pass logged, without the program around
/// them, and returns the seconds they took.
fn replay_draws(draws: &[DrawLog]) -> f64 {
    let mut column = vec![0.0f64; draws.iter().map(|d| d.seeds.len()).max().unwrap_or(0)];
    let mut total = 0.0;
    for d in draws {
        let mut stream = BatchFailureStream::new(d.model, &d.seeds);
        let lanes = d.seeds.len();
        let start = Instant::now();
        stream.fill_next_failures(lanes, &mut column);
        for (lane, &n) in d.scalar.iter().enumerate() {
            for _ in 0..n {
                black_box(stream.next_failure(lane));
            }
        }
        total += since(start);
        black_box(&column);
    }
    total
}

fn traced_run(
    spec: &SweepSpec,
    opts: &Options,
    checks: &mut Checks,
    want: &[String],
) -> Vec<(&'static str, f64)> {
    let prep = prepare(spec);
    let r = drive(spec, false);
    check_same(checks, "warm-up pass", &fingerprint(&r.results), want);
    let mut clock = DriftClock::new();
    let mut first: Option<Tracer> = None;
    let mut times: Vec<Times> = Vec::new();
    // Untraced passes interleaved with the traced ones give the overhead
    // figure under the same host drift.
    let mut untraced = Vec::new();
    repeat_for(opts.seconds, 3, |_| {
        let r = clock.time(&mut untraced, || drive(spec, false));
        check_same(checks, "untraced pass", &fingerprint(&r.results), want);
        let (r, tr) = traced_pass(spec, &prep);
        check_same(checks, "traced pass", &fingerprint(&r), want);
        times.push(tr.times.clone());
        match &first {
            None => first = Some(tr),
            Some(f) => checks.check(f.counts == tr.counts, || {
                format!(
                    "per-layer counts changed between passes: {:?} vs {:?}",
                    f.counts, tr.counts
                )
            }),
        }
    });
    let first = first.expect("at least one traced pass");
    let draw_s: Vec<f64> = (0..5).map(|_| replay_draws(&first.draws)).collect();
    // A second set-up must compile the same programs.
    let again = prepare(spec);
    checks.check(again.compiles == prep.compiles, || {
        format!(
            "compiles changed between set-ups: {} vs {}",
            prep.compiles, again.compiles
        )
    });
    check_scalar_sample(checks, spec, &prep, want, opts.seed);

    let med = |f: fn(&Times) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let c = &first.counts;
    let (pass_s, run_s, draw) = (med(|t| t.pass), med(|t| t.run), median(&draw_s));
    println!(
        "{}",
        describe(
            "traced pass",
            &times.iter().map(|t| t.pass).collect::<Vec<_>>()
        )
    );
    println!(
        "# tracing overhead: traced pass {pass_s:.6} s vs untraced wall_s {:.6} s ({:.3}x)",
        raw_median(&untraced),
        pass_s / raw_median(&untraced)
    );
    println!("# per-layer counts (must repeat exactly for this seed): {c:?}");
    clock.report();
    vec![
        ("failure.fill_draws", c.fill_draws as f64),
        ("failure.scalar_draws", c.scalar_draws as f64),
        ("failure.draw_s", draw),
        ("batch.run_s", run_s),
        ("batch.self_s", run_s - draw),
        ("batch.lane_steps", c.lane_steps as f64),
        ("batch.failures", c.failures as f64),
        ("batch.compiles", prep.compiles as f64),
        ("batch.compile_s", prep.compile_s),
        ("stats.pushes", c.pushes as f64),
        ("stats.stop_checks", c.stop_checks as f64),
        ("stats.replications", c.replications as f64),
        ("stats.accumulate_s", med(|t| t.accumulate)),
        ("model.evals", c.model_evals as f64),
        ("model.eval_s", med(|t| t.model)),
        ("experiment.tasks", c.tasks as f64),
        ("experiment.task_s_sum", med(|t| t.task_sum)),
        ("experiment.task_s_max", med(|t| t.task_max)),
        (
            "experiment.driver_s",
            med(|t| t.pass - t.render - t.task_sum),
        ),
        ("output.render_s", med(|t| t.render)),
        ("output.render_bytes", c.render_bytes as f64),
    ]
}
