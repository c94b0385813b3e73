//! `design_sweep`: the paper's figure matrix (`experiments::fig6_study`,
//! 28 slots at the figures' 12² grid on direct LU) chained with a
//! two-phase R134a slice, then one seeded constraint-aware optimizer run
//! (memoized, with early abort), all on one two-thread `BatchRunner`.
//!
//! Its time goes to LU refactorisation and triangular solves under flow
//! modulation, plus analysis sharing across pattern groups; it never
//! touches multigrid. The fixed job is the whole sweep plus the optimizer
//! run; jobs repeat until the run's time is up.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use cmosaic::batch::BatchReport;
use cmosaic::optimize::{Constraints, DesignSpace, OptimizeReport, Optimizer, SimulatedAnnealing};
use cmosaic::power::trace::WorkloadKind;
use cmosaic::scenario::CoolantChoice;
use cmosaic::{BatchRunner, PolicyKind, Scenario};

use crate::inputs::{self, ANNEAL_STEPS};
use crate::layers::{self, Recorder, SlotClock, SlotSpan};
use crate::report::Run;
use crate::util::{median, peak_rss_mb, quantile, secs, timed};

/// Set-up samples per run (the reported set-up time is their median).
const SETUP_SAMPLES: usize = 15;
/// Back-to-back set-ups (each dropped before the next) timed as one
/// sample: a single set-up is about half a millisecond, too short to time
/// alone against the clock and the host's noise.
const SETUP_BLOCK: usize = 32;
/// Jobs per run at least.
const MIN_JOBS: usize = 3;

/// Batch worker threads: two, or fewer on a smaller host.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// `Study::build` + runner construction (+ the optimizer's inputs).
struct Setup {
    scenarios: Vec<Scenario>,
    runner: BatchRunner,
    space: DesignSpace,
    constraints: Constraints,
    anneal_seed: u64,
}

fn set_up(seed: u64) -> Result<Setup, String> {
    let scenarios = inputs::sweep_study(seed)
        .build()
        .map_err(|e| e.to_string())?;
    let (space, constraints, anneal_seed) = inputs::sweep_space(seed);
    Ok(Setup {
        scenarios,
        runner: BatchRunner::new(threads()),
        space,
        constraints,
        anneal_seed,
    })
}

/// What one job produced.
struct Job {
    wall_s: f64,
    study_s: f64,
    optimize_s: f64,
    spans: Vec<SlotSpan>,
    report: BatchReport,
    optimized: OptimizeReport,
}

impl Job {
    /// Simulated control seconds the job completed.
    fn sim_seconds(&self) -> f64 {
        let slots: usize = self
            .report
            .outcomes()
            .iter()
            .map(|o| o.metrics.seconds)
            .sum();
        (slots + self.optimized.epochs_run) as f64
    }

    /// Scenario runs the job completed (study slots + designs evaluated).
    fn slots(&self) -> usize {
        self.report.len() + self.optimized.n_evaluations()
    }
}

fn job(s: &Setup, record: bool) -> Result<(Job, Vec<Option<Recorder>>), String> {
    let start = Instant::now();
    let table = Arc::new(Mutex::new(vec![None; s.scenarios.len()]));
    let (report, recorders) = s.runner.run_scenarios_observed(&s.scenarios, |i, _| {
        (SlotClock::new(i, &table), Recorder::new(record))
    });
    let study_s = secs(start);
    let optimizer = Optimizer::new(s.space.clone(), s.constraints.clone(), &s.runner);
    let (optimized, optimize_s) =
        timed(|| optimizer.run(&mut SimulatedAnnealing::seeded(s.anneal_seed).steps(ANNEAL_STEPS)));
    let optimized = optimized.map_err(|e| e.to_string())?;
    let spans = table
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .flatten()
        .copied()
        .collect();
    let recorders = recorders.into_iter().map(|o| o.map(|(_, r)| r)).collect();
    Ok((
        Job {
            wall_s: secs(start),
            study_s,
            optimize_s,
            spans,
            report,
            optimized,
        },
        recorders,
    ))
}

/// Slot and optimizer outcome checks.
fn check_job(run: &mut Run, s: &Setup, j: &Job) {
    let errors = j.report.errors();
    run.operations(j.report.len() as u64, errors.len() as u64);
    for (i, e) in errors {
        eprintln!("slot {i} failed: {e}");
    }
    run.operations(
        j.optimized.n_evaluations() as u64,
        j.optimized.failed as u64,
    );
    run.check(j.optimized.best.is_some(), || {
        "the optimizer found no feasible design".into()
    });
    for o in j.report.outcomes() {
        let spec = s.scenarios[o.index].spec();
        let m = &o.metrics;
        let peak_c = m.peak_temperature.to_celsius().0;
        // Junctions sit above the coolant: 27 °C water or air inlet,
        // 30 °C R134a saturation.
        let floor = match spec.coolant_choice() {
            CoolantChoice::TwoPhase(_) => 30.0,
            _ => 27.0,
        };
        let mut ok = peak_c.is_finite() && peak_c > floor && m.chip_energy > 0.0;
        if spec.coolant_choice() == &CoolantChoice::Water {
            ok &= m.pump_energy > 0.0;
        }
        // The paper's claim: fuzzy flow control keeps every junction
        // below the 85 °C threshold.
        if spec.policy_kind() == PolicyKind::LcFuzzy {
            ok &= peak_c < 85.0;
        }
        run.check(ok, || {
            format!(
                "slot {} ({}) implausible: peak {peak_c} °C, chip {} J, pump {} J",
                o.index,
                spec.display_label(),
                m.chip_energy,
                m.pump_energy
            )
        });
    }
}

/// Runs the workload.
pub fn run(run: &mut Run, seed: u64, seconds: f64, traced: bool) {
    // Set-up is timed before the measured phase, as a user meets it.
    let mut setups = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let (block, t) = timed(|| (0..SETUP_BLOCK).try_for_each(|_| set_up(seed).map(drop)));
        if let Err(e) = block {
            run.fail(format!("set-up: {e}"));
            return;
        }
        setups.push(t / SETUP_BLOCK as f64);
    }
    let start = Instant::now();
    let mut jobs: Vec<Job> = Vec::new();
    // Peak memory after a fixed amount of work: how many more jobs fit
    // in the run's time must not move it.
    let mut rss = None;
    let mut setup = None;
    while jobs.len() < MIN_JOBS || secs(start) < seconds {
        let s = match set_up(seed) {
            Ok(s) => s,
            Err(e) => {
                run.fail(format!("set-up: {e}"));
                return;
            }
        };
        match job(&s, false) {
            Ok((j, _)) => {
                check_job(run, &s, &j);
                if let Some(first) = jobs.first() {
                    // Same seed, same job: slot results, solver counts and
                    // the optimizer report repeat exactly.
                    run.check(j.report == first.report, || {
                        "a repeated sweep produced different slots or counts".into()
                    });
                    run.check(j.optimized == first.optimized, || {
                        "a repeated optimizer run produced a different report".into()
                    });
                }
                jobs.push(j);
                if jobs.len() == MIN_JOBS {
                    rss = peak_rss_mb();
                }
            }
            Err(e) => {
                run.fail(format!("job: {e}"));
                return;
            }
        }
        setup = Some(s);
    }
    let measured = secs(start);

    let walls: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
    let tts = median(&walls);
    let latencies: Vec<f64> = jobs
        .iter()
        .flat_map(|j| {
            j.spans
                .iter()
                .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
        })
        .collect();
    println!(
        "design_sweep: {} jobs ({} slots + {} optimizer designs each, {} threads) in \
         {measured:.1} s; {} slot samples (p95 has {} beyond it)",
        jobs.len(),
        jobs[0].report.len(),
        jobs[0].optimized.n_evaluations(),
        threads(),
        latencies.len(),
        latencies.len() / 20
    );
    run.set("setup_s", median(&setups));
    run.set("time_to_solution_s", tts);
    run.set("sim_s_per_host_s", jobs[0].sim_seconds() / tts);
    run.set("request_ms_p50", median(&latencies));
    run.set("request_ms_p95", quantile(&latencies, 0.95));
    run.set("requests_per_s", jobs[0].slots() as f64 / tts);
    run.set("peak_rss_mb", rss.unwrap_or(0.0));

    if traced {
        let setup = setup.expect("at least one job ran");
        trace(run, &setup, &jobs, tts);
    }
}

/// The traced run: study and optimizer spans, solo slot times, and the
/// ladder below one representative slot.
fn trace(run: &mut Run, s: &Setup, jobs: &[Job], untraced_tts: f64) {
    run.not_exercised(&[
        "serve.overhead_ms_p50",
        "serve.first_event_ms_p50",
        "serve.result_cache_hit_ratio",
        "serve.analysis_reuse_ratio",
        "serve.slots_per_batch",
        "serve.parse_us",
        "serve.encode_us",
        "serve.failed_requests",
        "trace.attributed_share.serve_request",
    ]);
    let j0 = &jobs[0];
    let report = &j0.report;
    let outcomes = report.outcomes();
    let stats = layers::sum_stats(outcomes.iter().map(|o| &o.solver));
    run.set(
        "study.wall_s",
        median(&jobs.iter().map(|j| j.study_s).collect::<Vec<_>>()),
    );
    run.set("study.slots", report.len() as f64);
    run.set("study.pattern_groups", report.pattern_groups as f64);
    run.set(
        "study.full_factorizations",
        report.total_full_factorizations() as f64,
    );
    run.set(
        "study.retried_slots",
        outcomes.iter().filter(|o| !o.recovery.clean()).count() as f64,
    );
    run.set("study.failed_slots", report.errors().len() as f64);
    let o = &j0.optimized;
    run.set("optimize.evaluations", o.n_evaluations() as f64);
    run.set("optimize.eval_requests", o.eval_requests as f64);
    run.set("optimize.memo_hit_rate", o.memo_hit_rate());
    run.set("optimize.early_abort_savings", o.early_abort_savings());
    run.set(
        "optimize.wall_s",
        median(&jobs.iter().map(|j| j.optimize_s).collect::<Vec<_>>()),
    );

    // Study level: how much of threads × wall the slots' own spans cover,
    // and how the slots' solo (one at a time, one thread) times compare.
    let threads = s.runner.threads() as f64;
    let busy: f64 = j0
        .spans
        .iter()
        .map(|sp| (sp.end - sp.start).as_secs_f64())
        .sum();
    layers::attribution(run, "study", busy / (threads * j0.study_s));
    let mut solo = 0.0;
    let mut build_ms = Vec::new();
    for sc in &s.scenarios {
        let (built, b) = timed(|| sc.spec().build());
        build_ms.push(b * 1e3);
        let (r, t) = timed(|| built.and_then(|b| b.run()));
        if r.is_err() {
            run.fail(format!("solo run of {} failed", sc.label()));
        }
        solo += t;
    }
    run.set("study.thread_efficiency", solo / (threads * j0.study_s));
    run.set("scenario.build_ms", median(&build_ms));

    // Traced job: the same sweep with every epoch recorded.
    let (traced, recorders) = match job(s, true) {
        Ok(j) => j,
        Err(e) => {
            run.fail(format!("traced job: {e}"));
            return;
        }
    };
    run.set("trace.overhead_ratio", traced.wall_s / untraced_tts);
    run.check(traced.report == j0.report, || {
        "recording epochs changed the sweep's results".into()
    });

    // Below the study: its 4-tier LC_FUZZY web-server slot (thermal
    // counters summed over the sweep's slots), and the two-phase slot's
    // steady solves.
    let rep = s.scenarios.iter().position(|sc| {
        sc.spec().preset_tiers() == Some(4)
            && sc.spec().policy_kind() == PolicyKind::LcFuzzy
            && sc.spec().workload_kind() == WorkloadKind::WebServer
    });
    let two_phase = s
        .scenarios
        .iter()
        .position(|sc| matches!(sc.spec().coolant_choice(), CoolantChoice::TwoPhase(_)));
    let (Some(rep), Some(two_phase)) = (rep, two_phase) else {
        run.fail("representative slots missing from the sweep");
        return;
    };
    layers::trace_scenario(run, &s.scenarios[rep], &stats, false);
    match recorders[two_phase]
        .as_ref()
        .map(|r| layers::replay(&s.scenarios[two_phase], &r.epochs, 1, 1.0))
    {
        Some(Ok(tp)) => run.set("twophase.steady_ms_p50", median(&tp.steady_ms)),
        Some(Err(e)) => run.fail(format!("two-phase replay: {e}")),
        None => run.fail("two-phase slot was not recorded"),
    }
}
