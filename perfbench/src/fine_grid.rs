//! `fine_grid_mg`: one 4-tier WebServer `LC_FUZZY` scenario at 64² on the
//! multigrid backend, single thread, driven through `Simulator::run(1)`
//! per epoch. Its time is almost all multigrid kernels (stencil matvec,
//! Jacobi smoother, V-cycle); it barely touches LU, the batch engine or
//! serve.
//!
//! The fixed job is [`FINE_JOB_EPOCHS`] epochs from a freshly initialised
//! simulator; jobs repeat until the run's time is up.

use std::time::Instant;

use cmosaic::materials::units::VolumetricFlow;
use cmosaic::metrics::RunMetrics;
use cmosaic::scenario::FlowSchedule;
use cmosaic::thermal::SolverStats;
use cmosaic::{CmosaicError, Scenario, Simulator};

use crate::inputs::{self, FINE_JOB_EPOCHS};
use crate::layers;
use crate::report::Run;
use crate::util::{median, peak_rss_mb, quantile, secs, timed};

/// Set-up samples per run (the reported set-up time is their median).
const SETUPS: usize = 9;
/// Jobs per run at least, however short `--seconds` is.
const MIN_JOBS: usize = 3;

/// Spec build + `build_simulator` + `initialize`.
fn set_up(seed: u64) -> Result<(Scenario, Simulator), CmosaicError> {
    let scenario = inputs::fine_grid_spec(seed).build()?;
    let mut sim = scenario.build_simulator()?;
    sim.initialize()?;
    Ok((scenario, sim))
}

/// What one job produced.
struct Job {
    wall_s: f64,
    epoch_ms: Vec<f64>,
    metrics: RunMetrics,
    stats: SolverStats,
}

/// Runs one job on a freshly set-up simulator.
fn job(sim: &mut Simulator) -> Result<Job, CmosaicError> {
    let t = Instant::now();
    let mut epoch_ms = Vec::with_capacity(FINE_JOB_EPOCHS);
    let mut metrics = None;
    for _ in 0..FINE_JOB_EPOCHS {
        let te = Instant::now();
        metrics = Some(sim.run(1)?);
        epoch_ms.push(secs(te) * 1e3);
    }
    Ok(Job {
        wall_s: secs(t),
        epoch_ms,
        metrics: metrics.expect("at least one epoch"),
        stats: sim.solver_stats(),
    })
}

/// Runs fixed-flow epochs at operating points of its own until the
/// simulator's operator cache is full, so that peak memory is read with a
/// full cache whichever operating points the seed's trace visited.
/// Returns the cached operators and the cache's capacity.
fn fill_operator_cache(sim: &mut Simulator) -> Result<(usize, usize), CmosaicError> {
    let capacity = sim.cache_stats().capacity;
    let points = 2 * capacity;
    for k in 0..points {
        if sim.cache_stats().transient_entries >= capacity {
            break;
        }
        let ml_per_min = 8.0 + 24.0 * k as f64 / points as f64;
        sim.set_flow_schedule(FlowSchedule::Fixed(VolumetricFlow::from_ml_per_min(
            ml_per_min,
        )));
        sim.run(1)?;
    }
    Ok((sim.cache_stats().transient_entries, capacity))
}

/// Checks one job's metrics for physical plausibility.
fn check_metrics(run: &mut Run, m: &RunMetrics) {
    let peak_c = m.peak_temperature.to_celsius().0;
    run.check(peak_c.is_finite() && peak_c > 27.0 && peak_c < 85.0, || {
        format!("LC_FUZZY peak {peak_c} °C outside (27, 85) °C")
    });
    run.check(m.chip_energy > 0.0 && m.pump_energy > 0.0, || {
        format!(
            "non-positive energies: chip {} J, pump {} J",
            m.chip_energy, m.pump_energy
        )
    });
    run.check(m.seconds == FINE_JOB_EPOCHS, || {
        format!("job simulated {} s, expected {FINE_JOB_EPOCHS}", m.seconds)
    });
}

/// Runs the workload.
pub fn run(run: &mut Run, seed: u64, seconds: f64, traced: bool) {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    // Peak memory after a fixed amount of work, with the operator cache
    // full: neither how many more jobs fit in the run's time nor which
    // operating points the seed visits may move it.
    let mut rss = None;
    while jobs.len() < MIN_JOBS || secs(start) < seconds {
        let t = Instant::now();
        let (_, mut sim) = match set_up(seed) {
            Ok(s) => s,
            Err(e) => {
                run.fail(format!("set-up: {e}"));
                return;
            }
        };
        setups.push(secs(t));
        match job(&mut sim) {
            Ok(j) => {
                run.operations(1, 0);
                check_metrics(run, &j.metrics);
                if let Some(first) = jobs.first() {
                    // Same seed, same job: results and solver counts repeat
                    // exactly.
                    run.check(j.metrics == first.metrics, || {
                        "a repeated job produced different metrics".into()
                    });
                    run.check(j.stats == first.stats, || {
                        format!(
                            "solver counts did not repeat: {:?} vs {:?}",
                            j.stats, first.stats
                        )
                    });
                }
                jobs.push(j);
                if jobs.len() == MIN_JOBS {
                    match fill_operator_cache(&mut sim) {
                        Ok((cached, capacity)) => println!(
                            "fine_grid_mg: peak memory read with {cached} of {capacity} \
                             transient operators cached"
                        ),
                        Err(e) => run.fail(format!("operator-cache fill: {e}")),
                    }
                    rss = peak_rss_mb();
                }
            }
            Err(e) => {
                run.operations(1, 1);
                eprintln!("job failed: {e}");
                return;
            }
        }
    }
    let measured = secs(start);
    while setups.len() < SETUPS {
        let t = Instant::now();
        if set_up(seed).is_err() {
            run.fail("set-up failed");
            return;
        }
        setups.push(secs(t));
    }

    let walls: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
    let epochs: Vec<f64> = jobs
        .iter()
        .flat_map(|j| j.epoch_ms.iter().copied())
        .collect();
    let tts = median(&walls);
    println!(
        "fine_grid_mg: {} jobs of {FINE_JOB_EPOCHS} epochs in {measured:.1} s; {} epoch samples \
         (p95 has {} beyond it)",
        jobs.len(),
        epochs.len(),
        epochs.len() / 20
    );
    run.set("setup_s", median(&setups));
    run.set("time_to_solution_s", tts);
    run.set("sim_s_per_host_s", FINE_JOB_EPOCHS as f64 / tts);
    run.set("request_ms_p50", median(&epochs));
    run.set("request_ms_p95", quantile(&epochs, 0.95));
    run.set("requests_per_s", 1e3 / median(&epochs));
    run.set("peak_rss_mb", rss.unwrap_or(0.0));

    if traced {
        trace(run, seed, &jobs[0], median(&epochs));
    }
}

/// The traced run: the ladder below the fine-grid scenario.
fn trace(run: &mut Run, seed: u64, untraced: &Job, untraced_epoch_ms: f64) {
    run.not_exercised(&[
        "serve.overhead_ms_p50",
        "serve.first_event_ms_p50",
        "serve.result_cache_hit_ratio",
        "serve.analysis_reuse_ratio",
        "serve.slots_per_batch",
        "serve.parse_us",
        "serve.encode_us",
        "serve.failed_requests",
        "study.wall_s",
        "study.slots",
        "study.pattern_groups",
        "study.full_factorizations",
        "study.retried_slots",
        "study.failed_slots",
        "study.thread_efficiency",
        "optimize.evaluations",
        "optimize.eval_requests",
        "optimize.memo_hit_rate",
        "optimize.early_abort_savings",
        "optimize.wall_s",
        "twophase.steady_ms_p50",
        "trace.attributed_share.serve_request",
        "trace.attributed_share.study",
    ]);
    let builds: Vec<f64> = (0..SETUPS)
        .map(|_| timed(|| inputs::fine_grid_spec(seed).build()).1 * 1e3)
        .collect();
    run.set("scenario.build_ms", median(&builds));
    // A traced scenario one job long, every epoch timed and recorded; its
    // median epoch against the untraced one gives the overhead.
    let spec = inputs::fine_grid_spec(seed);
    let scenario = match spec.build() {
        Ok(s) => s,
        Err(e) => {
            run.fail(format!("traced spec build: {e}"));
            return;
        }
    };
    if let Some(traced) = layers::trace_scenario(run, &scenario, &untraced.stats, true) {
        run.set("trace.overhead_ratio", median(&traced) / untraced_epoch_ms);
    }
}
