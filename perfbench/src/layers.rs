//! The per-layer ladder, measured from outside the crates: observers that
//! time slots and record epochs, a replay of the recorded control loop
//! through the policy, power and thermal layers' public calls, and the
//! sparse kernels on an operator of the workload's shape.

use std::hint::black_box;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use cmosaic::floorplan::plan::ElementKind;
use cmosaic::floorplan::stack::{LayerKind, Stack3d};
use cmosaic::floorplan::GridSpec;
use cmosaic::materials::units::{Kelvin, VolumetricFlow};
use cmosaic::observe::{EpochCtx, Observer};
use cmosaic::policy::{make_policy, Action, Observation};
use cmosaic::power::{BlockKind, BlockState};
use cmosaic::scenario::CoolantChoice;
use cmosaic::sparse::lu::{self, ColumnOrdering, LuFactors};
use cmosaic::sparse::{
    CscMatrix, GridShape, Multigrid, MultigridOptions, Preconditioner, SolveWorkspace,
};
use cmosaic::thermal::{
    CacheStats, Coolant, SolverStats, StencilInterface, StencilLayer, StencilLayerKind,
    StencilOperator, StencilSink, TemperatureField, ThermalModel, ThermalParams,
};
use cmosaic::Scenario;

use crate::report::Run;
use crate::util::{median, quantile, secs, timed};

// ------------------------------------------------------------ observers --

/// Wall-clock span of one scenario slot inside a batch: from the moment
/// the batch engine creates the slot's observer (in the worker, right
/// before the scenario is built) to its last epoch.
#[derive(Debug, Clone, Copy)]
pub struct SlotSpan {
    /// When the worker picked the slot up.
    pub start: Instant,
    /// End of the slot's last epoch.
    pub end: Instant,
}

/// Observer recording a slot's span into a shared, index-aligned table.
pub struct SlotClock {
    index: usize,
    start: Instant,
    spans: Arc<Mutex<Vec<Option<SlotSpan>>>>,
}

impl SlotClock {
    /// A clock for slot `index`, started now.
    pub fn new(index: usize, spans: &Arc<Mutex<Vec<Option<SlotSpan>>>>) -> Self {
        SlotClock {
            index,
            start: Instant::now(),
            spans: Arc::clone(spans),
        }
    }
}

impl Observer for SlotClock {
    fn on_epoch(&mut self, _ctx: &EpochCtx<'_>) {
        let span = SlotSpan {
            start: self.start,
            end: Instant::now(),
        };
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)[self.index] = Some(span);
    }
}

/// What the control loop did in one epoch, as an observer saw it.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// Field at the end of the epoch.
    pub field: TemperatureField,
    /// Coolant flow during the epoch.
    pub flow: Option<VolumetricFlow>,
    /// Per-core demand after the policy.
    pub assigned: Vec<f64>,
    /// Per-core V/f level.
    pub vf_levels: Vec<usize>,
    /// Chip power over the epoch, watts.
    pub chip_power: f64,
}

/// Observer keeping an [`EpochRecord`] per epoch (when switched on).
#[derive(Debug)]
pub struct Recorder {
    /// The records, in epoch order.
    pub epochs: Vec<EpochRecord>,
    on: bool,
}

impl Recorder {
    /// A recorder that records (`on`) or does nothing.
    pub fn new(on: bool) -> Self {
        Recorder {
            epochs: Vec::new(),
            on,
        }
    }
}

impl Observer for Recorder {
    fn on_epoch(&mut self, ctx: &EpochCtx<'_>) {
        if !self.on {
            return;
        }
        self.epochs.push(EpochRecord {
            field: ctx.field.clone(),
            flow: ctx.flow,
            assigned: ctx.assigned.to_vec(),
            vf_levels: ctx.vf_levels.to_vec(),
            chip_power: ctx.chip_power,
        });
    }
}

// --------------------------------------------------------------- replay --

/// Timings of the replayed control loop, per call.
#[derive(Debug, Default)]
pub struct Replay {
    /// `Policy::decide_into`, µs per epoch.
    pub decide_us: Vec<f64>,
    /// `PowerAllocator::tier_powers_into` over every tier, µs per epoch.
    pub price_us: Vec<f64>,
    /// `ThermalModel::set_flow_rate` on each flow change, ms.
    pub set_flow_ms: Vec<f64>,
    /// `ThermalModel::step_into`, ms per sub-step.
    pub step_ms: Vec<f64>,
    /// `ThermalModel::steady_state`, ms per call.
    pub steady_ms: Vec<f64>,
    /// Sum of every replayed call, ms (the epoch level's child spans),
    /// over every recorded epoch but the first, whose starting field the
    /// observer cannot see.
    pub children_ms: f64,
    /// Solver counters accumulated over the transient sub-steps only.
    pub step_stats: SolverStats,
    /// Largest relative difference between the replayed and the
    /// simulator's chip power.
    pub power_mismatch: f64,
}

/// The thermal parameters a scenario's simulator uses.
fn thermal_params(scenario: &Scenario) -> ThermalParams {
    let spec = scenario.spec();
    ThermalParams {
        coolant: match spec.coolant_choice() {
            CoolantChoice::TwoPhase(op) => Coolant::TwoPhase(*op),
            _ => Coolant::Water,
        },
        solver: spec.solver_backend(),
        ..Default::default()
    }
}

/// Replays recorded epochs through the public calls of the policy, power
/// and thermal layers, the way the simulator issues them: one policy
/// decision and one pricing of every tier per epoch, a flow change when
/// the recorded flow changed, then `substeps` transient sub-steps of
/// `dt` (or one steady solve on a two-phase stack).
pub fn replay(
    scenario: &Scenario,
    records: &[EpochRecord],
    substeps: usize,
    dt: f64,
) -> Result<Replay, String> {
    let stack = scenario.stack();
    let grid = scenario.spec().grid_spec();
    let plans = stack.tiers();
    let mut out = Replay::default();
    if records.len() < 2 {
        return Ok(out);
    }
    let (w, h) = (stack.width(), stack.height());
    let weights: Vec<Vec<Vec<(usize, f64)>>> = plans
        .iter()
        .map(|p| {
            p.elements()
                .iter()
                .map(|e| grid.region_weights(e.rect(), w, h))
                .collect()
        })
        .collect();
    let mut cores = Vec::new();
    let mut tier_of = Vec::new();
    for (tier, plan) in plans.iter().enumerate() {
        for e in plan.indices_of_kind(ElementKind::Core) {
            cores.push((tier, e));
            tier_of.push(tier);
        }
    }
    let average = |field: &TemperatureField, tier: usize, e: usize| {
        let cells = field.tier(tier);
        Kelvin(weights[tier][e].iter().map(|&(c, f)| cells[c] * f).sum())
    };
    let allocator = scenario.spec().allocator_preset().build();
    let mut policy = make_policy(scenario.spec().policy_kind(), cores.len());
    let mut obs = Observation {
        tier_of,
        ..Observation::default()
    };
    let mut action = Action::default();
    let mut states: Vec<Vec<BlockState>> = plans
        .iter()
        .map(|p| {
            p.elements()
                .iter()
                .map(|e| BlockState::idle(BlockKind::from(e.kind())))
                .collect()
        })
        .collect();
    let mut temps: Vec<Vec<Kelvin>> = plans
        .iter()
        .map(|p| vec![Kelvin::default(); p.elements().len()])
        .collect();
    let mut powers = Vec::new();
    let mut maps: Vec<Vec<f64>> = plans.iter().map(|_| vec![0.0; grid.cell_count()]).collect();

    let mut model =
        ThermalModel::new(stack, grid, thermal_params(scenario)).map_err(|e| e.to_string())?;
    let two_phase = model.is_two_phase();
    let mut flow = None;
    let mut field = model.current_field();
    for (e, rec) in records.iter().enumerate().skip(1) {
        let start = &records[e - 1].field;
        // Policy: the observation the simulator builds at the start of
        // the epoch (noise-free sensors).
        obs.demands.clear();
        obs.demands
            .extend_from_slice(scenario.trace().row(e % scenario.trace().seconds()));
        obs.core_temps.clear();
        obs.core_temps
            .extend(cores.iter().map(|&(t, el)| average(start, t, el)));
        obs.max_temp = (0..plans.len())
            .map(|t| start.tier_max(t))
            .fold(Kelvin(f64::NEG_INFINITY), Kelvin::max);
        let t = Instant::now();
        policy.decide_into(&obs, &mut action);
        let decide = secs(t);
        out.decide_us.push(decide * 1e6);

        // Power: the recorded action's block states, priced at the
        // start-of-epoch element temperatures.
        let chip_mean = rec.assigned.iter().sum::<f64>() / rec.assigned.len().max(1) as f64;
        let mut slot = 0;
        for (tier, (tier_states, tier_temps)) in states.iter_mut().zip(&mut temps).enumerate() {
            let tier_slots: Vec<usize> = (0..cores.len()).filter(|&s| cores[s].0 == tier).collect();
            let mean = if tier_slots.is_empty() {
                chip_mean
            } else {
                tier_slots.iter().map(|&s| rec.assigned[s]).sum::<f64>() / tier_slots.len() as f64
            };
            for (el, state) in tier_states.iter_mut().enumerate() {
                if state.kind == BlockKind::Core {
                    state.demand = rec.assigned[slot];
                    state.vf_level = rec.vf_levels[slot];
                    slot += 1;
                } else {
                    state.demand = mean;
                    state.vf_level = 0;
                }
                tier_temps[el] = average(start, tier, el);
            }
        }
        let mut chip_power = 0.0;
        let mut price = 0.0;
        for (tier, plan) in plans.iter().enumerate() {
            let t = Instant::now();
            allocator
                .tier_powers_into(plan, &states[tier], &temps[tier], &mut powers)
                .map_err(|e| e.to_string())?;
            price += secs(t);
            chip_power += powers.iter().sum::<f64>();
            let map = &mut maps[tier];
            map.iter_mut().for_each(|c| *c = 0.0);
            for (ws, &p) in weights[tier].iter().zip(&powers) {
                for &(cell, frac) in ws {
                    map[cell] += p * frac;
                }
            }
        }
        out.price_us.push(price * 1e6);
        let rel = (chip_power - rec.chip_power).abs() / rec.chip_power.abs().max(1e-12);
        out.power_mismatch = out.power_mismatch.max(rel);
        let mut children = decide + price;

        // Thermal: start from the steady state of the first replayed
        // epoch, then follow the recorded flows.
        if e == 1 && !two_phase {
            if let Some(q) = rec.flow {
                model.set_flow_rate(q).map_err(|e| e.to_string())?;
                flow = Some(q);
            }
            model.steady_state(&maps).map_err(|e| e.to_string())?;
            // The simulator built its transient operator in the epoch
            // before the first replayed one; build it here, untimed.
            let mut warm = model.current_field();
            model
                .step_into(&maps, dt, &mut warm)
                .map_err(|e| e.to_string())?;
        }
        if rec.flow != flow && !two_phase {
            if let Some(q) = rec.flow {
                let t = Instant::now();
                model.set_flow_rate(q).map_err(|e| e.to_string())?;
                let s = secs(t);
                out.set_flow_ms.push(s * 1e3);
                children += s;
            }
            flow = rec.flow;
        }
        if two_phase {
            let t = Instant::now();
            field = model.steady_state(&maps).map_err(|e| e.to_string())?;
            let s = secs(t);
            out.steady_ms.push(s * 1e3);
            children += s;
        } else {
            let before = model.solver_stats();
            for _ in 0..substeps {
                let t = Instant::now();
                model
                    .step_into(&maps, dt, &mut field)
                    .map_err(|e| e.to_string())?;
                let s = secs(t);
                out.step_ms.push(s * 1e3);
                children += s;
            }
            add_stats(&mut out.step_stats, &model.solver_stats(), &before);
        }
        black_box(field.raw());
        out.children_ms += children * 1e3;
    }
    // Steady solves at the last operating point, for the steady-solve
    // figure of single-phase stacks (two-phase ones timed them above).
    if !two_phase {
        for _ in 0..3 {
            let t = Instant::now();
            black_box(model.steady_state(&maps).map_err(|e| e.to_string())?);
            out.steady_ms.push(secs(t) * 1e3);
        }
    }
    Ok(out)
}

/// Simulator sub-steps per control epoch and their length: the defaults
/// every workload's scenarios use (`thermal_dt` 0.25 s, 1 s epochs).
const SUBSTEPS: usize = 4;
const SUBSTEP_S: f64 = 0.25;

/// The ladder below one scenario, traced: `build_simulator`, `initialize`
/// and every epoch timed (an observer records each epoch), then the
/// recorded epochs replayed through the policy, power and thermal layers,
/// and the sparse kernels timed on the scenario's shape (`coarse_lu` as in
/// [`kernels`]). `stats` are the untraced run's solver counters. Returns
/// the traced epochs' times, ms.
pub fn trace_scenario(
    run: &mut Run,
    scenario: &Scenario,
    stats: &SolverStats,
    coarse_lu: bool,
) -> Option<Vec<f64>> {
    let t_scenario = Instant::now();
    let (sim, c) = timed(|| scenario.build_simulator());
    let mut sim = match sim {
        Ok(sim) => sim,
        Err(e) => {
            run.fail(format!("traced build_simulator: {e}"));
            return None;
        }
    };
    let (init, i) = timed(|| sim.initialize());
    if let Err(e) = init {
        run.fail(format!("traced initialize: {e}"));
        return None;
    }
    let mut recorder = Recorder::new(true);
    let mut epochs = Vec::new();
    for _ in 0..scenario.seconds() {
        let (r, t) = timed(|| sim.run_observed(1, &mut recorder));
        if let Err(e) = r {
            run.fail(format!("traced epoch: {e}"));
            return None;
        }
        epochs.push(t * 1e3);
    }
    let epochs_s = epochs.iter().sum::<f64>() / 1e3;
    attribution(run, "scenario", (c + i + epochs_s) / secs(t_scenario));
    report_thermal_counts(run, stats, Some(sim.cache_stats()));
    run.set("sim.construct_ms", c * 1e3);
    run.set("sim.initialize_ms", i * 1e3);
    run.set("sim.epoch_ms_p50", median(&epochs));
    run.set("sim.epoch_ms_p90", quantile(&epochs, 0.9));
    run.set("sim.epochs", epochs.len() as f64);
    match replay(scenario, &recorder.epochs, SUBSTEPS, SUBSTEP_S) {
        Ok(r) => {
            report_replay(run, &r);
            let real_ms: f64 = epochs[1..].iter().sum();
            attribution(run, "epoch", r.children_ms / real_ms);
            let grid = scenario.spec().grid_spec();
            if let Some(k) = report_kernels(run, scenario.stack(), grid, coarse_lu) {
                attribution(run, "substep", substep_share(&r, &k));
            }
        }
        Err(e) => run.fail(format!("replay: {e}")),
    }
    Some(epochs)
}

/// `into += after - before`, field by field.
fn add_stats(into: &mut SolverStats, after: &SolverStats, before: &SolverStats) {
    into.full_factorizations += after.full_factorizations - before.full_factorizations;
    into.refactorizations += after.refactorizations - before.refactorizations;
    into.value_updates += after.value_updates - before.value_updates;
    into.in_place_solves += after.in_place_solves - before.in_place_solves;
    into.iterative_solves += after.iterative_solves - before.iterative_solves;
    into.iterative_iterations += after.iterative_iterations - before.iterative_iterations;
    into.mg_cycles += after.mg_cycles - before.mg_cycles;
}

/// Sums solver counters over several runs.
pub fn sum_stats<'a>(all: impl IntoIterator<Item = &'a SolverStats>) -> SolverStats {
    let mut total = SolverStats::default();
    for s in all {
        total.full_factorizations += s.full_factorizations;
        total.refactorizations += s.refactorizations;
        total.pivot_fallbacks += s.pivot_fallbacks;
        total.value_updates += s.value_updates;
        total.in_place_solves += s.in_place_solves;
        total.workspace_grows += s.workspace_grows;
        total.adopted_symbolics += s.adopted_symbolics;
        total.iterative_solves += s.iterative_solves;
        total.iterative_iterations += s.iterative_iterations;
        total.iterative_fallbacks += s.iterative_fallbacks;
        total.mg_cycles += s.mg_cycles;
        total.mg_smooth_sweeps += s.mg_smooth_sweeps;
        total.mg_coarse_solves += s.mg_coarse_solves;
    }
    total
}

/// Records the replay's per-call figures.
fn report_replay(run: &mut Run, r: &Replay) {
    run.set("policy.decide_us_p50", median(&r.decide_us));
    run.set("power.price_us_p50", median(&r.price_us));
    run.set("thermal.step_ms_p50", median(&r.step_ms));
    run.set("thermal.step_ms_p90", quantile(&r.step_ms, 0.9));
    run.set("thermal.set_flow_ms_p50", median(&r.set_flow_ms));
    run.set("thermal.steady_ms_p50", median(&r.steady_ms));
    run.check(r.power_mismatch < 1e-9, || {
        format!(
            "replayed chip power differs from the simulator's by {:e} (relative)",
            r.power_mismatch
        )
    });
}

/// Records the thermal layer's counters from the untraced run.
fn report_thermal_counts(run: &mut Run, s: &SolverStats, cache: Option<CacheStats>) {
    run.set("thermal.full_factorizations", s.full_factorizations as f64);
    run.set("thermal.refactorizations", s.refactorizations as f64);
    run.set("thermal.value_updates", s.value_updates as f64);
    let iters = if s.iterative_solves == 0 {
        0.0
    } else {
        s.iterative_iterations as f64 / s.iterative_solves as f64
    };
    run.set("thermal.iters_per_solve", iters);
    run.set("thermal.mg_cycles", s.mg_cycles as f64);
    run.set("thermal.mg_smooth_sweeps", s.mg_smooth_sweeps as f64);
    run.set(
        "thermal.fallbacks",
        (s.iterative_fallbacks + s.pivot_fallbacks) as f64,
    );
    run.set(
        "thermal.cache_evictions",
        cache.map_or(0.0, |c| c.evictions() as f64),
    );
    run.set("thermal.workspace_grows", s.workspace_grows as f64);
}

// -------------------------------------------------------------- kernels --

/// Kernel timings and computed work figures on one operator shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernels {
    /// Matrix-free stencil matvec, µs.
    pub matvec_us: f64,
    /// Computed flops of one matvec: two per nonzero of the assembled
    /// operator.
    pub matvec_flops: f64,
    /// Computed bytes of one matvec: `x`, the diagonal and `y` streamed
    /// once, 8 bytes per unknown each.
    pub matvec_bytes: f64,
    /// One multigrid V-cycle (0 when the shape cannot coarsen), µs.
    pub vcycle_us: f64,
    /// Full pivoting LU factorisation of the LU operator, ms.
    pub lu_factor_ms: f64,
    /// Numeric refactorisation over the frozen pattern, ms.
    pub lu_refactor_ms: f64,
    /// One forward/backward solve, µs.
    pub lu_solve_us: f64,
    /// nnz(L) + nnz(U) of the LU operator.
    pub lu_fill_nnz: f64,
}

/// A transient stencil with the layer structure of `stack` on `grid`,
/// built through the public constructor. Coefficients are representative
/// constants: the kernels' cost depends on the shape, not on the values.
fn stencil_of(stack: &Stack3d, grid: GridSpec) -> StencilOperator {
    let nz = stack.layers().len();
    let sink = stack.sink().is_some();
    let shape = GridShape {
        nx: grid.nx(),
        ny: grid.ny(),
        nz,
        extra: usize::from(sink),
    };
    let solid = StencilLayer {
        kind: StencilLayerKind::Solid,
        gx: 1.1,
        gy: 0.9,
        adv: 0.0,
        diag_extra: 0.4,
    };
    let cavity = StencilLayer {
        kind: StencilLayerKind::Cavity,
        gx: 0.0,
        gy: 0.0,
        adv: 2.3,
        diag_extra: 0.2,
    };
    let layers: Vec<StencilLayer> = stack
        .layers()
        .iter()
        .map(|l| match l.kind {
            LayerKind::Cavity { .. } => cavity,
            _ => solid,
        })
        .collect();
    let walls = (0..nz)
        .map(|z| {
            let inner = z > 0 && z + 1 < nz;
            if inner && layers[z].kind == StencilLayerKind::Cavity {
                0.6
            } else {
                0.0
            }
        })
        .collect();
    StencilOperator::new(
        shape,
        layers,
        vec![StencilInterface::symmetric(1.4); nz - 1],
        walls,
        sink.then_some(StencilSink {
            g_top: 0.05,
            lumped: 1.0,
            diag_extra: 0.1,
        }),
    )
}

/// The multigrid hierarchy the thermal model builds for a stencil: smooth
/// while the in-plane grid has at least 64 cells, then direct-solve.
fn hierarchy(
    fine: &StencilOperator,
) -> (Vec<(StencilOperator, GridShape, Vec<f64>)>, StencilOperator) {
    let mut levels = Vec::new();
    let mut cur = fine.clone();
    while levels.is_empty() || cur.shape().nx * cur.shape().ny >= 64 {
        let Some(next) = cur.coarsen() else { break };
        let shape = cur.shape();
        let diag = cur.diagonal().to_vec();
        levels.push((cur, shape, diag));
        cur = next;
    }
    (levels, cur)
}

/// Median per-call time of `f` in seconds: `batches` batches, each long
/// enough (about 2 ms) that the clock's resolution does not matter.
fn per_call(batches: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    let once = secs(t).max(1e-7);
    let reps = ((2e-3 / once).ceil() as usize).clamp(1, 100_000);
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            secs(t) / reps as f64
        })
        .collect();
    median(&samples)
}

/// Times the sparse kernels on the operator of `stack` on `grid`. With
/// `coarse_lu` the LU kernels run on the multigrid coarsest level (what a
/// multigrid solve factorises); otherwise on the whole fine operator.
fn kernels(stack: &Stack3d, grid: GridSpec, coarse_lu: bool) -> Result<Kernels, String> {
    let fine = stencil_of(stack, grid);
    let n = fine.shape().n();
    let x: Vec<f64> = (0..n).map(|i| 300.0 + (i % 17) as f64 * 0.25).collect();
    let mut y = vec![0.0; n];
    let matvec = per_call(7, || {
        fine.matvec_into(black_box(&x), &mut y);
        black_box(&y);
    });
    let (levels, coarsest) = hierarchy(&fine);
    let vcycle = if levels.is_empty() {
        0.0
    } else {
        let coarse = coarsest.assemble();
        let mut mg = Multigrid::new(levels, &coarse, None, MultigridOptions::default())
            .map_err(|e| e.to_string())?;
        let r: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64 * 0.1).collect();
        let mut z = vec![0.0; n];
        per_call(7, || {
            mg.apply_into(black_box(&r), &mut z)
                .expect("sized residual");
            black_box(&z);
        })
    };
    let lu_op = lu_operator(&fine, coarse_lu);
    let (factors, symbolic) =
        lu::factor_with_symbolic(&lu_op, ColumnOrdering::Rcm).map_err(|e| e.to_string())?;
    let factor = per_call(5, || {
        black_box(lu::factor(black_box(&lu_op)).expect("nonsingular"));
    });
    let refactor = per_call(5, || {
        black_box(symbolic.refactor(black_box(&lu_op)).expect("same pattern"));
    });
    let m = lu_op.nrows();
    let b: Vec<f64> = (0..m).map(|i| 1.0 + (i % 11) as f64 * 0.2).collect();
    let mut sol = vec![0.0; m];
    let mut ws = SolveWorkspace::with_dimension(m);
    let solve = per_call(7, || {
        factors
            .solve_with(&mut ws, black_box(&b), &mut sol)
            .expect("sized rhs");
        black_box(&sol);
    });
    let [matvec_flops, matvec_bytes, lu_fill_nnz] = work_counts(&fine, &factors);
    Ok(Kernels {
        matvec_us: matvec * 1e6,
        matvec_flops,
        matvec_bytes,
        vcycle_us: vcycle * 1e6,
        lu_factor_ms: factor * 1e3,
        lu_refactor_ms: refactor * 1e3,
        lu_solve_us: solve * 1e6,
        lu_fill_nnz,
    })
}

/// The operator the LU kernels run on: with `coarse_lu` the multigrid
/// coarsest level (what a multigrid solve factorises), otherwise the whole
/// fine operator.
fn lu_operator(fine: &StencilOperator, coarse_lu: bool) -> CscMatrix {
    let (levels, coarsest) = hierarchy(fine);
    if coarse_lu && !levels.is_empty() {
        coarsest.assemble()
    } else {
        fine.assemble()
    }
}

/// The computed work counts: matvec flops (two per nonzero of the
/// assembled operator), matvec bytes (`x`, the diagonal and `y`, 8 bytes
/// per unknown each) and the LU fill nnz(L) + nnz(U).
fn work_counts(fine: &StencilOperator, factors: &LuFactors) -> [f64; 3] {
    [
        2.0 * fine.assemble().nnz() as f64,
        24.0 * fine.shape().n() as f64,
        (factors.nnz_l() + factors.nnz_u()) as f64,
    ]
}

/// Records the kernel figures, after checking that the computed work
/// counts repeat exactly when the operator is built and factorised again.
fn report_kernels(
    run: &mut Run,
    stack: &Stack3d,
    grid: GridSpec,
    coarse_lu: bool,
) -> Option<Kernels> {
    let k = match kernels(stack, grid, coarse_lu) {
        Ok(k) => k,
        Err(e) => {
            run.fail(format!("sparse kernels: {e}"));
            return None;
        }
    };
    // Build the operator and factorise it a second time: the computed
    // counts must repeat exactly.
    let fine = stencil_of(stack, grid);
    let again = lu::factor_with_symbolic(&lu_operator(&fine, coarse_lu), ColumnOrdering::Rcm)
        .map(|(factors, _)| work_counts(&fine, &factors));
    let first = [k.matvec_flops, k.matvec_bytes, k.lu_fill_nnz];
    run.check(matches!(&again, Ok(c) if *c == first), || {
        format!(
            "kernel work counts (flops, bytes, LU fill) did not repeat: {first:?} then {again:?}"
        )
    });
    run.set("sparse.matvec_us", k.matvec_us);
    run.set("sparse.matvec_flops", k.matvec_flops);
    run.set("sparse.matvec_bytes", k.matvec_bytes);
    run.set("sparse.ops_per_byte", k.matvec_flops / k.matvec_bytes);
    run.set("sparse.vcycle_us", k.vcycle_us);
    run.set("sparse.lu_factor_ms", k.lu_factor_ms);
    run.set("sparse.lu_refactor_ms", k.lu_refactor_ms);
    run.set("sparse.lu_solve_us", k.lu_solve_us);
    run.set("sparse.lu_fill_nnz", k.lu_fill_nnz);
    Some(k)
}

/// Share of the replayed sub-steps' time that the kernels explain: each
/// multigrid-preconditioned BiCGSTAB solve costs its V-cycles plus one
/// matvec per V-cycle and one for the initial residual; each direct solve
/// costs one triangular solve, plus a refactorisation or a full
/// factorisation whenever the operator changed.
fn substep_share(r: &Replay, k: &Kernels) -> f64 {
    let s = &r.step_stats;
    let steps = r.step_ms.len() as f64;
    let modelled_us = if s.mg_cycles > 0 {
        s.mg_cycles as f64 * (k.vcycle_us + k.matvec_us) + s.iterative_solves as f64 * k.matvec_us
    } else {
        steps * k.lu_solve_us
            + s.refactorizations as f64 * k.lu_refactor_ms * 1e3
            + s.full_factorizations as f64 * k.lu_factor_ms * 1e3
    };
    let total_ms: f64 = r.step_ms.iter().sum();
    if total_ms > 0.0 {
        modelled_us / 1e3 / total_ms
    } else {
        0.0
    }
}

/// Prints a flag for a ladder level whose child spans cover less than
/// [`ATTRIBUTION_FLOOR`](crate::report::ATTRIBUTION_FLOOR) of its time.
pub fn attribution(run: &mut Run, level: &str, share: f64) {
    run.set(&format!("trace.attributed_share.{level}"), share);
    if share < crate::report::ATTRIBUTION_FLOOR {
        println!(
            "FLAG attribution: child spans cover {:.1} % of `{level}` (< {:.0} %)",
            share * 100.0,
            crate::report::ATTRIBUTION_FLOOR * 100.0
        );
    }
}
