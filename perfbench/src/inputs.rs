//! Seeded input generators. Each workload's inputs are a pure function of
//! the `--seed` argument; the program under test receives only what these
//! functions build. [`self_test`] checks the contract on every run.

use std::collections::HashSet;

use cmosaic::floorplan::GridSpec;
use cmosaic::materials::units::{Celsius, VolumetricFlow};
use cmosaic::optimize::{Constraints, DesignAxis, DesignSpace};
use cmosaic::power::trace::WorkloadKind;
use cmosaic::scenario::{CoolantChoice, FlowSchedule};
use cmosaic::thermal::{SolverBackend, TwoPhaseCoolant};
use cmosaic::{experiments, PolicyKind, ScenarioSpec, Study};
use cmosaic_serve::json::Json;
use cmosaic_serve::protocol::parse_spec;

use crate::util::SplitMix;

/// The seed the references in `reference.rs` were recorded at.
pub const DEFAULT_SEED: u64 = 42;

/// A seed no tuning run of this benchmark used: a later performance claim
/// must also hold on it.
pub const HELD_OUT_SEED: u64 = 20_111_803;

/// Scenario seed of a workload, derived from the benchmark seed so that
/// neighbouring benchmark seeds still give unrelated traces.
fn scenario_seed(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed, stream).next_u64() % 1_000_000
}

// ------------------------------------------------------------ fine grid --

/// Control epochs in one `fine_grid_mg` job.
pub const FINE_JOB_EPOCHS: usize = 15;

/// The `fine_grid_mg` scenario: 4-tier WebServer under `LC_FUZZY` at 64²
/// on the multigrid backend. The trace covers exactly one job.
pub fn fine_grid_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::new()
        .tiers(4)
        .workload(WorkloadKind::WebServer)
        .policy(PolicyKind::LcFuzzy)
        .grid(GridSpec::new(64, 64).expect("static dims"))
        .solver(SolverBackend::multigrid())
        .seconds(FINE_JOB_EPOCHS)
        .seed(scenario_seed(seed, 1))
}

// --------------------------------------------------------- design sweep --

/// Simulated seconds of every slot of the figure matrix.
pub const SWEEP_SECONDS: usize = 60;
/// Simulated seconds of every two-phase slot.
pub const TWO_PHASE_SECONDS: usize = 20;
/// Annealing steps of the optimizer run.
pub const ANNEAL_STEPS: usize = 24;

/// The figure grid of the paper's Figs. 6–7.
pub fn figure_grid() -> GridSpec {
    GridSpec::new(12, 12).expect("static dims")
}

/// The design-sweep study: the 28-slot figure matrix on direct LU,
/// chained with a two-phase R134a slice (2 and 4 tiers, web server and
/// maximum utilization; quasi-static steady solves).
pub fn sweep_study(seed: u64) -> Study {
    let s = scenario_seed(seed, 2);
    let matrix = experiments::fig6_study(SWEEP_SECONDS, s, figure_grid());
    let slice = Study::new(
        ScenarioSpec::new()
            .coolant(CoolantChoice::TwoPhase(TwoPhaseCoolant::r134a_30c(2800.0)))
            .policy(PolicyKind::LcLb)
            .grid(figure_grid())
            .seconds(TWO_PHASE_SECONDS)
            .seed(s),
    )
    .over_tiers([2, 4])
    .over_workloads([WorkloadKind::WebServer, WorkloadKind::MaxUtilization]);
    matrix.chain(slice)
}

/// The optimizer input of the design sweep: stack height × fixed pump
/// operating point under the worst-case workload, searched by seeded
/// annealing for the cheapest design at or below 85 °C.
pub fn sweep_space(seed: u64) -> (DesignSpace, Constraints, u64) {
    let ml = VolumetricFlow::from_ml_per_min;
    let base = ScenarioSpec::new()
        .policy(PolicyKind::LcLb)
        .workload(WorkloadKind::MaxUtilization)
        .grid(figure_grid())
        .seconds(TWO_PHASE_SECONDS)
        .seed(scenario_seed(seed, 3));
    let flows = [8.0, 12.0, 16.0, 20.0, 26.0, 32.3];
    let space = DesignSpace::new(base)
        .with_axis(DesignAxis::tiers([2, 4]))
        .with_axis(DesignAxis::flow_schedules(flows.map(|q| {
            (format!("fixed {q} ml/min"), FlowSchedule::Fixed(ml(q)))
        })));
    (
        space,
        Constraints::peak_below(Celsius(85.0)),
        scenario_seed(seed, 4),
    )
}

// ------------------------------------------------------------ serve mix --

/// How a request relates to what its client sent before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// At least one spec is on an operator pattern (stack, grid) nothing
    /// has used yet.
    Cold,
    /// Every pattern was used before, but at least one spec is new
    /// (analysis reuse).
    NewSeed,
    /// An exact repeat of earlier specs (result-cache hits).
    Repeat,
}

/// One generated request of the serve mix.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Request id echoed by the server.
    pub id: String,
    /// Whether the request asks for streamed epoch events.
    pub stream: bool,
    /// How the request relates to earlier ones.
    pub class: RequestClass,
    /// The spec objects as sent on the wire, each with the spec the server
    /// builds from it.
    pub specs: Vec<(String, ScenarioSpec)>,
}

impl ServeRequest {
    /// The request as one JSON object (the NDJSON line and HTTP body).
    pub fn wire(&self) -> String {
        let specs: Vec<&str> = self.specs.iter().map(|(text, _)| text.as_str()).collect();
        format!(
            "{{\"op\":\"run\",\"id\":\"{}\",\"stream\":{},\"specs\":[{}]}}",
            self.id,
            self.stream,
            specs.join(",")
        )
    }
}

// Each round, each client runs one session of every caller of the server
// in the repository, in a seeded order. A session's shape is the
// caller's; see `perfbench/NOTES.md` for where each figure comes from.

/// `examples/serve_client.rs`: one streamed request of two specs on one
/// operator pattern (distinct seeds, 4 s, `lc-fuzzy`), then the identical
/// request again.
const PAIR_REQUESTS: usize = 2;
const PAIR_SPECS: usize = 2;
const PAIR_SECONDS: usize = 4;
/// `perf_serve`: three requests of three specs each, overlapping slices
/// of a family of 2 operator patterns × 6 seeds (2 s, default policy).
const BURST_REQUESTS: usize = 3;
const BURST_SPECS: usize = 3;
const BURST_SEEDS: usize = 6;
const BURST_SECONDS: usize = 2;
/// The placement optimizer (`examples/optimize_placement.rs`,
/// `perf_placement`): 13 single-design evaluation requests of which 6
/// repeat an earlier design (its memo hit rate, 6 of 13), over a pump
/// operating point × design axis on one pattern (`lc-lb`, 12 s,
/// `thermal_dt` 0.5).
const OPTIMIZER_REQUESTS: usize = 13;
const OPTIMIZER_REPEATS: usize = 6;
const OPTIMIZER_SECONDS: usize = 12;
const OPTIMIZER_FLOWS: [f64; 4] = [14.0, 20.0, 26.0, 32.3];
/// The design axis next to the flow: placement and channel moves cannot
/// be written in a spec object, so the workload stands in for them.
const WORKLOADS: [&str; 4] = ["web-server", "database", "multimedia", "max-utilization"];

/// Requests per client per round: one session of each caller.
pub const ROUND_REQUESTS: usize = PAIR_REQUESTS + BURST_REQUESTS + OPTIMIZER_REQUESTS;
/// Untimed warm-up requests per client: one round.
pub const WARMUP_REQUESTS: usize = ROUND_REQUESTS;
/// Size strata of the operator patterns (147 patterns, 21 per stratum).
const STRATA: usize = 7;

/// One client's request stream under construction.
struct StreamBuilder {
    client: usize,
    rng: SplitMix,
    /// Each stratum's patterns, shuffled by the seed, this client's half.
    strata: Vec<Vec<(usize, usize, usize)>>,
    next_cold: usize,
    seen_patterns: HashSet<(usize, usize, usize)>,
    seen_specs: HashSet<String>,
    out: Vec<ServeRequest>,
}

impl StreamBuilder {
    /// The next pattern no session of this client used yet. Cold draws
    /// cycle through the size strata, so the patterns in the server's
    /// analysis cache have the same size mix whatever the seed. Past the
    /// end of its half of the pattern set a client wraps around to
    /// patterns used long before, which the server's analysis cache has
    /// evicted by then.
    fn cold_pattern(&mut self) -> (usize, usize, usize) {
        let stratum = &self.strata[self.next_cold % STRATA];
        let p = stratum[(self.next_cold / STRATA) % stratum.len()];
        self.next_cold += 1;
        p
    }

    fn seed(&mut self) -> u64 {
        self.rng.next_u64() % 1_000_000
    }

    fn push(&mut self, stream: bool, texts: Vec<String>) {
        let specs: Vec<(String, ScenarioSpec)> = texts
            .into_iter()
            .map(|text| {
                let spec = parse_spec(&Json::parse(&text).expect("generated JSON parses"))
                    .expect("generated spec is valid");
                (text, spec)
            })
            .collect();
        let patterns: Vec<_> = specs
            .iter()
            .map(|(_, s)| {
                let g = s.grid_spec();
                (s.preset_tiers().unwrap_or(0), g.nx(), g.ny())
            })
            .collect();
        let class = if patterns.iter().any(|p| !self.seen_patterns.contains(p)) {
            RequestClass::Cold
        } else if specs.iter().all(|(t, _)| self.seen_specs.contains(t)) {
            RequestClass::Repeat
        } else {
            RequestClass::NewSeed
        };
        self.seen_patterns.extend(patterns);
        self.seen_specs.extend(specs.iter().map(|(t, _)| t.clone()));
        self.out.push(ServeRequest {
            id: format!("c{}-{}", self.client, self.out.len()),
            stream,
            class,
            specs,
        });
    }

    /// `examples/serve_client.rs`.
    fn pair_session(&mut self) {
        let (tiers, nx, ny) = self.cold_pattern();
        let texts: Vec<String> = (0..PAIR_SPECS)
            .map(|_| {
                format!(
                    "{{\"tiers\":{tiers},\"grid\":{{\"nx\":{nx},\"ny\":{ny}}},\
                     \"seconds\":{PAIR_SECONDS},\"seed\":{},\"policy\":\"lc-fuzzy\"}}",
                    self.seed()
                )
            })
            .collect();
        self.push(true, texts.clone());
        self.push(true, texts);
    }

    /// `perf_serve`'s burst client: request `r` carries family members
    /// `(offset + 7 r + 3 s) mod 12`, `s < 3`.
    fn burst_session(&mut self) {
        let patterns = [self.cold_pattern(), self.cold_pattern()];
        let seeds: Vec<u64> = (0..BURST_SEEDS).map(|_| self.seed()).collect();
        let family = patterns.len() * BURST_SEEDS;
        let offset = self.rng.below(family);
        for r in 0..BURST_REQUESTS {
            let texts = (0..BURST_SPECS)
                .map(|s| {
                    let k = (offset + 7 * r + 3 * s) % family;
                    let (tiers, nx, ny) = patterns[k / BURST_SEEDS];
                    format!(
                        "{{\"tiers\":{tiers},\"grid\":{{\"nx\":{nx},\"ny\":{ny}}},\
                         \"seconds\":{BURST_SECONDS},\"seed\":{}}}",
                        seeds[k % BURST_SEEDS]
                    )
                })
                .collect();
            self.push(false, texts);
        }
    }

    /// The placement optimizer: after the first evaluation, new and
    /// repeated designs come in a seeded order; a new design is one the
    /// session has not evaluated, a repeat one it has.
    fn optimizer_session(&mut self) {
        let (tiers, nx, ny) = self.cold_pattern();
        let seed = self.seed();
        let mut space: Vec<(f64, &str)> = OPTIMIZER_FLOWS
            .iter()
            .flat_map(|&q| WORKLOADS.iter().map(move |&w| (q, w)))
            .collect();
        self.rng.shuffle(&mut space);
        let mut repeat = vec![false; OPTIMIZER_REQUESTS - 1];
        repeat[..OPTIMIZER_REPEATS]
            .iter_mut()
            .for_each(|r| *r = true);
        self.rng.shuffle(&mut repeat);
        let mut evaluated = 0;
        for again in std::iter::once(false).chain(repeat) {
            let (q, workload) = if again {
                space[self.rng.below(evaluated)]
            } else {
                evaluated += 1;
                space[evaluated - 1]
            };
            let text = format!(
                "{{\"tiers\":{tiers},\"grid\":{{\"nx\":{nx},\"ny\":{ny}}},\
                 \"workload\":\"{workload}\",\"policy\":\"lc-lb\",\"thermal_dt\":0.5,\
                 \"flow_ml_per_min\":{q},\"seconds\":{OPTIMIZER_SECONDS},\"seed\":{seed}}}"
            );
            self.push(false, vec![text]);
        }
    }
}

/// The request stream of one serve client: one warm-up round, then
/// `rounds` rounds, each one session of every caller in a seeded order.
/// The two clients draw patterns from disjoint halves of the pattern set.
pub fn serve_stream(seed: u64, client: usize, rounds: usize) -> Vec<ServeRequest> {
    // Every (tiers, nx, ny) operator pattern, ordered by size and cut into
    // equal strata, each shuffled by the seed and split between the
    // clients.
    let mut patterns: Vec<(usize, usize, usize)> = Vec::new();
    for tiers in 2..=4 {
        for nx in 6..=12 {
            for ny in 6..=12 {
                patterns.push((tiers, nx, ny));
            }
        }
    }
    patterns.sort_by_key(|&(t, nx, ny)| (t * nx * ny, t, nx, ny));
    let mut order = SplitMix::new(seed, 99);
    let strata = patterns
        .chunks(patterns.len() / STRATA)
        .map(|stratum| {
            let mut stratum = stratum.to_vec();
            order.shuffle(&mut stratum);
            stratum.into_iter().skip(client).step_by(2).collect()
        })
        .collect();
    let mut b = StreamBuilder {
        client,
        rng: SplitMix::new(seed, 100 + client as u64),
        strata,
        next_cold: 3 * client,
        seen_patterns: HashSet::new(),
        seen_specs: HashSet::new(),
        out: Vec::new(),
    };
    for _ in 0..=rounds {
        let mut sessions = [0, 1, 2];
        b.rng.shuffle(&mut sessions);
        for session in sessions {
            match session {
                0 => b.pair_session(),
                1 => b.burst_session(),
                _ => b.optimizer_session(),
            }
        }
    }
    b.out
}

/// The largest request the serve mix can draw (4 tiers at 12², web
/// server), run for longer: the scenario the serve trace replays below the
/// request level.
pub fn serve_representative(seed: u64) -> ScenarioSpec {
    ScenarioSpec::new()
        .tiers(4)
        .grid(figure_grid())
        .workload(WorkloadKind::WebServer)
        .policy(PolicyKind::LcFuzzy)
        .seconds(20)
        .seed(scenario_seed(seed, 5))
}

// ------------------------------------------------------------ self-test --

/// Fingerprints of every input a seed generates, per workload.
fn fingerprints(workload: &str, seed: u64) -> Vec<u64> {
    match workload {
        "fine_grid_mg" => {
            let spec = fine_grid_spec(seed);
            let scenario = spec.build().expect("fine-grid spec builds");
            let trace_bits = (0..scenario.trace().seconds())
                .flat_map(|t| scenario.trace().row(t).to_vec())
                .fold(0u64, |h, u| h.rotate_left(7) ^ u.to_bits());
            vec![spec.fingerprint(), trace_bits]
        }
        "design_sweep" => {
            let mut fps: Vec<u64> = sweep_study(seed)
                .specs()
                .iter()
                .map(ScenarioSpec::fingerprint)
                .collect();
            let (space, _, anneal_seed) = sweep_space(seed);
            fps.push(space.base().fingerprint());
            fps.push(anneal_seed);
            fps
        }
        _ => (0..2)
            .flat_map(|c| serve_stream(seed, c, 2))
            .flat_map(|r| {
                let stream = u64::from(r.stream);
                r.specs
                    .into_iter()
                    .map(move |(_, spec)| spec.fingerprint() ^ stream)
            })
            .collect(),
    }
}

/// The generator contract: the same seed gives identical inputs, a
/// different seed gives different ones. Returns a description of the
/// first violation.
pub fn self_test(workload: &str, seed: u64) -> Result<(), String> {
    let a = fingerprints(workload, seed);
    let b = fingerprints(workload, seed);
    if a != b {
        return Err(format!(
            "{workload}: seed {seed} generated two different inputs"
        ));
    }
    let other = seed.wrapping_add(1);
    if fingerprints(workload, other) == a {
        return Err(format!(
            "{workload}: seeds {seed} and {other} generated the same inputs"
        ));
    }
    Ok(())
}
