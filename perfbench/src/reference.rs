//! Physics references: peak temperature and energies of a few
//! default-seed scenarios per workload, recorded from this code. Every
//! run re-simulates them (untimed) and compares.
//!
//! The tolerance is relative 1e-6: a reordered floating-point sum moves
//! these figures by about 1e-12 relative (1e-9 where a solver tolerance
//! is involved), while any change to the physics moves them by 1e-4 or
//! more. To re-record after a deliberate physics change, copy the `REF`
//! lines a run prints into [`REFERENCES`].

use cmosaic::floorplan::GridSpec;
use cmosaic::metrics::RunMetrics;
use cmosaic::power::trace::WorkloadKind;
use cmosaic::scenario::CoolantChoice;
use cmosaic::{PolicyKind, ScenarioSpec};

use crate::inputs::{self, DEFAULT_SEED};
use crate::report::Run;

/// Relative tolerance of the reference comparison.
const TOLERANCE: f64 = 1e-6;

/// `(workload, probe index, peak K, chip energy J, pump energy J)`.
const REFERENCES: [(&str, usize, f64, f64, f64); 5] = [
    (
        "fine_grid_mg",
        0,
        323.78321461076143,
        89.3893268088496,
        31.5,
    ),
    (
        "design_sweep",
        0,
        333.62151013994765,
        2023.1048794984254,
        705.6634285714287,
    ),
    ("design_sweep", 1, 316.5617453192532, 528.652332473678, 0.0),
    (
        "serve_mix",
        0,
        330.6500283168672,
        678.8870979559526,
        233.02800000000008,
    ),
    (
        "serve_mix",
        1,
        330.19382906920123,
        74.58780072643656,
        19.693142857142856,
    ),
];

/// The default-seed probe scenarios of a workload.
fn probes(workload: &str) -> Vec<ScenarioSpec> {
    match workload {
        "fine_grid_mg" => vec![inputs::fine_grid_spec(DEFAULT_SEED).seconds(3)],
        "design_sweep" => {
            let study = inputs::sweep_study(DEFAULT_SEED);
            let pick = |f: &dyn Fn(&ScenarioSpec) -> bool| {
                study
                    .specs()
                    .iter()
                    .find(|s| f(s))
                    .cloned()
                    .expect("the sweep contains the probe")
            };
            vec![
                pick(&|s| {
                    s.preset_tiers() == Some(4)
                        && s.policy_kind() == PolicyKind::LcFuzzy
                        && s.workload_kind() == WorkloadKind::WebServer
                }),
                pick(&|s| {
                    s.preset_tiers() == Some(2)
                        && matches!(s.coolant_choice(), CoolantChoice::TwoPhase(_))
                        && s.workload_kind() == WorkloadKind::WebServer
                }),
            ]
        }
        _ => {
            let largest = inputs::serve_representative(DEFAULT_SEED);
            let smallest = largest
                .clone()
                .tiers(2)
                .grid(GridSpec::new(6, 6).expect("static dims"))
                .seconds(5);
            vec![largest, smallest]
        }
    }
}

/// Runs the probes of `workload` and compares them with the references.
pub fn check(run: &mut Run, workload: &str) {
    for (i, spec) in probes(workload).iter().enumerate() {
        let metrics: RunMetrics = match spec.build().and_then(|s| s.run()) {
            Ok(m) => m,
            Err(e) => {
                run.fail(format!("reference probe {i} of {workload}: {e}"));
                continue;
            }
        };
        let (peak, chip, pump) = (
            metrics.peak_temperature.0,
            metrics.chip_energy,
            metrics.pump_energy,
        );
        println!("REF (\"{workload}\", {i}, {peak:?}, {chip:?}, {pump:?}),");
        let Some(&(_, _, rpeak, rchip, rpump)) =
            REFERENCES.iter().find(|r| r.0 == workload && r.1 == i)
        else {
            run.fail(format!("no reference recorded for probe {i} of {workload}"));
            continue;
        };
        let close = |a: f64, b: f64| (a - b).abs() <= TOLERANCE * b.abs().max(1e-9);
        run.check(
            close(peak, rpeak) && close(chip, rchip) && close(pump, rpump),
            || {
                format!(
                    "probe {i} of {workload} moved: peak {peak} K (ref {rpeak}), chip {chip} J \
                 (ref {rchip}), pump {pump} J (ref {rpump})"
                )
            },
        );
    }
}
