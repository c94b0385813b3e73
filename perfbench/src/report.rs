//! The result of one benchmark run: named metrics with units, the
//! operation and output-check tally behind `error_rate`, and the final
//! JSON line.

use std::collections::BTreeMap;

use cmosaic_serve::json::Json;

/// The metrics of one list of `BENCHMARK.json` (`"end_to_end"` or
/// `"per_layer"`) as (name, unit) pairs, in the file's order. The file is
/// the one source of metric names and units: every workload reports every
/// metric of the list its run prints, and a per-layer metric of a layer a
/// workload does not exercise reports 0 and is listed as not exercised.
pub fn metric_list(list: &str) -> Vec<(String, String)> {
    let spec = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let field = |m: &Json, key: &str| {
        m.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("a {list} metric of BENCHMARK.json has no {key}"))
            .to_string()
    };
    spec.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// Share of a ladder level's time its child spans must cover before the
/// level counts as attributed.
pub const ATTRIBUTION_FLOOR: f64 = 0.9;

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    metrics: BTreeMap<String, f64>,
    not_exercised: Vec<&'static str>,
    /// Operations attempted (jobs, slots, requests) plus output checks.
    attempted: u64,
    /// Operations that failed plus output checks that did not hold.
    failed: u64,
    operations: u64,
    checks: u64,
}

impl Run {
    /// Records a metric (by a name from [`metric_list`]).
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records the layers this workload does not exercise: their
    /// per-layer metrics report 0.
    pub fn not_exercised(&mut self, names: &[&'static str]) {
        for name in names {
            self.set(name, 0.0);
            self.not_exercised.push(name);
        }
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn operations(&mut self, n: u64, failed: u64) {
        self.operations += n;
        self.attempted += n;
        self.failed += failed;
    }

    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Records a failed operation or check that has no count of its own.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.check(false, || what.into());
    }

    /// Prints the metrics of one list by name with their units, then the
    /// final JSON line.
    pub fn finish(mut self, list: &[(String, String)]) {
        for (name, _) in list {
            if !self.metrics.contains_key(name) {
                self.fail(format!("metric {name} was not measured"));
            }
        }
        let non_finite: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(name, v)| format!("metric {name} is not finite ({v})"))
            .collect();
        for msg in non_finite {
            self.fail(msg);
        }
        println!(
            "error_rate = {} ({} failed of {} attempted: {} operations, {} output checks)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted,
            self.operations,
            self.checks
        );
        for (name, unit) in list {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            let tag = if self.not_exercised.contains(&name.as_str()) {
                "  (layer not exercised by this workload)"
            } else {
                ""
            };
            println!("{name} = {v} {unit}{tag}");
        }
        let correct = self.failed == 0;
        let body: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}
