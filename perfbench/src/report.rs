//! Metric names, the per-run outcome, and the output lines.
//!
//! The contract line (the last line of stdout) carries the workload-generic
//! metrics named in `BENCHMARK.json`; the detail record before it carries
//! the workload's own named metrics with units and sample counts, the
//! provenance and any oracle mismatch.

use ipmedia_obs::{json_array, json_str_array, JsonObj};
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload (`--trace 0`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("bytes_per_op", "B"),
    ("latency_ms", "ms"),
];

/// Signal kinds counted per call (the closed set of `Signal::kind()`).
pub const SIGNAL_KINDS: [&str; 6] = ["open", "oack", "select", "describe", "close", "closeack"];
/// `BoxInput::kind()` classes counted per call; the rest land in `other`.
pub const INPUT_KINDS: [&str; 5] = ["tunnel", "slot_note", "user_note", "timer", "other"];
/// Stimulus classes counted per call; the rest land in `other`.
pub const STIMULUS_KINDS: [&str; 6] = ["tunnel", "user", "apply", "timer", "retransmit", "other"];

/// Per-layer metrics, reported by every workload (`--trace 1`); a layer
/// the workload does not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("storm.gen_s", "s"),
        ("netsim.build_s", "s"),
        ("netsim.establish_s", "s"),
        ("netsim.features_s", "s"),
        ("netsim.excursion_s", "s"),
        ("netsim.events_per_call", "count"),
        ("netsim.step_ns", "ns"),
        ("netsim.queue_peak", "count"),
        ("netsim.self_ns_per_call", "ns"),
        ("core.logic_ns_per_call", "ns"),
        ("obs.observer_ns_per_call", "ns"),
        ("core.reliable.retx_per_call", "count"),
        ("core.reliable.useful_frac", "ratio"),
        ("netsim.fault.drops_per_call", "count"),
        ("netsim.fault.dups_per_call", "count"),
        ("netsim.fault.reorders_per_call", "count"),
        ("alloc.allocs_per_event", "count"),
        ("alloc.peak_bytes", "B"),
        ("latency_p99_ms", "ms"),
        ("cpu.busy_frac", "ratio"),
        ("mck.explore_s", "s"),
        ("mck.props_s", "s"),
        ("mck.levels", "count"),
        ("mck.dedup_frac", "ratio"),
        ("mck.actions_ns", "ns"),
        ("mck.apply_ns", "ns"),
        ("mck.hash_ns", "ns"),
        ("mck.seen_ns", "ns"),
        ("mck.engine_other_ns", "ns"),
        ("mck.states_per_s_par", "1/s"),
        ("mck.par_eff", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for k in INPUT_KINDS {
        out.push((format!("core.inputs_per_call.{k}"), "count"));
    }
    for k in SIGNAL_KINDS {
        out.push((format!("core.signals_per_call.{k}"), "count"));
    }
    for k in STIMULUS_KINDS {
        out.push((format!("core.stimuli_per_call.{k}"), "count"));
    }
    out
}

/// A workload's own named figure, printed in the detail record.
#[derive(Debug, Clone)]
pub struct Named {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed (calls, or checks).
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-oracle mismatches; any entry fails the run.
    pub mismatches: Vec<String>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// The workload's named metrics, with units and sample counts.
    pub named: Vec<Named>,
    /// Facts about the run (threads, connections, rounds, ...).
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    /// Records an oracle comparison; a mismatch fails the run.
    pub fn expect<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        if got != want {
            self.mismatches
                .push(format!("{what}: got {got:?}, want {want:?}"));
        }
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.mismatches.push(what.to_string());
        }
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.named.push(Named {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// True when every oracle held and every reported figure is a number.
    pub fn correct(&self, traced: bool) -> bool {
        self.mismatches.is_empty() && self.missing(traced).is_empty()
    }

    /// Contract metrics this run could not give as a finite number.
    pub fn missing(&self, traced: bool) -> Vec<String> {
        if traced {
            per_layer()
                .into_iter()
                .filter(|(n, _)| !self.layers.get(n).is_some_and(|v| v.is_finite()))
                .map(|(n, _)| n)
                .collect()
        } else {
            END_TO_END
                .iter()
                .filter(|(n, _)| !self.e2e.get(n).is_some_and(|v| v.is_finite() && *v > 0.0))
                .map(|(n, _)| n.to_string())
                .collect()
        }
    }

    /// The human-and-machine detail record (one JSON line).
    pub fn detail_line(&self, workload: &str, seed: u64, traced: bool) -> String {
        let named = json_array(self.named.iter().map(|m| {
            JsonObj::new()
                .str("name", &m.name)
                .raw("value", &num(m.value))
                .str("unit", m.unit)
                .num("samples", m.samples as u64)
                .finish()
        }));
        let mut facts = JsonObj::new();
        for (k, v) in &self.facts {
            facts = facts.str(k, v);
        }
        JsonObj::new()
            .str("record", "perfbench_detail")
            .str("workload", workload)
            .num("seed", seed)
            .bool("trace", traced)
            .num("attempted", self.attempted)
            .num("failed", self.failed)
            .raw("facts", &facts.finish())
            .raw("metrics", &named)
            .raw(
                "mismatches",
                &json_str_array(self.mismatches.iter().map(String::as_str)),
            )
            .raw(
                "missing",
                &json_str_array(self.missing(traced).iter().map(String::as_str)),
            )
            .finish()
    }

    /// The contract line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, traced: bool) -> String {
        let mut metrics = JsonObj::new();
        let entries: Vec<(String, &str, f64)> = if traced {
            per_layer()
                .into_iter()
                .map(|(n, u)| {
                    let v = self.layers.get(&n).copied().unwrap_or(f64::NAN);
                    (n, u, v)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| {
                    (
                        n.to_string(),
                        u,
                        self.e2e.get(n).copied().unwrap_or(f64::NAN),
                    )
                })
                .collect()
        };
        for (name, unit, value) in entries {
            metrics = metrics.raw(
                &name,
                &JsonObj::new()
                    .raw("value", &num(value))
                    .str("unit", unit)
                    .finish(),
            );
        }
        JsonObj::new()
            .bool("correct", self.correct(traced))
            .num("attempted", self.attempted)
            .num("failed", self.failed)
            .raw("metrics", &metrics.finish())
            .finish()
    }
}

/// Runs `round` for about `seconds` of wall time: always once, then again
/// while one more round of the mean length still fits. The first error
/// ends the run and is recorded as an oracle mismatch.
pub fn rounds<T>(
    seconds: f64,
    out: &mut Outcome,
    mut round: impl FnMut() -> Result<T, String>,
) -> Vec<T> {
    let start = std::time::Instant::now();
    let mut done = Vec::new();
    loop {
        match round() {
            Ok(r) => done.push(r),
            Err(e) => {
                out.mismatches.push(e);
                break;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (done.len() as f64 + 1.0) / done.len() as f64 > seconds {
            break;
        }
    }
    done
}

/// A JSON number with all its digits, or `null` for a non-finite value.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names this binary prints must be the names `BENCHMARK.json`
    /// declares, in both directions.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end]
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(section("per_layer"), layers);
    }

    #[test]
    fn a_mismatch_makes_the_result_incorrect() {
        let mut o = Outcome::default();
        for (n, _) in END_TO_END {
            o.e2e.insert(n, 1.0);
        }
        o.expect("states", 105_475usize, 105_475);
        assert!(o.correct(false));
        o.expect("states", 105_475usize, 105_476);
        assert!(!o.correct(false));
        assert!(o.result_line(false).starts_with("{\"correct\":false,"));
    }

    #[test]
    fn a_zero_or_missing_end_to_end_metric_is_not_a_result() {
        let mut o = Outcome::default();
        o.e2e.insert("ops_per_s", 0.0);
        assert_eq!(
            o.missing(false),
            vec!["ops_per_s", "setup_s", "bytes_per_op", "latency_ms"]
        );
        assert!(o.result_line(false).contains("\"setup_s\":{\"value\":null"));
    }
}
