//! The metric catalogue and the result line.
//!
//! Every workload reports every metric listed here: the end-to-end set
//! from an untraced run, the per-layer set from a traced run. A layer a
//! workload does not exercise reads `0` (no SMTP on the simulations, no
//! WAL on the wire path). `BENCHMARK.json` lists the same names and
//! units; the self-check compares the two.

use crate::stats::{goodput_of_rounds, median, ratio};
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("goodput_msg_s", "msg/s"),
    ("accept_p10_us", "us"),
    ("recovery_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, prefixed by module name.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("load.late_p99_us", "us"),
    ("smtp.client_send_us_mean", "us"),
    ("smtp.cpu_us_per_msg", "us"),
    ("smtp.sys_cpu_share", "ratio"),
    ("smtp.frame_us_p50", "us"),
    ("smtp.parse_us_p50", "us"),
    ("smtp.data_bytes_per_msg", "bytes"),
    ("backpressure.deliver_us_mean", "us"),
    ("backpressure.queue_wait_us_mean", "us"),
    ("backpressure.batch_msgs_p50", "count"),
    ("backpressure.syncs_per_msg", "count"),
    ("backpressure.spool_bytes_per_msg", "bytes"),
    ("backpressure.sync_us_mean", "us"),
    ("bridge.deliver_us_mean", "us"),
    ("bridge.rcpt_us_mean", "us"),
    ("bridge.share", "ratio"),
    ("store.wal_bytes_per_send", "bytes"),
    ("store.records_per_send", "count"),
    ("store.batch_records_p50", "count"),
    ("store.commit_us_mean", "us"),
    ("store.replayed_records", "count"),
    ("shard.cross_share", "ratio"),
    ("shard.xfer_us_p99", "us"),
    ("sim.tick_ms_mean", "ms"),
    ("sim.staged_parallel_share", "ratio"),
    ("crypto.sign_us", "us"),
    ("crypto.verify_us", "us"),
    ("crypto.share_est", "ratio"),
    ("bank.roundtrips_per_1k_sends", "count"),
    ("bank.snapshot_rounds", "count"),
    ("obs.trace_overhead_pct", "%"),
];

/// Metric values by name; unset names report `0`.
pub type Values = BTreeMap<&'static str, f64>;

/// What one benchmark run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (messages submitted or sends scheduled).
    pub attempted: u64,
    /// Attempted operations that failed (see each workload's definition).
    pub failed: u64,
    /// Named correctness gates and whether each held.
    pub gates: Vec<(String, bool)>,
    /// End-to-end values (untraced rounds).
    pub end_to_end: Values,
    /// Per-layer values (traced rounds; empty in an untraced run).
    pub per_layer: Values,
    /// Free-form lines printed before the result (tails, budgets, bases).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a gate; a gate checked on several rounds holds only if it
    /// held on every one.
    pub fn gate(&mut self, name: impl Into<String>, held: bool) {
        let name = name.into();
        match self.gates.iter_mut().find(|(n, _)| *n == name) {
            Some((_, all)) => *all &= held,
            None => self.gates.push((name, held)),
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Per-layer values of a traced run: each metric's median over the
    /// traced rounds' `(layers, goodput)`, and the tracing overhead
    /// against the untraced rounds' goodput.
    pub fn fold_traced(&mut self, traced: &[(&Values, f64)], untraced_goodput: f64) {
        let Some((first, _)) = traced.first() else {
            return;
        };
        for &key in first.keys() {
            let v: Vec<f64> = traced.iter().map(|(layers, _)| layers[key]).collect();
            self.per_layer.insert(key, median(&v));
        }
        let goodputs: Vec<f64> = traced.iter().map(|&(_, g)| g).collect();
        let traced_goodput = goodput_of_rounds(&goodputs);
        self.per_layer.insert(
            "obs.trace_overhead_pct",
            100.0 * ratio(untraced_goodput - traced_goodput, untraced_goodput),
        );
        self.note(format!(
            "trace overhead: goodput {untraced_goodput:.1} msg/s untraced vs {traced_goodput:.1} msg/s traced"
        ));
    }

    pub fn correct(&self) -> bool {
        !self.gates.is_empty() && self.gates.iter().all(|(_, held)| *held)
    }

    /// The catalogue the run reports: end-to-end or per-layer.
    pub fn catalogue(traced: bool) -> &'static [(&'static str, &'static str)] {
        if traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The values the run reports: end-to-end or per-layer.
    pub fn values(&self, traced: bool) -> &Values {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The last stdout line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, traced: bool) -> String {
        let values = self.values(traced);
        let metrics: Vec<String> = Self::catalogue(traced)
            .iter()
            .map(|(name, unit)| {
                let value = values.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Escapes a string for a JSON literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
