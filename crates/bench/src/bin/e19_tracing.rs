//! E19 — The price of looking: causal flight-recorder overhead and
//! trace determinism across thread counts.
//!
//! PR 7 wires a per-message flight recorder through the whole stack —
//! TraceId minted at submission, child spans for queue wait, bank
//! round-trips, WAL group-commit, delivery, and acks. Two questions
//! decide whether it can stay on outside postmortems:
//!
//! 1. **What does recording cost?** Span timestamps come from the sim
//!    clock, so the only real cost is bookkeeping. The first pair of
//!    tables runs the full protocol harness (`ZmailWorld`) and the
//!    million-user sharded ledger (`MassiveWorld`) at head-sampling
//!    rates {off, 1/64, 1/8, 1/1} and reports the wall-clock penalty,
//!    asserting at every rate that the run itself is byte-identical to
//!    the untraced baseline.
//! 2. **Is the trace a pure function of plan + seed?** The recorder
//!    mutates only on the serial apply path, so the span stream must be
//!    byte-identical at any stage-thread count. The determinism table
//!    re-runs full sampling at 1/2/4/8 threads and diffs both the raw
//!    span streams and the folded `trace.phase.*` latency metrics.
//!
//! The run ends with the latency-attribution view itself: per-phase
//! p50/p99/p999 (sim-clock ms) and the slowest lifecycles with their
//! critical paths — the flight recorder doing its actual job.
//!
//! Mode: `--smoke` shrinks both workloads to a seconds-scale CI gate
//! over the same code paths.

use std::time::Instant;
use zmail_bench::Report;
use zmail_core::{
    DurabilityConfig, MassiveConfig, MassiveWorld, RunReport, ZmailConfig, ZmailSystem,
};
use zmail_econ::EPennies;
use zmail_obs::{attribute, FlightRecorder, Registry, SpanLog};
use zmail_sim::workload::{SendEvent, TrafficConfig, TrafficGenerator};
use zmail_sim::{Sampler, SimDuration, Table};

const SEED: u64 = 19;
/// Span-ring capacity: big enough that nothing is dropped at 1/1
/// sampling on the full workloads, so overhead numbers are honest.
const RING: usize = 1 << 21;

/// `None` = recorder not attached; `Some(n)` = head sampling keeps one
/// trace in `n`.
const RATES: [Option<u64>; 4] = [None, Some(64), Some(8), Some(1)];

fn rate_label(rate: Option<u64>) -> String {
    match rate {
        None => "off".into(),
        Some(1) => "1/1".into(),
        Some(n) => format!("1/{n}"),
    }
}

fn harness_trace(isps: u32, users_per_isp: u32, days: u64) -> Vec<SendEvent> {
    let traffic = TrafficConfig {
        isps,
        users_per_isp,
        horizon: SimDuration::from_days(days),
        personal_per_user_day: 12.0,
        ..TrafficConfig::default()
    };
    TrafficGenerator::new(traffic).generate(&mut Sampler::new(SEED))
}

fn harness_system(isps: u32, users_per_isp: u32) -> ZmailSystem {
    // Daily billing, bank retries, and the durable WAL store: every
    // span phase the recorder knows — queue, bank_rtt, wal_commit,
    // delivery, ack — is live on this configuration. Low starting
    // balances force auto-topups, which drain the ISP pools below
    // minavail and put real buy/sell bank round-trips on the traces.
    let config = ZmailConfig::builder(isps, users_per_isp)
        .billing_period(SimDuration::from_days(1))
        .bank_retry(Some(SimDuration::from_mins(1)))
        .initial_balance(EPennies(20))
        .avail_bounds(EPennies(100), EPennies(300), EPennies(150))
        .durable()
        .build();
    ZmailSystem::new(config, SEED)
}

/// One full-harness run; returns the report, the drained span log (empty
/// when `rate` is `None`), and the wall clock.
fn run_harness(
    isps: u32,
    users_per_isp: u32,
    trace: &[SendEvent],
    threads: usize,
    rate: Option<u64>,
) -> (RunReport, SpanLog, f64) {
    let mut system = harness_system(isps, users_per_isp);
    let recorder = rate.map(|n| {
        let r = FlightRecorder::new(RING);
        r.set_sampling(n);
        system.attach_flight_recorder(r.clone());
        r
    });
    let start = Instant::now();
    let report = if threads == 1 {
        system.run_trace(trace)
    } else {
        system.run_trace_parallel(trace, threads)
    };
    let wall = start.elapsed().as_secs_f64();
    let log = recorder
        .map(|r| {
            r.finalize(system.now().as_millis());
            r.drain()
        })
        .unwrap_or_default();
    (report, log, wall)
}

/// Sampling-rate overhead on the full protocol harness. Returns
/// `(ok, full-sampling span log)` — the log feeds the attribution view.
fn harness_overhead(isps: u32, users_per_isp: u32, days: u64) -> (bool, SpanLog) {
    let trace = harness_trace(isps, users_per_isp, days);
    println!(
        "recorder overhead: ZmailWorld, {isps} ISPs x {users_per_isp} users, {days} days, \
         daily billing + durable WAL; {} workload sends",
        trace.len()
    );
    let mut table = Table::new(&[
        "sampling",
        "traces",
        "spans",
        "dropped",
        "wall",
        "sends/s",
        "overhead",
        "identical",
    ]);
    let mut ok = true;
    let mut baseline_wall = 0.0;
    let mut reference: Option<RunReport> = None;
    let mut full_log = SpanLog::default();
    for rate in RATES {
        let (report, log, wall) = run_harness(isps, users_per_isp, &trace, 1, rate);
        let same = match &reference {
            None => {
                baseline_wall = wall;
                reference = Some(report);
                true
            }
            Some(r) => *r == report,
        };
        ok &= same && log.validate().is_ok() && log.dropped == 0;
        table.row_owned(vec![
            rate_label(rate),
            log.traces().len().to_string(),
            log.spans.len().to_string(),
            log.dropped.to_string(),
            format!("{wall:.3}s"),
            format!("{:.0}", trace.len() as f64 / wall.max(1e-9)),
            if rate.is_none() {
                "-".into()
            } else {
                format!(
                    "{:+.1}%",
                    100.0 * (wall - baseline_wall) / baseline_wall.max(1e-9)
                )
            },
            if same { "yes" } else { "NO" }.to_string(),
        ]);
        if rate == Some(1) {
            full_log = log;
        }
    }
    println!("{table}");
    println!(
        "(identical = RunReport byte-equal to the untraced baseline, every\n\
         field: the recorder observes, it never steers. Span timestamps\n\
         are sim-clock, so overhead is pure bookkeeping.)\n"
    );
    (ok, full_log)
}

/// Trace determinism: full sampling at 1/2/4/8 stage threads must yield
/// byte-identical span streams and identical `trace.phase.*` metrics.
fn harness_determinism(isps: u32, users_per_isp: u32, days: u64) -> bool {
    let trace = harness_trace(isps, users_per_isp, days);
    let (ref_report, ref_log, _) = run_harness(isps, users_per_isp, &trace, 1, Some(1));
    let ref_metrics = {
        let registry = Registry::new();
        registry.set_enabled(true);
        attribute(&ref_log, &registry);
        registry.snapshot()
    };
    let mut table = Table::new(&[
        "threads",
        "spans",
        "stream identical",
        "phase metrics identical",
    ]);
    let mut ok = true;
    for threads in [1usize, 2, 4, 8] {
        let (report, log, _) = run_harness(isps, users_per_isp, &trace, threads, Some(1));
        let registry = Registry::new();
        registry.set_enabled(true);
        attribute(&log, &registry);
        let streams = log == ref_log && report == ref_report;
        let metrics = registry.snapshot() == ref_metrics;
        ok &= streams && metrics;
        table.row_owned(vec![
            threads.to_string(),
            log.spans.len().to_string(),
            if streams { "yes" } else { "NO" }.to_string(),
            if metrics { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("trace determinism: full sampling, tick-parallel stage threads");
    println!("{table}");
    println!(
        "(the recorder mutates only on the serial apply path, so the span\n\
         stream is a pure function of plan + seed at any thread count.)\n"
    );
    ok
}

/// Sampling-rate overhead on the million-user sharded-ledger world.
fn massive_overhead(users_per_isp: u32, ticks: u32, sends_per_tick: u32) -> bool {
    let cfg = MassiveConfig {
        isps: 10,
        users_per_isp,
        ticks,
        sends_per_tick,
        durability: DurabilityConfig {
            shards: 4,
            ..DurabilityConfig::default()
        },
        ..MassiveConfig::default()
    };
    println!(
        "recorder overhead: MassiveWorld, {} users / {} ISPs, {} sends over {} ticks",
        cfg.users(),
        cfg.isps,
        u64::from(ticks) * u64::from(sends_per_tick),
        ticks
    );
    let mut table = Table::new(&[
        "sampling",
        "traces",
        "spans",
        "wall",
        "ev/s",
        "overhead",
        "identical",
    ]);
    let mut ok = true;
    let mut baseline_wall = 0.0;
    let mut reference = None;
    for rate in RATES {
        let start = Instant::now();
        let (report, log) = match rate {
            None => (MassiveWorld::new(cfg).run(4), SpanLog::default()),
            Some(n) => {
                let recorder = FlightRecorder::new(RING);
                recorder.set_sampling(n);
                let mut world = MassiveWorld::new(cfg);
                world.attach_flight_recorder(recorder.clone());
                let report = world.run(4);
                recorder.finalize(u64::from(ticks) * 1000);
                (report, recorder.drain())
            }
        };
        let wall = start.elapsed().as_secs_f64();
        let same = match &reference {
            None => {
                baseline_wall = wall;
                reference = Some(report);
                true
            }
            Some(r) => *r == report,
        };
        ok &= same && log.validate().is_ok();
        table.row_owned(vec![
            rate_label(rate),
            log.traces().len().to_string(),
            log.spans.len().to_string(),
            format!("{wall:.3}s"),
            format!("{:.0}", report.events as f64 / wall.max(1e-9)),
            if rate.is_none() {
                "-".into()
            } else {
                format!(
                    "{:+.1}%",
                    100.0 * (wall - baseline_wall) / baseline_wall.max(1e-9)
                )
            },
            if same { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "(identical = MassiveReport equal to the untraced run — paid count\n\
         and books CRC included.)\n"
    );
    ok
}

/// The payoff: per-phase latency attribution and the slowest lifecycles.
fn attribution_view(log: &SpanLog) {
    let registry = Registry::new();
    registry.set_enabled(true);
    attribute(log, &registry);
    let snap = registry.snapshot();
    println!("latency attribution (full-sampling harness run, sim-clock ms):");
    let mut table = Table::new(&["phase", "n", "p50", "p99", "p999", "max"]);
    for (name, h) in &snap.histograms {
        if let Some(phase) = name.strip_prefix("trace.phase.") {
            table.row_owned(vec![
                phase.to_string(),
                h.count.to_string(),
                h.p50().unwrap_or(0).to_string(),
                h.p99().unwrap_or(0).to_string(),
                h.p999().unwrap_or(0).to_string(),
                h.max.to_string(),
            ]);
        }
    }
    println!("{table}");
    println!("slowest lifecycles (root-to-last-span wall):");
    for summary in log.slowest_traces(3) {
        let path: Vec<String> = log
            .critical_path(summary.trace)
            .iter()
            .map(|s| format!("{}@{}+{}ms", s.phase, s.node, s.duration()))
            .collect();
        println!(
            "  trace {:016x}  {}ms  {} spans  [{}]  critical path: {}",
            summary.trace,
            summary.duration(),
            summary.spans,
            summary.detail,
            path.join(" -> ")
        );
    }
    println!();
}

fn main() {
    let experiment = Report::new(
        "E19: flight-recorder overhead + cross-thread trace determinism",
        "causal lifecycle tracing is cheap enough to leave on (head sampling makes it a dial, not a switch), never perturbs the run, and emits byte-identical span streams at any thread count",
    );
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (a, full_log, b, c) = if smoke {
        println!("(--smoke: reduced workloads, same code paths)\n");
        let (a, log) = harness_overhead(3, 10, 1);
        let b = harness_determinism(3, 10, 1);
        let c = massive_overhead(1_000, 4, 2_500);
        (a, log, b, c)
    } else {
        let (a, log) = harness_overhead(10, 40, 3);
        let b = harness_determinism(6, 20, 2);
        let c = massive_overhead(20_000, 8, 10_000);
        (a, log, b, c)
    };
    attribution_view(&full_log);
    let ok = a && b && c;
    experiment.finish(
        ok,
        "every traced run identical to its untraced baseline at all sampling rates, and full-sampling span streams + trace.phase.* metrics byte-identical at 1/2/4/8 threads",
    );
    if !ok {
        std::process::exit(1);
    }
}
