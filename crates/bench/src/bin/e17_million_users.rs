//! E17 — Population scale: 1M users across 10+ ISPs on the sharded
//! ledger with tick-parallel execution.
//!
//! The paper's free-market argument is about *populations* — spam dies
//! because millions of receivers are each owed one e-penny — but every
//! experiment so far topped out in the low thousands of users. E17 runs
//! the money mechanics at the paper's intended scale:
//!
//! * **Sharding.** Accounts hash across N independent `zmail-store`
//!   engines (own WAL, own group commit, own checkpoints); cross-shard
//!   sends run the two-phase prepare/apply/release protocol.
//!
//! The grid sweeps threads × shards over the full 1M-user population
//! and reports events/s, cross-shard share, p99 two-phase transfer
//! latency, WAL group-commit batch sizes, and the exact zero-sum audit
//! (`MassiveWorld::run` additionally recovers every shard and asserts the
//! recovered books match the live ones, so each completed row *is* a
//! passed durability audit).
//!
//! Modes: `--smoke` shrinks the grid to a seconds-scale CI gate over
//! the same code paths; `--equivalence` is the determinism gate —
//! serial and parallel runs of one seed must produce identical reports
//! (process exits non-zero on any mismatch).

use std::time::Instant;
use zmail_bench::Report;
use zmail_core::{DurabilityConfig, MassiveConfig, MassiveReport, MassiveWorld};
use zmail_obs::HistogramSnapshot;
use zmail_sim::Table;
use zmail_store::StoreConfig;

/// Subtracts an earlier cumulative snapshot from a later one, giving
/// the histogram of just the observations in between. (The global
/// registry accumulates across runs; the grid wants per-run tails.)
fn delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut buckets: std::collections::BTreeMap<u64, u64> = after.buckets.iter().copied().collect();
    for &(lower, n) in &before.buckets {
        let slot = buckets.entry(lower).or_insert(0);
        *slot = slot.saturating_sub(n);
    }
    HistogramSnapshot {
        count: after.count - before.count,
        sum: after.sum.wrapping_sub(before.sum),
        min: after.min,
        max: after.max,
        buckets: buckets.into_iter().filter(|&(_, n)| n > 0).collect(),
    }
}

fn config(users_per_isp: u32, ticks: u32, sends_per_tick: u32, shards: u32) -> MassiveConfig {
    MassiveConfig {
        isps: 10,
        users_per_isp,
        ticks,
        sends_per_tick,
        durability: DurabilityConfig {
            // Group commit amortizes the per-record sync; checkpoints
            // are off so recovery (asserted inside MassiveWorld::run) replays
            // the whole WAL — the worst case, priced honestly.
            store: StoreConfig {
                batch_records: 256,
                checkpoint_every: u64::MAX,
            },
            shards,
        },
        ..MassiveConfig::default()
    }
}

/// One grid cell: runs the config, returns (report, wall seconds, p99
/// cross-shard transfer µs, median group-commit batch).
fn cell(cfg: &MassiveConfig, threads: usize) -> (MassiveReport, f64, Option<u64>, Option<u64>) {
    let registry = zmail_obs::global();
    let xfer_before = registry.histogram("shard.xfer_micros").snapshot();
    let batch_before = registry.histogram("store.batch_records").snapshot();
    let start = Instant::now();
    let report = MassiveWorld::new(*cfg).run(threads);
    let wall = start.elapsed().as_secs_f64();
    let xfer = delta(
        &registry.histogram("shard.xfer_micros").snapshot(),
        &xfer_before,
    );
    let batch = delta(
        &registry.histogram("store.batch_records").snapshot(),
        &batch_before,
    );
    (report, wall, xfer.p99(), batch.p50())
}

fn grid(users_per_isp: u32, ticks: u32, sends_per_tick: u32, threads: &[usize], shards: &[u32]) {
    let cfg0 = config(users_per_isp, ticks, sends_per_tick, shards[0]);
    println!(
        "population: {} users across {} ISPs; {} sends over {} ticks",
        cfg0.users(),
        cfg0.isps,
        u64::from(ticks) * u64::from(sends_per_tick),
        ticks,
    );
    println!(
        "host parallelism: {} hardware thread(s)\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut table = Table::new(&[
        "shards",
        "threads",
        "events/s",
        "wall",
        "paid",
        "x-shard",
        "xfer p99",
        "batch p50",
        "audit",
    ]);
    let mut identical = true;
    for &s in shards {
        let cfg = config(users_per_isp, ticks, sends_per_tick, s);
        let mut reference: Option<MassiveReport> = None;
        for &t in threads {
            let (report, wall, xfer_p99, batch_p50) = cell(&cfg, t);
            // Same seed, same shard count → the report must be
            // byte-identical at every thread count.
            identical &= *reference.get_or_insert(report) == report;
            let share = if report.paid == 0 {
                0.0
            } else {
                100.0 * report.cross_shard as f64 / report.paid as f64
            };
            table.row_owned(vec![
                s.to_string(),
                t.to_string(),
                format!("{:.0}", report.events as f64 / wall.max(1e-9)),
                format!("{wall:.2}s"),
                report.paid.to_string(),
                format!("{share:.1}%"),
                xfer_p99.map_or_else(|| "-".into(), |v| format!("{v}µs")),
                batch_p50.map_or_else(|| "-".into(), |v| v.to_string()),
                "exact".to_string(), // MassiveWorld::run panics on any drift
            ]);
        }
    }
    println!("{table}");
    println!(
        "(xfer p99 is the two-phase cross-shard transfer latency from\n\
         shard.xfer_micros; batch p50 the store.batch_records group-commit\n\
         size; 1 shard has no cross-shard traffic, hence \"-\". audit =\n\
         exact means every minted e-penny was found on the merged books\n\
         and recovery reproduced them, both asserted inside the run.)\n"
    );
    assert!(identical, "thread count changed a report — determinism bug");
}

/// The CI determinism gate: serial vs. parallel runs of one seed must
/// produce identical reports, and shard count must change WAL layout
/// only, never the economics. Exits non-zero on any divergence.
fn equivalence() -> bool {
    let mut ok = true;
    let cfg = config(200, 4, 1_500, 4);
    let reference = MassiveWorld::new(cfg).run(1);
    for threads in [2, 4, 8, 0] {
        let report = MassiveWorld::new(cfg).run(threads);
        let same = report == reference;
        println!(
            "threads {threads:>2} vs serial: {}",
            if same { "identical" } else { "DIVERGED" }
        );
        ok &= same;
    }
    let one = MassiveWorld::new(config(200, 4, 1_500, 1)).run(2);
    for shards in [4, 16] {
        let many = MassiveWorld::new(config(200, 4, 1_500, shards)).run(2);
        let same = (many.paid, many.books_crc) == (one.paid, one.books_crc);
        println!(
            "shards {shards:>2} vs 1: books {}",
            if same { "identical" } else { "DIVERGED" }
        );
        ok &= same;
    }
    ok
}

fn main() {
    let experiment = Report::new(
        "E17: 1M users / 10 ISPs — sharded ledger, tick-parallel engine",
        "the zero-sum economy holds penny-for-penny at population scale: sharded WALs with two-phase cross-shard transfers conserve every minted e-penny, and parallel execution is byte-identical to serial",
    );
    // The grid needs the shard.* / store.* histograms regardless of the
    // --metrics flag.
    zmail_obs::global().set_enabled(true);
    let smoke = std::env::args().any(|a| a == "--smoke");
    if std::env::args().any(|a| a == "--equivalence") {
        let ok = equivalence();
        experiment.finish(
            ok,
            "reports are byte-identical across thread counts and economics are shard-count-invariant",
        );
        if !ok {
            std::process::exit(1);
        }
        return;
    }
    if smoke {
        println!("(--smoke: 10k users, reduced grid, same code paths)\n");
        grid(1_000, 4, 2_500, &[1, 2], &[1, 4]);
    } else {
        grid(100_000, 10, 20_000, &[1, 2, 4, 8], &[1, 4, 16]);
    }
    experiment.finish(
        true,
        "every cell conserved the minted supply exactly, recovered books matched live books on all shards, and reports were thread-count-invariant",
    );
}
