//! The simulation workloads, `ledger_1m` and `protocol_attested`.
//!
//! `ledger_1m` drives `MassiveWorld` (10 ISPs × 100k users, 4 shards,
//! checkpoints off) tick by tick through `Simulation::step_tick` with 2
//! stage threads: the store, the shard outbox and the tick-parallel
//! engine, with no sockets and no crypto. `protocol_attested` runs the
//! full protocol in `ZmailSystem` (10 ISPs × 1,000 users, 2 simulated
//! days, daily billing, bank retry, signed attestations, a 4-shard
//! durable ledger) through `run_trace_parallel` with 2 threads.
//!
//! Both repeat fresh-world rounds until the run's time is up. A traced
//! run alternates untraced and traced rounds; only traced rounds enable
//! the global `zmail_obs` registry and attach engine telemetry.

use crate::report::{Outcome, Values};
use crate::stats::{
    goodput_of_rounds, mean, median, peak_rss_mb, quantile, ratio, round_count, setup_of_samples,
    timed_median, HostCpu,
};
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use zmail_core::{
    DurabilityConfig, MassiveConfig, MassiveEvent, MassiveWorld, ZmailConfig, ZmailSystem,
};
use zmail_crypto::{Attestation, KeyPair};
use zmail_econ::EPennies;
use zmail_obs::Snapshot;
use zmail_sim::workload::{SendEvent, TrafficConfig, TrafficGenerator};
use zmail_sim::{Sampler, SimDuration, SimTelemetry, SimTime, Simulation};
use zmail_store::{MemStorage, ShardedLedgerStore, StoreConfig};

/// Stage threads for both simulations.
const THREADS: usize = 2;

fn hist_mean(snap: &Snapshot, name: &str) -> f64 {
    snap.histograms.get(name).map_or(0.0, |h| h.mean())
}

fn hist_quantile(snap: &Snapshot, name: &str, q: f64) -> f64 {
    snap.histograms
        .get(name)
        .and_then(|h| h.quantile(q))
        .map_or(0.0, |v| v as f64)
}

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

/// Staged-in-parallel share of the engine's tick telemetry.
fn staged_share(snap: &Snapshot) -> f64 {
    let parallel = counter(snap, "sim.tick.staged_parallel");
    ratio(parallel, parallel + counter(snap, "sim.tick.staged_inline"))
}

/// The `store` and `shard` layers of a traced round: exact WAL counts
/// from the engine, a recovery report, and the `store.*` / `shard.*`
/// metrics.
fn insert_store_layers(
    layers: &mut Values,
    store: &ShardedLedgerStore<MemStorage>,
    sends: u64,
    snap: &Snapshot,
) {
    let per_send = |n: u64| ratio(n as f64, sends as f64);
    layers.insert("store.wal_bytes_per_send", per_send(store.wal_len()));
    layers.insert("store.records_per_send", per_send(store.records_appended()));
    layers.insert(
        "store.batch_records_p50",
        hist_quantile(snap, "store.batch_records", 0.5),
    );
    layers.insert(
        "store.commit_us_mean",
        hist_mean(snap, "store.commit_micros"),
    );
    layers.insert(
        "store.replayed_records",
        store.simulate_recovery().1.replayed_records() as f64,
    );
    layers.insert(
        "shard.cross_share",
        ratio(
            counter(snap, "shard.cross_shard"),
            counter(snap, "shard.xfers"),
        ),
    );
    layers.insert(
        "shard.xfer_us_p99",
        hist_quantile(snap, "shard.xfer_micros", 0.99),
    );
}

/// One round of either simulation.
#[derive(Debug)]
struct Round {
    setup_s: f64,
    run_s: f64,
    /// Settled sends per second of the run.
    goodput: f64,
    /// Wall µs per settled send, one sample per settle batch.
    settle_us: Vec<f64>,
    recovery_s: f64,
    layers: Values,
}

/// Makes `rounds` calls of `round(index, traced)` (a traced run
/// alternates untraced and traced rounds) and folds them into end-to-end
/// and per-layer values.
fn repeat(
    rounds: u64,
    traced: bool,
    extra_setups: &mut Vec<f64>,
    mut round: impl FnMut(u64, bool, &mut Outcome) -> Round,
) -> Outcome {
    let mut out = Outcome::default();
    let (mut plain, mut probed) = (Vec::new(), Vec::new());
    for index in 0..rounds {
        let traced_round = traced && index % 2 == 1;
        zmail_obs::global().set_enabled(traced_round);
        let host = HostCpu::now();
        let r = round(index, traced_round, &mut out);
        zmail_obs::global().set_enabled(false);
        if index == 0 {
            out.end_to_end.insert("peak_rss_mb", peak_rss_mb());
        }
        out.note(format!(
            "round {index}{}: run {:.3} s, goodput {:.1} sends/s, recovery {:.3} s, host steal {:.1}%",
            if traced_round { " (traced)" } else { "" },
            r.run_s,
            r.goodput,
            r.recovery_s,
            100.0 * HostCpu::now().steal_since(host)
        ));
        if traced_round {
            probed.push(r);
        } else {
            extra_setups.push(r.setup_s);
            plain.push(r);
        }
    }
    let goodput = goodput_of_rounds(&plain.iter().map(|r| r.goodput).collect::<Vec<_>>());
    let mut settle: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.settle_us.iter().copied())
        .collect();
    let setup_s = setup_of_samples(extra_setups, &mut out);
    out.end_to_end.insert("setup_s", setup_s);
    out.end_to_end.insert("goodput_msg_s", goodput);
    out.end_to_end
        .insert("accept_p10_us", quantile(&mut settle, 0.10));
    out.end_to_end.insert(
        "recovery_s",
        median(&plain.iter().map(|r| r.recovery_s).collect::<Vec<_>>()),
    );
    out.note(format!(
        "{} untraced rounds: run {:.3} s median, settle cost p10 {:.3} us/send, p50 {:.3} us/send over {} batches",
        plain.len(),
        median(&plain.iter().map(|r| r.run_s).collect::<Vec<_>>()),
        quantile(&mut settle, 0.10),
        quantile(&mut settle, 0.5),
        settle.len()
    ));
    if traced {
        let rounds: Vec<(&Values, f64)> = probed.iter().map(|r| (&r.layers, r.goodput)).collect();
        out.fold_traced(&rounds, goodput);
    }
    out
}

/// The size of a `ledger_1m` run.
#[derive(Debug, Clone, Copy)]
pub struct LedgerShape {
    pub users_per_isp: u32,
    pub ticks: u32,
    pub sends_per_tick: u32,
}

impl LedgerShape {
    pub fn full() -> LedgerShape {
        LedgerShape {
            users_per_isp: 100_000,
            ticks: 10,
            sends_per_tick: 20_000,
        }
    }

    pub fn tiny() -> LedgerShape {
        LedgerShape {
            users_per_isp: 1_000,
            ticks: 3,
            sends_per_tick: 500,
        }
    }

    fn config(self, seed: u64) -> MassiveConfig {
        MassiveConfig {
            isps: 10,
            users_per_isp: self.users_per_isp,
            ticks: self.ticks,
            sends_per_tick: self.sends_per_tick,
            durability: DurabilityConfig {
                // Checkpoints off: recovery replays the whole WAL.
                store: StoreConfig {
                    batch_records: 256,
                    checkpoint_every: u64::MAX,
                },
                shards: 4,
            },
            seed,
            ..MassiveConfig::default()
        }
    }
}

/// `MassiveWorld::new` plus scheduling every send and tick commit.
fn massive_sim(config: &MassiveConfig) -> Simulation<MassiveWorld> {
    let mut sim = Simulation::new(MassiveWorld::new(*config));
    for tick in 0..config.ticks {
        let at = SimTime::ZERO + SimDuration::from_secs(u64::from(tick));
        for i in 0..config.sends_per_tick {
            sim.schedule(
                at,
                MassiveEvent::Send(MassiveWorld::send_at(config, tick, i)),
            );
        }
        sim.schedule(at, MassiveEvent::TickCommit);
    }
    sim
}

pub fn ledger(shape: LedgerShape, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let registry = zmail_obs::global();
    let mut setups = Vec::new();
    let rounds = round_count(seconds, 1.2, traced);
    repeat(rounds, traced, &mut setups, |index, traced_round, out| {
        let config = shape.config(seed.wrapping_add(index));
        let sends = u64::from(config.ticks) * u64::from(config.sends_per_tick);
        let t = Instant::now();
        let mut sim = massive_sim(&config);
        let setup_s = t.elapsed().as_secs_f64();
        if traced_round {
            sim.attach_telemetry(SimTelemetry::new(registry));
            registry.reset();
        }
        let mut ticks = Vec::new();
        let started = Instant::now();
        loop {
            let t = Instant::now();
            if !sim.step_tick(THREADS) {
                break;
            }
            ticks.push(t.elapsed().as_secs_f64());
        }
        let run_s = started.elapsed().as_secs_f64();
        let snap = registry.snapshot();
        let world = sim.into_world();
        let report = *world.report();

        out.gate("ledger_1m: zero-sum audit", world.audit().is_ok());
        let t = Instant::now();
        let recovered = world.verify_recovery();
        let recovery_s = t.elapsed().as_secs_f64();
        out.gate("ledger_1m: verify_recovery()", recovered);
        let settled = report.paid + report.bounced_balance + report.bounced_limit;
        out.gate("ledger_1m: paid + bounced == scheduled", settled == sends);
        out.attempted += sends;
        out.failed += sends.saturating_sub(settled);

        let mut layers = Values::new();
        if traced_round {
            insert_store_layers(&mut layers, world.store(), sends, &snap);
            layers.insert("sim.tick_ms_mean", 1e3 * mean(&ticks));
            layers.insert("sim.staged_parallel_share", staged_share(&snap));
        }
        let per_tick = f64::from(config.sends_per_tick);
        Round {
            setup_s,
            run_s,
            goodput: report.paid as f64 / run_s,
            settle_us: ticks.iter().map(|s| s * 1e6 / per_tick).collect(),
            recovery_s,
            layers,
        }
    })
}

/// The size of a `protocol_attested` run.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolShape {
    pub users_per_isp: u32,
    pub days: u64,
}

impl ProtocolShape {
    pub fn full() -> ProtocolShape {
        ProtocolShape {
            users_per_isp: 1_000,
            days: 2,
        }
    }

    pub fn tiny() -> ProtocolShape {
        ProtocolShape {
            users_per_isp: 50,
            days: 2,
        }
    }

    fn trace(self, seed: u64) -> Vec<SendEvent> {
        let traffic = TrafficConfig {
            isps: 10,
            users_per_isp: self.users_per_isp,
            horizon: SimDuration::from_days(self.days),
            personal_per_user_day: 12.0,
            ..TrafficConfig::default()
        };
        TrafficGenerator::new(traffic).generate(&mut Sampler::new(seed))
    }

    /// Low starting balances force auto top-ups, which drain the ISP
    /// pools below `minavail` and put real buy/sell exchanges with the
    /// bank on the run. Bank retries reuse their request id: with fresh
    /// nonces instead, `audit()` fails on some seeds (2 and 3) with 200
    /// e-pennies issued but found nowhere.
    fn config(self) -> ZmailConfig {
        ZmailConfig::builder(10, self.users_per_isp)
            .billing_period(SimDuration::from_days(1))
            .bank_retry(Some(SimDuration::from_mins(1)))
            .idempotent_bank_ids(true)
            .initial_balance(EPennies(20))
            .avail_bounds(EPennies(100), EPennies(300), EPennies(150))
            .sharded(4)
            .attestations()
            .build()
    }
}

/// Extra `ZmailSystem::new` calls per run, so `setup_s` is a median of
/// many.
const EXTRA_SETUPS: usize = 200;

/// Mean µs of `Attestation::sign` and `verify` on fixed inputs.
fn attestation_cost(seed: u64, iterations: u64) -> (f64, f64) {
    let keys = KeyPair::generate(&mut rand::rngs::SmallRng::seed_from_u64(seed));
    let t = Instant::now();
    let signed: Vec<Attestation> = (0..iterations)
        .map(|n| black_box(Attestation::sign(keys.private(), 1, 2, 3, 4, 1, n, None)))
        .collect();
    let sign_us = t.elapsed().as_secs_f64() * 1e6 / iterations as f64;
    let t = Instant::now();
    let valid = signed
        .iter()
        .filter(|a| black_box(a.verify(keys.public())).is_ok())
        .count();
    let verify_us = t.elapsed().as_secs_f64() * 1e6 / iterations as f64;
    assert_eq!(
        valid as u64, iterations,
        "a fresh attestation failed to verify"
    );
    (sign_us, verify_us)
}

pub fn protocol(shape: ProtocolShape, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let registry = zmail_obs::global();
    let config = shape.config();
    let mut setups: Vec<f64> = (0..EXTRA_SETUPS)
        .map(|_| {
            let t = Instant::now();
            let system = ZmailSystem::new(config.clone(), seed);
            let s = t.elapsed().as_secs_f64();
            drop(black_box(system));
            s
        })
        .collect();
    let crypto = traced.then(|| attestation_cost(seed, 20_000));
    let rounds = round_count(seconds, 5.0, traced);
    repeat(rounds, traced, &mut setups, |index, traced_round, out| {
        let round_seed = seed.wrapping_add(index);
        let trace = shape.trace(round_seed);
        let sends = trace.len() as u64;
        let t = Instant::now();
        let mut system = ZmailSystem::new(config.clone(), round_seed);
        let setup_s = t.elapsed().as_secs_f64();
        if traced_round {
            system.attach_telemetry(SimTelemetry::new(registry));
            registry.reset();
        }
        let started = Instant::now();
        let report = system.run_trace_parallel(&trace, THREADS);
        let run_s = started.elapsed().as_secs_f64();
        let snap = registry.snapshot();

        let audit = system.audit();
        if let Err(e) = &audit {
            out.note(format!("protocol_attested audit error: {e:?}"));
        }
        out.gate("protocol_attested: audit()", audit.is_ok());
        let (durable, recovery_s) = timed_median(|| system.verify_durable_books());
        out.gate(
            "protocol_attested: verify_durable_books() == Some(true)",
            durable == Some(true),
        );
        // A send settles as a delivery or a drop, or a §4.1 guard refuses it.
        let settled = report.delivered_total()
            + report.dropped_total()
            + report.bounced_balance
            + report.bounced_limit;
        out.gate(
            "protocol_attested: settled + refused == sends",
            settled == sends,
        );
        out.attempted += sends;
        out.failed += sends.saturating_sub(settled);

        let mut layers = Values::new();
        if traced_round {
            let store = system.sharded_store().expect("durable ledger configured");
            let (sign_us, verify_us) = crypto.expect("measured for traced runs");
            let paid = report.paid_deliveries as f64;
            let share = ratio((sign_us + verify_us) * paid, run_s * 1e6);
            out.note(format!(
                "crypto share estimate {share:.3} = ({sign_us:.3} + {verify_us:.3}) us x {paid} paid sends / {run_s:.3} s run"
            ));
            insert_store_layers(&mut layers, store, sends, &snap);
            let ticks = snap.histograms.get("sim.tick.batch").map_or(0, |h| h.count);
            layers.insert("sim.tick_ms_mean", ratio(run_s * 1e3, ticks as f64));
            layers.insert("sim.staged_parallel_share", staged_share(&snap));
            layers.insert("crypto.sign_us", sign_us);
            layers.insert("crypto.verify_us", verify_us);
            layers.insert("crypto.share_est", share);
            let roundtrips = counter(&snap, "core.bank.buy_roundtrips")
                + counter(&snap, "core.bank.sell_roundtrips");
            layers.insert(
                "bank.roundtrips_per_1k_sends",
                ratio(roundtrips * 1e3, sends as f64),
            );
            layers.insert(
                "bank.snapshot_rounds",
                counter(&snap, "core.snapshot.rounds"),
            );
        }
        Round {
            setup_s,
            run_s,
            goodput: sends as f64 / run_s,
            settle_us: vec![run_s * 1e6 / sends as f64],
            recovery_s,
            layers,
        }
    })
}
