//! Population-scale deployments over the sharded ledger engine (E17).
//!
//! The paper's economics are aggregate effects — zero-sum conservation,
//! zombie bankruptcy, spammer starvation only *mean* anything over large
//! populations — but the full protocol world in [`crate::system`] models
//! every network message and tops out in the low thousands of users.
//! This module is the scale harness: a stripped-down send/receive world
//! that keeps exactly the paper's money mechanics (every email moves one
//! e-penny from sender to receiver, balances and limits enforced, every
//! mutation journaled durably) while dropping per-message protocol
//! chrome, so 1M+ users across 10+ ISPs fit in one run.
//!
//! # The shard map
//!
//! Accounts are distributed over N independent
//! [`ShardedLedgerStore`] engines by the stable FNV-1a account hash
//! ([`stable_account_hash`](zmail_store::stable_account_hash)): shard
//! `hash(isp, user) % N` owns a user's balance row, holds it in its own
//! WAL with group commit, and checkpoints it on its own cadence. Each
//! ISP's pool and each bank's books likewise get a single owner shard.
//! A send whose sender and receiver live on the same shard journals the
//! usual charge/deposit pair; a cross-shard send runs the two-phase
//! transfer (prepare on the sender's shard, apply on the receiver's,
//! release closing the outbox entry), so the zero-sum audit balances
//! penny-for-penny at any shard count and across crashes.
//!
//! # Parallel-within-tick
//!
//! [`MassiveWorld`] implements [`ParallelWorld`]: an event's footprint
//! is the pair of shards its sender and receiver live on, and its apply
//! phase runs the §4.1 guard and moves the penny. The stage phase is
//! empty: this world has no per-message work outside the ledger. The
//! footprints still drive the engine's batching and the race checker,
//! and everything applies serially in FIFO order, so a run is
//! byte-identical at any thread count — which `scripts/ci.sh` pins with
//! the E17 equivalence gate.

use crate::config::DurabilityConfig;
use crate::isp::{send_guard, SendError};
use zmail_obs::{FlightRecorder, SpanStatus};
use zmail_sim::racecheck::{AccessRecorder, CheckedWorld, RacecheckReport, RecordedWorld};
use zmail_sim::{ParallelWorld, Scheduler, SimDuration, SimTime, Simulation, World};
use zmail_store::{
    BankBooks, Books, IspBooks, MemStorage, ShardedLedgerStore, UserBooks, XferKind, XferLeg,
};

/// Racecheck access class of the sharded ledger engines.
const CLASS_SHARD: &str = "shard";

/// Parameters of a population-scale run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MassiveConfig {
    /// Number of ISPs.
    pub isps: u32,
    /// Users per ISP.
    pub users_per_isp: u32,
    /// Simulated ticks (one tick = one second of virtual time).
    pub ticks: u32,
    /// Send events scheduled per tick.
    pub sends_per_tick: u32,
    /// Initial e-penny balance per user.
    pub initial_balance: i64,
    /// Per-user daily send limit.
    pub daily_limit: u32,
    /// Ledger durability: shard count and WAL group-commit tuning.
    pub durability: DurabilityConfig,
    /// Workload seed (sender/receiver pairs derive from it).
    pub seed: u64,
}

impl Default for MassiveConfig {
    fn default() -> Self {
        MassiveConfig {
            isps: 10,
            users_per_isp: 1_000,
            ticks: 10,
            sends_per_tick: 1_000,
            initial_balance: 100,
            daily_limit: u32::MAX,
            durability: DurabilityConfig::default(),
            seed: 1,
        }
    }
}

impl MassiveConfig {
    /// Total user population.
    pub fn users(&self) -> u64 {
        u64::from(self.isps) * u64::from(self.users_per_isp)
    }

    /// Total e-pennies minted at bootstrap (the conserved quantity).
    pub fn minted(&self) -> i64 {
        self.users() as i64 * self.initial_balance
    }

    /// The global bootstrap books: every user at `initial_balance`,
    /// empty pools, no banks (nothing issues or retires pennies here,
    /// so conservation is exact equality against [`MassiveConfig::minted`]).
    pub fn bootstrap(&self) -> Books {
        Books {
            isps: (0..self.isps)
                .map(|_| IspBooks {
                    users: vec![
                        UserBooks {
                            account: 0,
                            balance: self.initial_balance,
                            sent_today: 0,
                            limit: self.daily_limit,
                        };
                        self.users_per_isp as usize
                    ],
                    avail: 0,
                    credit: Vec::new(),
                    nonces: Vec::new(),
                })
                .collect(),
            banks: Vec::<BankBooks>::new(),
        }
    }
}

/// One event: a user attempts to email another user.
#[derive(Debug, Clone, Copy)]
pub struct SendMail {
    /// Sender's ISP.
    pub from_isp: u32,
    /// Sender's user index within the ISP.
    pub from_user: u32,
    /// Receiver's ISP.
    pub to_isp: u32,
    /// Receiver's user index within the ISP.
    pub to_user: u32,
}

/// Outcome tallies of a population-scale run. Pure simulation state —
/// no wall-clock, no thread-count dependence — so serial and parallel
/// runs of one seed must produce `==` reports (the CI equivalence gate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MassiveReport {
    /// Events processed.
    pub events: u64,
    /// Sends that paid and delivered.
    pub paid: u64,
    /// Sends refused: sender balance exhausted.
    pub bounced_balance: u64,
    /// Sends refused: sender hit the daily limit.
    pub bounced_limit: u64,
    /// Paid sends whose debit and credit crossed shards (two-phase).
    pub cross_shard: u64,
    /// Paid sends settled within one shard.
    pub same_shard: u64,
    /// CRC32 of the merged books' canonical encoding at run end.
    pub books_crc: u32,
}

/// The population-scale world: a sharded durable ledger plus counters.
#[derive(Debug)]
pub struct MassiveWorld {
    config: MassiveConfig,
    store: ShardedLedgerStore<MemStorage>,
    report: MassiveReport,
    /// Footprint-racecheck access recorder: disabled (a no-op) in
    /// production runs, swapped for an armed one by
    /// [`RecordedWorld::recorded_apply`].
    recorder: AccessRecorder,
    /// Causal flight recorder (disabled by default): each send mints a
    /// lifecycle root closed in the same apply — this world has no
    /// multi-hop protocol, so a trace is a single annotated span. All
    /// span mutation happens in `apply`, keeping the stream
    /// byte-identical at any thread count.
    flight: FlightRecorder,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl MassiveWorld {
    /// Opens the sharded store over fresh backends and zeroed counters.
    pub fn new(config: MassiveConfig) -> Self {
        let storages = (0..config.durability.shards.max(1))
            .map(|_| MemStorage::new())
            .collect();
        let (store, _) =
            ShardedLedgerStore::open(storages, config.durability.store, config.bootstrap());
        MassiveWorld {
            config,
            store,
            report: MassiveReport::default(),
            recorder: AccessRecorder::disabled(),
            flight: FlightRecorder::disabled(1),
        }
    }

    /// Installs a causal flight recorder; see the field docs for the
    /// span shape at this scale.
    pub fn attach_flight_recorder(&mut self, recorder: FlightRecorder) {
        self.flight = recorder;
    }

    /// The deterministic send scheduled as event `i` of tick `tick`.
    pub fn send_at(config: &MassiveConfig, tick: u32, i: u32) -> SendMail {
        let users = u64::from(config.users_per_isp);
        let isps = u64::from(config.isps);
        let a = splitmix(
            config
                .seed
                .wrapping_add(u64::from(tick).wrapping_mul(0x0100_0000_01b3))
                .wrapping_add(u64::from(i)),
        );
        let b = splitmix(a);
        let from = a % (isps * users);
        let mut to = b % (isps * users);
        if to == from {
            to = (to + 1) % (isps * users);
        }
        SendMail {
            from_isp: (from / users) as u32,
            from_user: (from % users) as u32,
            to_isp: (to / users) as u32,
            to_user: (to % users) as u32,
        }
    }

    /// The run's outcome so far.
    pub fn report(&self) -> &MassiveReport {
        &self.report
    }

    /// The underlying sharded engine.
    pub fn store(&self) -> &ShardedLedgerStore<MemStorage> {
        &self.store
    }

    /// Exact zero-sum audit: every e-penny minted at bootstrap is still
    /// on the merged books — no drift at any shard or thread count.
    pub fn audit(&self) -> Result<(), String> {
        let found = self.store.books().epennies_found();
        let minted = self.config.minted();
        if found == minted {
            Ok(())
        } else {
            Err(format!(
                "conservation violated: minted {minted}, found {found} (drift {})",
                found - minted
            ))
        }
    }

    /// The "books survive a crash" audit at scale: recovery over every
    /// shard (including in-doubt transfer resolution) must reproduce
    /// the live merged books exactly.
    pub fn verify_recovery(&self) -> bool {
        let (recovered, _) = self.store.simulate_recovery();
        recovered == self.store.books()
    }

    /// Runs this world's workload with `threads` stage workers (0 = all
    /// cores, 1 = serial) and returns the settled report. A caller that
    /// attached a flight recorder keeps a clone to `finalize` and `drain`.
    ///
    /// # Panics
    ///
    /// Panics if the zero-sum audit or the recovery audit fails.
    pub fn run(self, threads: usize) -> MassiveReport {
        let config = self.config;
        settle(self, &config, threads, |world| (world, ())).0
    }

    /// [`MassiveWorld::run`] under the armed footprint race checker: the
    /// same workload runs through a [`CheckedWorld`] adapter that records
    /// every shard access and diffs it against the declared footprints.
    /// Returns both reports; the racecheck report must be clean (it is —
    /// the shard footprints are exact, which
    /// `crates/core/tests/massive_racecheck.rs` pins down with randomized
    /// schedules and a mutation test).
    ///
    /// # Panics
    ///
    /// Panics if the zero-sum audit or the recovery audit fails.
    pub fn run_checked(self, threads: usize) -> (MassiveReport, RacecheckReport) {
        let config = self.config;
        settle(CheckedWorld::armed(self), &config, threads, |checked| {
            let racecheck = checked.report();
            (checked.into_inner(), racecheck)
        })
    }
}

/// The one run path of plain, traced and checked runs: schedules the
/// `ticks × sends_per_tick` sends plus a per-tick commit, runs them
/// tick-parallel, takes the [`MassiveWorld`] out with `unwrap`, asserts
/// the exact zero-sum audit and recovery equal to the live books, then
/// commits every shard and seals the books CRC.
fn settle<W, R>(
    world: W,
    config: &MassiveConfig,
    threads: usize,
    unwrap: impl FnOnce(W) -> (MassiveWorld, R),
) -> (MassiveReport, R)
where
    W: ParallelWorld<Event = MassiveEvent> + Sync,
{
    let mut sim = Simulation::new(world);
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
    sim.run_parallel_to_completion(threads);
    let (mut world, extra) = unwrap(sim.into_world());
    world.audit().expect("zero-sum audit must balance exactly");
    assert!(
        world.verify_recovery(),
        "recovered books must match live books"
    );
    world.store.commit_all();
    let encoded = world.store.books().encode();
    world.report.books_crc = zmail_store::wal::crc32(&encoded);
    (world.report, extra)
}

impl World for MassiveWorld {
    type Event = MassiveEvent;

    fn handle(
        &mut self,
        now: SimTime,
        event: MassiveEvent,
        scheduler: &mut Scheduler<'_, MassiveEvent>,
    ) {
        self.apply(now, event, (), scheduler);
    }

    fn event_label(event: &MassiveEvent) -> &'static str {
        match event {
            MassiveEvent::Send(_) => "send",
            MassiveEvent::TickCommit => "tick_commit",
        }
    }
}

/// Events of the population-scale world.
#[derive(Debug, Clone, Copy)]
pub enum MassiveEvent {
    /// A user attempts a send.
    Send(SendMail),
    /// End of tick: group-commit every shard (scheduled after the
    /// tick's sends, so recovered books land on tick boundaries).
    TickCommit,
}

impl ParallelWorld for MassiveWorld {
    type Effect = ();

    fn footprint(&self, event: &MassiveEvent, keys: &mut Vec<u64>) {
        match event {
            MassiveEvent::Send(send) => {
                let map = self.store.map();
                keys.push(u64::from(map.user_shard(send.from_isp, send.from_user)));
                keys.push(u64::from(map.user_shard(send.to_isp, send.to_user)));
            }
            MassiveEvent::TickCommit => {
                // Touches every shard: conflicts with everything, so it
                // stages inline and applies in order.
                keys.extend(0..self.store.shard_count() as u64);
            }
        }
    }

    fn stage(&self, _now: SimTime, _event: &MassiveEvent) {}

    fn apply(
        &mut self,
        now: SimTime,
        event: MassiveEvent,
        _effect: (),
        _scheduler: &mut Scheduler<'_, MassiveEvent>,
    ) {
        self.report.events += 1;
        let send = match event {
            MassiveEvent::Send(send) => send,
            MassiveEvent::TickCommit => {
                for shard in 0..self.store.shard_count() as u64 {
                    self.recorder.write(CLASS_SHARD, shard);
                }
                self.store.commit_all();
                return;
            }
        };
        let ms = now.as_millis();
        let lifecycle = self.flight.begin_trace(ms, "submit", "massive", "");
        if let Some(ctx) = lifecycle {
            self.flight.annotate(
                ctx,
                &format!(
                    "{}:{}->{}:{}",
                    send.from_isp, send.from_user, send.to_isp, send.to_user
                ),
            );
        }
        let from_shard = u64::from(self.store.map().user_shard(send.from_isp, send.from_user));
        let to_shard = u64::from(self.store.map().user_shard(send.to_isp, send.to_user));
        self.recorder.read(CLASS_SHARD, from_shard);
        let sender = self.store.user(send.from_isp, send.from_user);
        if let Err(refusal) = send_guard(sender.balance, sender.sent_today, sender.limit, 1) {
            let note = match refusal {
                SendError::InsufficientBalance => {
                    self.report.bounced_balance += 1;
                    "bounced=balance"
                }
                SendError::DailyLimitExceeded => {
                    self.report.bounced_limit += 1;
                    "bounced=limit"
                }
            };
            if let Some(ctx) = lifecycle {
                self.flight.annotate(ctx, note);
                self.flight.end_with(ms, ctx, SpanStatus::Dropped);
            }
            return;
        }
        if from_shard == to_shard {
            self.report.same_shard += 1;
        } else {
            self.report.cross_shard += 1;
        }
        self.recorder.write(CLASS_SHARD, from_shard);
        self.recorder.write(CLASS_SHARD, to_shard);
        self.store.transfer(
            XferLeg {
                kind: XferKind::Charge,
                isp: send.from_isp,
                user: send.from_user,
                amount: 0,
            },
            XferLeg {
                kind: XferKind::Deposit,
                isp: send.to_isp,
                user: send.to_user,
                amount: 0,
            },
        );
        self.report.paid += 1;
        if let Some(ctx) = lifecycle {
            self.flight.end(ms, ctx);
        }
    }
}

impl RecordedWorld for MassiveWorld {
    // The stage is empty, so it reads nothing to record.
    fn recorded_stage(&self, _now: SimTime, _event: &MassiveEvent, _rec: &mut AccessRecorder) {}

    fn recorded_apply(
        &mut self,
        now: SimTime,
        event: MassiveEvent,
        _effect: (),
        scheduler: &mut Scheduler<'_, MassiveEvent>,
        rec: &mut AccessRecorder,
    ) {
        std::mem::swap(&mut self.recorder, rec);
        self.apply(now, event, (), scheduler);
        std::mem::swap(&mut self.recorder, rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(shards: u32) -> MassiveConfig {
        MassiveConfig {
            isps: 4,
            users_per_isp: 50,
            ticks: 4,
            sends_per_tick: 200,
            durability: DurabilityConfig {
                shards,
                ..DurabilityConfig::default()
            },
            ..MassiveConfig::default()
        }
    }

    #[test]
    fn reports_are_identical_at_every_thread_count() {
        let config = small(4);
        let reference = MassiveWorld::new(config).run(1);
        assert_eq!(reference.events, 4 * 200 + 4);
        assert!(reference.paid > 0);
        assert!(reference.cross_shard > 0, "workload must cross shards");
        for threads in [2, 4, 8, 0] {
            assert_eq!(
                MassiveWorld::new(config).run(threads),
                reference,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn shard_count_changes_wal_layout_not_economics() {
        let one = MassiveWorld::new(small(1)).run(2);
        for shards in [4, 16] {
            let many = MassiveWorld::new(small(shards)).run(2);
            assert_eq!(many.paid, one.paid);
            assert_eq!(many.bounced_balance, one.bounced_balance);
            assert_eq!(many.bounced_limit, one.bounced_limit);
            assert_eq!(
                many.books_crc, one.books_crc,
                "merged books must be identical at {shards} shards"
            );
            assert_eq!(many.cross_shard + many.same_shard, one.paid);
        }
        assert_eq!(one.cross_shard, 0, "one shard cannot cross shards");
    }

    #[test]
    fn checked_run_is_clean_and_matches_unchecked() {
        let config = small(4);
        let reference = MassiveWorld::new(config).run(2);
        for threads in [1, 4] {
            let (report, racecheck) = MassiveWorld::new(config).run_checked(threads);
            assert_eq!(report, reference, "threads={threads}");
            assert!(
                racecheck.findings.is_empty(),
                "threads={threads}:\n{}",
                racecheck.render()
            );
            assert_eq!(racecheck.events_checked, 4 * 200 + 4);
        }
    }

    #[test]
    fn traced_run_matches_untraced_and_is_thread_independent() {
        let config = small(4);
        let reference = MassiveWorld::new(config).run(1);
        let record = |threads: usize| {
            let recorder = FlightRecorder::new(1 << 16);
            let mut world = MassiveWorld::new(config);
            world.attach_flight_recorder(recorder.clone());
            let report = world.run(threads);
            recorder.finalize(u64::from(config.ticks) * 1000);
            (report, recorder.drain())
        };
        let (serial_report, serial_log) = record(1);
        assert_eq!(serial_report, reference, "recorder must not change the run");
        serial_log.validate().expect("span log well-formed");
        assert_eq!(
            serial_log.traces().len() as u64,
            u64::from(config.ticks) * u64::from(config.sends_per_tick)
        );
        for threads in [2, 8] {
            let (report, log) = record(threads);
            assert_eq!(report, reference, "threads={threads}");
            assert_eq!(
                serial_log.spans, log.spans,
                "span stream diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn balances_run_dry_and_bounce() {
        let config = MassiveConfig {
            isps: 2,
            users_per_isp: 4,
            ticks: 8,
            sends_per_tick: 100,
            initial_balance: 3,
            durability: DurabilityConfig {
                shards: 2,
                ..DurabilityConfig::default()
            },
            ..MassiveConfig::default()
        };
        let report = MassiveWorld::new(config).run(2);
        assert!(report.bounced_balance > 0, "tiny balances must bounce");
        // Every payment is matched: paid = deposits = charges.
        assert_eq!(
            report.paid + report.bounced_balance + report.bounced_limit,
            u64::from(config.ticks) * u64::from(config.sends_per_tick)
        );
    }

    #[test]
    fn daily_limits_bounce_and_cap_every_sender() {
        let config = MassiveConfig {
            isps: 2,
            users_per_isp: 4,
            ticks: 8,
            sends_per_tick: 100,
            initial_balance: 1_000,
            daily_limit: 20,
            durability: DurabilityConfig {
                shards: 2,
                ..DurabilityConfig::default()
            },
            ..MassiveConfig::default()
        };
        let (report, sent) = settle(MassiveWorld::new(config), &config, 2, |world| {
            let sent: Vec<u32> = (0..config.isps)
                .flat_map(|isp| (0..config.users_per_isp).map(move |user| (isp, user)))
                .map(|(isp, user)| world.store().user(isp, user).sent_today)
                .collect();
            (world, sent)
        });
        assert!(report.bounced_limit > 0, "a small limit must bounce");
        assert_eq!(report.bounced_balance, 0, "balances never run dry here");
        assert_eq!(
            report.paid + report.bounced_balance + report.bounced_limit,
            u64::from(config.ticks) * u64::from(config.sends_per_tick)
        );
        assert!(
            sent.iter().all(|&n| n <= config.daily_limit),
            "a sender went past the limit: {sent:?}"
        );
        assert_eq!(sent.iter().map(|&n| u64::from(n)).sum::<u64>(), report.paid);
    }
}
