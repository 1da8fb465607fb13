//! The SMTP wire workloads, `wire_small` and `wire_large`.
//!
//! Stack: `ThreadedServer` (2 workers) → `BackpressureSink` (spool on
//! in-memory storage, so a sync costs nothing) → `SeqAuditSink` →
//! `ZmailGateway` (2 ISPs × 1,000 users whose balances never bounce).
//! Load: one process, 2 threads, 2 connections, Poisson arrivals from
//! `zmail_load::schedule` with Zipf-1.1 senders and recipients.
//!
//! Each round builds a fresh stack and runs two phases:
//!
//! 1. *paced*: a fixed message count at a fixed absolute rate well below
//!    capacity; every latency is measured from the message's scheduled
//!    send instant (safe against coordinated omission);
//! 2. *burst*: a fixed message count all due at once, faster than the
//!    stack can take it; goodput is its `250` replies per second.
//!
//! Counts, not durations, bound a round: the gateway's mailboxes and the
//! spool keep every delivered message, so a fixed duration would hand a
//! faster build more memory.

use crate::layers::{SinkProbes, StorageProbes, TimedSink, TimedStorage};
use crate::report::{Outcome, Values};
use crate::stats::{
    goodput_of_rounds, mean, median, peak_rss_mb, quantile, ratio, round_count, setup_of_samples,
    timed_median, Cpu, HostCpu,
};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use zmail_core::backpressure::SPOOL_BLOB;
use zmail_core::bridge::ZmailGateway;
use zmail_core::{AdmissionConfig, BackpressureSink, UserAddr, ZmailConfig};
use zmail_econ::EPennies;
use zmail_load::{partition, schedule, ScheduledSend, SeqAuditSink, WorkloadSpec, HEADER_LOAD_SEQ};
use zmail_obs::Snapshot;
use zmail_smtp::{Client, MailMessage, SmtpError, TcpConnection, ThreadedConfig, ThreadedServer};
use zmail_store::{MemStorage, Storage};

const ISPS: u32 = 2;
const USERS: u32 = 1_000;
const BALANCE: i64 = 10_000_000;
/// Load-generator threads, one connection each.
const LANES: usize = 2;

/// The size of one wire workload.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Offered rate of the paced phase, messages per second. An absolute
    /// figure, never a multiple of a measured capacity.
    pub paced_rate: f64,
    /// Messages in the paced phase.
    pub paced: usize,
    /// Messages in the burst phase.
    pub burst: usize,
    /// Message body.
    pub body: String,
    /// Nominal length of one round on a 2-core host, seconds.
    pub round_s: f64,
}

impl Shape {
    /// `wire_small`: a one-line body.
    pub fn small() -> Shape {
        Shape {
            paced_rate: 1_000.0,
            paced: 500,
            burst: 2_000,
            body: "a short representative body line\r\n".into(),
            round_s: 1.0,
        }
    }

    /// `wire_large`: a ~14 KB body in ~200 lines, drawn from `seed`.
    pub fn large(seed: u64) -> Shape {
        let mut x = seed ^ 0x5EED_B0D1;
        let mut body = String::with_capacity(14_400);
        for _ in 0..200 {
            for _ in 0..70 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                body.push(char::from(b'a' + ((x >> 33) % 26) as u8));
            }
            body.push_str("\r\n");
        }
        Shape {
            paced_rate: 150.0,
            paced: 150,
            burst: 500,
            body,
            round_s: 1.5,
        }
    }

    /// Shrinks the workload for the self-check.
    pub fn tiny(mut self) -> Shape {
        self.paced = 40;
        self.burst = 60;
        self
    }
}

type Gateway = TimedSink<ZmailGateway>;
type Admission = BackpressureSink<SeqAuditSink<Gateway>>;

/// Probes the benchmark's wrappers report into.
#[derive(Debug, Default)]
struct Probes {
    /// Around `BackpressureSink`: the session thread's view of the sink.
    admission: Arc<SinkProbes>,
    /// Around `ZmailGateway`: the ledger, including its mutex wait.
    gateway: Arc<SinkProbes>,
    /// Around the spool's storage.
    spool: Arc<StorageProbes>,
}

impl Probes {
    fn arm(&self, armed: bool) {
        self.admission.arm(armed);
        self.gateway.arm(armed);
        self.spool.arm(armed);
    }
}

/// The system under test. Building it is `setup_s`.
struct Stack {
    server: ThreadedServer,
    front: TimedSink<Admission>,
    spool: Arc<Mutex<MemStorage>>,
    probes: Probes,
}

impl Stack {
    /// The one place the wire stack is assembled.
    fn start(armed: bool) -> Stack {
        let probes = Probes::default();
        probes.arm(armed);
        let config = ZmailConfig::builder(ISPS, USERS)
            .limit(u32::MAX)
            .initial_balance(EPennies(BALANCE))
            .build();
        let gateway = TimedSink::new(ZmailGateway::new(config, 21), Arc::clone(&probes.gateway));
        let spool = Arc::new(Mutex::new(MemStorage::new()));
        let admission = BackpressureSink::start(
            SeqAuditSink::new(gateway),
            Box::new(TimedStorage::new(
                Arc::clone(&spool),
                Arc::clone(&probes.spool),
            )),
            AdmissionConfig::default(),
        );
        let front = TimedSink::new(admission, Arc::clone(&probes.admission));
        let server = ThreadedServer::start(
            "mx.bench.example",
            front.clone(),
            ThreadedConfig {
                workers: 2,
                ..ThreadedConfig::default()
            },
        )
        .expect("bind a loopback port");
        Stack {
            server,
            front,
            spool,
            probes,
        }
    }

    fn admission(&self) -> &Admission {
        self.front.inner()
    }

    fn gateway(&self) -> &ZmailGateway {
        self.admission().inner().inner().inner()
    }

    fn balance_sum(&self) -> i64 {
        (0..ISPS)
            .flat_map(|isp| (0..USERS).map(move |user| UserAddr { isp, user }))
            .map(|addr| self.gateway().balance(addr).0)
            .sum()
    }

    /// Stops the server and drains the admission queue; joins every thread.
    fn stop(&mut self) {
        self.server.stop();
        self.admission().shutdown();
    }
}

/// One submission as the generator saw it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Actual send start minus scheduled instant, µs.
    late_us: f64,
    /// Duration of `Client::send`, µs.
    send_us: f64,
    /// Reply instant minus scheduled instant, µs.
    total_us: f64,
}

/// What one phase's executor saw.
#[derive(Debug, Default)]
struct Exec {
    /// Samples of `250`-acked submissions.
    samples: Vec<Sample>,
    /// Seqs that got a `250`.
    acked: Vec<u64>,
    /// Submissions answered with anything but `250`.
    rejected: u64,
    /// Submissions that got no reply at all.
    no_reply: u64,
    /// Phase wall time, seconds.
    wall_s: f64,
}

/// Draws `count` Poisson arrivals at `rate` from `seed`, seqs offset by
/// `first_seq`, exactly as `zmail_load`'s generator draws them.
fn arrivals(seed: u64, rate: f64, count: usize, first_seq: u64) -> Vec<ScheduledSend> {
    let spec = WorkloadSpec {
        seed,
        rate_per_sec: rate,
        // Twice the expected span: the horizon never cuts the count short.
        duration_ms: (2_000.0 * count as f64 / rate).ceil() as u64 + 1,
        senders: ISPS * USERS,
        recipients: ISPS * USERS,
        zipf_s: 1.1,
        ..WorkloadSpec::default()
    };
    let mut ops = schedule(&spec);
    assert!(ops.len() >= count, "schedule too short");
    ops.truncate(count);
    for op in &mut ops {
        op.seq += first_seq;
    }
    ops
}

fn user(index: u32) -> String {
    ZmailGateway::address(UserAddr {
        isp: index / USERS,
        user: index % USERS,
    })
}

fn message(op: &ScheduledSend, body: &str) -> MailMessage {
    MailMessage::builder(user(op.sender), user(op.recipient))
        .header("Subject", format!("bench {}", op.seq))
        .header(HEADER_LOAD_SEQ, op.seq.to_string())
        .body(body)
        .build()
}

/// Executes `ops` open-loop over [`LANES`] connections, one thread each,
/// keeping every latency and lateness sample.
fn execute(addr: SocketAddr, ops: &[ScheduledSend], body: &str) -> Exec {
    let clients: Vec<Client<TcpConnection>> = (0..LANES)
        .map(|_| {
            let conn = TcpConnection::connect(addr).expect("connect to the bench server");
            Client::connect(conn, "load.bench.example").expect("SMTP greeting")
        })
        .collect();
    let lanes = partition(ops, LANES);
    let started = Instant::now();
    let lane_results: Vec<Exec> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&lanes)
            .map(|(mut client, lane)| {
                scope.spawn(move || {
                    let mut out = Exec::default();
                    let mut alive = true;
                    for op in lane {
                        let msg = message(op, body);
                        let due = Duration::from_micros(op.at_us);
                        let now = started.elapsed();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        if !alive {
                            out.no_reply += 1;
                            continue;
                        }
                        let sent = started.elapsed();
                        let result = client.send(&msg);
                        let replied = started.elapsed();
                        match result {
                            Ok(()) => {
                                let due_us = due.as_secs_f64() * 1e6;
                                out.samples.push(Sample {
                                    late_us: (sent.as_secs_f64() * 1e6 - due_us).max(0.0),
                                    send_us: (replied - sent).as_secs_f64() * 1e6,
                                    total_us: replied.as_secs_f64() * 1e6 - due_us,
                                });
                                out.acked.push(op.seq);
                            }
                            Err(SmtpError::UnexpectedReply(_)) => out.rejected += 1,
                            Err(_) => {
                                out.no_reply += 1;
                                alive = false;
                            }
                        }
                    }
                    if alive {
                        let _ = client.quit();
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load lane panicked"))
            .collect()
    });
    let mut exec = Exec {
        wall_s: started.elapsed().as_secs_f64(),
        ..Exec::default()
    };
    for lane in lane_results {
        exec.samples.extend(lane.samples);
        exec.acked.extend(lane.acked);
        exec.rejected += lane.rejected;
        exec.no_reply += lane.no_reply;
    }
    exec.acked.sort_unstable();
    exec
}

/// Rebuilds the set of spooled `X-Load-Seq`s from the spool bytes alone.
fn recover_spool(bytes: &[u8]) -> Option<Vec<u64>> {
    let mut seqs = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        let newline = rest.iter().position(|&b| b == b'\n')?;
        let len: usize = std::str::from_utf8(&rest[..newline]).ok()?.parse().ok()?;
        let frame = rest.get(newline + 1..newline + 1 + len)?;
        rest = &rest[newline + 1 + len..];
        let data = std::str::from_utf8(frame).ok()?.strip_suffix(".\r\n")?;
        let msg = MailMessage::from_data("", Vec::new(), data).ok()?;
        seqs.push(msg.header(HEADER_LOAD_SEQ)?.parse().ok()?);
    }
    seqs.sort_unstable();
    Some(seqs)
}

/// The gate a lost, duplicated or ghost acknowledgement fails.
const CONSERVATION_GATE: &str = "wire: acked seqs == SeqAuditSink seqs";

/// What a round leaves behind for the conservation gates.
#[derive(Debug, Clone)]
pub struct Evidence {
    /// Seqs the generator saw `250`-acked, ascending.
    pub acked: Vec<u64>,
    /// Seqs `SeqAuditSink` recorded, ascending.
    pub audited: Vec<u64>,
    /// Seqs rebuilt from the spool bytes (`None`: unparseable spool).
    pub spooled: Option<Vec<u64>>,
    /// The gateway's `delivered_paid`.
    pub delivered_paid: u64,
    /// Submissions that got no reply.
    pub no_reply: u64,
    /// Balance sums over all users, before and after.
    pub balances: (i64, i64),
}

impl Evidence {
    /// The wire correctness gates; each must hold on every round.
    pub fn gates(&self) -> Vec<(&'static str, bool)> {
        vec![
            ("wire: every submission got a reply", self.no_reply == 0),
            (CONSERVATION_GATE, self.acked == self.audited),
            (
                "wire: acked seqs == seqs recovered from the spool",
                self.spooled.as_deref() == Some(&self.acked[..]),
            ),
            (
                "wire: gateway delivered_paid == acked count",
                self.delivered_paid == self.acked.len() as u64,
            ),
            (
                "wire: balance sum unchanged",
                self.balances.0 == self.balances.1,
            ),
        ]
    }
}

/// One round's measurements.
struct Round {
    setup_s: f64,
    /// Process CPU per accepted message in the burst phase, µs.
    cpu_us_per_msg: f64,
    /// Paced-phase submit-to-`250` latencies, µs.
    latencies: Vec<f64>,
    goodput: f64,
    recovery_s: f64,
    attempted: u64,
    failed: u64,
    evidence: Evidence,
    /// Per-layer values; empty unless the round was traced.
    layers: Values,
    /// Human-readable lines (tails, budget) from a traced round.
    notes: Vec<String>,
}

fn histogram_mean(snap: &Snapshot, name: &str) -> f64 {
    snap.histograms.get(name).map_or(0.0, |h| h.mean())
}

fn histogram_p50(snap: &Snapshot, name: &str) -> f64 {
    snap.histograms
        .get(name)
        .and_then(|h| h.p50())
        .map_or(0.0, |v| v as f64)
}

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

/// Runs one round on a fresh stack. A traced round enables the global
/// `zmail_obs` registry and arms the wrappers; an untraced one leaves
/// both off.
fn round(shape: &Shape, seed: u64, index: u64, traced: bool) -> Round {
    let registry = zmail_obs::global();
    registry.set_enabled(traced);
    let round_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(index);
    let paced_ops = arrivals(round_seed, shape.paced_rate, shape.paced, 0);
    let burst_ops = arrivals(round_seed ^ 0xB0B5, 1e7, shape.burst, shape.paced as u64);

    let t = Instant::now();
    let mut stack = Stack::start(traced);
    let setup_s = t.elapsed().as_secs_f64();
    let balance_before = stack.balance_sum();
    let addr = stack.server.addr();

    registry.reset();
    let paced = execute(addr, &paced_ops, &shape.body);
    let paced_snap = registry.snapshot();
    let admission = stack.probes.admission.deliver.take();
    let admission_rcpt = stack.probes.admission.rcpt.take();
    let gateway = stack.probes.gateway.deliver.take();
    let gateway_rcpt = stack.probes.gateway.rcpt.take();
    let append = stack.probes.spool.append.take();
    let sync = stack.probes.spool.sync.take();

    registry.reset();
    let cpu_before = Cpu::now();
    let burst = execute(addr, &burst_ops, &shape.body);
    let cpu = Cpu::now().since(cpu_before);
    stack.stop();
    registry.set_enabled(false);

    let spool_bytes = stack.spool.lock().expect("spool lock").read(SPOOL_BLOB);
    let (spooled, recovery_s) = timed_median(|| recover_spool(&spool_bytes));

    let mut acked: Vec<u64> = paced.acked.iter().chain(&burst.acked).copied().collect();
    acked.sort_unstable();
    let evidence = Evidence {
        acked,
        audited: stack.admission().inner().seqs(),
        spooled,
        delivered_paid: stack.gateway().stats().delivered_paid,
        no_reply: paced.no_reply + burst.no_reply,
        balances: (balance_before, stack.balance_sum()),
    };
    let stats = stack.admission().stats();

    let mut layers = Values::new();
    let mut notes = Vec::new();
    if traced {
        let n = paced.samples.len() as f64;
        let mut late: Vec<f64> = paced.samples.iter().map(|s| s.late_us).collect();
        let send_mean = mean(&paced.samples.iter().map(|s| s.send_us).collect::<Vec<_>>());
        let total_mean = mean(&paced.samples.iter().map(|s| s.total_us).collect::<Vec<_>>());
        let late_mean = mean(&late);
        let wait_mean = histogram_mean(&paced_snap, "load.queue.wait_us");
        let gateway_us = gateway.mean_us() + gateway_rcpt.mean_us();
        let spool_us = ratio(append.total_us + sync.total_us, n);
        let sink_on_session = admission.mean_us() + admission_rcpt.mean_us();
        let session_us = send_mean - sink_on_session;
        let burst_msgs = burst.acked.len() as f64;
        layers.insert("load.late_p99_us", quantile(&mut late, 0.99));
        layers.insert("smtp.client_send_us_mean", send_mean);
        layers.insert(
            "smtp.cpu_us_per_msg",
            ratio(cpu.total_s() * 1e6, burst_msgs),
        );
        layers.insert("smtp.sys_cpu_share", ratio(cpu.sys_s, cpu.total_s()));
        layers.insert(
            "smtp.frame_us_p50",
            histogram_p50(&paced_snap, "smtp.frame_us"),
        );
        layers.insert(
            "smtp.parse_us_p50",
            histogram_p50(&paced_snap, "smtp.parse_us"),
        );
        layers.insert(
            "smtp.data_bytes_per_msg",
            ratio(
                counter(&paced_snap, "smtp.data_bytes"),
                counter(&paced_snap, "smtp.messages"),
            ),
        );
        layers.insert("backpressure.deliver_us_mean", admission.mean_us());
        layers.insert("backpressure.queue_wait_us_mean", wait_mean);
        layers.insert(
            "backpressure.batch_msgs_p50",
            histogram_p50(&paced_snap, "load.commit.batch_msgs"),
        );
        layers.insert("backpressure.syncs_per_msg", ratio(sync.calls as f64, n));
        layers.insert(
            "backpressure.spool_bytes_per_msg",
            ratio(stats.spooled_bytes as f64, stats.delivered as f64),
        );
        layers.insert("backpressure.sync_us_mean", sync.mean_us());
        layers.insert("bridge.deliver_us_mean", gateway.mean_us());
        layers.insert("bridge.rcpt_us_mean", gateway_rcpt.mean_us());
        layers.insert("bridge.share", ratio(gateway_us, total_mean));

        // The budget is built from means, because means add up.
        let named = [
            ("generator lateness", late_mean),
            (
                "socket + session (Client::send minus sink calls)",
                session_us,
            ),
            ("admission queue wait", wait_mean),
            ("gateway (deliver + rcpt, incl. mutex wait)", gateway_us),
            ("spool append + sync", spool_us),
        ];
        let sum: f64 = named.iter().map(|(_, v)| v).sum();
        notes.push(format!(
            "layer budget (paced phase, {} msgs, means in us):",
            paced.samples.len()
        ));
        for (name, v) in named {
            notes.push(format!(
                "  {name:<52} {v:>10.1}  {:>5.1}%",
                100.0 * ratio(v, total_mean)
            ));
        }
        notes.push(format!(
            "  {:<52} {:>10.1}  {:>5.1}%",
            "unattributed (drainer hand-off, wake-ups)",
            total_mean - sum,
            100.0 * ratio(total_mean - sum, total_mean)
        ));
        notes.push(format!(
            "  {:<52} {total_mean:>10.1}  layers cover {:.1}% ({})",
            "mean submit-to-250 latency",
            100.0 * ratio(sum, total_mean),
            if (ratio(sum, total_mean) - 1.0).abs() <= 0.10 {
                "within 10%"
            } else {
                "NOT within 10%"
            }
        ));
    }

    Round {
        setup_s,
        cpu_us_per_msg: ratio(cpu.total_s() * 1e6, burst.acked.len() as f64),
        latencies: paced.samples.iter().map(|s| s.total_us).collect(),
        goodput: ratio(burst.acked.len() as f64, burst.wall_s),
        recovery_s,
        attempted: (shape.paced + shape.burst) as u64,
        failed: paced.rejected + paced.no_reply + burst.rejected + burst.no_reply,
        evidence,
        layers,
        notes,
    }
}

/// Extra stack builds per run, so `setup_s` is a median of many.
const EXTRA_SETUPS: usize = 200;

/// Runs a wire workload for about `seconds` of fresh-stack rounds; see
/// [`round_count`].
pub fn run(shape: &Shape, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut setups: Vec<f64> = (0..EXTRA_SETUPS)
        .map(|_| {
            let t = Instant::now();
            let mut stack = Stack::start(false);
            let s = t.elapsed().as_secs_f64();
            stack.stop();
            s
        })
        .collect();
    let mut out = Outcome::default();
    let (mut plain, mut probed): (Vec<Round>, Vec<Round>) = (Vec::new(), Vec::new());
    for index in 0..round_count(seconds, shape.round_s, traced) {
        let traced_round = traced && index % 2 == 1;
        let host = HostCpu::now();
        let r = round(shape, seed, index, traced_round);
        if index == 0 {
            out.end_to_end.insert("peak_rss_mb", peak_rss_mb());
        }
        out.note(format!(
            "round {index}{}: accept p10 {:.1} us, p50 {:.1} us, goodput {:.1} msg/s, cpu {:.1} us/msg, host steal {:.1}%",
            if traced_round { " (traced)" } else { "" },
            quantile(&mut r.latencies.clone(), 0.10),
            median(&r.latencies),
            r.goodput,
            r.cpu_us_per_msg,
            100.0 * HostCpu::now().steal_since(host)
        ));
        for (name, held) in r.evidence.gates() {
            out.gate(name, held);
        }
        out.attempted += r.attempted;
        out.failed += r.failed;
        if traced_round {
            probed.push(r);
        } else {
            setups.push(r.setup_s);
            plain.push(r);
        }
    }

    let mut latencies: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    let goodput = goodput_of_rounds(&plain.iter().map(|r| r.goodput).collect::<Vec<_>>());
    // Per-round quantiles, then the median over rounds: a round the host
    // starved of CPU moves it less than it moves a pooled quantile. The
    // 10th percentile is the reported one, because host CPU steal moves
    // the median 2-5x between runs and the 10th percentile about 10%.
    let per_round = |q: f64| {
        median(
            &plain
                .iter()
                .map(|r| quantile(&mut r.latencies.clone(), q))
                .collect::<Vec<_>>(),
        )
    };
    let (p10, p50) = (per_round(0.10), per_round(0.50));
    let p99 = quantile(&mut latencies, 0.99);
    out.note(format!(
        "accept latency (paced phase, {} rounds): p10 {p10:.1} us and p50 {p50:.1} us (medians over rounds), pooled p99 {p99:.1} us over {} samples ({} beyond p99)",
        plain.len(),
        latencies.len(),
        latencies.len() / 100
    ));
    let setup_s = setup_of_samples(&setups, &mut out);
    out.end_to_end.insert("setup_s", setup_s);
    out.end_to_end.insert("goodput_msg_s", goodput);
    out.end_to_end.insert("accept_p10_us", p10);
    out.end_to_end.insert(
        "recovery_s",
        median(&plain.iter().map(|r| r.recovery_s).collect::<Vec<_>>()),
    );

    if traced {
        let rounds: Vec<(&Values, f64)> = probed.iter().map(|r| (&r.layers, r.goodput)).collect();
        out.fold_traced(&rounds, goodput);
        if let Some(last) = probed.last() {
            out.notes.extend(last.notes.iter().cloned());
        }
    }
    out
}

/// Self-check: one tiny round must pass every gate, and a corrupted
/// acked-seq set must fail the conservation gate.
pub fn self_check(shape: &Shape) -> Vec<(String, bool)> {
    let r = round(shape, 7, 0, true);
    let clean = r.evidence.gates().iter().all(|(_, held)| *held);
    let mut corrupt = r.evidence.clone();
    corrupt.acked.pop();
    corrupt.acked.push(u64::MAX);
    let caught = corrupt
        .gates()
        .iter()
        .any(|(name, held)| *name == CONSERVATION_GATE && !held);
    vec![
        ("tiny wire round passes every gate".into(), clean),
        (
            "corrupted acked-seq set fails the conservation gate".into(),
            caught,
        ),
    ]
}
