//! Determinism guards for the observability layer.
//!
//! Two promises keep telemetry safe to leave on in experiments:
//!
//! 1. traces recorded against the **simulation clock** are a pure
//!    function of the workload — running the same trace twice yields
//!    byte-identical exported span logs, so traces can be diffed across
//!    runs and machines;
//! 2. explorer **profiling never perturbs verification**: the
//!    [`ExploreReport`](zmail_ap::ExploreReport) half of a profiled run
//!    is byte-identical to the unprofiled run at every thread count.

use zmail_core::spec::{check_with, check_with_profiled, SpecParams, TimeoutMode};
use zmail_core::{ZmailConfig, ZmailSystem};
use zmail_obs::{export, FlightRecorder, Registry};
use zmail_sim::{Sampler, SimDuration, SimTelemetry, TrafficConfig, TrafficGenerator};

/// Runs one simulated day of two-ISP traffic with sim-clock tracing
/// attached, returning the exported trace plus the metrics snapshot.
fn traced_run(seed: u64) -> (String, zmail_obs::Snapshot) {
    let traffic = TrafficConfig {
        isps: 2,
        users_per_isp: 10,
        horizon: SimDuration::from_days(1),
        ..TrafficConfig::default()
    };
    let trace = TrafficGenerator::new(traffic).generate(&mut Sampler::new(seed));

    let registry = Registry::new();
    let recorder = FlightRecorder::new(1 << 16);
    let handle = recorder.clone(); // shares the ring buffer
    let mut system = ZmailSystem::new(ZmailConfig::builder(2, 10).build(), 42);
    system.attach_telemetry(SimTelemetry::with_recorder(&registry, recorder));
    system.run_trace(&trace);

    (export::chrome_trace(&handle.drain()), registry.snapshot())
}

#[test]
fn sim_clock_traces_are_byte_identical_across_runs() {
    let (first_trace, first_snap) = traced_run(7);
    let (second_trace, second_snap) = traced_run(7);
    assert!(
        first_trace.lines().count() > 10,
        "the run should actually trace events"
    );
    assert_eq!(
        first_trace, second_trace,
        "sim-clock traces must be a pure function of the workload"
    );
    // The sim event counters and final queue depth are deterministic
    // too; only the wall-clock-derived values (`sim.events_per_sec`, the
    // latency histograms) may differ between runs.
    assert_eq!(first_snap.counters, second_snap.counters);
    assert_eq!(
        first_snap.gauges["sim.queue_depth"],
        second_snap.gauges["sim.queue_depth"]
    );
}

#[test]
fn different_workloads_produce_different_traces() {
    // Sanity check that the byte-equality above is not vacuous.
    let (first_trace, _) = traced_run(7);
    let (other_trace, _) = traced_run(8);
    assert_ne!(first_trace, other_trace);
}

#[test]
fn explore_report_unchanged_by_profiling_at_any_thread_count() {
    let configs = [
        SpecParams::default(),
        SpecParams {
            initial_balance: 2,
            timeout_mode: TimeoutMode::LocalDrain,
            ..SpecParams::default()
        },
    ];
    for params in configs {
        let baseline = check_with(params, 200_000, 1);
        for threads in [1, 4] {
            let (profiled, profile) = check_with_profiled(params, 200_000, threads);
            assert_eq!(
                profiled, baseline,
                "profiling or thread count changed the report (threads = {threads}, {params:?})"
            );
            assert_eq!(profile.threads, threads);
            assert_eq!(profile.states_visited, baseline.states_visited);

            // The structural half of the profile is a property of the
            // state graph, not the schedule: running the same
            // configuration again reproduces it exactly. (Steals and
            // wall time are scheduling noise by design.)
            let (_, again) = check_with_profiled(params, 200_000, threads);
            assert_eq!(again.level_sizes, profile.level_sizes);
            assert_eq!(again.shard_occupancy, profile.shard_occupancy);
        }
    }
}
