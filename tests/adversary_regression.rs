//! Attack-class regression suite (tier-1, CI-gated): one frozen-seed
//! scenario per adversary class, asserting the three campaign
//! guarantees cell by cell:
//!
//! 1. the attack actually fired (`attempts > 0` — a vacuous cell would
//!    prove nothing),
//! 2. the attacker's net gain is ≤ 0, or every counterfeit that landed
//!    was detected (conservation / §4.4) and — for collusion —
//!    attributed to the right pair,
//! 3. the run replays byte-identically from its seed
//!    ([`zmail_core::RunReport`] equality, every field).
//!
//! These are the frozen anchors of `zmail::adversary_campaigns`; the
//! randomized sweep lives in the E20 experiment and the campaign smoke
//! gate in `scripts/ci.sh`.

use zmail::adversary_campaigns::{run_cell, scenario_for, weakness_self_test, AttackRun};
use zmail::fault_scenarios::Violation;
use zmail_fault::AttackClass;

/// One frozen seed per class, chosen (and pinned) so the clause window
/// and probability give the attack real traffic to act on.
const FROZEN: [(AttackClass, u64); 5] = [
    (AttackClass::Forge, 42),
    (AttackClass::Strip, 42),
    (AttackClass::ReplayAck, 42),
    (AttackClass::Ring, 42),
    (AttackClass::RotatingZombie, 42),
];

fn assert_held(run: &AttackRun) {
    assert!(
        run.attempts > 0,
        "{} seed {}: attack never fired (vacuous cell)",
        run.class,
        run.seed
    );
    assert!(
        run.replay_identical,
        "{} seed {}: rerun diverged from itself",
        run.class, run.seed
    );
    assert!(
        run.held(),
        "{} seed {} escaped: gain={} accepted={} detected={} violations={:?}",
        run.class,
        run.seed,
        run.attacker_gain,
        run.accepted,
        run.detected,
        run.violations
    );
}

#[test]
fn forged_attestations_are_refused_and_unprofitable() {
    let (class, seed) = FROZEN[0];
    let run = run_cell(seed, class);
    assert_held(&run);
    assert_eq!(run.accepted, 0, "a forged signature must never verify");
    assert!(run.attacker_gain <= 0);
}

#[test]
fn stripped_signatures_burn_the_attacker_not_the_ledger() {
    let (class, seed) = FROZEN[1];
    let run = run_cell(seed, class);
    assert_held(&run);
    assert_eq!(run.refused, run.attempts, "every stripped claim refused");
    assert!(run.attacker_gain < 0, "stripping destroys attacker pennies");
}

#[test]
fn replayed_ack_refunds_are_single_use() {
    let (class, seed) = FROZEN[2];
    let run = run_cell(seed, class);
    assert_held(&run);
    assert_eq!(run.accepted, 0, "a nonce refunds exactly once");
    assert!(run.attacker_gain <= 0);
}

#[test]
fn colluding_ring_is_detected_and_attributed() {
    let (class, seed) = FROZEN[3];
    let run = run_cell(seed, class);
    assert_held(&run);
    assert!(
        run.accepted > 0,
        "valid-key collusion lands by construction"
    );
    assert!(run.detected, "minted pennies must break conservation");
    assert!(run.attributed, "a billing round must implicate the pair");
}

#[test]
fn zombie_identity_rotation_is_refused_cross_destination() {
    let (class, seed) = FROZEN[4];
    let run = run_cell(seed, class);
    assert_held(&run);
    assert_eq!(run.accepted, 0, "field binding stops cross-dest replay");
    assert!(run.attacker_gain <= 0);
}

/// The self-test: each deliberately weakened verifier check lets its
/// attack through, the audits still convict, and ddmin shrinks the
/// plan to the 1-minimal adversary clause.
#[test]
fn weakened_verifiers_are_caught_and_shrunk() {
    for case in weakness_self_test(42) {
        assert!(
            case.caught,
            "{:?} went unnoticed — the audits are vacuous",
            case.weakness
        );
        let shrunk = case.shrunk.expect("caught cases shrink");
        assert_eq!(
            shrunk.plan.faults.len(),
            1,
            "{:?}: shrink must reach the 1-minimal adversary clause",
            case.weakness
        );
    }
}

/// The satellite fix pinned: a failing adversarial scenario's repro
/// line names the actual plan (adversary clause included), not the
/// seed-random plan that never contained it.
#[test]
fn failure_report_includes_adversary_clause() {
    let scenario = scenario_for(42, AttackClass::Ring)
        .with_attest_weakness(zmail_core::AttestWeakness::SkipReplayCheck);
    let outcome = scenario.run();
    let report = scenario.failure_report(&outcome);
    assert!(
        report.contains("adversary") && report.contains("ring"),
        "repro line must carry the adversary clause:\n{report}"
    );
    assert!(
        !report.contains("Scenario::random"),
        "custom plans are not reproduced by Scenario::random:\n{report}"
    );
}

/// Refusals surface in the run report and the per-ISP stats — the
/// observability satellite's protocol-level counter.
#[test]
fn refusals_are_counted_in_the_run_report() {
    let run = run_cell(42, AttackClass::Strip);
    assert!(run.attempts > 0);
    let outcome = scenario_for(42, AttackClass::Strip).run();
    assert_eq!(
        outcome.report.refused_deliveries, run.refused,
        "every refusal lands in RunReport::refused_deliveries"
    );
    assert!(outcome
        .violations
        .iter()
        .all(|v| !matches!(v, Violation::PairwiseDrift { .. })));
}
