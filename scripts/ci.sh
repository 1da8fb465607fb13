#!/usr/bin/env bash
# The repository's CI gate: formatting, lints, build, and the full test
# suite. Run from the repository root; fails fast on the first problem.
set -euo pipefail

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release

echo "== cargo test"
cargo test -q --workspace

echo "== cargo doc (first-party crates, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
  -p zmail -p zmail-ap -p zmail-core -p zmail-bench -p zmail-crypto \
  -p zmail-smtp -p zmail-sim -p zmail-econ -p zmail-baselines -p zmail-obs \
  -p zmail-fault -p zmail-store -p zmail-load

echo "== speclint (static analysis of the bundled AP specs)"
cargo run --release -q -p zmail-bench --bin speclint -- --threads 0

echo "== independence artifact (model-vs-harness footprint cross-check)"
cargo run --release -q -p zmail-bench --bin speclint -- --independence-json > /dev/null

echo "== obs smoke (metrics, exporters, recorder ring wraparound, chrome_trace overflow marker)"
cargo run --release -q -p zmail-obs --bin obs_smoke > /dev/null

echo "== one tracing API, one TCP server (the deleted duplicates stay deleted)"
test ! -e crates/obs/src/trace.rs
if grep -rqE '\bTcpMailServer\b|\bTracer\b|trace_json_lines' crates src tests examples; then
  grep -rnE '\bTcpMailServer\b|\bTracer\b|trace_json_lines' crates src tests examples
  exit 1
fi

echo "== one §4.1 guard, one massive run path, no synthetic digest stage, one histogram (the deleted duplicates stay deleted)"
deleted='\brun_massive_traced\b|\bdigest_rounds\b|\bdigest_checksum\b|\btrace_digest\b|\bTimeSeries\b'
if grep -rqE "$deleted" crates src tests examples; then
  grep -rnE "$deleted" crates src tests examples
  exit 1
fi

echo "== determinism guards (sim-clock traces, profiled explorer)"
cargo test -q --release -p zmail-bench --test determinism

echo "== fault scenarios (randomized plans over fixed seeds, shrinker)"
cargo test -q --release -p zmail --test fault_scenarios

echo "== bank recovery (E15: every superseded-reply run at 10 x 1,000 balances)"
cargo run --release -q -p zmail-bench --bin e15_bank_recovery | grep "^shape: HOLDS"

echo "== property suites (crypto envelopes/nonces, SMTP grammar)"
cargo test -q --release -p zmail-crypto --test properties
cargo test -q --release -p zmail-smtp --test properties

echo "== SMTP pipelining (RFC 2920 client contract against scripted peers)"
cargo test -q --release -p zmail-smtp --test pipelining
grep -q "PIPELINING" crates/smtp/README.md

echo "== durability (recovery round-trips, storage faults, E16 smoke)"
cargo test -q --release -p zmail-store --test recovery_properties
cargo test -q --release -p zmail-fault --test storage_faults
cargo run --release -q -p zmail-bench --bin e16_durability -- --smoke > /dev/null

echo "== sharding (split/merge properties, 2PC crash faults, E17 smoke)"
cargo test -q --release -p zmail-store --test shard_properties
cargo test -q --release -p zmail-fault --test shard_crashes
cargo run --release -q -p zmail-bench --bin e17_million_users -- --smoke > /dev/null

echo "== parallel equivalence (serial vs threaded E17 runs byte-identical)"
cargo run --release -q -p zmail-bench --bin e17_million_users -- --equivalence > /dev/null

echo "== racecheck (SIM001-SIM006 negative suite, footprint proptests)"
cargo test -q --release -p zmail-sim --test racecheck
cargo test -q --release -p zmail-core --test massive_racecheck

echo "== parallel harness (frozen seeds: byte-identical at 1/2/4/8 threads, racecheck clean)"
cargo test -q --release -p zmail --test parallel_harness
cargo run --release -q -p zmail-bench --bin e18_racecheck -- --smoke > /dev/null

echo "== flight recorder (trace determinism, zmail-trace golden, E19 smoke)"
cargo test -q --release -p zmail-core --lib flight_recorder
cargo test -q --release -p zmail-bench --bin zmail_trace
cargo run --release -q -p zmail-bench --bin e19_tracing -- --smoke > /dev/null

echo "== attestations (canonical header form, attack-class regressions, refund replay)"
cargo test -q --release -p zmail-smtp --test canonicalization
cargo test -q --release -p zmail --test adversary_regression
cargo test -q --release -p zmail --test refund_replay

echo "== adversary campaign smoke (every attack class held, weakened verifiers convicted)"
cargo run --release -q -p zmail-bench --bin e20_adversary -- --smoke > /dev/null

echo "== adversary docs present"
grep -q "^## Adversarial model" README.md
grep -q "AttackClass" crates/fault/README.md
grep -q "adversary\." crates/obs/README.md
grep -q "^| E20 " EXPERIMENTS.md

echo "== load generator (schedule determinism, CO-safe latency, threaded soak)"
cargo test -q --release -p zmail-load --test determinism
cargo test -q --release -p zmail-load --test coordinated_omission
cargo test -q --release -p zmail-smtp --test threaded_soak

echo "== open-loop overload smoke (sweep shape, liveness, seq conservation)"
cargo run --release -q -p zmail-bench --bin e21_open_loop -- --smoke > /dev/null

echo "== load docs present"
grep -q "^## Load testing & overload behavior" README.md
grep -q "coordinated-omission" crates/load/README.md
grep -q "load\." crates/obs/README.md
grep -q "server\.accept\." crates/obs/README.md
grep -q "^| E21 " EXPERIMENTS.md

echo "== benchmark self-check (metric names and units, attempted/failed, corrupted acked-seq gate)"
cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- --self-check | grep "^self-check"

echo "CI: all green"
