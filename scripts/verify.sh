#!/usr/bin/env sh
# Full offline verification of the workspace: the build must succeed with no
# crates registry, no vendored sources, and no network — the workspace has
# zero external dependencies (see DESIGN.md §6).
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline --locked"
cargo build --release --offline --locked --workspace

echo "==> cargo test --offline"
# Every debug test target runs here once; among them:
# - tests/concurrency.rs: 256 interleaved generations over one network of
#   out-of-order links, the sim-vs-threaded differential check and the
#   late-reply-after-timeout regression.
# - tests/security_properties.rs and tests/failure_injection.rs:
#   replay-window invariants (permuted/duplicated streams decrypt exactly
#   once, system-wide replay rejection), drop+retry convergence under
#   out-of-order links, and the WAL's crash-recovery invariants (torn tail
#   at every byte offset, bit flips, ack/fsync ordering).
# - crates/fleet/tests/fleet_e2e.rs and ring_props.rs: sharding
#   transparency (byte-identity vs a single-host ground truth),
#   cross-instance rendezvous forwarding, admission control, per-shard
#   telemetry, and the ring balance/minimal-movement properties.
cargo test -q --offline --workspace

echo "==> crypto tests in release mode"
# The drop read-back in tests/zeroize_drop.rs and the SHA-NI kernel's
# reference test against the portable kernel must hold under optimisation
# too, not only in the debug build above.
cargo test -q --release --offline -p amnesia-crypto

echo "==> net, system, fleet, server, rendezvous and store tests in release mode"
# Endpoint ids, link indices and role-table lookups are integer arithmetic
# on the frame path; the release build the benchmark measures runs it with
# overflow checks off, so the hosts' tests (pinned timelines included) run
# there as well. The server's decoded rows and the rendezvous registry are
# per-op tables on the same path, so their crates' tests run there too. So
# do the store's: the WAL's frame scan computes offsets from lengths read
# back from disk, and its group commit rests on a lock and a condvar alone.
cargo test -q --release --offline -p amnesia-net -p amnesia-system -p amnesia-fleet \
    -p amnesia-server -p amnesia-rendezvous -p amnesia-store

echo "==> allocation budget in release mode"
# tests/alloc_budget.rs pins the allocator calls and bytes of a steady-state
# generation on the single host and of a fleet wave (DESIGN.md §12); the
# release build the benchmark measures must make exactly the same calls.
cargo test -q --release --offline --test alloc_budget

echo "==> unsafe budget"
# Library code may hold exactly two allow(unsafe_code), each on a kernel
# dispatch fn (DESIGN.md §9): Sha256::compress_words in
# crates/crypto/src/sha256.rs (SHA-NI) and romix_lane in
# crates/crypto/src/scrypt.rs (AVX-512VL). Their crate root denies
# unsafe_code; every other crate root forbids it.
unsafe_allow_pattern='^[[:space:]]*#!?\[allow\(.*unsafe_code'
unsafe_allows=$(grep -rE "$unsafe_allow_pattern" src crates/*/src | wc -l)
if [ "$unsafe_allows" -ne 2 ]; then
    echo "error: ${unsafe_allows} allow(unsafe_code) attributes in library code (budget: 2)" >&2
    exit 1
fi
for site in crates/crypto/src/sha256.rs:compress_words crates/crypto/src/scrypt.rs:romix_lane; do
    file=${site%%:*}
    dispatch_fn=${site##*:}
    if ! grep -A1 -E "$unsafe_allow_pattern" "$file" |
        grep -qE "^[[:space:]]*fn ${dispatch_fn}\("; then
        echo "error: ${file} has no allow(unsafe_code) on its dispatch fn ${dispatch_fn}" >&2
        exit 1
    fi
done
# Test files may use `unsafe` only where the test needs raw memory: the
# zeroize read-backs of the core and crypto crates, and the counting global
# allocator of tests/alloc_budget.rs, the one `unsafe impl` in any test.
unsafe_code='unsafe[[:space:]]*([{]|impl[[:space:]]|fn[[:space:]])'
unsafe_tests=$(grep -rlE "$unsafe_code" tests crates/*/tests | sort | tr '\n' ' ')
unsafe_tests_allowed='crates/core/tests/zeroize_drop.rs crates/crypto/tests/zeroize_drop.rs tests/alloc_budget.rs '
if [ "$unsafe_tests" != "$unsafe_tests_allowed" ]; then
    echo "error: test files using unsafe are '${unsafe_tests}', allowed: '${unsafe_tests_allowed}'" >&2
    exit 1
fi
unsafe_impls=$(grep -rnE '^[[:space:]]*unsafe[[:space:]]+impl' tests crates/*/tests || true)
case "$unsafe_impls" in
    "tests/alloc_budget.rs:"*"unsafe impl GlobalAlloc for "*)
        if [ "$(printf '%s\n' "$unsafe_impls" | wc -l)" -ne 1 ]; then
            echo "error: more than one unsafe impl in test files: ${unsafe_impls}" >&2
            exit 1
        fi
        ;;
    *)
        echo "error: the one unsafe impl in test files must be tests/alloc_budget.rs's GlobalAlloc, found '${unsafe_impls}'" >&2
        exit 1
        ;;
esac
for root in src/lib.rs crates/*/src/lib.rs; do
    case "$root" in
        crates/crypto/src/lib.rs) attr='#![deny(unsafe_code)]' ;;
        *) attr='#![forbid(unsafe_code)]' ;;
    esac
    if ! grep -qxF "$attr" "$root"; then
        echo "error: $root lacks $attr" >&2
        exit 1
    fi
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (every crate and target, warnings are errors)"
cargo clippy -q --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors)"
# A doc link to a deleted or renamed item, or one that names two items at
# once, fails here instead of rotting in the rendered docs.
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace

echo "==> amnesia-lint (secret-hygiene / dataflow / determinism / no-panic / hermeticity)"
# Fails on any finding not grandfathered in lint-baseline.txt. To waive one
# finding add `// lint: allow(<rule>) <reason>`; to accept new debt run
# `cargo run -p amnesia-lint -- --update-baseline` and commit the file.
# The full-workspace analysis must also finish inside its 10 s budget —
# the gate has to stay cheap enough to run on every PR.
lint_start=$(date +%s)
cargo run -q --release --offline --locked -p amnesia-lint
lint_elapsed=$(( $(date +%s) - lint_start ))
if [ "$lint_elapsed" -gt 10 ]; then
    echo "error: amnesia-lint took ${lint_elapsed}s (budget: 10s)" >&2
    exit 1
fi

echo "==> lint baseline is not growing"
# The committed baseline is a debt ledger: it must only shrink. A PR that
# needs to grandfather *new* debt must say so by editing this threshold.
lint_baseline_max=80
lint_baseline_count=$(grep -c '^[^#]' lint-baseline.txt)
if [ "$lint_baseline_count" -gt "$lint_baseline_max" ]; then
    echo "error: lint-baseline.txt has ${lint_baseline_count} entries (max: ${lint_baseline_max}); pay debt down instead of adding to it" >&2
    exit 1
fi

echo "==> no external dependencies declared"
if grep -rn 'serde\|rand\|proptest\|criterion\|crossbeam\|parking_lot\|bytes' \
    --include=Cargo.toml Cargo.toml crates/*/Cargo.toml; then
    echo "error: external dependency mention found in a manifest" >&2
    exit 1
fi

echo "==> telemetry report smoke run"
cargo run -q --release --offline --locked -p amnesia-bench \
    --bin telemetry_report >/dev/null

echo "==> crypto throughput smoke run (RFC 7914 KATs + KDF ladder sweep)"
# Quick-mode bench: runs the RFC 7914 scrypt known-answer vectors (the
# binary exits nonzero on any KAT mismatch), exercises the HMAC midstate /
# PBKDF2 fan-out hot path end to end, sweeps the KdfPolicy ladder, and
# self-validates every metric > 0. The committed baseline
# (BENCH_CRYPTO.json) is regenerated separately with a full run.
mkdir -p target
cargo run -q --release --offline --locked -p amnesia-bench \
    --bin bench_crypto -- --quick --out target/BENCH_CRYPTO.quick.json
for metric in hmac_msgs_per_sec pbkdf2_iters_per_sec e2e_generate_p50_ns \
    kdf_ladder; do
    if ! grep -q "\"$metric\"" target/BENCH_CRYPTO.quick.json; then
        echo "error: $metric missing from target/BENCH_CRYPTO.quick.json" >&2
        exit 1
    fi
done
if ! grep -q '"scrypt_kats": "pass"' target/BENCH_CRYPTO.quick.json; then
    echo "error: scrypt KATs did not pass in target/BENCH_CRYPTO.quick.json" >&2
    exit 1
fi
for rung in interactive balanced paranoid; do
    if ! grep -q "\"rung\":\"$rung\"" target/BENCH_CRYPTO.quick.json; then
        echo "error: ladder rung $rung missing from target/BENCH_CRYPTO.quick.json" >&2
        exit 1
    fi
done

echo "==> fleet scaling smoke run"
# Quick-mode sharded-fleet bench (6k users, shards {1,4}): population-
# sampled generation burst per shard count; fails unless the 4-shard
# sustained sim gen/s reaches 2x the single-shard figure. The committed
# baseline (BENCH_FLEET.json) is regenerated with a full run, which also
# writes the quick cells as its "quick" section. The simulation is
# deterministic, so every field of every quick cell but the wall_* ones
# must equal that section exactly.
cargo run -q --release --offline --locked -p amnesia-bench \
    --bin bench_fleet -- --quick --out target/BENCH_FLEET.quick.json
simulated_cells() {
    grep -o '{"users".*}' | sed 's/"wall_[a-z_]*":[0-9.]*,//g'
}
sed -n '/"quick": \[/,/\]/p' BENCH_FLEET.json | simulated_cells \
    >target/BENCH_FLEET.committed.cells
simulated_cells <target/BENCH_FLEET.quick.json >target/BENCH_FLEET.quick.cells
if [ ! -s target/BENCH_FLEET.committed.cells ] ||
    ! diff target/BENCH_FLEET.committed.cells target/BENCH_FLEET.quick.cells >&2; then
    echo "error: bench_fleet --quick cells differ from BENCH_FLEET.json's quick section" >&2
    exit 1
fi

echo "==> durable store write-path smoke run"
# Quick-mode store bench (20k entries): snapshot-per-write vs WAL vs
# group-committed WAL plus the recovery-time curve; the bin itself fails
# unless group commit reaches 10x the snapshot-per-write rate. The
# committed baseline (BENCH_STORE.json) is regenerated with a full run.
# Crash-recovery invariants (torn tail at every byte offset, bit flips,
# ack/fsync ordering) run in the failure_injection suite of the workspace
# tests above.
cargo run -q --release --offline --locked -p amnesia-bench \
    --bin bench_store -- --quick --out target/BENCH_STORE.quick.json
for metric in wal_group_commit_wps snapshot_per_write_wps recover_ms; do
    if ! grep -q "\"$metric\"" target/BENCH_STORE.quick.json; then
        echo "error: $metric missing from target/BENCH_STORE.quick.json" >&2
        exit 1
    fi
done

echo "==> e2e throughput smoke run"
# Quick-mode batch driver (N ∈ {1, 256}): opens whole batches of sessions
# through generate_passwords_concurrent, fails on any lost session, and
# enforces the head-of-line gate — N=256 mean simulated latency must stay
# within 1.25x the N=1 mean. The committed baseline (BENCH_E2E.json) is
# regenerated with a full run. The simulation is deterministic and quick
# mode runs the same N = 1 and N = 256 batches as a full run, so each
# batch's mean simulated latency must equal the committed one exactly.
cargo run -q --release --offline --locked -p amnesia-bench \
    --bin bench_e2e -- --quick --out target/BENCH_E2E.quick.json
for n in 1 256; do
    committed=$(grep -o "{\"n\":$n,[^}]*}" BENCH_E2E.json |
        sed -n 's/.*"sim_latency_mean_ms":\([0-9.]*\).*/\1/p')
    quick=$(grep -o "{\"n\":$n,[^}]*}" target/BENCH_E2E.quick.json |
        sed -n 's/.*"sim_latency_mean_ms":\([0-9.]*\).*/\1/p')
    if [ -z "$committed" ] || [ "$quick" != "$committed" ]; then
        echo "error: bench_e2e N=$n sim_latency_mean_ms is '$quick', BENCH_E2E.json has '$committed'" >&2
        exit 1
    fi
done

echo "==> BENCHMARK.json benchmark smoke test"
# benchmark/ is its own workspace, so `cargo test --workspace` above never
# builds it. Its smoke test runs every workload in --quick mode and checks
# the metric names, units, digests and output checks; running it here keeps
# a change to an API the benchmark calls from silently breaking
# BENCHMARK.json's command.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> BENCHMARK.json digests (seed 3001)"
# Pins every generated password byte for byte across performance changes:
# runs BENCHMARK.json's command once per workload at seed 3001 and fails
# unless the printed digest, and the number of ops it covers, equal the
# "Digests (seed 3001)" table of benchmark/BASELINE.md. The table is only
# read here, never written.
mkdir -p target
for workload in interactive burst mixed signup; do
    expected=$(awk -F'|' -v w="$workload" '
        /^## Digests \(seed 3001\)/ { in_table = 1; next }
        /^## / { in_table = 0 }
        in_table && $2 == " " w " " { gsub(/[ `]/, "", $3); gsub(/[ `]/, "", $4); print $4 " ops=" $3 }
    ' benchmark/BASELINE.md)
    if [ -z "$expected" ]; then
        echo "error: no seed-3001 digest for $workload in benchmark/BASELINE.md" >&2
        exit 1
    fi
    cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 3001 --seconds 0 --trace 0 \
        >"target/benchmark-digest.$workload.txt"
    actual=$(sed -n "s/^$workload\.digest //p" "target/benchmark-digest.$workload.txt")
    if [ "$actual" != "$expected" ]; then
        echo "error: $workload digest is '$actual', benchmark/BASELINE.md has '$expected'" >&2
        exit 1
    fi
done

echo "OK: offline build, tests, release-mode crypto, net, system, fleet, server, rendezvous and store tests, release-mode allocation budget, unsafe budget, formatting, clippy, rustdoc, lint, zero-dependency check, telemetry, crypto-bench, fleet, store write-path, e2e-throughput, benchmark smoke runs and benchmark digests passed"
