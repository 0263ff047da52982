# Project task runner. `just <recipe>`; plain `just` lists recipes.

default:
    @just --list

# Tier-1 verification: the build-and-test gate every change must pass.
verify:
    cargo build --release
    cargo test --workspace -q

# Lint gate: clippy across every target, warnings are errors.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Formatting gate.
fmt-check:
    cargo fmt --all -- --check

fmt:
    cargo fmt --all

# Manifest gate: every `pgc-x` a package depends on is named in its sources.
unused-deps:
    ./scripts/unused-deps.sh

# All gates in one go.
check: fmt-check unused-deps clippy verify

# Lines of product source: `crates/*/src` outside `crates/bench` — the
# figure ROADMAP tracks — with its product / unit-test split.
loc:
    @./scripts/loc.sh

# Product lines that can panic (`unwrap()`, `expect(`, `panic!`,
# `unreachable!`, `assert*`) per crate, on `loc`'s product / unit-test
# split; fails above the ceiling written in the script (a CI gate).
panics:
    @./scripts/panics.sh

# Tap the headline comparison for telemetry: writes one JSONL line per
# collector activation (schema pgc-telemetry/v1) to telemetry.jsonl and
# prints the per-policy telemetry summary table. Scaled down by default;
# pass scale=100 for the full paper workload.
telemetry out="telemetry.jsonl" scale="25" seeds="3":
    cargo run --release -p pgc-bench --bin all_experiments -- \
        table2 --seeds {{seeds}} --scale {{scale}} --telemetry-out {{out}}

# The sharded multi-tenant server: run the client_server driver on a
# fleet of `shards` shard worker threads hosting `streams` client
# streams (per-shard telemetry, aggregate events/sec, inter-shard
# remset counters, and a stream-0 fidelity check against a dedicated
# single-Simulation run). Scaled down by default; pass scale=100 for
# full paper-size tenants.
serve shards="4" streams="8" scale="25":
    cargo run --release -p pgc-bench --bin client_server -- \
        --shards {{shards}} --streams {{streams}} --scale {{scale}}

# The server's own tests (worker shutdown, per-session links, worker batching,
# stream handles) and the 1/2/4-shard and drain-batching equivalence
# suite (throughput is the
# benchmark's business: `fleet_roundtrip` in benchmark/README.md). The
# same two commands run under ThreadSanitizer in CI's advisory job.
shards:
    cargo test -q -p pgc-server --lib
    cargo test -q -p pgc --test shard_equivalence

# Crash-recovery smoke: a clean durable run recovered with a pinned
# digest and its directory counted (two generation files at most, no .tmp,
# no per-partition file name), then two mid-run kills of a run four times
# as long (no final snapshot, buffered log tail dropped, the snapshot
# writer thread cut off wherever it was) recovered from whatever reached
# disk: each from a mid-run generation, the later one after generation 1
# was pruned (CI's crash step says why). Every directory is recovered
# both ways — restored from its newest generation, and `--verify`'s replay
# from event 0, which must also capture every usable generation's file byte
# for byte — and the two digests must agree. Exercises the same tooling
# the CI smoke job runs; scratch dirs live under target/ and are removed
# afterwards. The kills are real process exits, the reference for the
# crash-point matrix in pgc-sim's unit tests (every directory state a kill
# can leave, built from the store's recorded writes).
recover:
    rm -rf target/recover-smoke
    cargo build --release -p pgc-bench --bin recover_tool
    d=$(./target/release/recover_tool run target/recover-smoke/clean updated-pointer 1 | awk '/^run:/ {print $NF}'); \
        ./target/release/recover_tool recover target/recover-smoke/clean --verify --expect $d
    if ls target/recover-smoke/clean | grep -E '\.tmp$|^snap-.*-p.*\.pgcs$'; then exit 1; fi
    [ "$(ls target/recover-smoke/clean | grep -c '^snap-.*\.pgcs$')" -le 2 ]
    for n in 13000 21000; do \
        ./target/release/recover_tool crash target/recover-smoke/killed-$n $n most-garbage 2 && \
        ls target/recover-smoke/killed-$n && \
        out=$(./target/release/recover_tool recover target/recover-smoke/killed-$n --verify) && \
        echo "$out" && \
        echo "$out" | grep -q '^restored: generation' && \
        [ "$(echo "$out" | awk '/^recover:/ {print $NF}')" = "$(echo "$out" | awk '/^verify:/ {print $NF}')" ] || exit 1; \
    done
    [ ! -e target/recover-smoke/killed-21000/snap-00000001.pgcs ]
    rm -rf target/recover-smoke

# Run every example in release, each with its wall time (`cargo test`
# only compiles them).
examples:
    for e in examples/*.rs; do \
        name=$(basename $e .rs); \
        start=$(date +%s%N); \
        cargo run --release -q --example $name > /dev/null || exit 1; \
        echo "$name: $(( ($(date +%s%N) - start) / 1000000 )) ms"; \
    done

# Regenerate the three committed experiment reports (full scale ≈ 27 s,
# ablations ≈ 4 s, meta-policy < 1 s on 2 cores). Everything is
# deterministic in seeds, so `git diff` afterwards must be empty unless the
# change meant to move a number; CI runs exactly this and fails on a diff.
reports:
    cargo run --release -p pgc-bench --bin all_experiments -- --out full_report.txt
    cargo run --release -p pgc-bench --bin ablation_sweeps -- \
        --seeds 3 --scale 50 --out ablation_report.txt
    cargo run --release -p pgc-bench --bin meta_policy -- \
        --seeds 2 --scale 25 --out meta_report.txt

# The benchmark package's own tests (it is a separate workspace, so
# `cargo test` at the root does not run them): smoke-sized runs of both
# workloads held against benchmark/golden, and the `compare` bounds.
bench-selftest:
    cargo test --manifest-path benchmark/Cargo.toml

# Alternating parent/change pairs of the repository benchmark, the measurement
# every performance claim rests on: builds `benchmark/` at `parent` (a
# `git archive` copy under target/pairs/) and in the working tree, runs `n`
# alternating pairs of BENCHMARK.json's run length on `workload`
# (`churn_durable` or `fleet_roundtrip`) at workload seed `seed`, and prints per
# end-to-end metric the two medians, the parent's inter-quartile distance and
# wins/n. Ten 55 s pairs take ~19 minutes. A claim must also hold on a seed
# not used while writing the change.
pairs parent workload n="10" seed="1":
    ./scripts/pairs.sh {{parent}} {{workload}} {{n}} {{seed}}
