#!/usr/bin/env bash
# Tier-1 verification gate: offline release build, full test suite, and a
# parallel-vs-serial smoke run of one figure binary. Run from the repo root.
#
#   scripts/verify.sh
#
# Everything here must pass with NO network access — the workspace has no
# registry dependencies (property tests use the in-repo proptest shim).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== lint: cargo clippy --workspace --all-targets -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== audit: workspace pass vs committed baseline (audit_tool check) =="
# Hard gate: the two-pass auditor (crates/analysis) runs every rule —
# per-file det-*/struct-attrs/merge-commutativity plus the workspace
# hot-set (hot-panic/hot-alloc over the computed call-graph reach),
# unit-domain and counter-reconciliation passes — and
# ratchets the findings against results/audit_baseline.json. New findings
# fail; entries that no longer reproduce fail too (delete them from the
# baseline so the bar only moves down). Regenerate after intentional
# changes with:
#   cargo run --release -p memsim-analysis --bin audit_tool -- \
#     check --format json > results/audit_baseline.json
cargo run --release -q -p memsim-analysis --bin audit_tool -- \
  check --format json --baseline results/audit_baseline.json >/dev/null

echo "== audit: self-test — doctored inputs must be caught =="
audit_smoke="$(mktemp -d)"
mkdir -p "$audit_smoke/crates/sim/src" "$audit_smoke/crates/obs/src"
cat > "$audit_smoke/crates/sim/src/det.rs" <<'RS'
//! Doctored self-test input: the injected `HashMap::new` below must trip
//! det-hashmap, proving the verify gate actually runs the auditor.
fn doctored() -> usize {
    std::collections::HashMap::<u64, u64>::new().len()
}
RS
cat > "$audit_smoke/crates/sim/src/transitive.rs" <<'RS'
//! Doctored self-test input: the controller entry point calls a helper
//! in a second file; only the computed call-graph reach puts that helper
//! on the hot path, where its unwrap must trip hot-panic.
pub struct SmokeController(Vec<u64>);
impl SmokeController {
    pub fn access(&mut self, a: u64) -> u64 { smoke_lookup(&self.0, a) }
}
RS
cat > "$audit_smoke/crates/sim/src/lookup.rs" <<'RS'
//! Doctored self-test input: reached only from SmokeController::access.
pub fn smoke_lookup(slots: &[u64], a: u64) -> u64 {
    *slots.get(a as usize).unwrap()
}
RS
cat > "$audit_smoke/crates/sim/src/merge.rs" <<'RS'
//! Doctored self-test input: a last-writer-wins `=` inside a merge fn
//! must trip merge-commutative.
pub struct Partial { pub count: u64, pub last: u64 }
impl Partial {
    // audit: merge
    pub fn absorb(&mut self, o: &Partial) {
        self.count += o.count;
        self.last = o.last;
    }
}
RS
cat > "$audit_smoke/crates/sim/src/units.rs" <<'RS'
//! Doctored self-test input: adding an annotated cycle count to an
//! annotated byte count must trip unit-mismatch.
pub struct Probe {
    pub busy: u64, // audit: unit(cycles)
    pub moved: u64, // audit: unit(bytes)
}
impl Probe {
    pub fn skew(&self) -> u64 { self.busy + self.moved }
}
RS
cat > "$audit_smoke/crates/obs/src/counters.rs" <<'RS'
//! Doctored self-test input: a pub obs counter named by no test or
//! reconciliation invariant must trip obs-counter-reconcile.
pub struct SmokeCounters {
    pub orphaned: u64,
}
RS
# Each entry is one audited corpus: the hot-path case is two files.
for doctored in crates/sim/src/det.rs \
                "crates/sim/src/transitive.rs crates/sim/src/lookup.rs" \
                crates/sim/src/merge.rs crates/sim/src/units.rs \
                crates/obs/src/counters.rs; do
  corpus=()
  for f in $doctored; do corpus+=("$audit_smoke/$f"); done
  if cargo run --release -q -p memsim-analysis --bin audit_tool -- \
    check --root "$audit_smoke" "${corpus[@]}" \
    >/dev/null 2>&1; then
    echo "FAIL: audit_tool did not flag doctored $doctored" >&2
    rm -rf "$audit_smoke"
    exit 1
  fi
done
rm -rf "$audit_smoke"
echo "ok: workspace audit matches baseline, all 5 doctored inputs exit nonzero"

echo "== property tests (in-repo proptest shim) =="
cargo test -q --workspace \
  --features memsim-types/proptest,memsim-cache/proptest,memsim-baselines/proptest,memsim-dram/proptest,bumblebee-core/proptest,memsim-sim/proptest

echo "== smoke: fig8 serial vs parallel must be byte-identical =="
smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT
common=(--scale 256 --accesses 20000 --workloads mcf,wrf)
cargo run --release -q -p bumblebee-bench --bin fig8 -- \
  "${common[@]}" --jobs 1 --out "$smoke/serial" >/dev/null
cargo run --release -q -p bumblebee-bench --bin fig8 -- \
  "${common[@]}" --jobs 4 --out "$smoke/parallel" >/dev/null
if ! cmp -s "$smoke/serial/fig8.jsonl" "$smoke/parallel/fig8.jsonl"; then
  echo "FAIL: fig8.jsonl differs between --jobs 1 and --jobs 4" >&2
  diff "$smoke/serial/fig8.jsonl" "$smoke/parallel/fig8.jsonl" | head >&2
  exit 1
fi
echo "ok: $(wc -l < "$smoke/serial/fig8.jsonl") JSONL lines identical at both widths"

echo "== smoke: fig6/fig8 byte-identical at every --shards x --batch point =="
# --jobs, --shards and --batch are pure performance transforms of one
# simulation model, so every point of the matrix {no --shards, 1, 2, 8}
# x --batch {1, 64, 4096} must reproduce the serial --batch 1 run: the
# results, epoch time-series, event-trace, sampled latency and bandwidth
# JSONL of fig6 (Bumblebee design points plus No-HBM) and fig8 (every
# baseline, whose lookup stays on the cell's thread, plus Bumblebee),
# byte for byte.
for fig in fig6 fig8; do
  for shards in none 1 2 8; do
    for batch in 1 64 4096; do
      shard_flag=()
      if [ "$shards" != none ]; then shard_flag=(--shards "$shards"); fi
      cargo run --release -q -p bumblebee-bench --bin "$fig" -- \
        --scale 256 --accesses 20000 --workloads mcf --jobs 2 --metrics \
        --trace-sample 64 "${shard_flag[@]}" --batch "$batch" \
        --out "$smoke/$fig-s$shards-b$batch" >/dev/null
    done
  done
  ref="$smoke/$fig-snone-b1"
  for f in "$fig.jsonl" "$fig.epochs.jsonl" "$fig.trace.jsonl" "$fig.lat.jsonl" "$fig.bw.jsonl"; do
    if [ ! -s "$ref/$f" ]; then
      echo "FAIL: the serial --batch 1 run did not produce a non-empty $f" >&2
      exit 1
    fi
    for run in "$smoke/$fig"-s*-b*; do
      if ! cmp -s "$ref/$f" "$run/$f"; then
        echo "FAIL: $f differs between serial --batch 1 and ${run##*/}" >&2
        diff "$ref/$f" "$run/$f" | head >&2
        exit 1
      fi
    done
  done
done
echo "ok: fig6 and fig8 results/epochs/trace/lat/bw identical at all 12 --shards x --batch points"

echo "== smoke: trace_tool latency — per-path tails reconcile exactly =="
# Hard gate on the latency-attribution acceptance criterion: the per-path
# sample counts in fig6.lat.jsonl must reconcile EXACTLY against the
# controller hit/miss/bypass counters (trace_tool latency exits nonzero
# on any mismatch), for Bumblebee and every baseline in the sweep.
cargo run --release -q -p bumblebee-bench --bin trace_tool -- \
  latency "$smoke/fig6-snone-b1/fig6.lat.jsonl" >/dev/null
echo "ok: path counts reconcile against CtrlStats for every design"

echo "== smoke: trace_tool bandwidth — cause bytes reconcile exactly =="
# Hard gate on the traffic-accounting acceptance criterion: per device,
# the cause-attributed byte sums in fig6.bw.jsonl must reconcile EXACTLY
# against the DRAM devices' own total_bytes counters (trace_tool
# bandwidth exits nonzero on any unclassified, dropped or double-counted
# transaction), for Bumblebee and every baseline in the sweep.
cargo run --release -q -p bumblebee-bench --bin trace_tool -- \
  bandwidth "$smoke/fig6-snone-b1/fig6.bw.jsonl" >/dev/null
echo "ok: cause-attributed bytes reconcile with device counters"

echo "== smoke: fig6 --metrics writes observability artifacts =="
cargo run --release -q -p bumblebee-bench --bin fig6 -- \
  --scale 256 --accesses 20000 --workloads mcf --jobs 2 --metrics \
  --out "$smoke/metrics" >/dev/null
for f in fig6.jsonl fig6.epochs.jsonl fig6.trace.jsonl fig6.metrics.jsonl; do
  if [ ! -s "$smoke/metrics/$f" ]; then
    echo "FAIL: --metrics did not produce a non-empty $f" >&2
    exit 1
  fi
done
cargo run --release -q -p bumblebee-bench --bin trace_tool -- \
  summarize "$smoke/metrics/fig6.trace.jsonl" >/dev/null
echo "ok: epochs/trace/metrics JSONL written and summarizable"

echo "== smoke: checked-invariant build must be byte-identical =="
# Same fig6 run compiled with --features checked: cross-structure invariant
# sweeps fire every 4096 accesses (BUMBLEBEE_CHECKED_INTERVAL default) and
# panic on the first violation. The sweeps are read-only, so the JSONL
# output must match the unchecked run byte for byte.
cargo run --release -q -p bumblebee-bench --features checked --bin fig6 -- \
  --scale 256 --accesses 20000 --workloads mcf --jobs 2 --metrics \
  --out "$smoke/checked" >/dev/null
if ! cmp -s "$smoke/metrics/fig6.jsonl" "$smoke/checked/fig6.jsonl"; then
  echo "FAIL: fig6.jsonl differs between unchecked and --features checked" >&2
  diff "$smoke/metrics/fig6.jsonl" "$smoke/checked/fig6.jsonl" | head >&2
  exit 1
fi
echo "ok: invariant sweeps passed and output is byte-identical"

echo "== smoke: trace_tool diff — self clean, doctored caught =="
cargo run --release -q -p bumblebee-bench --bin trace_tool -- \
  diff "$smoke/metrics/fig6.epochs.jsonl" "$smoke/metrics/fig6.epochs.jsonl" >/dev/null
sed 's/"fills":[0-9]*/"fills":0/' "$smoke/metrics/fig6.epochs.jsonl" \
  > "$smoke/metrics/doctored.epochs.jsonl"
if cargo run --release -q -p bumblebee-bench --bin trace_tool -- \
  diff "$smoke/metrics/fig6.epochs.jsonl" "$smoke/metrics/doctored.epochs.jsonl" \
  >/dev/null 2>&1; then
  echo "FAIL: trace_tool diff did not flag a doctored epochs file" >&2
  exit 1
fi
echo "ok: epochs self-diff clean, doctored diff exits nonzero"

echo "== perfbench: builds against the workspace crates, tests pass =="
# perfbench (the wall-clock benchmark; see perfbench/README.md) is a
# workspace of its own, so nothing above compiles it: this gate catches a
# change to any pub API it uses. The cycle-domain golden of the Fig. 8
# quick matrix is tier-1 (tests/golden.rs, run by `cargo test -q` above).
perfbench_target="$PWD/target/perfbench"
CARGO_TARGET_DIR="$perfbench_target" \
  cargo build --release --offline --manifest-path perfbench/Cargo.toml
CARGO_TARGET_DIR="$perfbench_target" \
  cargo test -q --offline --manifest-path perfbench/Cargo.toml
echo "ok: perfbench builds and its tests pass"

echo "== verify.sh: all gates passed =="
