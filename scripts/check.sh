#!/usr/bin/env bash
# Tier-1 gate: release build, clippy's policy and no-panic lints with
# warnings fatal, the public-item and manifest census and the suppression
# budget, the source scans, the full test suite, and the same suite pinned
# to one thread (WR_THREADS=1 exercises the pool's sequential fallback —
# the path every parallel primitive must match bit-for-bit).
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# A bare `cargo test` at the root runs what `--workspace` runs only while
# the root manifest names every crate a default member; without the line
# it covers the umbrella package alone, and the bit-level suites go unrun.
echo "== check: the root manifest makes every crate a default member =="
grep -Eq '^default-members = \[".", "crates/\*"\]$' Cargo.toml \
    || { echo "   Cargo.toml: default-members = [\".\", \"crates/*\"] is missing"; exit 1; }

# A plain build: `RUSTFLAGS` are part of every crate's fingerprint, so a
# `-D warnings` build here would be compiled a second time by the plain
# `--examples` build below. Warnings stay fatal: the clippy step runs
# rustc over every target with `-D warnings`.
echo "== check: cargo build --release =="
cargo build --release --workspace

# The policy lints (DESIGN.md §5b) hold every member whose manifest opts
# into the root `[workspace.lints]`; a member without the opt-in would
# escape them silently.
echo "== check: every member manifest opts into the workspace lints =="
no_lints="$(for m in Cargo.toml crates/*/Cargo.toml; do
    awk '/^\[lints\]$/ { t = 1; next } /^\[/ { t = 0 } t && /^workspace *= *true$/ { ok = 1 }
         END { exit !ok }' "$m" || echo "$m"; done)"
[ -z "$no_lints" ] \
    || { echo "   manifests without [lints] workspace = true:"; echo "$no_lints"; exit 1; }

# The no-panic lints are a `#![deny]` at each library root (DESIGN.md §5b),
# and a deny line covers its own crate only: dropping one would leave that
# crate unchecked without failing anything. Every library but crates/bench
# (the experiment binaries) denies the five, and the nine crates the
# serving and training paths run through deny `indexing_slicing` too.
echo "== check: every library root denies the no-panic lints =="
no_deny="$(for lib in crates/*/src/lib.rs; do
    [ "$lib" = crates/bench/src/lib.rs ] && continue
    denied="$(awk '/^#!\[deny\(/ { d = 1 } d { printf "%s ", $0 } d && /\)\]/ { d = 0 }' "$lib")"
    lints="unwrap_used expect_used panic todo unimplemented"
    case "$lib" in
        crates/serve/*|crates/ann/*|crates/gateway/*|crates/runtime/*|crates/obs/*| \
        crates/fault/*|crates/train/*|crates/models/*|crates/textsim/*)
            lints="$lints indexing_slicing" ;;
    esac
    for lint in $lints; do
        grep -Eq "clippy::$lint([^a-z_]|$)" <<< "$denied" || echo "$lib: clippy::$lint"
    done; done)"
[ -z "$no_deny" ] \
    || { echo "   library roots missing a no-panic deny:"; echo "$no_deny"; exit 1; }

# `cargo build --workspace` compiles libraries and binaries only: tests
# and examples are type-checked here, and every target is held to the
# policy lints of `[workspace.lints.clippy]` / clippy.toml and to
# `-D warnings` (a stale `#[expect]` fails as
# `unfulfilled_lint_expectations`).
echo "== check: cargo clippy --workspace --all-targets (-D warnings) =="
cargo clippy --release --offline --workspace --all-targets -- -D warnings

# bench/ledger is a workspace of its own and inherits no lint table, so
# its policy lints come from the command line; clippy still reads the
# disallowed lists from the root clippy.toml.
echo "== check: cargo clippy bench/ledger (SAFETY comments, disallowed lists) =="
cargo clippy --release --offline --manifest-path bench/ledger/Cargo.toml --all-targets -- \
    -A clippy::all -D clippy::undocumented_unsafe_blocks \
    -D clippy::disallowed_methods -D clippy::disallowed_types -D warnings

# DESIGN.md §3's rule, which rustc's dead-code lint cannot apply past
# `pub`: every public item that no non-test code uses must be one the
# census's exempt table holds, with its reason. The script fails on any
# other, and on an exemption whose item has found a caller. It holds every
# manifest of this workspace to the same rule: a `[dependencies]` line
# stays only if the package's non-test code names the crate, a
# `[dev-dependencies]` line only if its tests or examples do. It also
# counts every lint an `#[expect(clippy::…)]` names, per lint and per
# crate, and fails unless the counts equal check_baseline.json: a
# suppression added or removed edits the budget in the same change.
echo "== check: public-item and manifest census, suppression budget =="
python3 scripts/census.py

# `wr_tensor::tanh_scalar` is the only tanh a model may reach (DESIGN.md
# §5c "Activations"): libm's `tanhf` is not correctly rounded, so a raw
# `f32::tanh` on one model's path would make its scores depend on the
# box's C library again without failing any differential (both sides of
# each call the same kernel). Scans the non-test part of every source
# file (up to its `#[cfg(test)]`); the one `.tanh()` allowed is
# `Graph::tanh` calling `Tensor::tanh`, which maps `tanh_scalar`.
echo "== check: no libm tanh on the model path =="
raw_tanh="$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /f32::tanh|\.tanh\(\)/ { print FILENAME ":" FNR ": " $0 }' \
    | grep -v '^crates/autograd/src/ops\.rs:.*self\.val(a)\.tanh()' || true)"
[ -z "$raw_tanh" ] \
    || { echo "   raw tanh outside wr_tensor::tanh_scalar:"; echo "$raw_tanh"; exit 1; }

# `wr_tensor::exp_scalar` is the only exp a model may reach (DESIGN.md §5c
# "Activations"), for the tanh gate's reason: libm's `expf` is not
# correctly rounded. Scans the crates a model's forward or backward runs
# in, each file up to its `#[cfg(test)]`; the one `.exp()` allowed is
# `Graph::exp` calling `Tensor::exp`, which maps `exp_scalar`. `wr-eval`'s
# f64 statistics, the t-SNE and t-test that moved from it into `wr-bench`
# (`tsne.rs`, `ttest.rs`: figure and table statistics, no model runs
# through them) and `wr-data`'s generator are not on that path and keep
# libm (moving them would move every workload's inputs and the record).
echo "== check: no libm exp on the model path =="
raw_exp="$(find crates/{tensor,autograd,nn,models,train,whitening,serve,gateway,ann,core,bench}/src \
        -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /f(32|64)::exp|\.exp(_m1|2)?\(\)/ { print FILENAME ":" FNR ": " $0 }' \
    | grep -v '^crates/autograd/src/ops\.rs:.*self\.val(a)\.exp()' \
    | grep -Ev '^crates/bench/src/(tsne|ttest)\.rs:' || true)"
[ -z "$raw_exp" ] \
    || { echo "   raw exp outside wr_tensor::exp_scalar:"; echo "$raw_exp"; exit 1; }

# No fused multiply-add in a bit-contract kernel (DESIGN.md §5c): the gemm,
# the Jacobi rotations and every value pinned on them round each product
# before the sum, and a fused multiply-add rounds once. The bit tests catch
# one only on a CPU that runs the arm it is in (an AVX-512 arm is never run
# on a box without AVX-512), so the spelling fails here on any box: Rust's
# `mul_add(` and the intrinsics' `fmadd` / `fmsub` / `fnmadd` / `fnmsub`.
# Scans the non-test part of every source file (up to its `#[cfg(test)]`).
echo "== check: no fused multiply-add in a bit-contract kernel =="
fused="$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /mul_add\(|fmadd|fmsub|fnmadd|fnmsub/ { print FILENAME ":" FNR ": " $0 }')"
[ -z "$fused" ] \
    || { echo "   fused multiply-add in a kernel:"; echo "$fused"; exit 1; }

# One vector-arm decision (DESIGN.md §5c "One arm decision"): a kernel
# runs the arm of the `wr_tensor::Arm` token it is handed, and only
# `crates/tensor/src/arm.rs` detects CPU features to build one. A feature
# check anywhere else would be a second decision, an arm the token's
# `// SAFETY:` argument does not cover, or an arm test that runs code the
# dispatch does not. Scans every source file, tests included.
echo "== check: CPU features are detected in the Arm token's module only =="
detect="$(grep -rn --include='*.rs' 'is_x86_feature_detected' crates/*/src \
    | grep -v '^crates/tensor/src/arm\.rs:' || true)"
[ -z "$detect" ] \
    || { echo "   is_x86_feature_detected! outside crates/tensor/src/arm.rs:"; echo "$detect"; exit 1; }

# `wr_tensor::gemm` is the only dot product the retrieval and serving
# crates may take (DESIGN.md §5c, §10a): full-probe IVF ≡ exact holds
# because both sides *are* the gemm kernel, not because a loop imitates
# its summation order. A hand-copied `s += a[p] * b[p]` kept the bits and
# cost 6× unnoticed (one dependent chain where the kernel keeps 16+ in
# flight), so a second spelling of the order fails here, by shape and by
# the old name. Non-test source only; the tests keep the plain loop as
# their reference.
echo "== check: no scalar dot in crates/ann, crates/serve =="
scalar_dot="$(find crates/ann/src crates/serve/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /fn dot_gemm_order|\+= *[A-Za-z_.]+\[[A-Za-z_]+\] *\* *[A-Za-z_.]+\[[A-Za-z_]+\]/ {
        print FILENAME ":" FNR ": " $0 }')"
[ -z "$scalar_dot" ] \
    || { echo "   scalar dot outside wr_tensor::gemm:"; echo "$scalar_dot"; exit 1; }

# The Transformer's attention is one tape node over allowed keys
# (`Graph::attention`, DESIGN.md §5c "Attention and dropout order"): the
# encoder path builds no `[batch, seq, seq]` tensor and no per-head copy.
# So the encoder may not build a mask, and `MultiHeadSelfAttention` may not
# reach for the ops the per-head chain was made of — a second attention
# path would keep every bit and cost the chain's `seq²` again, unnoticed.
# Non-test source only: the mask builders stay defined in attention.rs for
# DIF-SR's own block, and the tests assemble the chain as their reference.
echo "== check: no mask and no per-head chain on the encoder path =="
chain="$(awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    FILENAME ~ /transformer\.rs$/ && /_padding_mask\(/ { print FILENAME ":" FNR ": " $0 }
    FILENAME ~ /attention\.rs$/ && /(slice_cols|reshape|bmm|bmm_nt|softmax3d_last)\(/ {
        print FILENAME ":" FNR ": " $0 }' \
    crates/nn/src/transformer.rs crates/nn/src/attention.rs)"
[ -z "$chain" ] \
    || { echo "   mask or per-head chain on the encoder path:"; echo "$chain"; exit 1; }

# The taped encoder runs over the rows a batch holds (`AttentionKeys::packed`,
# DESIGN.md §6): pad positions pass through no layer. A layout-less
# `dropout(` in transformer.rs would address its factors by their index in
# the packed plane — a row's factor, and with it every trained number,
# would move with the other sequences' lengths — and positions tiled
# across the batch are the padded forward coming back. Non-test source
# only; `crates/nn/tests/packed_rows.rs` assembles the padded forward as
# its reference.
echo "== check: the encoder drops out by layout and tiles no positions =="
padded="$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /\.dropout\(|flat_map\(\|_\| *0\.\.seq\)/ { print FILENAME ":" FNR ": " $0 }' \
    crates/nn/src/transformer.rs)"
[ -z "$padded" ] \
    || { echo "   layout-less dropout or tiled positions in the encoder:"; echo "$padded"; exit 1; }

# A dropout factor is a function of where it lands (`wr_tensor::KeepMask`,
# DESIGN.md §5c "Attention and dropout order"), not the next draw of a
# stream: a `.chance(` on the tape's path would make a factor depend on
# how many were drawn before it, and a `.skip(` is the price of that —
# every position a layout does not hold, stepped over. Scans the non-test
# part of every source file under crates/autograd and crates/nn (up to its
# `#[cfg(test)]`).
echo "== check: no stream draw on the dropout path =="
stream_draws="$(find crates/autograd/src crates/nn/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /\.(skip|chance)\(/ { print FILENAME ":" FNR ": " $0 }')"
[ -z "$stream_draws" ] \
    || { echo "   stream draws on the dropout path:"; echo "$stream_draws"; exit 1; }

# The frozen encoder — serving's and evaluation's — runs over the rows a
# history holds too (DESIGN.md §6): each sequence's last `max(min(len,
# seq), 1)` ids and the positional rows of those positions. A per-sequence
# slice of all `seq` ids, or the whole positional table zipped into the
# blocks, is the padded frozen forward coming back — every bit kept, every
# pad row paid for again. Non-test source only.
echo "== check: the frozen encoder encodes no pad position =="
frozen_padded="$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /b *\* *seq *\.\. *\(b *\+ *1\) *\* *seq|self\.pos\.chunks_exact\(/ {
        print FILENAME ":" FNR ": " $0 }' \
    crates/nn/src/frozen.rs)"
[ -z "$frozen_padded" ] \
    || { echo "   padded ids or positions in the frozen encoder:"; echo "$frozen_padded"; exit 1; }

# Every environment variable the program reads is documented: each `WR_*`
# name in the non-test part of a source file (the knobs are read by
# literal name — `std::env::var("WR_THREADS")`, `knob("WR_SCALE", …)`,
# `WR_FAULT_SEED_ENV`) must be a row of README's environment table. A knob
# nobody can find is a knob nobody sets on purpose. The tests' own
# `WR_UPDATE_GOLDEN` is read under tests/ and is not scanned.
echo "== check: every WR_* variable read is in README's environment table =="
env_reads="$(find crates/*/src src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^ *\/\// { next }
    { while (match($0, /"WR_[A-Z0-9_]+"/)) {
        print substr($0, RSTART + 1, RLENGTH - 2); $0 = substr($0, RSTART + RLENGTH) } }' \
    | sort -u)"
documented="$(grep -Eo '^\| `WR_[A-Z0-9_]+` \|' README.md | grep -Eo 'WR_[A-Z0-9_]+' | sort -u)"
undocumented="$(comm -23 <(echo "$env_reads") <(echo "$documented"))"
[ -n "$env_reads" ] && [ -z "$undocumented" ] \
    || { echo "   read but not in README's environment table:"; echo "$undocumented"; exit 1; }
echo "   $(echo "$env_reads" | tr '\n' ' ')"

echo "== check: cargo test (default threads) =="
cargo test --workspace -q

echo "== check: cargo test (WR_THREADS=1) =="
WR_THREADS=1 cargo test --workspace -q

# The benchmark (bench/ledger, its own workspace) compiles against the
# serving crates by path: build it, run its unit tests and its smoke pass
# (every workload, every gate, no bound checked) so a break of the surface
# it uses fails here and not in the benchmark driver. Its allocator unit
# tests measure process-wide peaks and race each other on a multi-core
# box, so the test binary runs them one at a time.
echo "== check: bench/ledger smoke =="
RUST_TEST_THREADS=1 bench/ledger/check.sh

smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT

# The examples are the README's entry points: each must build, run to a
# zero exit and print what it promises — `quickstart` its test metrics,
# `cold_start` one row per model it compares. (Type-checking them, as the
# clippy step does, would not notice one that panics or prints nothing.)
echo "== check: the examples build and run =="
cargo build --release --examples
for ex in quickstart cold_start custom_embeddings whitening_playground incremental_items; do
    ./target/release/examples/"$ex" > "$smoke_dir/$ex.out" \
        || { echo "   example $ex exited non-zero"; exit 1; }
done
grep -q '^Test metrics: R@20 ' "$smoke_dir/quickstart.out" \
    || { echo "   quickstart printed no 'Test metrics:' line"; exit 1; }
cold_rows="$(grep -cE '^(SASRec\(T\)|WhitenRec|WhitenRec\+) +R@20 ' "$smoke_dir/cold_start.out" || true)"
[ "$cold_rows" -eq 3 ] \
    || { echo "   cold_start printed $cold_rows model rows, want 3"; exit 1; }
echo "   examples ok: $(grep '^Test metrics' "$smoke_dir/quickstart.out")"

echo "== check: bench smoke replay (bare engine) =="
./target/release/whitenrec bench --scale 0.05 --epochs 1 --queries 256 \
    --batch 32 --k 10 --check-naive 64 \
    --checkpoint "$smoke_dir/smoke.wrck" --out "$smoke_dir/report.json" \
    --trace-out "$smoke_dir/trace.json" --metrics-out "$smoke_dir/metrics.json"
grep -q '"p50_ms"' "$smoke_dir/report.json"
grep -q '"p95_ms"' "$smoke_dir/report.json"
grep -q '"p99_ms"' "$smoke_dir/report.json"
grep -q '"qps"' "$smoke_dir/report.json"
echo "   bench report ok: $(cat "$smoke_dir/report.json" | head -c 120)…"

# Telemetry exports: the trace must be Chrome trace_event JSON (the binary
# shape-validates before writing; assert the top-level key here too), and
# the metrics snapshot must carry the serve queue-depth gauge plus the four
# documented embedding-health families, before and after whitening.
echo "== check: bench telemetry exports =="
grep -q '"traceEvents"' "$smoke_dir/trace.json"
grep -q '"ph":"X"' "$smoke_dir/trace.json"
grep -q '"serve.queue_depth"' "$smoke_dir/metrics.json"
for stage in pre post; do
    for family in mean_pairwise_cosine top_k_singular_mass condition_number uniformity; do
        grep -q "\"whiten.$stage.$family\"" "$smoke_dir/metrics.json" \
            || { echo "   missing gauge whiten.$stage.$family"; exit 1; }
    done
done
grep -q '"serve.latency_ms"' "$smoke_dir/metrics.json"
# The fault-tolerance surface is exported even on a clean run (at zero).
grep -q '"fault.injected"' "$smoke_dir/metrics.json"
grep -q '"serve.quarantined_rows"' "$smoke_dir/metrics.json"
grep -q '"serve.retries"' "$smoke_dir/metrics.json"
grep -q '"train.resumes"' "$smoke_dir/metrics.json"
echo "   trace + metrics ok: $(wc -c < "$smoke_dir/trace.json") / $(wc -c < "$smoke_dir/metrics.json") bytes"

# ANN smoke: replay the same fixture (shared checkpoint — identical
# weights) through the IVF scorer at full probe. nprobe defaults to nlist,
# where the index must be *bit-identical* to the dense scorer: the in-run
# --check-naive differential must pass and the replay top1_checksum must
# equal the exact run's, and the serve.ann.* counters must show the scan
# actually went through the inverted lists.
echo "== check: bench ANN smoke (full-probe == exact) =="
./target/release/whitenrec bench --scale 0.05 --epochs 1 --queries 256 \
    --batch 32 --k 10 --check-naive 64 \
    --checkpoint "$smoke_dir/smoke.wrck" \
    --ann-nlist 16 --ann-index "$smoke_dir/ivf.wriv" \
    --out "$smoke_dir/ann-report.json" --metrics-out "$smoke_dir/ann-metrics.json"
exact_sum="$(grep -Eo '"top1_checksum":"[0-9a-f]+"' "$smoke_dir/report.json")"
ann_sum="$(grep -Eo '"top1_checksum":"[0-9a-f]+"' "$smoke_dir/ann-report.json")"
[ -n "$exact_sum" ] && [ "$exact_sum" = "$ann_sum" ] \
    || { echo "   ANN full-probe checksum diverged: $exact_sum vs $ann_sum"; exit 1; }
grep -Eq '"serve\.ann\.rows_scanned":[1-9]' "$smoke_dir/ann-metrics.json"
grep -Eq '"serve\.ann\.lists_probed":[1-9]' "$smoke_dir/ann-metrics.json"
test -s "$smoke_dir/ivf.wriv"
echo "   ann ok: $ann_sum $(grep -Eo '"serve\.ann\.rows_scanned":[0-9]+' "$smoke_dir/ann-metrics.json")"

# Taped-encode smoke: GRU4Rec has no frozen form (`SeqRecModel::freeze` →
# None), so this replay goes through the other arm of the serving encode
# seam — the taped `user_representations` — and must still equal the naive
# reference. Every other smoke here serves a model with a frozen encoder.
echo "== check: bench taped-encode smoke (--model GRU4Rec, no frozen form) =="
./target/release/whitenrec bench --model GRU4Rec --scale 0.05 --epochs 1 \
    --queries 256 --batch 32 --k 10 --check-naive 64 \
    --out "$smoke_dir/gru-report.json"
grep -Eq '"top1_checksum":"[0-9a-f]+"' "$smoke_dir/gru-report.json"
echo "   taped encode ok: $(grep -Eo '"top1_checksum":"[0-9a-f]+"' "$smoke_dir/gru-report.json")"

# Cosine smoke: UniSRec(T) ranks by cos(s, v) / τ, so its snapshot holds the
# row-normalised V̂ and normalises every encoded user — the only end-to-end
# run of that path (cache, encode, naive reference, gateway windows); every
# other smoke serves an inner-product model. The engine and a 2-shard
# gateway, each checked against the naive reference, must agree.
echo "== check: bench cosine smoke (--model 'UniSRec(T)', served over V̂) =="
./target/release/whitenrec bench --model 'UniSRec(T)' --scale 0.05 --epochs 1 \
    --queries 256 --batch 32 --k 10 --check-naive 64 \
    --out "$smoke_dir/cos-report.json"
./target/release/whitenrec bench --model 'UniSRec(T)' --scale 0.05 --epochs 1 \
    --queries 256 --batch 32 --k 10 --shards 2 --check-naive 64 \
    --out "$smoke_dir/cos-gw2-report.json"
cos_sum="$(grep -Eo '"top1_checksum":"[0-9a-f]+"' "$smoke_dir/cos-report.json")"
cos_gw2_sum="$(grep -Eo '"top1_checksum":"[0-9a-f]+"' "$smoke_dir/cos-gw2-report.json")"
[ -n "$cos_sum" ] && [ "$cos_sum" = "$cos_gw2_sum" ] \
    || { echo "   cosine checksum diverged: engine $cos_sum, 2 shards $cos_gw2_sum"; exit 1; }
echo "   cosine ok: $cos_sum"

# Chaos smoke: replay the same fixture under an armed fault schedule. The
# replay must exit cleanly (recovering via quarantine/retry/isolation, no
# --check-naive here — degraded answers intentionally differ) and the
# metrics export must show nonzero injected faults and a recovery path
# that actually fired.
echo "== check: bench chaos smoke (WR_FAULT_SEED) =="
WR_FAULT_SEED=20240613 ./target/release/whitenrec bench --scale 0.05 --epochs 1 \
    --queries 256 --batch 32 --k 10 \
    --checkpoint "$smoke_dir/smoke.wrck" --out "$smoke_dir/chaos-report.json" \
    --metrics-out "$smoke_dir/chaos-metrics.json"
grep -q '"qps"' "$smoke_dir/chaos-report.json"
grep -Eq '"fault\.injected":[1-9]' "$smoke_dir/chaos-metrics.json"
grep -Eq '"serve\.(quarantined_rows|retries)":[1-9]' "$smoke_dir/chaos-metrics.json"
echo "   chaos ok: $(grep -Eo '"(fault\.injected|serve\.quarantined_rows|serve\.retries)":[0-9]+' "$smoke_dir/chaos-metrics.json" | tr '\n' ' ')"

# Gateway smoke: replay the same trace through the sharded gateway
# (--shards), reusing the same checkpoint fixture. A healthy 2-shard
# gateway must report the same top1_checksum as a 1-shard gateway and as
# the bare engine above — the cross-run face of the differential suite —
# and the in-binary --check-naive differential must pass. The metrics
# export must carry nonzero gateway.* traffic counters.
echo "== check: bench gateway smoke (2-shard == 1-shard == engine checksum) =="
./target/release/whitenrec bench --scale 0.05 --epochs 1 --queries 256 \
    --batch 32 --k 10 --shards 1 \
    --checkpoint "$smoke_dir/smoke.wrck" --out "$smoke_dir/gw1-report.json"
./target/release/whitenrec bench --scale 0.05 --epochs 1 --queries 256 \
    --batch 32 --k 10 --shards 2 --check-naive 64 \
    --checkpoint "$smoke_dir/smoke.wrck" --out "$smoke_dir/gw2-report.json" \
    --metrics-out "$smoke_dir/gw-metrics.json"
gw1_sum="$(grep -Eo '"top1_checksum":"[0-9a-f]+"' "$smoke_dir/gw1-report.json")"
gw2_sum="$(grep -Eo '"top1_checksum":"[0-9a-f]+"' "$smoke_dir/gw2-report.json")"
[ -n "$gw1_sum" ] && [ "$gw1_sum" = "$gw2_sum" ] && [ "$gw1_sum" = "$exact_sum" ] \
    || { echo "   topology checksum diverged: engine $exact_sum, 1 shard $gw1_sum, 2 shards $gw2_sum"; exit 1; }
grep -q '"p50_ms"' "$smoke_dir/gw2-report.json"
grep -q '"p99_ms"' "$smoke_dir/gw2-report.json"
grep -Eq '"gateway\.requests":[1-9]' "$smoke_dir/gw-metrics.json"
grep -Eq '"gateway\.fanout_calls":[1-9]' "$smoke_dir/gw-metrics.json"
grep -q '"gateway.latency_ms"' "$smoke_dir/gw-metrics.json"
grep -q '"gateway.degraded_responses"' "$smoke_dir/gw-metrics.json"
echo "   gateway ok: $exact_sum == $gw1_sum == $gw2_sum"

# A micro-batch past the default serving bound (64 rows) must reach every
# shard whole: at --batch 128 the 2-shard gateway gives the engine's
# checksum with nothing degraded. No shard holds a row bound of its own,
# so nothing is left to refuse the call.
echo "== check: bench gateway smoke at --batch 128 (== engine, 0 degraded) =="
./target/release/whitenrec bench --scale 0.05 --epochs 1 --queries 256 \
    --batch 128 --k 10 --shards 2 \
    --checkpoint "$smoke_dir/smoke.wrck" --out "$smoke_dir/gw128-report.json"
gw128_sum="$(grep -Eo '"top1_checksum":"[0-9a-f]+"' "$smoke_dir/gw128-report.json")"
[ -n "$gw128_sum" ] && [ "$gw128_sum" = "$exact_sum" ] \
    || { echo "   --batch 128 gateway checksum diverged: engine $exact_sum, 2 shards $gw128_sum"; exit 1; }
grep -q '"degraded":0,' "$smoke_dir/gw128-report.json" \
    || { echo "   --batch 128 gateway degraded answers"; exit 1; }
echo "   gateway --batch 128 ok: $gw128_sum, 0 degraded"

# Gateway chaos smoke: same fixture, one shard poisoned. The replay must
# exit cleanly (survivor shards keep answering; the victim degrades the
# responses it loses) with nonzero injected faults in the export, and the
# armed schedule must export as a sealed wr-faultlog/v1 artifact so the
# run's exact injections travel with its bench JSON.
echo "== check: bench gateway chaos smoke (one shard poisoned) =="
WR_FAULT_SEED=20240613 ./target/release/whitenrec bench --scale 0.05 --epochs 1 \
    --queries 256 --batch 32 --k 10 --shards 3 --poison-shard 1 \
    --checkpoint "$smoke_dir/smoke.wrck" --out "$smoke_dir/gw-chaos-report.json" \
    --metrics-out "$smoke_dir/gw-chaos-metrics.json" \
    --fault-log-out "$smoke_dir/gw-faults.jsonl"
grep -q '"qps"' "$smoke_dir/gw-chaos-report.json"
grep -Eq '"fault\.injected":[1-9]' "$smoke_dir/gw-chaos-metrics.json"
grep -Eq '"serve\.(quarantined_rows|retries)":[1-9]' "$smoke_dir/gw-chaos-metrics.json"
grep -q '"format":"wr-faultlog/v1"' "$smoke_dir/gw-faults.jsonl"
grep -Eq '"records":[1-9]' "$smoke_dir/gw-faults.jsonl"
grep -q '^#crc32:' "$smoke_dir/gw-faults.jsonl"
echo "   gateway chaos ok: $(grep -Eo '"(fault\.injected|gateway\.degraded_responses)":[0-9]+' "$smoke_dir/gw-chaos-metrics.json" | tr '\n' ' ')"

# Retired-flag smoke: a catalogue window is one shard, so the replica
# flags are gone. A script that still passes `--replicas` must fail loudly
# (non-zero exit, the flag named), not replay some other topology.
echo "== check: bench refuses the retired --replicas flag =="
if ./target/release/whitenrec bench --shards 2 --replicas 2 \
    2> "$smoke_dir/replicas.err" > /dev/null; then
    echo "   bench --replicas exited 0"; exit 1
fi
grep -q -- '--replicas' "$smoke_dir/replicas.err" \
    || { echo "   bench --replicas failed without naming the flag"; exit 1; }
echo "   retired flag ok: $(head -n 1 "$smoke_dir/replicas.err")"

# Zero-sized serving flags: a micro-batch of no requests and a gateway of
# no shards cannot serve, so the bench refuses both before it trains the
# model it would serve (non-zero exit, the flag named, no `training`
# line), not after the training with a panic or a late error.
echo "== check: bench refuses --batch 0 and --shards 0 before training =="
for zero in --batch --shards; do
    if ./target/release/whitenrec bench --scale 0.05 --epochs 1 --queries 16 "$zero" 0 \
        2> "$smoke_dir/zero.err" > /dev/null; then
        echo "   bench $zero 0 exited 0"; exit 1
    fi
    grep -q -- "$zero" "$smoke_dir/zero.err" \
        || { echo "   bench $zero 0 failed without naming the flag"; exit 1; }
    if grep -q 'training' "$smoke_dir/zero.err"; then
        echo "   bench $zero 0 trained before refusing"; exit 1
    fi
    echo "   $zero 0 refused: $(head -n 1 "$smoke_dir/zero.err")"
done

# Live telemetry smoke: chaos replay with the read-only HTTP endpoint up
# and the flight recorder armed. The bench self-scrapes /metrics and
# /flight through the real TCP surface (--obs-dump-dir) after the replay;
# the scrape must carry live gateway.* traffic counters, the flight ring
# must name the permanently-panicked victim requests, and the sealed
# incident dump must have been written on the first degradation trigger.
echo "== check: bench live telemetry smoke (--obs-listen) =="
WR_FAULT_SEED=20240613 ./target/release/whitenrec bench --scale 0.05 --epochs 1 \
    --queries 256 --batch 32 --k 10 --shards 3 --poison-shard 1 \
    --checkpoint "$smoke_dir/smoke.wrck" --out "$smoke_dir/obs-report.json" \
    --obs-listen 127.0.0.1:0 --obs-dump-dir "$smoke_dir/obs"
grep -q '"format":"wr-obs/v1"' "$smoke_dir/obs/metrics.scrape.json"
grep -Eq '"gateway\.requests":[1-9]' "$smoke_dir/obs/metrics.scrape.json"
grep -Eq '"gateway\.fanout_calls":[1-9]' "$smoke_dir/obs/metrics.scrape.json"
grep -q '"format":"wr-flight/v1"' "$smoke_dir/obs/flight.scrape.jsonl"
grep -Eq '"kind":"panic".*"req":[0-9]+' "$smoke_dir/obs/flight.scrape.jsonl"
test -s "$smoke_dir/obs/flight.dump.jsonl"
grep -Eq '"kind":"panic".*"req":[0-9]+' "$smoke_dir/obs/flight.dump.jsonl"
echo "   obs ok: $(grep -c '"kind":"panic"' "$smoke_dir/obs/flight.dump.jsonl") panic event(s) in the sealed dump"

echo "== check: ok =="
