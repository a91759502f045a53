#!/usr/bin/env bash
# Regenerate every paper table/figure. Results land in results/.
# Heavier sweeps are restricted to the datasets the paper itself highlights;
# override with WR_DATASETS / WR_SCALE / WR_EPOCHS.
set -uo pipefail
cd "$(dirname "$0")"
mkdir -p results

# Preflight: the tier-1 gate (build + tests + WR_THREADS=1 tests) must pass
# before the sweeps start; at the defaults they take minutes (about five on
# a 2-CPU box). Skip with WR_SKIP_CHECK=1 on re-runs.
if [ "${WR_SKIP_CHECK:-0}" != "1" ]; then
  scripts/check.sh || { echo "preflight check failed; aborting" >&2; exit 1; }
fi
BIN="cargo run --release -q -p wr-bench --bin"

run() { # run <name> <datasets> [epochs]
  local name="$1" ds="$2" ep="${3:-10}"
  if [ -s "results/$name.txt" ]; then
    echo "=== $name: cached in results/$name.txt (delete to re-run) ==="
    return
  fi
  echo "=== $name (datasets: $ds) ==="
  WR_DATASETS="$ds" WR_EPOCHS="$ep" $BIN "$name" >"results/$name.txt" 2>"results/$name.log"
  tail -3 "results/$name.txt" || true
}

ALL="Arts,Toys,Tools,Food"

run exp_table2_stats     "$ALL"
run exp_fig2_spectrum    "$ALL"
run exp_fig4_cdf         "Arts"
run exp_prop_info        "Arts"
run exp_fig3_tsne        "Arts"
run exp_table1           "Arts,Toys,Tools"
run exp_table9_efficiency "Tools"
run exp_fig7_conditioning "Arts"
run exp_fig6_uniformity  "Arts"
run exp_table7_ensemble  "Arts,Toys"
run exp_table8_id        "Arts,Tools"
run exp_table5_projection "Arts,Toys"
run exp_table6_whitening "Arts,Food"
run exp_fig5_groups      "Arts,Toys,Tools"
run exp_fig8_groups_plus "Arts,Food"
run exp_table4_cold      "$ALL"
run exp_table3_warm      "$ALL"
run exp_ext_gated_id     "Arts,Tools"
run exp_abl_eps          "Arts"

run exp_abl_loss         "Arts"
run exp_ext_transfer     "Arts"  15

echo "All experiments complete; see results/."
