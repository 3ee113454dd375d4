#!/bin/sh
# Check that two source trees write byte-identical outputs.
#
# usage: scripts/compare_outputs.sh PARENT_SRC CHANGE_SRC
#
# Runs one fixed set of levyspline commands with PARENT_SRC on PYTHONPATH and
# again with CHANGE_SRC (each a `src/` directory), then compares every file
# the two runs wrote, including each command's stdout, stderr and exit
# status. The set:
#   - simulate blocks n=128, then fit it at degree 0 on a 1024-point grid
#     with --save-trace and --dump-config;
#   - simulate modified_heavisine n=512, then fit it at degrees 0-3 on the
#     data grid with --save-trace;
#   - a --full-recompute fit and two --prior-only fits (one on the data grid);
#   - summarize on the modified_heavisine trace;
#   - a 3-replicate heavisine benchmark in csv (with --verbose) and in json;
#   - a fit --config whose file sets every hyperparameter key (r, R,
#     a_gamma, b_gamma, p_birth, p_death, p_relocate) plus moves_per_degree,
#     beta_sweep and q_lower/q_upper, with --save-trace and --dump-config;
#   - a 2-replicate bumps benchmark in json whose spec sets r, R, a_gamma
#     and b_gamma.
# That is 64 files per run, inputs and stdout/stderr/status included.
# Everything is written under a temporary directory that is removed on exit.
# Prints each file that differs and exits 1 if any does, 0 otherwise.
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT_SRC CHANGE_SRC" >&2
    exit 2
fi
parent_src=$(cd "$1" && pwd)
change_src=$(cd "$2" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run NAME ARGS...: one levyspline command; its stdout, stderr and exit
# status go to NAME.out, NAME.err and NAME.status in the current directory
run() {
    name=$1
    shift
    status=0
    PYTHONPATH="$src" python3 -m levyspline.cli "$@" >"$name.out" 2>"$name.err" || status=$?
    echo "$status" >"$name.status"
}

run_set() {
    src=$1
    mkdir -p "$2"
    cd "$2"
    cat >spec.txt <<'EOF'
function = heavisine
n = 128
rsnr = 10
replicates = 3
degrees = 0,2
iterations = 3000
burn_in = 1000
thin = 10
seed = 0
threshold = 0.25
EOF
    cat >config.txt <<'EOF'
degrees = 0,1,3
r = 0.5
R = 0.02
a_gamma = 3
b_gamma = 2
p_birth = 0.35
p_death = 0.45
p_relocate = 0.2
moves_per_degree = 2
beta_sweep = true
q_lower = 0.1
q_upper = 0.9
iterations = 1500
burn_in = 500
thin = 5
seed = 11
EOF
    cat >spec_priors.txt <<'EOF'
function = bumps
n = 128
rsnr = 5
replicates = 2
degrees = 1,2
r = 100
R = 0.02
a_gamma = 2
b_gamma = 0.5
iterations = 1500
burn_in = 500
thin = 5
seed = 4
EOF
    run sim_blocks simulate blocks --n 128 --rsnr 3 --seed 5 \
        --out blocks.csv --truth-out blocks_truth.csv
    run fit_blocks fit blocks.csv --degrees 0 --grid 1024 --iterations 10000 \
        --burn-in 5000 --thin 10 --seed 7 --out-prefix blocks_fit \
        --save-trace --dump-config
    run sim_mh simulate modified_heavisine --n 512 --rsnr 5 --seed 5 \
        --out mh.csv --truth-out mh_truth.csv
    run fit_mh fit mh.csv --degrees 0,1,2,3 --grid 0 --iterations 4000 \
        --burn-in 2000 --thin 10 --seed 7 --out-prefix mh_fit --save-trace
    run fit_full fit blocks.csv --degrees 0,1 --iterations 500 --burn-in 100 \
        --thin 2 --seed 3 --full-recompute --out-prefix full_fit
    run fit_prior fit blocks.csv --degrees 0,1 --iterations 2000 --burn-in 500 \
        --thin 5 --seed 9 --prior-only --out-prefix prior_fit
    run fit_prior_data fit blocks.csv --degrees 0,2 --grid 0 --iterations 2000 \
        --burn-in 500 --thin 5 --seed 9 --prior-only --out-prefix prior_data_fit
    run summarize summarize mh_fit_trace.csv --out mh_resummary.json
    run bench_csv benchmark spec.txt --out bench.csv --verbose
    run bench_json benchmark spec.txt --format json --out bench.json
    run fit_config fit blocks.csv --config config.txt --out-prefix config_fit \
        --save-trace --dump-config
    run bench_priors benchmark spec_priors.txt --format json --out bench_priors.json
    cd - >/dev/null
}

run_set "$parent_src" "$work/parent"
run_set "$change_src" "$work/change"

cd "$work"
files=$(ls parent | wc -l)
differ=$(diff -rq parent change || true)
if [ -n "$differ" ]; then
    echo "$differ"
    echo "outputs differ ($files files per run)"
    exit 1
fi
echo "all $files files byte-identical"
