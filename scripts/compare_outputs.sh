#!/bin/sh
# Check that two source trees write byte-identical outputs.
#
# usage: scripts/compare_outputs.sh PARENT_SRC CHANGE_SRC
#
# Runs one fixed set of levyspline commands twice at once, in two background
# shells: one with PARENT_SRC on PYTHONPATH, one with CHANGE_SRC (each a
# `src/` directory). When both have ended it compares every file the two runs
# wrote, including each command's stdout, stderr and exit status. The set:
#   - simulate blocks n=128, then fit it at degree 0 on a 1024-point grid
#     with --save-trace and --dump-config, and at degrees 0,2 on a
#     1000-point grid, which ends inside a block of posterior_curve's band
#     pass (every other grid here is a multiple of its 64 columns);
#   - simulate modified_heavisine n=512, then fit it at degrees 0-3 on the
#     data grid with --save-trace, and at degrees 0,1 on the data grid with
#     --save-trace and on a 1000-point grid (degree 0-1 columns have the
#     Cox-de Boor triangle's bits, so these fits stay byte-identical across
#     a change to the degree 2-3 kernel);
#   - a --full-recompute fit at degrees 0-3, so relocation of degree-2 and
#     degree-3 atoms runs under full recompute too, a --full-recompute fit
#     at degrees 0,2 on a 1000-point grid with --save-trace, so its curves go
#     through mean_on, and a --full-recompute --prior-only fit;
#   - two --prior-only fits (one on the data grid);
#   - summarize on the modified_heavisine trace;
#   - a 3-replicate heavisine benchmark in csv (with --verbose) and in json;
#   - a fit --config whose file sets every hyperparameter key (r, R,
#     a_gamma, b_gamma, p_birth, p_death, p_relocate) plus q_lower/q_upper,
#     with --save-trace and --dump-config;
#   - a fit --config on the same file whose flags override the keys it
#     sets (--seed, --iterations, --burn-in, --thin, --degrees, --grid,
#     --prior-only), with --dump-config;
#   - a 2-replicate bumps benchmark in json whose spec sets r, R, a_gamma
#     and b_gamma;
#   - a benchmark whose spec has burn_in >= iterations, which must fail
#     with the same message and status;
#   - a 1-replicate blocks benchmark (n=16, degree 0) whose spec sets no
#     chain key or prior, so it runs on the spec defaults;
#   - a fit that retains a single curve, with --save-trace, so every band
#     and trace quantile sits at or above the last sample index;
#   - a fit --config whose file sets q_lower = 0.005 and q_upper = 0.5 on a
#     300-point grid (not a multiple of 64), so the band's interpolation
#     weights reach 0.5 and above;
#   - a fit of a user CSV whose x values are unsorted and span
#     [-0.4955, 2.4204], not [0, 1], at degrees 0,1 on a 300-point grid with
#     --save-trace, so the off-data grid is pinned to the data's x range
#     (every other fit here runs on simulate's sorted 0..1 data);
#   - a fit of modified_heavisine at degrees 3,4 on a 700-point grid with
#     --save-trace, so degree-3 curves go through mean_on off the data grid
#     and degree 4 runs at all (its degree-3 children are table evaluations);
#   - a fit --config on the data grid with --save-trace whose file sets
#     full_recompute = true, so the config-file path reaches the mode too
#     (every other full-recompute fit here sets it by flag);
#   - two fits --config with --save-trace, one whose file sets p_birth = 0
#     and one that sets p_death = 0, so the log of a zero move probability
#     (-inf) enters the death ratio (J_k > 1) and the birth ratio;
#   - a noiseless simulate (doppler n=64, --rsnr inf) without --truth-out,
#     so its truth goes to the default noiseless_truth.csv (every other
#     simulate here names its truth file).
# Everything is written under a temporary directory that is removed on exit.
# Prints how many files a run wrote (inputs and stdout/stderr/status
# included) and each file that differs, and exits 1 if any does, 0 otherwise.
# Exits 2 if both arguments resolve to the same directory, or if either run
# fails, e.g. by importing a `levyspline` from outside its own source tree
# (each run prints the file it imported).
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT_SRC CHANGE_SRC" >&2
    exit 2
fi
parent_src=$(cd "$1" && pwd -P)
change_src=$(cd "$2" && pwd -P)
if [ "$parent_src" = "$change_src" ]; then
    echo "error: PARENT_SRC and CHANGE_SRC are both $parent_src" >&2
    exit 2
fi
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
    loaded=$(PYTHONPATH="$src" python3 -c \
        'import os, levyspline; print(os.path.realpath(levyspline.__file__))') || true
    echo "$src: imported ${loaded:-no levyspline}" >&2
    case $loaded in
        "$src"/*) ;;
        *) echo "error: that is not under $src" >&2; exit 2 ;;
    esac
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
q_lower = 0.1
q_upper = 0.9
iterations = 1500
burn_in = 500
thin = 5
seed = 11
grid = 0
prior_only = false
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
    cat >spec_bad_chain.txt <<'EOF'
function = blocks
n = 32
rsnr = 3
replicates = 2
degrees = 0
iterations = 100
burn_in = 100
EOF
    cat >spec_defaults.txt <<'EOF'
function = blocks
n = 16
rsnr = 3
replicates = 1
degrees = 0
EOF
    cat >config_skew.txt <<'EOF'
degrees = 0,2
q_lower = 0.005
q_upper = 0.5
iterations = 3000
burn_in = 1000
thin = 10
seed = 17
grid = 300
EOF
    cat >config_no_birth.txt <<'EOF'
degrees = 0,2
p_birth = 0
p_death = 0.6
p_relocate = 0.4
iterations = 2000
burn_in = 500
thin = 5
seed = 47
EOF
    cat >config_no_death.txt <<'EOF'
degrees = 0,2
p_birth = 0.6
p_death = 0
p_relocate = 0.4
iterations = 2000
burn_in = 500
thin = 5
seed = 53
EOF
    cat >config_full.txt <<'EOF'
degrees = 0,1,2
full_recompute = true
grid = 0
iterations = 800
burn_in = 200
thin = 4
seed = 59
EOF
    cat >user.csv <<'EOF'
x,y
-0.2431,0.4779
0.2104,1.5706
1.9038,-0.5373
1.2465,0.0232
-0.2176,0.5053
0.7994,2.3003
0.9372,1.6883
-0.0208,0.8709
1.7037,-0.4979
-0.159,0.8614
0.6737,2.0026
1.0502,0.564
0.7919,1.1515
1.2604,0.3881
1.7135,-1.0694
2.3688,-2.0003
0.3526,1.7311
1.4456,-0.0421
1.5886,-0.669
0.3782,1.3634
-0.4955,0.1713
2.4204,-1.5076
0.3952,2.1323
0.442,1.9975
EOF
    run sim_blocks simulate blocks --n 128 --rsnr 3 --seed 5 \
        --out blocks.csv --truth-out blocks_truth.csv
    run fit_blocks fit blocks.csv --degrees 0 --grid 1024 --iterations 10000 \
        --burn-in 5000 --thin 10 --seed 7 --out-prefix blocks_fit \
        --save-trace --dump-config
    run fit_offblock fit blocks.csv --degrees 0,2 --grid 1000 --iterations 3000 \
        --burn-in 1000 --thin 5 --seed 13 --out-prefix offblock_fit
    run sim_mh simulate modified_heavisine --n 512 --rsnr 5 --seed 5 \
        --out mh.csv --truth-out mh_truth.csv
    run fit_mh fit mh.csv --degrees 0,1,2,3 --grid 0 --iterations 4000 \
        --burn-in 2000 --thin 10 --seed 7 --out-prefix mh_fit --save-trace
    run fit_mh01 fit mh.csv --degrees 0,1 --grid 0 --iterations 3000 \
        --burn-in 1000 --thin 10 --seed 31 --out-prefix mh01_fit --save-trace
    run fit_mh01_grid fit mh.csv --degrees 0,1 --grid 1000 --iterations 3000 \
        --burn-in 1000 --thin 10 --seed 37 --out-prefix mh01_grid_fit
    run fit_full fit blocks.csv --degrees 0,1,2,3 --iterations 500 --burn-in 100 \
        --thin 2 --seed 3 --full-recompute --out-prefix full_fit
    run fit_full_grid fit blocks.csv --degrees 0,2 --grid 1000 --iterations 1500 \
        --burn-in 500 --thin 5 --seed 23 --full-recompute --out-prefix full_grid_fit \
        --save-trace
    run fit_full_prior fit blocks.csv --degrees 0,1 --iterations 1000 --burn-in 200 \
        --thin 4 --seed 29 --full-recompute --prior-only --out-prefix full_prior_fit
    run fit_prior fit blocks.csv --degrees 0,1 --iterations 2000 --burn-in 500 \
        --thin 5 --seed 9 --prior-only --out-prefix prior_fit
    run fit_prior_data fit blocks.csv --degrees 0,2 --grid 0 --iterations 2000 \
        --burn-in 500 --thin 5 --seed 9 --prior-only --out-prefix prior_data_fit
    run summarize summarize mh_fit_trace.csv --out mh_resummary.json
    run bench_csv benchmark spec.txt --out bench.csv --verbose
    run bench_json benchmark spec.txt --format json --out bench.json
    run fit_config fit blocks.csv --config config.txt --out-prefix config_fit \
        --save-trace --dump-config
    run fit_override fit blocks.csv --config config.txt --seed 21 \
        --iterations 1200 --burn-in 200 --thin 4 --degrees 0,2 --grid 256 \
        --prior-only --out-prefix override_fit --dump-config
    run bench_priors benchmark spec_priors.txt --format json --out bench_priors.json
    run bench_bad_chain benchmark spec_bad_chain.txt --out bench_bad_chain.csv
    run bench_defaults benchmark spec_defaults.txt --out bench_defaults.csv
    run fit_single fit blocks.csv --degrees 0,1 --grid 200 --iterations 110 \
        --burn-in 100 --thin 10 --seed 19 --out-prefix single_fit --save-trace
    run fit_skew fit blocks.csv --config config_skew.txt --out-prefix skew_fit
    run fit_user fit user.csv --degrees 0,1 --grid 300 --iterations 3000 \
        --burn-in 1000 --thin 10 --seed 41 --out-prefix user_fit --save-trace
    run fit_mh34 fit mh.csv --degrees 3,4 --grid 700 --iterations 2000 \
        --burn-in 1000 --thin 10 --seed 43 --out-prefix mh34_fit --save-trace
    run fit_full_config fit blocks.csv --config config_full.txt \
        --out-prefix full_config_fit --save-trace
    run fit_no_birth fit blocks.csv --config config_no_birth.txt \
        --out-prefix no_birth_fit --save-trace
    run fit_no_death fit blocks.csv --config config_no_death.txt \
        --out-prefix no_death_fit --save-trace
    run sim_noiseless simulate doppler --n 64 --rsnr inf --seed 3 --out noiseless.csv
}

# each set runs in its own background subshell, so its `cd` and `exit` stay there
run_set "$parent_src" "$work/parent" &
parent_pid=$!
run_set "$change_src" "$work/change" &
change_pid=$!
parent_status=0
wait "$parent_pid" || parent_status=$?
change_status=0
wait "$change_pid" || change_status=$?
if [ "$parent_status" -ne 0 ] || [ "$change_status" -ne 0 ]; then
    echo "error: a run failed (parent status $parent_status, change status $change_status)" >&2
    exit 2
fi

cd "$work"
files=$(ls parent | wc -l)
differ=$(diff -rq parent change || true)
if [ -n "$differ" ]; then
    echo "$differ"
    echo "outputs differ ($files files per run)"
    exit 1
fi
echo "all $files files byte-identical"
