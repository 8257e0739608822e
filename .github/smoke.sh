#!/bin/sh
# Console-script smoke run: every subcommand once, plane wave and Gaussian
# profiles. Run after installing the package; RuntimeWarnings are errors.
set -e
export PYTHONWARNINGS=error::RuntimeWarning
cavsqueeze steady --model.C=50 --scan.drive_Y=900
cavsqueeze steady --model.C=1e32 --scan.drive_Y=800
cavsqueeze spectrum --scan.n_omega=3
cavsqueeze spectrum --scan.n_omega=64
cavsqueeze turning --model.C=60
cavsqueeze spectrum --model.transverse=gaussian --model.gaussian_bins=64 --scan.n_omega=64
cavsqueeze turning --model.transverse=gaussian --model.gaussian_bins=64 --model.C=150 --model.delta=-3 --model.theta=2
cavsqueeze turning --model.transverse=gaussian --model.gaussian_bins=8 --model.C=529.5354878865377 --model.delta=0.5956342029358481 --model.theta=1.7785120603119164
cavsqueeze steady --model.transverse=gaussian --model.gaussian_bins=64 --model.C=400 --model.delta=-1 --model.theta=3 --scan.drive_Y=100000
# binned single solves in the locus' tip cell (X = 424.19566847402547) and at
# the cusp drive, whose root is the cusp vertex (X = 156.55889943004186)
cavsqueeze steady --model.transverse=gaussian --model.gaussian_bins=64 --model.C=109.15523448392895 --model.delta=-20 --model.theta=-7.5 --scan.drive_Y=800
cavsqueeze steady --model.transverse=gaussian --model.gaussian_bins=8 --model.C=129.75515923598005 --model.delta=-20 --model.theta=-10 --scan.drive_Y=508.91465125616236
# a binned fold beyond the float range is the input error: exit 1 with its
# one-line message, not a fold at Y = inf (exit 0) or a RuntimeWarning traceback
rc=0
err=$(cavsqueeze turning --model.transverse=gaussian --model.gaussian_bins=64 --model.C=1e200 2>&1) || rc=$?
printf '%s\n' "$err" >&2
test "$rc" -eq 1
case "$err" in "error: the GaussianBins(m=64) state equation at C=1e+200, "*"beyond the float range") ;; *) exit 1 ;; esac
# a drive whose locus or Newton terms pass the float range is the input error:
# exit 1 with its one-line message, not X = 0.0 or no steady state (exit 0)
rc=0
err=$(cavsqueeze release --scan.drive_Y=5e305 --scan.duration_s=2e-05 2>&1) || rc=$?
printf '%s\n' "$err" >&2
test "$rc" -eq 1
case "$err" in "error: the plane-wave state equation at C=220.0, "*"Y=5e+305 has coefficients beyond the float range") ;; *) exit 1 ;; esac
rc=0
err=$(cavsqueeze steady --model.transverse=gaussian --model.gaussian_bins=8 --scan.drive_Y=1e306 2>&1) || rc=$?
printf '%s\n' "$err" >&2
test "$rc" -eq 1
case "$err" in "error: the GaussianBins(m=8) state equation at C=220.0, "*"Y=1e+306 has coefficients beyond the float range") ;; *) exit 1 ;; esac
# a count past its bound stops in validation: exit 1 with the key's one-line
# message, not a numpy traceback for a 745 GiB grid
rc=0
err=$(cavsqueeze spectrum --scan.n_omega=1e11 2>&1) || rc=$?
printf '%s\n' "$err" >&2
test "$rc" -eq 1
case "$err" in "error: --scan.n_omega: must lie in [1, 1000], got '1e11'") ;; *) exit 1 ;; esac
cavsqueeze mc-cloud --cloud.mc_samples=20000 --cloud.n_times=3
decay=$(mktemp)
mc_a=$(mktemp)
mc_b=$(mktemp)
trap 'rm -f "$decay" "$mc_a" "$mc_b"' EXIT
# two Monte Carlo runs at one seed write the same bytes (criterion 10);
# 70,000 samples are a full chunk and a tail
cavsqueeze mc-cloud --cloud.mc_samples=70000 --cloud.n_times=5 --output.path="$mc_a"
cavsqueeze mc-cloud --cloud.mc_samples=70000 --cloud.n_times=5 --output.path="$mc_b"
cmp "$mc_a" "$mc_b"
# noiseless decay samples of the default cloud (C0 = 220, sigma_r = 4 mm, T = 5 mK)
cat > "$decay" <<'EOF'
t_s,c
0.0,220.0
0.005555555555555556,137.14832854977107
0.011111111111111112,64.23324141358457
0.016666666666666666,33.9050112257775
0.022222222222222223,20.29708136546715
0.02777777777777778,13.302478683139684
0.03333333333333333,9.29498115260082
0.03888888888888889,6.804064775608972
0.044444444444444446,5.157113395869568
0.05,4.014721842257404
EOF
cavsqueeze fitc "$decay"
# a fit that runs far along the tau_r tau_g valley (a 2 mm, 5 uK cloud, 10 %
# noise, sigma_c = 1 + C) overflowed in its final Jacobian: now reported, unresolved
cat > "$decay" <<'EOF'
t_s,c,sigma_c
0.0,202.35750864442417,203.35750864442417
0.002,190.79524751395218,191.79524751395218
0.004,214.10337530775183,215.10337530775183
0.006,227.7200548860931,228.7200548860931
0.008,240.80536123318683,241.80536123318683
0.01,214.2040175638583,215.2040175638583
0.012,193.24422853020434,194.24422853020434
0.014,178.21281802349225,179.21281802349225
0.016,191.1233218245109,192.1233218245109
0.018000000000000002,183.5211012982124,184.5211012982124
0.02,137.47903399427443,138.47903399427443
0.022,94.30260176149561,95.30260176149561
0.024,73.31148629837956,74.31148629837956
0.026000000000000002,65.76774928090552,66.76774928090552
0.028,37.10227897968183,38.10227897968183
0.03,17.481669089962296,18.481669089962296
EOF
cavsqueeze fitc "$decay"
cavsqueeze oracle --model.n_atoms=1 --model.C=0.2 --scan.drive_Y=0.01 --scan.n_omega=3
# 100 frequencies at cutoff 20 are twelve tiles of the oracle's regression solve
cavsqueeze oracle --model.n_atoms=1 --model.C=0.2 --scan.drive_Y=0.01 --model.fock_cutoff=20 --scan.n_omega=100
cavsqueeze release
cavsqueeze release --scan.duration_s=0.018 --scan.dt_s=0.00018 --scan.vbw_hz=1000
cavsqueeze release --model.transverse=gaussian --model.gaussian_bins=64 --scan.duration_s=0.018 --scan.dt_s=0.0009 --scan.vbw_hz=250
cavsqueeze release --model.transverse=gaussian --model.gaussian_bins=8 --scan.noise_transverse=plane --scan.duration_s=0.018 --scan.dt_s=0.0009 --scan.vbw_hz=250
cavsqueeze piezo --model.C=50 --scan.drive_Y=900 --scan.theta0=-1.7 --scan.theta_rate=112.5 --scan.duration_s=0.004 --scan.dt_s=8e-05 --scan.vbw_hz=2500
cavsqueeze piezo --model.C=50 --scan.drive_Y=900 --scan.theta0=-1.5 --scan.theta_rate=112.5 --scan.duration_s=0.004 --scan.dt_s=8e-05 --scan.vbw_hz=2500
cavsqueeze piezo --model.transverse=gaussian --model.gaussian_bins=64 --model.C=50 --scan.drive_Y=900 --scan.theta0=-1.7 --scan.theta_rate=112.5 --scan.duration_s=0.004 --scan.dt_s=8e-05 --scan.vbw_hz=2500
cavsqueeze piezo --model.transverse=gaussian --model.gaussian_bins=8 --model.C=80 --scan.drive_Y=7500 --scan.theta0=-1.25 --scan.theta_rate=-112.5 --scan.duration_s=0.004 --scan.dt_s=8e-05 --scan.vbw_hz=2500
