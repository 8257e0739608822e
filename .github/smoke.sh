#!/bin/sh
# Console-script smoke run: every subcommand once, plane wave and Gaussian
# profiles. Run after installing the package; RuntimeWarnings are errors.
set -e
export PYTHONWARNINGS=error::RuntimeWarning
cavsqueeze steady --model.C=50 --scan.drive_Y=900
cavsqueeze spectrum --scan.n_omega=3
cavsqueeze spectrum --scan.n_omega=64
cavsqueeze turning --model.C=60
cavsqueeze spectrum --model.transverse=gaussian --model.gaussian_bins=64 --scan.n_omega=64
cavsqueeze turning --model.transverse=gaussian --model.gaussian_bins=64 --model.C=150 --model.delta=-3 --model.theta=2
cavsqueeze steady --model.transverse=gaussian --model.gaussian_bins=64 --model.C=400 --model.delta=-1 --model.theta=3 --scan.drive_Y=100000
cavsqueeze mc-cloud --cloud.mc_samples=20000 --cloud.n_times=3
cavsqueeze oracle --model.n_atoms=1 --model.C=0.2 --scan.drive_Y=0.01 --scan.n_omega=3
cavsqueeze release --scan.duration_s=0.018 --scan.dt_s=0.00018 --scan.vbw_hz=1000
cavsqueeze release --model.transverse=gaussian --model.gaussian_bins=64 --scan.duration_s=0.018 --scan.dt_s=0.0009 --scan.vbw_hz=250
cavsqueeze release --model.transverse=gaussian --model.gaussian_bins=8 --scan.noise_transverse=plane --scan.duration_s=0.018 --scan.dt_s=0.0009 --scan.vbw_hz=250
cavsqueeze piezo --model.C=50 --scan.drive_Y=900 --scan.theta0=-1.7 --scan.theta_rate=112.5 --scan.duration_s=0.004 --scan.dt_s=8e-05 --scan.vbw_hz=2500
cavsqueeze piezo --model.transverse=gaussian --model.gaussian_bins=64 --model.C=50 --scan.drive_Y=900 --scan.theta0=-1.7 --scan.theta_rate=112.5 --scan.duration_s=0.004 --scan.dt_s=8e-05 --scan.vbw_hz=2500
cavsqueeze piezo --model.transverse=gaussian --model.gaussian_bins=8 --model.C=80 --scan.drive_Y=7500 --scan.theta0=-1.25 --scan.theta_rate=-112.5 --scan.duration_s=0.004 --scan.dt_s=8e-05 --scan.vbw_hz=2500
