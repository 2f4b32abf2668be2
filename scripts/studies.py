"""Run one of the paper's studies through the CLI and write its CSVs.

    python3 scripts/studies.py convergence --runs 20 --workers 4

- ``convergence``: results/convergence.csv, one smoothed BER curve per
  receiver through the load surge at symbol 1500 (acquisition, steady state,
  re-convergence); 20 runs by default.
- ``channel-tracking``: results/channel_mse_static.csv (the sg tracker
  acquiring a static channel) and results/channel_mse_fading.csv (periodic
  subspace re-estimation under Rayleigh fading); 20 runs by default.
- ``sweep``: results/ber_vs_snr.csv over 5..20 dB and results/ber_vs_users.csv
  over 2..14 users for the reference system; 10 runs by default.

The exit code is the worst of the study's CLI runs.
"""

import argparse
import os
import sys

from stcdma.cli import main

HERE = os.path.dirname(os.path.realpath(__file__))
CONFIGS = os.path.join(HERE, "..", "configs")


def _config(name):
    return ["--config", os.path.join(CONFIGS, name)]


# study -> (default runs, [(CSV name, CLI arguments)])
STUDIES = {
    "convergence": (20, [
        ("convergence.csv", ["ber-vs-symbols", *_config("load_surge.cfg"), "--smooth-window", "100"]),
    ]),
    "channel-tracking": (20, [
        ("channel_mse_static.csv", ["channel-mse", *_config("channel_tracking.cfg")]),
        ("channel_mse_fading.csv", ["channel-mse", *_config("channel_tracking_fading.cfg")]),
    ]),
    "sweep": (10, [
        ("ber_vs_snr.csv", ["ber-vs-snr", *_config("reference.cfg"), "--grid", "5,8,11,14,17,20"]),
        ("ber_vs_users.csv", ["ber-vs-users", *_config("reference.cfg"), "--grid", "2,4,6,8,10,12,14"]),
    ]),
}


def study_argvs(study, runs=None, workers=None, outdir="results"):
    """The CLI argument list of each of a study's runs; each ends in ``--out`` and its CSV."""
    default_runs, cases = STUDIES[study]
    extra = ["--runs", str(default_runs if runs is None else runs)]
    extra += ["--workers", str(workers)] if workers else []
    return [argv + extra + ["--out", os.path.join(outdir, name)] for name, argv in cases]


def run(study, runs=None, workers=None, outdir="results") -> int:
    os.makedirs(outdir, exist_ok=True)
    worst = 0
    for argv in study_argvs(study, runs, workers, outdir):
        worst = max(worst, main(argv))
        print(f"wrote {argv[-1]}")
    return worst


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("study", choices=sorted(STUDIES))
    parser.add_argument("--runs", type=int, default=None, help="trials per point (default: the study's own)")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--outdir", default=os.path.join(HERE, "..", "results"))
    args = parser.parse_args()
    sys.exit(run(args.study, args.runs, args.workers, args.outdir))
