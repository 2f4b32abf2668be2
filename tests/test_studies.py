"""The study table of ``scripts/studies.py``, checked without running a
trial: every argument list parses with the CLI's parser, every config with
the scenario parser, and each study writes the CSVs, at the runs, that its
results are known by."""

import importlib.util
import os

import pytest

from stcdma.cli import _build_parser
from stcdma.scenario import parse_scenario_file

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_studies():
    spec = importlib.util.spec_from_file_location("studies", os.path.join(ROOT, "scripts", "studies.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


studies = _load_studies()

# study -> default runs, then per CSV: (command, config, grid, smoothing window)
EXPECTED = {
    "convergence": (20, {"convergence.csv": ("ber-vs-symbols", "load_surge.cfg", None, 100)}),
    "channel-tracking": (20, {
        "channel_mse_static.csv": ("channel-mse", "channel_tracking.cfg", None, 100),
        "channel_mse_fading.csv": ("channel-mse", "channel_tracking_fading.cfg", None, 100),
    }),
    "sweep": (10, {
        "ber_vs_snr.csv": ("ber-vs-snr", "reference.cfg", "5,8,11,14,17,20", 100),
        "ber_vs_users.csv": ("ber-vs-users", "reference.cfg", "2,4,6,8,10,12,14", 100),
    }),
}


def test_the_table_holds_every_study():
    assert sorted(studies.STUDIES) == sorted(EXPECTED)


@pytest.mark.parametrize("study", sorted(EXPECTED))
def test_study_argument_lists_parse_with_the_cli_parser(study, tmp_path):
    runs, csvs = EXPECTED[study]
    parser = _build_parser()
    for workers, parallel in ((None, None), (4, 4)):
        parsed = [parser.parse_args(argv) for argv in studies.study_argvs(study, workers=workers, outdir=str(tmp_path))]
        assert [os.path.basename(a.out) for a in parsed] == list(csvs)
        for args in parsed:
            command, config, grid, window = csvs[os.path.basename(args.out)]
            assert (args.command, os.path.basename(args.config), args.grid, args.smooth_window) == (
                command, config, grid, window,
            )
            assert os.path.dirname(args.out) == str(tmp_path)
            assert (args.runs, args.workers) == (runs, parallel)
            assert parse_scenario_file(args.config).validate()
    assert parser.parse_args(studies.study_argvs(study, runs=3)[0]).runs == 3
