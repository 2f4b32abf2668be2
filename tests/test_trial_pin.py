"""Behaviour pin: digests of every algorithm's bit errors and divergence flag.

A small matrix of short trials covers one and two transmit antennas, one
receive antenna and two under both combiners, all five algorithms, and the
genie, svd and sg channel estimators.  Two more trials set
``normalize_steps``, as ``configs/load_surge.cfg`` does, on each antenna
count; the flag changes the sg receivers' outputs on both, so each of these
digests differs from its unnormalized case.  Each trial's per-algorithm
bit-error array and divergence flags hash to one digest, stored in
``trial_pin.json`` next to this file.  A refactor of the receiver loops must
leave every digest unchanged.

A change that is meant to alter results regenerates the file with::

    PYTHONPATH=src python3 tests/test_trial_pin.py

and says in CHANGES.md which digests moved and why.

The same trials also pin the chunk sizes out of the results: a subset of
them, run with every chunk size of the chunked paths set to 1, to 3 and to
more than a packet, must make the same decisions and divergence flags as at
the defaults, with filter outputs that agree to rounding.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from stcdma import harness, receivers, signal_model
from stcdma.harness import run_trial, trial_seed
from stcdma.scenario import ALGORITHMS, Scenario

PIN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trial_pin.json")
RECEIVE = (("1rx", 1, "mrc"), ("2rx-mrc", 2, "mrc"), ("2rx-egc", 2, "egc"))
CASES = [
    (f"{tx}tx-{rx_name}-{estimator}", tx, rx, combiner, estimator, False)
    for tx in (1, 2)
    for rx_name, rx, combiner in RECEIVE
    for estimator in ("genie", "svd", "sg")
] + [(f"{tx}tx-1rx-svd-normalized", tx, 1, "mrc", "svd", True) for tx in (1, 2)]


def _scenario(tx, rx, combiner, estimator, normalize):
    return Scenario(
        gain=8,
        users=3,
        n_paths=2,
        snr_db=6.0,
        packet_symbols=300,
        tx_antennas=tx,
        rx_antennas=rx,
        combiner=combiner,
        algorithms=ALGORITHMS,
        channel_estimator=estimator,
        estimator_refresh=10,
        filter_refresh=10,
        doppler=0.002,
        step_ccm=0.002,
        step_cmv=0.01,
        step_lms=0.01,
        cov_forgetting=0.98,
        ber_skip=50,
        normalize_steps=normalize,
    ).validate()


def _digest(result) -> str:
    h = hashlib.sha256()
    for alg in sorted(result.bit_errors):
        h.update(alg.encode())
        h.update(result.bit_errors[alg].tobytes())
    for name in sorted(result.diverged):
        h.update(f"{name}={bool(result.diverged[name])};".encode())
    return h.hexdigest()[:16]


def _trial_digest(tx, rx, combiner, estimator, normalize) -> str:
    scn = _scenario(tx, rx, combiner, estimator, normalize)
    return _digest(run_trial(scn, trial_seed(scn.master_seed, tx, rx)))


def _pinned():
    with open(PIN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,tx,rx,combiner,estimator,normalize", CASES, ids=[c[0] for c in CASES])
def test_trial_outputs_match_pinned_digest(name, tx, rx, combiner, estimator, normalize):
    assert _trial_digest(tx, rx, combiner, estimator, normalize) == _pinned()[name]


def test_pin_covers_every_case():
    assert sorted(_pinned()) == sorted(c[0] for c in CASES)


# Every hard-coded chunk size but the fading generator's, which sets how
# Clarke fading rounds its phases (see `fading.py`).
CHUNK_KNOBS = (
    (receivers, "_CHUNK"),
    (receivers, "_SUBSTITUTION_BLOCK"),
    (signal_model, "_SLOTS_PER_RUN"),
)
# Each estimator on each antenna count, one and two receive antennas and both
# combiners among them.
CHUNK_CASES = (
    "1tx-1rx-genie", "1tx-2rx-mrc-svd", "1tx-1rx-sg", "2tx-2rx-egc-genie", "2tx-1rx-svd", "2tx-2rx-mrc-sg"
)
_DEFAULT_RUNS = {}


def _recorded_trial(monkeypatch, name):
    """Case `name`'s trial and every algorithm's (steps, rx, branches) filter
    outputs."""
    _, tx, rx, combiner, estimator, normalize = next(c for c in CASES if c[0] == name)
    outputs = {}
    adapt = harness._adapt

    def recording(algs, *args):
        result = adapt(algs, *args)
        outputs.update((alg, run[0]) for alg, run in result.items())
        return result

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_adapt", recording)
        scn = _scenario(tx, rx, combiner, estimator, normalize)
        return run_trial(scn, trial_seed(scn.master_seed, tx, rx)), outputs


@pytest.mark.parametrize("size", [1, 3, 1000])  # 1000: more than a packet's 300 symbols
@pytest.mark.parametrize("name", CHUNK_CASES)
def test_chunk_sizes_leave_decisions_unchanged(monkeypatch, name, size):
    if name not in _DEFAULT_RUNS:
        _DEFAULT_RUNS[name] = _recorded_trial(monkeypatch, name)
    base, base_outputs = _DEFAULT_RUNS[name]
    for module, attr in CHUNK_KNOBS:
        monkeypatch.setattr(module, attr, size)
    result, outputs = _recorded_trial(monkeypatch, name)
    assert result.diverged == base.diverged
    assert sorted(result.bit_errors) == sorted(base.bit_errors)
    for alg, errors in base.bit_errors.items():
        assert np.array_equal(result.bit_errors[alg], errors), alg
    # One slot per synthesis run rounds the chips by another BLAS call, and
    # the first svd refreshes, on a rank-deficient covariance, amplify that
    # to about 4e-11.
    for alg, ref in base_outputs.items():
        assert np.max(np.abs(outputs[alg] - ref)) <= 1e-9 * np.max(np.abs(ref)), alg


if __name__ == "__main__":
    digests = {name: _trial_digest(*args) for name, *args in CASES}
    with open(PIN_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {PIN_PATH}")
