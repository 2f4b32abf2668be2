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
"""

import hashlib
import json
import os

import pytest

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


if __name__ == "__main__":
    digests = {name: _trial_digest(*args) for name, *args in CASES}
    with open(PIN_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {PIN_PATH}")
