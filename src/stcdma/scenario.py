"""Simulation scenario: every knob of a Monte Carlo run, plus its text format.

The configuration format is one ``key = value`` pair per line with ``#``
comments; keys mirror the Scenario fields exactly.  An empty document yields
the defaults below, which describe the reference system: gain 32, eight users
at 15 dB, six-tap multipath upper bound, packets of 1500 symbols.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

from .errors import ScenarioError

ALGORITHMS = ("ccm-exact", "ccm-sg", "cmv-exact", "cmv-sg", "trained-lms")
ESTIMATORS = ("genie", "svd", "sg")
COMBINERS = ("mrc", "egc")
PROFILES = ("three-path", "flat")
FADING_MODES = ("clarke", "off")

__all__ = [
    "Scenario",
    "parse_scenario",
    "parse_scenario_file",
    "serialize_scenario",
    "ALGORITHMS",
    "ESTIMATORS",
]


@dataclass
class Scenario:
    gain: int = 32                    # chips per symbol
    users: int = 8                    # active from the first symbol
    extra_users: int = 0              # join mid-packet
    extra_users_at: int = 0           # symbol index where they join (even)
    n_paths: int = 6                  # channel length upper bound (chips)
    snr_db: float = 15.0              # desired user's Eb/N0
    packet_symbols: int = 1500
    amplitude: float = 1.0            # desired user's per-antenna amplitude
    power_sigma_db: float = 3.0       # log-normal spread of interferer powers
    power_sigma_db_extra: float = 6.0  # spread for the mid-packet entrants
    tx_antennas: int = 2
    rx_antennas: int = 1
    combiner: str = "mrc"
    spreading_scheme: str = "zero-padded"
    code_seed: int = 1
    channel_profile: str = "three-path"
    fading: str = "clarke"
    doppler: float = 0.0001           # Doppler shift normalized by the symbol time
    include_isi: bool = False
    algorithms: tuple = ("ccm-sg",)
    channel_estimator: str = "sg"
    subspace_power: int = 1           # inverse power used by the svd estimator
    estimator_refresh: int = 50       # blocks between svd re-estimates
    filter_refresh: int = 50          # blocks between exact-filter recomputes
    nu: float = 1.0                   # constraint scale
    step_ccm: float = 0.001
    step_cmv: float = 0.001
    step_lms: float = 0.002
    normalize_steps: bool = False
    step_channel: float = 0.001       # subspace recursion step
    psi_forgetting: float = 0.998
    cov_forgetting: float = 0.998
    ridge: float = 1e-06
    ber_skip: int = 500               # symbols excluded from scalar error rates
    master_seed: int = 12345

    def validate(self) -> "Scenario":
        def bad(key, msg):
            raise ScenarioError(msg, key=key)

        if self.users < 1:
            bad("users", "at least one user is required")
        if self.extra_users < 0:
            bad("extra_users", "must be non-negative")
        if self.extra_users and self.extra_users_at % 2:
            bad("extra_users_at", "entry must fall on a block boundary (even index)")
        if self.extra_users and not 0 <= self.extra_users_at < self.packet_symbols:
            bad("extra_users_at", "entry index must lie inside the packet")
        if self.gain < 1:
            bad("gain", "must be positive")
        if self.tx_antennas == 2 and self.gain % 2:
            bad("gain", "must be even for the two-antenna code schemes")
        if self.n_paths < 1:
            bad("n_paths", "must be positive")
        if self.packet_symbols < 2 or self.packet_symbols % 2:
            bad("packet_symbols", "must be even and at least 2")
        if self.amplitude <= 0:
            bad("amplitude", "must be positive")
        if self.tx_antennas not in (1, 2):
            bad("tx_antennas", "must be 1 or 2")
        if self.rx_antennas < 1:
            bad("rx_antennas", "must be positive")
        if self.combiner not in COMBINERS:
            bad("combiner", f"must be one of {COMBINERS}")
        if self.spreading_scheme not in ("zero-padded", "sign-flipped"):
            bad("spreading_scheme", "must be zero-padded or sign-flipped")
        if self.channel_profile not in PROFILES:
            bad("channel_profile", f"must be one of {PROFILES}")
        if self.fading not in FADING_MODES:
            bad("fading", f"must be one of {FADING_MODES}")
        if self.doppler < 0:
            bad("doppler", "must be non-negative")
        if not self.algorithms:
            bad("algorithms", "at least one algorithm is required")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                bad("algorithms", f"unknown algorithm {alg!r}; choose from {ALGORITHMS}")
        if self.channel_estimator not in ESTIMATORS:
            bad("channel_estimator", f"must be one of {ESTIMATORS}")
        if self.subspace_power < 1:
            bad("subspace_power", "must be a positive integer")
        if self.estimator_refresh < 1:
            bad("estimator_refresh", "must be positive")
        if self.filter_refresh < 1:
            bad("filter_refresh", "must be positive")
        for key in ("step_ccm", "step_cmv", "step_lms", "step_channel"):
            if getattr(self, key) <= 0:
                bad(key, "must be positive")
        for key in ("psi_forgetting", "cov_forgetting"):
            if not 0.0 < getattr(self, key) <= 1.0:
                bad(key, "must lie in (0, 1]")
        if self.ridge < 0:
            bad("ridge", "must be non-negative")
        if not 0 <= self.ber_skip < self.packet_symbols:
            bad("ber_skip", "must lie inside the packet")
        for key in ("master_seed", "code_seed"):
            if getattr(self, key) < 0:
                bad(key, f"must be non-negative, got {getattr(self, key)}")
        if self.users + self.extra_users > self.gain:
            warnings.warn(
                "system is overloaded: users exceed the processing gain",
                RuntimeWarning,
                stacklevel=2,
            )
        return self

    @property
    def total_users(self) -> int:
        return self.users + self.extra_users

    @property
    def blocks(self) -> int:
        return self.packet_symbols // 2

    def noise_variance(self) -> float:
        """Per-chip complex noise variance for the configured Eb/N0.

        Eb/N0 counts the total transmit energy of the desired user across
        antennas against the noise spectral density, so a single-antenna
        system at amplitude sqrt(2) faces the same noise as the two-antenna
        system at amplitude 1.
        """
        snr = 10.0 ** (self.snr_db / 10.0)
        return self.tx_antennas * self.amplitude**2 / snr

    def replace(self, **kwargs) -> "Scenario":
        return dataclasses.replace(self, **kwargs)


_FIELDS = {f.name: f for f in dataclasses.fields(Scenario)}


def _parse_value(key: str, raw: str, line: int):
    f = _FIELDS[key]
    raw = raw.strip()
    try:
        if f.type in ("int",):
            return int(raw)
        if f.type in ("float",):
            return float(raw)
        if f.type in ("bool",):
            if raw.lower() in ("true", "yes", "on", "1"):
                return True
            if raw.lower() in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if f.type in ("tuple",):
            items = [t.strip() for t in raw.split(",") if t.strip()]
            return tuple(items)
        return raw
    except ValueError as exc:
        raise ScenarioError(str(exc), key=key, line=line) from exc


def parse_scenario(text: str) -> Scenario:
    """Parse the flat key = value format; unknown keys are rejected with
    their line number and every value is validated."""
    values = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError("expected 'key = value'", key=line.split()[0], line=lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ScenarioError("unknown configuration key", key=key, line=lineno)
        if key in values:
            raise ScenarioError("duplicate configuration key", key=key, line=lineno)
        values[key] = _parse_value(key, raw, lineno)
    return Scenario(**values).validate()


def parse_scenario_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_scenario(scn: Scenario) -> str:
    """Canonical text form; parse(serialize(s)) == s for any valid scenario."""
    lines = [f"{f.name} = {_format_value(getattr(scn, f.name))}" for f in dataclasses.fields(Scenario)]
    return "\n".join(lines) + "\n"
