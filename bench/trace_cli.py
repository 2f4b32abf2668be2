"""Run one ``stcdma`` CLI invocation in-process with every layer call timed.

Usage::

    python3 bench/trace_cli.py --summary OUT.json --records DIR -- <cli args>

The tracer wraps the public functions of each module where their caller binds
them (``stcdma.harness.detect``, ``stcdma.harness.simulate_packet``,
``CovarianceEstimate.update`` and so on), then calls ``stcdma.cli.main`` with
the given arguments.  Per-block calls are far too many to keep one span each,
so every trial aggregates them as a count plus busy seconds per name.  Each
process, including forked pool workers, appends one JSON line per trial to
``DIR/<pid>.jsonl``; the parent merges them into the summary once ``main``
returns.  The CLI's CSV and exit code are left exactly as they are untraced.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import stcdma.cli as cli  # noqa: E402
from stcdma import channel_estimation, harness, receivers, signal_model  # noqa: E402

# Stage of a trial that each wrapped call belongs to.  A call counts toward
# its stage only when no enclosing wrapped call already claimed a stage.
SYNTHESIZE, TRACK, ADAPT, SCORE = "synthesize", "track", "adapt", "score"


def _simulate_packet_cmacs(args, kwargs) -> int:
    """Complex multiply-adds of the matrix products ``simulate_packet`` does
    at the call's shapes (computed, not measured)."""
    streams, spreading, channel = args[0], args[1], args[2]
    include_isi = kwargs.get("include_isi", args[5] if len(args) > 5 else False)
    users, nsym = len(streams), len(streams[0])
    gain, n_tx, lp = spreading.gain, spreading.tx_antennas, channel.n_paths
    m = gain + lp - 1
    if include_isi:
        return n_tx * nsym * gain * (users + lp)
    if n_tx == 2:
        return users * 2 * (2 * m) * (2 * lp) * (nsym // 2)
    return users * m * lp * (nsym // 2)


class Tracer:
    """Call counts, busy time, self time and stage time of wrapped calls."""

    def __init__(self, records_dir: str):
        self.records_dir = records_dir
        self.totals = {}       # name -> [calls, busy_s] outside any trial
        self.trial = None      # per-trial accumulator while run_trial runs
        self.children = [0.0]  # wrapped-child time of each open wrapped call
        self.stage = None
        self.sweeps = []

    def _bucket(self):
        return self.trial["calls"] if self.trial is not None else self.totals

    def _timed(self, fn, name, stage, args, kwargs):
        owns_stage = stage is not None and self.stage is None
        if owns_stage:
            self.stage = stage
        self.children.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self.children.pop()
            self.children[-1] += dur
            slot = self._bucket().setdefault(name, [0, 0.0])
            slot[0] += 1
            slot[1] += dur
            if owns_stage:
                self.stage = None
                if self.trial is not None:
                    st = self.trial["stages"].setdefault(
                        stage, {"busy_s": 0.0, "first": t0, "last": t0}
                    )
                    st["busy_s"] += dur
                    st["last"] = t0 + dur

    def wrap(self, owner, attr, name, stage=None, after=None):
        """Replace ``owner.attr`` by a timed wrapper; missing names are skipped."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer._timed(fn, name, stage, args, kwargs)
            if after is not None and tracer.trial is not None:
                after(tracer.trial, args, kwargs, result)
            return result

        setattr(owner, attr, staticmethod(traced) if is_static else traced)

    def wrap_run_trial(self):
        fn = harness.run_trial
        tracer = self

        @functools.wraps(fn)
        def traced(scn, seed):
            entropy = getattr(seed, "entropy", None)
            trial_id = list(entropy[1:]) if isinstance(entropy, tuple) and len(entropy) == 3 else None
            tracer.trial = {"calls": {}, "stages": {}, "cmacs": 0, "sg_applied": 0}
            tracer.children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(scn, seed)
            finally:
                end = time.perf_counter()
                child = tracer.children.pop()
                record = tracer.trial
                tracer.trial = None
            diverged = getattr(result, "diverged", {})
            record.update(
                trial=trial_id,
                pid=os.getpid(),
                start=start,
                end=end,
                busy_s=end - start,
                self_s=end - start - child,
                diverged=sum(bool(v) for v in diverged.values()),
            )
            path = os.path.join(tracer.records_dir, f"{os.getpid()}.jsonl")
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
            return result

        harness.run_trial = traced

    def wrap_sweep(self):
        fn = cli.sweep
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                workers = kwargs.get("workers")
                tracer.sweeps.append(
                    {
                        "name": "harness.sweep",
                        "start": start,
                        "end": end,
                        "workers": workers if workers and workers > 1 else 1,
                    }
                )

        cli.sweep = traced

    def install(self):
        def count_cmacs(trial, args, kwargs, _result):
            trial["cmacs"] += _simulate_packet_cmacs(args, kwargs)

        def count_applied(trial, args, _kwargs, result):
            trial["sg_applied"] += int(result is not args[0])

        self.wrap_run_trial()
        self.wrap_sweep()
        h = harness
        for attr, stage, after in (
            ("simulate_packet", SYNTHESIZE, count_cmacs),
            ("random_multipath_channel", SYNTHESIZE, None),
            ("random_qpsk", SYNTHESIZE, None),
        ):
            self.wrap(h, attr, f"signal_model.{attr}", stage, after)
        self.wrap(signal_model, "clarke_fading_sequence", "fading.clarke_fading_sequence", SYNTHESIZE)
        for owner in (h, signal_model):
            for attr in ("random_spreading_set", "user_constraint_matrices", "build_convolution_matrix"):
                self.wrap(owner, attr, f"spreading.{attr}", SYNTHESIZE)
        for attr, after in (
            ("estimate_channel_exact", None),
            ("sg_psi_step", None),
            ("sg_channel_step", count_applied),
            ("align_phase", None),
        ):
            self.wrap(h, attr, f"channel_estimation.{attr}", TRACK, after)
        self.wrap(channel_estimation.CovarianceEstimate, "update",
                  "channel_estimation.CovarianceEstimate.update", TRACK)
        self.wrap(channel_estimation.PsiEstimate, "from_constraints",
                  "channel_estimation.PsiEstimate.from_constraints", TRACK)
        self.wrap(h, "channel_mse", "harness.channel_mse", TRACK)
        for attr in (
            "projection_pair",
            "min_norm_feasible_pair",
            "constraint_projector",
            "constraint_restorer",
            "ccm_sg_step",
            "cmv_sg_step",
            "trained_lms_step",
            "ccm_exact_filter",
            "cmv_exact_filter",
            "constrained_quadratic_filter",
        ):
            self.wrap(h, attr, f"receivers.{attr}", ADAPT)
        self.wrap(h, "detect", "receivers.detect", SCORE)
        self.wrap(h, "combine", "receivers.combine", SCORE)
        for attr in ("equal", "proportional"):
            self.wrap(receivers.CombinerGains, attr, "receivers.CombinerGains", SCORE)
        self.wrap(cli, "parse_scenario_file", "scenario.parse_scenario_file")
        self.wrap(cli, "emit_csv", "cli.emit_csv")

    def collect(self) -> dict:
        trials = []
        for name in sorted(os.listdir(self.records_dir)):
            with open(os.path.join(self.records_dir, name), encoding="utf-8") as fh:
                trials.extend(json.loads(line) for line in fh if line.strip())
        trials.sort(key=lambda t: (t["trial"] is None, t["trial"] or [], t["start"]))
        return {"parent_pid": os.getpid(), "totals": self.totals, "sweeps": self.sweeps, "trials": trials}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", required=True, help="JSON file for the merged trace")
    parser.add_argument("--records", required=True, help="empty directory for per-process trial records")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the stcdma CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    os.makedirs(args.records, exist_ok=True)
    tracer = Tracer(args.records)
    tracer.install()
    code = cli.main(cli_args)
    with open(args.summary, "w", encoding="utf-8") as fh:
        json.dump(tracer.collect(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
