"""Runs one workload's requests in a fresh interpreter: a closed loop, one client.

Invoked by run.py with a batch file it wrote; writes the timings and the
program's outputs to a results file for run.py to check. Each request
runs under a wall-clock cap (SIGALRM); a request that hits it is
recorded as capped and the loop goes on.

Untraced: passes over the batch until ``--seconds`` have gone by (at
least one whole pass; the last may stop part way), with set-up timings
and speed-kernel samples between requests. A request that hit the cap is not run again.
Traced: one pass that runs each request untraced and then traced, so the
per-layer counts do not depend on machine speed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction

from speed import SpeedProbe

# a request that escapes the cap by allocating fails with MemoryError
# instead of exhausting a shared machine
ADDRESS_SPACE_LIMIT = 2 * 1024**3
# set-up is timed between requests, spread over the run, so that a slow
# spell of the machine meets only a few of its samples
SETUP_INTERVAL_S = 1.25


class Capped(BaseException):
    """Raised by the alarm handler; a BaseException so no handler in the program swallows it."""


CAPPED = {"capped": True}


def _on_alarm(_signum, _frame):
    raise Capped()


class SetupTimer:
    """Times ``import cartancover.cli`` in fresh interpreters, in seconds.

    Bytecode caches go under ``.bench_out/pycache`` and are written by an
    untimed first import, so every timed import loads cached bytecode, as
    an installed package does, whatever the environment says.
    """

    def __init__(self, src: str):
        root = os.path.dirname(src)
        self.cmd = [
            sys.executable, "-c",
            "import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
            "import cartancover.cli; print(time.perf_counter() - t)" % src,
        ]
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(root, ".bench_out", "pycache")
        self.cwd = root
        self.times = []
        self._spawn()
        self.last = -math.inf

    def _spawn(self) -> float:
        done = subprocess.run(
            self.cmd, cwd=self.cwd, env=self.env, check=True, capture_output=True, text=True
        )
        return float(done.stdout)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= SETUP_INTERVAL_S:
            self.times.append(self._spawn())
            self.last = time.perf_counter()


def roundtrip_request(fields, covers, bundles, parabolic):
    def run(req):
        fd = req["field"]
        field = fields.QQ if fd["kind"] == "Q" else fields.GF(fd["p"])
        cover = covers.CoverRep(bundles.BaseGraph(req["vertices"], req["edges"]), req["degree"], req["sigma"])
        record = covers.cover_roundtrip(cover, covers.LineBundleOnCover(cover, field, req["scalars"]))
        par = req["parabolic"]
        data = parabolic.RamifiedCoverData(
            par["gX"],
            par["degree"],
            tuple(par["components"]),
            tuple(
                parabolic.BranchPoint(
                    tuple(parabolic.RamifiedSheet(m, Fraction(w), c) for m, w, c in sheets)
                )
                for sheets in par["branch_points"]
            ),
            tuple(tuple(Fraction(w) for w in ws) for ws in par["extra"]),
        )
        conservation = parabolic.check_pardeg_conservation(data, par["line_degree"])
        return {
            "ok": record.all_ok(),
            "components": record.roundtrip.component_count,
            "sections": record.roundtrip.flat_section_dim,
            "equal": conservation.equal,
            "upstairs": str(conservation.upstairs),
        }

    return run


def cli_request(cli, command):
    def run(req):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--format", "machine", command, req["path"]])
        return {"exit": code, "text": buf.getvalue()}

    return run


class Loop:
    """The closed loop over one batch: runs requests and keeps what they return.

    ``records`` gets (index, wall s, CPU s, status, start) per run;
    ``outputs`` the first output of each request; ``changed`` the index of
    every later run whose output differs from the first.
    """

    def __init__(self, batch, run, cap: float, between=None):
        self.batch = batch
        self.run = run
        self.cap = cap
        self.between = between
        self.records = []
        self.outputs = {}
        self.changed = []

    def request(self, index: int, tracer=None) -> None:
        if self.between is not None:
            self.between()
        if tracer is not None:
            tracer.current_request = index
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        status = "done"
        out = None
        try:
            signal.setitimer(signal.ITIMER_REAL, self.cap)
            out = self.run(self.batch[index])
            signal.setitimer(signal.ITIMER_REAL, 0)
        except Capped:
            status = "capped"
            out = CAPPED
        except Exception as exc:  # recorded as a failed request; the loop goes on
            signal.setitimer(signal.ITIMER_REAL, 0)
            status = "raised"
            out = {"raised": f"{type(exc).__name__}: {exc}"}
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.end_request()
        if index not in self.outputs:
            self.outputs[index] = out
        elif self.outputs[index] != out:
            self.changed.append(index)
        self.records.append((index, wall, cpu, status, t0))

    def live(self):
        """Indices of the requests to run; one that hit the cap would only hit it again."""
        return [i for i in range(len(self.batch)) if self.outputs.get(i) != CAPPED]

    def one_pass(self, deadline: float = math.inf) -> None:
        for index in self.live():
            if time.perf_counter() >= deadline:
                return
            self.request(index)

    def traced_pass(self, tracer) -> None:
        """Each request untraced, then traced right after, so the pair shares
        the machine's speed of the moment; one that hit the cap untraced is
        not traced."""
        for index in self.live():
            self.request(index)
            if self.outputs[index] == CAPPED:
                continue
            tracer.install()
            try:
                self.request(index, tracer)
            finally:
                tracer.uninstall()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--batch", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--cap", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    src = os.path.realpath(args.src)
    sys.path.insert(0, src)
    import cartancover
    from cartancover import bundles, cli, covers, fields, parabolic

    if not os.path.realpath(cartancover.__file__).startswith(src + os.sep):
        raise SystemExit(f"cartancover was imported from {cartancover.__file__}, not {src}")

    with open(args.batch, encoding="utf-8") as fh:
        batch = json.load(fh)
    if args.workload == "roundtrip":
        run = roundtrip_request(fields, covers, bundles, parabolic)
    else:
        run = cli_request(cli, {"cover_build": "cover-build", "factor": "factor"}[args.workload])
    signal.signal(signal.SIGALRM, _on_alarm)

    result = {}
    if args.trace:
        from spans import NAMES, Tracer, layer_metrics

        loop = Loop(batch, run, args.cap)
        tracer = Tracer()
        loop.traced_pass(tracer)
        result["layers"] = layer_metrics(tracer)
        result["items"] = {
            name: tracer.items[NAMES.index(name)]
            for name in ("covers.cover_isomorphisms", "factorization.block_systems")
        }
        if args.spans:
            tracer.write(args.spans)
    else:
        # set-up is timed before the first pass and after every pass, so it
        # meets the same spells of machine speed as the requests
        probe = SpeedProbe()
        setup = SetupTimer(args.src)

        def between():
            setup.maybe_sample()
            probe.maybe_sample()

        loop = Loop(batch, run, args.cap, between)
        deadline = time.perf_counter() + args.seconds
        # every request runs at least once; the last pass stops at the deadline
        loop.one_pass()
        while time.perf_counter() < deadline:
            loop.one_pass(deadline)
        probe.sample()
        result["setup"] = setup.times
        result["speed"] = probe.samples

    result["records"] = loop.records
    result["outputs"] = {str(k): v for k, v in loop.outputs.items()}
    result["changed"] = loop.changed
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
