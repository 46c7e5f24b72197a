"""The benchmark's workloads: seeded inputs, requests and their checks.

Each workload is a closed loop with one client: a round is a fixed list of
requests sent one after the other, and the timed phase repeats the round.
Only a request's call is timed; its correctness check runs outside the
timed part.  A fixed calibration kernel is timed between requests, so that
each latency can be scaled to the reference speed (``run.py``).  The
library receives only the inputs generated here from the benchmark's
seed.  README.md in this directory gives each workload's rationale.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from confgauss import acceptance, cli, classify, congruence, grid, lorentz, zoo

Y_EQUIVARIANCE_TOL = 1e-5


@dataclass
class Request:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]  # True when the output is correct


@dataclass
class Record:
    label: str
    latency: float
    ok: bool
    calibration: float  # mean kernel time just before and just after


class Calibration:
    """A fixed kernel, independent of confgauss, to time beside each request.

    It mixes the operations the library spends its time in: an axis
    contraction of a complex field, elementwise transcendentals, a
    reduction and interpreted Python.  Host contention slows it by the
    same share as the requests around it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.d = rng.random((128, 128))
        self.f = rng.random((128, 128, 5)) + 1j * rng.random((128, 128, 5))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(9):
            g = np.tensordot(self.d, self.f, axes=(1, 0))
            for _ in range(2):
                g = np.exp(-1e-3 * np.abs(g)) * g
            np.einsum("ijk,ijk->ij", g, np.conj(g))
            s = 0
            for i in range(20000):
                s += i * i
        return time.perf_counter() - t0


CALIBRATE = Calibration()


def _checked(req: Request, out) -> bool:
    try:
        return bool(req.check(out))
    except Exception:  # a check that raises is a failed check
        traceback.print_exc()
        return False


def run_requests(requests, scope=contextlib.nullcontext) -> list:
    """Send each request once, in order; time its call, then check it."""
    records = []
    before = CALIBRATE()
    for req in requests:
        with scope(req.label):
            t0 = time.perf_counter()
            try:
                out = req.call()
                error = False
            except Exception:  # a request that raises counts as failed
                traceback.print_exc()
                error = True
            latency = time.perf_counter() - t0
        after = CALIBRATE()
        ok = not error and _checked(req, out)
        records.append(Record(req.label, latency, ok, (before + after) / 2.0))
        before = after
    return records


class Workload:
    """A fixed round of requests built from a seed; each classifies an N x N grid."""

    name = ""
    n = 0

    def __init__(self, seed: int, n: int | None = None, workdir: Path | None = None):
        if n is not None:
            self.n = n
        self.workdir = workdir
        self.requests = self.build(np.random.default_rng(seed))

    def build(self, rng) -> list:
        raise NotImplementedError

    def warm_up(self) -> bool:
        """One request of the workload's kind on its first input."""
        return all(r.ok for r in run_requests(self.requests[:1]))

    def run_round(self, scope=contextlib.nullcontext) -> list:
        return run_requests(self.requests, scope)


def _matches_expected(spec, report) -> bool:
    expected = spec.expected
    if expected.get("kappa") is None:
        return report.verdict == "not conformally CMC"
    ok = report.kappa == expected["kappa"]
    if "normal_type" in expected:
        ok = ok and report.hyperplane.vtype == expected["normal_type"]
    return ok


def catalog_inputs(rng) -> list:
    """Seeded parameters inside the ranges ``zoo.list_surfaces()`` states.

    Only parameters with a stated range vary; the four CMC surfaces come
    first and ``revolution_profile`` (not CMC) last.
    """
    r = float(rng.uniform(0.5, 1.5))
    return [
        ("cylinder", {"rho": float(rng.uniform(0.5, 2.0))}),
        ("torus_revolution", {"R": r * float(rng.uniform(1.6, 4.0)), "r": r}),
        ("clifford_torus", {}),
        ("hyperbolic_cylinder", {"d": float(rng.uniform(0.3, 1.2))}),
        ("revolution_profile", {"rho0": float(rng.uniform(0.8, 2.0))}),
    ]


class ClassifyN512(Workload):
    """``classify.classify`` on seeded catalog parameters at N = 512."""

    name = "classify-n512"
    n = 512

    def build(self, rng):
        requests = []
        for name, params in catalog_inputs(rng):
            spec = zoo.make_surface(name, **params)
            requests.append(Request(
                name,
                lambda name=name, params=params: classify.classify(
                    zoo.make_surface(name, **params), n=self.n),
                lambda rep, spec=spec: _matches_expected(spec, rep),
            ))
        return requests


def moebius_word(rng) -> list:
    """An inversion at a seeded centre 4-5 away, then a seeded similarity word.

    Every base surface lies within 2.5 of the origin in its R^3 gauge, so
    the inversion centre stays at least 1.5 from it.  Unrestricted
    ``random_word`` draws can put the centre almost on the surface; the
    moved patch is then under-resolved at N = 128 and ``classify_data``
    refuses it with a ValueError (README.md).
    """
    centre = rng.normal(size=3)
    centre *= rng.uniform(4.0, 5.0) / np.linalg.norm(centre)
    return ([lorentz.Generator("tra", tuple(float(x) for x in centre)),
             lorentz.Generator("inv")]
            + lorentz.random_word(rng, allow_inversion=False))


class TransformN128(Workload):
    """Seeded Moebius words moving three surfaces, each then classified."""

    name = "transform-n128"
    n = 128
    words = 4
    surfaces = ("cylinder", "clifford_torus", "hyperbolic_cylinder")

    def build(self, rng):
        words = [moebius_word(rng) for _ in range(self.words)]
        bases = {}
        for name in self.surfaces:
            data = grid.fundamental_data(zoo.sample(zoo.make_surface(name), self.n))
            bases[name] = (data, classify.classify_data(data, name),
                           congruence.conformal_gauss_map(data).Y)
        requests = []
        for k, word in enumerate(words):
            m = lorentz.word_matrix(word)
            for name in self.surfaces:
                data, base, y_base = bases[name]

                def call(data=data, word=word, name=name):
                    moved = congruence.transform_immersion(data, word)
                    return moved, classify.classify_data(moved, name)

                def check(out, base=base, y_base=y_base, m=m):
                    moved, rep = out
                    y_err = np.max(np.abs(
                        congruence.conformal_gauss_map(moved).Y - y_base @ m.T))
                    return (rep.kappa == base.kappa
                            and rep.hyperplane.vtype == base.hyperplane.vtype
                            and y_err <= Y_EQUIVARIANCE_TOL)

                requests.append(Request(f"{name}/word{k}", call, check))
        return requests


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# CSV files ``analyze --out`` writes; R^3-charted surfaces add the currents
_CSV_FIELDS = ["lam", "H", "Omega", "n", "Y", "W", "W_s3", "nu", "nustar", "l",
               "H_nu", "H_nustar", "Omega_nu", "Omega_nustar"]
_CSV_CURRENTS = ["Vtra_x", "Vtra_y", "Vdil_x", "Vdil_y", "Vrot_x", "Vrot_y",
                 "Vinv_x", "Vinv_y"]


def _csv_set_ok(out: Path, model: str, n: int) -> bool:
    names = _CSV_FIELDS + (_CSV_CURRENTS if model == "r3" else [])
    if sorted(p.name for p in out.iterdir()) != sorted(f"{x}.csv" for x in names):
        return False
    for x in names:
        raw = (out / f"{x}.csv").read_bytes()
        if not raw.startswith(b"u,v,") or raw.count(b"\n") != n * n + 1:
            return False
    return True


class AnalyzeExportN128(Workload):
    """In-process ``confgauss analyze --out`` on the four CMC surfaces."""

    name = "analyze-export-n128"
    n = 128

    def build(self, rng):
        requests = []
        for name, params in catalog_inputs(rng)[:4]:
            argv = ["analyze", name, "--grid", str(self.n)]
            for flag, value in params.items():
                argv += [f"--{flag}", repr(value)]
            # the stdout every export request must reproduce byte for byte
            expected = _run_cli(argv)
            model = zoo.make_surface(name, **params).model

            def call(argv=argv):
                out = Path(tempfile.mkdtemp(dir=self.workdir))
                return out, _run_cli(argv + ["--out", str(out)])

            def check(result, expected=expected, model=model):
                out, (code, stdout) = result
                try:
                    return (expected[0] == 0 and code == 0
                            and stdout == expected[1]
                            and _csv_set_ok(out, model, self.n))
                finally:
                    shutil.rmtree(out)

            requests.append(Request(name, call, check))
        return requests


class _TimestampSink(io.TextIOBase):
    """Stdout stand-in that times the gaps between echoed lines.

    When a line completes it records the time, runs the calibration kernel
    and records the time again, so the kernel falls between two lines.
    """

    def __init__(self):
        self.ends = []  # when each line completed
        self.calibrations = [CALIBRATE()]
        self.starts = [time.perf_counter()]  # when the work after each line began
        self._buf = ""

    def writable(self):
        return True

    def write(self, s):
        self._buf += s
        while "\n" in self._buf:
            self.ends.append(time.perf_counter())
            self._buf = self._buf.split("\n", 1)[1]
            self.calibrations.append(CALIBRATE())
            self.starts.append(time.perf_counter())
        return len(s)


class CheckInvariantsN128(Workload):
    """``acceptance.run_all(128)``; one request is one criterion.

    The suite fixes its own inputs, so the seed does not apply.  Criterion
    latencies come from the times at which ``run_all(echo=True)`` prints
    each criterion's line.
    """

    name = "check-invariants-n128"
    n = 128

    def build(self, rng):
        return []

    def warm_up(self) -> bool:
        try:
            return acceptance.criterion_structure_equations(self.n).passed
        except Exception:  # a warm-up that raises is a failed warm-up
            traceback.print_exc()
            return False

    def run_round(self, scope=contextlib.nullcontext):
        with scope("run_all"):
            sink = _TimestampSink()
            with contextlib.redirect_stdout(sink):
                try:
                    results = acceptance.run_all(self.n, echo=True)
                except Exception:  # the whole round failed
                    traceback.print_exc()
                    failed = Record("run_all", time.perf_counter() - sink.starts[0],
                                    False, sink.calibrations[0])
                    return [failed] * len(acceptance.CRITERIA)
        if len(sink.ends) != len(results):
            raise RuntimeError("run_all(echo=True) printed one line per criterion "
                               f"no longer: {len(sink.ends)} lines, {len(results)} results")
        cal = sink.calibrations
        return [Record(res.name, sink.ends[k] - sink.starts[k], bool(res.passed),
                       (cal[k] + cal[k + 1]) / 2.0)
                for k, res in enumerate(results)]


WORKLOADS = {w.name: w for w in
             (ClassifyN512, TransformN128, AnalyzeExportN128, CheckInvariantsN128)}
