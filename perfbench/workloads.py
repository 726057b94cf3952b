"""The four benchmark workloads: their inputs, one pass each, and output checks.

Every operation is one ``epigame`` command run in-process through
``epigame.cli.main`` with its artifacts under a temporary directory. An
operation fails when it exits non-zero (or raises), simulates the wrong
number of days, misses a reference value, or writes bytes that differ from
the same operation in the first pass of the same run. The units of work a
throughput counts are read from what the program writes: the days of
``summary.json`` and ``sweep.csv``, and one per ``check-equilibrium``.

Why these workloads (also recorded in BENCHMARK.json):

* ``presets`` is the main user command on the shipped scenarios. At one and
  two zones the day loop is bound by Python call overhead.
* ``fig3_sweep`` is 28 small independent runs, the case batching targets,
  and the heaviest user of the artifact and CSV path. It is run by hand and
  left out of BENCHMARK.json: its passes take 7-13 s on a 2-vCPU VM, so a
  run holds two or three of them and its fastest pass spread by 0.34-0.47
  (quartile distance over median, ten seeds), past any allowed bound.
* ``many_zones`` runs generated scenarios at 10 and 40 zones, where the
  O(Z^3) kernel contraction, the O(Z^3) flow observation, the 5Z x 5Z value
  solve and the Z^2-per-day policy retention dominate.
* ``equilibrium_checks`` constructs and checks generated equilibria, which
  uses kernel, value and Q once per input rather than once per day.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import generate
from tracer import LIBRARY_CALLS

PRESETS = ("fig2a", "fig2b", "fig2c", "fig4_migration")
PRESET_DAYS = {"fig2a": 343, "fig2b": 464, "fig2c": 373, "fig4_migration": 396}
FIG3_POINTS = 28
FIG3_DAYS = 9778

#: README reproduction table: (metric, zone) -> printed value, per preset.
#: The table mixes rounding and truncation (fig2a's total is 0.908504 and
#: printed 0.908; fig2b's is 0.624652 and printed 0.625), so a value passes
#: when it lies within one unit of the last printed digit.
README_TABLE = {
    "fig2a": {("total", 0): "0.908", ("peak", 0): "0.239"},
    "fig2b": {("total", 0): "0.625", ("peak", 0): "0.082"},
    "fig2c": {("total", 0): "0.494", ("peak", 0): "0.083"},
    "fig4_migration": {
        ("total", 0): "0.632",
        ("peak", 0): "0.107",
        ("total", 1): "0.226",
        ("peak", 1): "0.087",
    },
}

#: Reference values are compared with |x - ref| <= REF_ATOL + REF_RTOL * |ref|,
#: not by digest: array rewrites may reorder sums and drift by about 1e-13.
REF_ATOL = 1e-9
REF_RTOL = 1e-9

#: Simplex and conservation checks on generated runs, in population mass.
MASS_TOL = 1e-9

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def close(x: float, ref: float) -> bool:
    return abs(x - ref) <= REF_ATOL + REF_RTOL * abs(ref)


@dataclass
class Op:
    """One CLI command and the check of what it wrote."""

    key: str
    argv: list[str]
    # (exit code, output) -> (error, fingerprint, units of work the program reports)
    check: Callable[[int, str], tuple[str | None, str, int]]


@dataclass
class OpResult:
    key: str
    seconds: float  # the whole command
    library_s: float  # inside its library calls (see run_pass)
    units: int  # simulated days, or equilibrium checks
    error: str | None
    fingerprint: str


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def summary_digest(path: Path) -> tuple[dict, str]:
    """Parsed summary.json and a digest of it without its wall-clock field."""
    doc = json.loads(path.read_text())
    doc["meta"].pop("wall_clock_seconds")
    return doc, hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def read_timeseries(path: Path) -> tuple[list[str], list[list[float]]]:
    header, *rows = path.read_text().splitlines()
    return header.split(","), [[float(x) for x in row.split(",")] for row in rows]


class Workload:
    """Base: subclasses generate inputs and list the operations of a pass."""

    name = ""
    unit_name = "days_per_s"  # how the throughput metric reads for this workload

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.reference = None

    def build(self) -> None:
        """Generate and load the workload's inputs (timed as set-up)."""

    def operations(self, out: Path) -> list[Op]:
        raise NotImplementedError


class Presets(Workload):
    name = "presets"

    def build(self) -> None:
        from epigame import preset

        for name in PRESETS:
            preset(name)  # timed as set-up; the commands build their own
        self.reference = load_reference()["presets"]

    def operations(self, out: Path) -> list[Op]:
        return [
            Op(n, ["simulate", "--preset", n, "--out", str(out / n)], self._checker(n, out / n))
            for n in PRESETS
        ]

    def _checker(self, name: str, run_dir: Path):
        def check(code: int, stdout: str):
            if code != 0:
                return f"exit code {code}", "", 0
            summary, summary_fp = summary_digest(run_dir / "summary.json")
            if summary["days"] != PRESET_DAYS[name]:
                return f"{summary['days']} days, expected {PRESET_DAYS[name]}", "", 0
            m = summary["metrics"]
            for (kind, zone), printed in README_TABLE[name].items():
                value = m[f"zone_{kind}_infections"][zone]
                if abs(value - float(printed)) >= 10 ** -(len(printed.split(".")[1])):
                    return f"zone {zone} {kind} {value} is not README's {printed}", "", 0
            ref = self.reference[name]
            _, rows = read_timeseries(run_dir / "timeseries.csv")
            for day, ref_row in ref["rows"].items():
                row = rows[int(day)]
                if len(row) != len(ref_row) or not all(map(close, row, ref_row)):
                    return f"timeseries row of day {day} is off its reference", "", 0
            for key, ref_value in ref["metrics"].items():
                if not close(m[key], ref_value):
                    return f"{key} {m[key]} is off its reference {ref_value}", "", 0
            return None, digest(run_dir / "timeseries.csv") + summary_fp, summary["days"]

        return check


class Fig3Sweep(Workload):
    name = "fig3_sweep"

    def build(self) -> None:
        from epigame.scenarios import fig3_points

        fig3_points()  # timed as set-up; the command builds its own
        self.reference = load_reference()["fig3_sweep"]

    def operations(self, out: Path) -> list[Op]:
        argv = ["sweep", "--preset", "fig3_sweep", "--jobs", "1", "--out", str(out)]
        return [Op("sweep", argv, self._checker(out))]

    def _checker(self, out: Path):
        def check(code: int, stdout: str):
            if code != 0:
                return f"exit code {code}", "", 0
            header, *lines = (out / "sweep.csv").read_text().splitlines()
            cols = header.split(",")
            rows = [dict(zip(cols, line.split(","))) for line in lines]
            if len(rows) != FIG3_POINTS:
                return f"{len(rows)} sweep points, expected {FIG3_POINTS}", "", 0
            days = sum(int(r["days"]) for r in rows)
            if days != FIG3_DAYS:
                return f"{days} sweep days, expected {FIG3_DAYS}", "", 0
            for row, ref in zip(rows, self.reference):
                if row["name"] != ref["name"] or int(row["days"]) != ref["days"]:
                    return f"point {row['name']} does not match reference {ref['name']}", "", 0
                for key in ("total_infections", "peak_infections", "average_welfare"):
                    if not close(float(row[key]), ref[key]):
                        return f"{row['name']} {key} {row[key]} is off its reference", "", 0
            h = hashlib.sha256((out / "sweep.csv").read_bytes())
            for point in sorted((out / "points").iterdir()):
                h.update((point / "timeseries.csv").read_bytes())
                h.update(summary_digest(point / "summary.json")[1].encode())
            return None, h.hexdigest(), days

        return check


class ManyZones(Workload):
    name = "many_zones"

    def build(self) -> None:
        from epigame import scenario_from_dict

        self.docs = generate.many_zones_documents(self.seed)
        self.paths = []
        for doc in self.docs:
            path = self.tmp / f"{doc['name']}.json"
            path.write_text(json.dumps(doc))
            scenario_from_dict(doc)
            self.paths.append(path)

    def operations(self, out: Path) -> list[Op]:
        ops = []
        for doc, path in zip(self.docs, self.paths):
            run_dir = out / doc["name"]
            argv = ["simulate", "--config", str(path), "--out", str(run_dir)]
            ops.append(Op(doc["name"], argv, self._checker(doc, run_dir)))
        return ops

    @staticmethod
    def _checker(doc: dict, run_dir: Path):
        zones = doc["params"]["num_zones"]

        def check(code: int, stdout: str):
            if code != 0:
                return f"exit code {code}", "", 0
            summary, summary_fp = summary_digest(run_dir / "summary.json")
            if summary["days"] != doc["horizon"]:
                return f"{summary['days']} days, expected the horizon {doc['horizon']}", "", 0
            error = check_mass(zones, *read_timeseries(run_dir / "timeseries.csv"))
            return error, digest(run_dir / "timeseries.csv") + summary_fp, summary["days"]

        return check


def check_mass(zones: int, header: list[str], rows: list[list[float]]) -> str | None:
    """Simplex and conservation of mass along a time series.

    Each day's distribution must be nonnegative and sum to one, and each
    zone's mass tomorrow must equal today's mass minus its outflow plus its
    inflow, with the flows the series reports for today.
    """
    col = {name: i for i, name in enumerate(header)}
    dist = [[col[f"d_{s}_z{z}"] for s in "SAIRU"] for z in range(zones)]
    flow = {
        (a, b): col[f"flow_z{a}_to_z{b}"] for a in range(zones) for b in range(zones) if a != b
    }
    prev = None
    for row in rows:
        cells = [row[i] for zone in dist for i in zone]
        if min(cells) < -MASS_TOL or abs(math.fsum(cells) - 1.0) > MASS_TOL:
            return f"day {int(row[0])} leaves the simplex"
        mass = [math.fsum(row[i] for i in zone) for zone in dist]
        if prev is not None:
            prev_row, prev_mass = prev
            for z in range(zones):
                moved = math.fsum(
                    prev_row[flow[(w, z)]] - prev_row[flow[(z, w)]]
                    for w in range(zones)
                    if w != z
                )
                if abs(prev_mass[z] + moved - mass[z]) > MASS_TOL:
                    return f"zone {z} mass is not conserved into day {int(row[0])}"
        prev = (row, mass)
    return None


class EquilibriumChecks(Workload):
    name = "equilibrium_checks"
    unit_name = "checks_per_s"

    def build(self) -> None:
        from epigame import scenario_from_dict

        self.inputs = []
        for doc, split in generate.equilibrium_inputs(self.seed):
            path = self.tmp / f"{doc['name']}.json"
            path.write_text(json.dumps(doc))
            scenario_from_dict(doc)
            self.inputs.append((doc["name"], path, split))

    def operations(self, out: Path) -> list[Op]:
        ops = []
        for name, path, split in self.inputs:
            state = out / f"{name}-state.json"
            construct = [
                "construct-equilibrium", "--config", str(path), "--split", split,
                "--out", str(state),
            ]
            check = ["check-equilibrium", "--config", str(path), "--state", str(state)]
            ops.append(Op(f"{name}:construct", construct, self._checker(state, "(PASS)", 0)))
            ops.append(Op(f"{name}:check", check, self._checker(state, "verdict: PASS", 1)))
        return ops

    @staticmethod
    def _checker(state: Path, verdict: str, units: int):
        def check(code: int, stdout: str):
            if code != 0:
                return f"exit code {code}", "", 0
            if verdict not in stdout:
                return f"no {verdict!r} verdict in: {stdout.strip()!r}", "", 0
            shown = stdout.replace(str(state), "<state>").encode()
            return None, digest(state) + hashlib.sha256(shown).hexdigest(), units

        return check


WORKLOADS = {w.name: w for w in (Presets, Fig3Sweep, ManyZones, EquilibriumChecks)}


def run_pass(workload: Workload, out: Path, baseline: dict | None, tracer) -> list[OpResult]:
    """Run every operation once; compare fingerprints with ``baseline`` if given.

    ``tracer`` must be installed; each command's library time is the time of
    the root spans of :data:`tracer.LIBRARY_CALLS` it records. A command that
    makes none of those calls counts whole.
    """
    from epigame import cli

    results = []
    for op in workload.operations(out):
        sink = io.StringIO()
        crash = None
        first_span = len(tracer)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli.main(op.argv)
            except (Exception, SystemExit) as exc:  # counted as a failure, not raised
                crash = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        library_s = tracer.root_time(LIBRARY_CALLS, since=first_span) or seconds
        if crash:
            error, fp, units = crash, "", 0
        else:
            try:
                error, fp, units = op.check(code, sink.getvalue())
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                error, fp, units = f"unreadable output: {type(exc).__name__}: {exc}", "", 0
        if error is None and baseline is not None and baseline.get(op.key) != fp:
            error = "output bytes differ from the first pass"
        results.append(OpResult(op.key, seconds, library_s, units, error, fp))
    return results
