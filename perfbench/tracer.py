"""Span tracer that wraps epigame's layer functions from outside the package.

The tracer never edits the program. It replaces the names that the
``dynamics``, ``decision``, ``epidemic``, ``equilibrium`` and ``cli`` modules
look up at call time with wrappers that record a span (name, start, end,
parent) and call the original. :meth:`Tracer.installed` restores every
replaced attribute on exit, also when the traced code raises. A name the
program no longer has is skipped and listed in ``Tracer.missing``; the
figures of its layer then read 0.

Untraced runs use the same mechanism restricted to :data:`LIBRARY_CALLS`,
the library calls the throughput figures are timed on.

Spans are kept in flat ``array`` columns, so a traced ``fig3_sweep`` pass of
about 280 000 spans holds about 8 MB, and are written out once at the
end of a run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

#: (module, attribute, span name) for every wrapped name. A function imported
#: into several modules is wrapped in each module that calls it.
WRAPPED = (
    ("cli", "simulate", "dynamics.simulate"),
    ("cli", "preset", "scenarios.load"),
    ("cli", "fig3_points", "scenarios.load"),
    ("cli", "scenario_from_dict", "scenarios.load"),
    ("cli", "write_run_artifacts", "cli.write_run_artifacts"),
    ("cli", "render_timeseries", "cli.render_timeseries"),
    ("cli", "construct_equilibrium", "equilibrium.construct_equilibrium"),
    ("cli", "check_equilibrium", "equilibrium.check_equilibrium"),
    ("dynamics", "step", "dynamics.step"),
    ("dynamics", "_observe", "dynamics.observe"),
    ("dynamics", "metrics", "dynamics.metrics"),
    ("dynamics", "validate_params", "core.validate_params"),
    ("dynamics", "transition_matrix", "epidemic.transition_matrix"),
    ("dynamics", "activity_masses", "epidemic.activity_masses"),
    ("dynamics", "expected_reward", "rewards.expected_reward"),
    ("dynamics", "value_function", "decision.value_function"),
    ("dynamics", "q_function", "decision.q_function"),
    ("dynamics", "logit_choice", "decision.logit_choice"),
    ("dynamics", "policy_update", "decision.policy_update"),
    ("dynamics", "StateDistribution", "dynamics.propagate"),
    ("decision", "validate_params", "core.validate_params"),
    ("decision", "activity_masses", "epidemic.activity_masses"),
    ("decision", "infection_matrix", "epidemic.infection_matrix"),
    ("decision", "reward_table", "rewards.reward_table"),
    ("epidemic", "validate_params", "core.validate_params"),
    ("epidemic", "activity_masses", "epidemic.activity_masses"),
    ("epidemic", "infection_matrix", "epidemic.infection_matrix"),
    ("rewards", "reward_table", "rewards.reward_table"),
    ("equilibrium", "validate_params", "core.validate_params"),
    ("equilibrium", "transition_matrix", "epidemic.transition_matrix"),
    ("equilibrium", "expected_reward", "rewards.expected_reward"),
    ("equilibrium", "value_function", "decision.value_function"),
    ("equilibrium", "q_function", "decision.q_function"),
    ("epidemic.TransitionKernel", "propagate", "dynamics.propagate"),
)

#: Span names of the library calls that ``epigame.cli`` makes for a command:
#: the throughput denominators of ``run.py``.
LIBRARY_CALLS = frozenset(
    {"dynamics.simulate", "equilibrium.construct_equilibrium", "equilibrium.check_equilibrium"}
)


def resolve(package, owner_path: str, attr: str):
    """The object that holds ``attr`` under ``package``, or None if it is gone."""
    owner = package
    for part in owner_path.split("."):
        owner = getattr(owner, part, None)
    return owner if attr in getattr(owner, "__dict__", {}) else None


class Tracer:
    """In-memory span recorder; one instance per pass.

    ``only`` restricts the wrapped names to those span names; a full tracer
    (``only`` None) also adds up the array bytes each simulation result
    keeps, in ``retained``.
    """

    def __init__(self, clock=time.perf_counter, only=None) -> None:
        self.clock = clock
        self.only = only
        self.missing: list[str] = []
        self.retained = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")  # -1 for a root span
        self.start = array("d")
        self.end = array("d")
        self.zones = array("i")  # zone count of a dynamics.step span, else 0
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._intern(name)
        stack = self._stack
        clock = self.clock
        step = name == "dynamics.step"
        keeps = name == "dynamics.simulate" and self.only is None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            # step(social, cfg, params, ...): the zone count of its params.
            self.zones.append(getattr(args[2] if len(args) > 2 else None, "num_zones", 0)
                              if step else 0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if keeps:
                self.retained += retained_bytes(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap the names of :data:`WRAPPED` in ``package`` for the block."""
        saved = []
        try:
            for owner_path, attr, name in WRAPPED:
                if self.only is not None and name not in self.only:
                    continue
                owner = resolve(package, owner_path, attr)
                if owner is None:
                    self.missing.append(f"{owner_path}.{attr}")
                    continue
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def root_time(self, names, since: int = 0) -> float:
        """Seconds in root spans called one of ``names``, from span ``since`` on."""
        ids = {i for i, name in enumerate(self.names) if name in names}
        return sum(self.end[i] - self.start[i] for i in range(since, len(self))
                   if self.parent[i] < 0 and self.name_id[i] in ids)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        out = list(own)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                out[par] -= own[idx]
        return out

    def write(self, path: Path) -> None:
        """Write all spans as gzipped JSON columns."""
        doc = {
            "names": self.names,
            "columns": ["name_id", "parent", "start", "end", "zones"],
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "zones": self.zones.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)


STEP_ZONES = (1, 2, 10, 40)

# Layers measured per simulated day, with the time kind each reports.
_DAY_TIMES = (
    ("epidemic.transition_matrix", "self"),
    ("epidemic.activity_masses", "total"),
    ("rewards.expected_reward", "total"),
    ("decision.q_function", "self"),
    ("decision.logit_choice", "total"),
    ("decision.policy_update", "total"),
    ("dynamics.propagate", "total"),
    ("decision.value_function", "total"),
)
_DAY_COUNTS = (
    "core.validate_params",
    "rewards.reward_table",
    "epidemic.activity_masses",
    "epidemic.infection_matrix",
)


def per_layer_metric_names() -> list[str]:
    """Every name :func:`layer_metrics` returns, in report order."""
    names = [f"{layer}.calls_per_day" for layer in _DAY_COUNTS]
    names += [
        f"{layer}.{'self_' if kind == 'self' else ''}us_per_day" for layer, kind in _DAY_TIMES
    ]
    names += [f"dynamics.step.us_per_day.z{z}" for z in STEP_ZONES]
    names += [f"epidemic.transition_matrix.step_share.z{z}" for z in STEP_ZONES]
    names += [
        "dynamics.simulate.self_us_per_day",
        "dynamics.metrics.us_per_run",
        "cli.render_timeseries.us_per_day",
        "cli.write_run_artifacts.us_per_run",
        "scenarios.load.us_per_run",
        "equilibrium.construct_equilibrium.us_per_call",
        "equilibrium.check_equilibrium.self_us_per_call",
    ]
    return names


def unit_of(name: str) -> str:
    """Unit of a metric named by :func:`per_layer_metric_names`."""
    for suffix, unit in (("calls_per_day", "1/day"), ("us_per_day", "us/day"),
                         ("us_per_run", "us/run"), ("us_per_call", "us/call")):
        if suffix in name:
            return unit
    return "fraction"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    A simulated day is one ``dynamics.step`` call plus the observation of the
    day it produces; the day-0 observation belongs to the run's set-up.
    Figures of a layer the pass never reaches read 0.
    """
    names = tracer.names
    nid = tracer.name_id
    parent = tracer.parent
    own = [e - s for s, e in zip(tracer.start, tracer.end)]
    self_t = tracer.self_times()
    n = len(own)

    # Whether each span sits inside a day: under a step, or under an
    # observation other than a run's first. Parents precede children.
    step_id = tracer._name_ids.get("dynamics.step", -1)
    observe_id = tracer._name_ids.get("dynamics.observe", -1)
    simulate_id = tracer._name_ids.get("dynamics.simulate", -1)
    in_day = [False] * n
    day0_observes = set()
    first_observe = True
    for i in range(n):
        if nid[i] == simulate_id:
            first_observe = True
        elif nid[i] == observe_id and first_observe:
            day0_observes.add(i)
            first_observe = False
        par = parent[i]
        if par >= 0:
            in_day[i] = (
                in_day[par]
                or nid[par] == step_id
                or (nid[par] == observe_id and par not in day0_observes)
            )

    days = sum(1 for i in range(n) if nid[i] == step_id)
    total = defaultdict(float)
    self_sum = defaultdict(float)
    calls = defaultdict(int)
    day_total = defaultdict(float)
    day_self = defaultdict(float)
    day_calls = defaultdict(int)
    step_by_z = defaultdict(float)
    days_by_z = defaultdict(int)
    for i in range(n):
        name = names[nid[i]]
        calls[name] += 1
        total[name] += own[i]
        self_sum[name] += self_t[i]
        if nid[i] == step_id:
            step_by_z[tracer.zones[i]] += own[i]
            days_by_z[tracer.zones[i]] += 1
        if in_day[i]:
            day_calls[name] += 1
            day_total[name] += own[i]
            day_self[name] += self_t[i]

    def per(x, count):
        return x / count if count else 0.0

    us = 1e6
    out = {}
    for layer in _DAY_COUNTS:
        out[f"{layer}.calls_per_day"] = per(day_calls[layer], days)
    for layer, kind in _DAY_TIMES:
        if kind == "self":
            out[f"{layer}.self_us_per_day"] = per(day_self[layer], days) * us
        else:
            out[f"{layer}.us_per_day"] = per(day_total[layer], days) * us
    for z in STEP_ZONES:
        out[f"dynamics.step.us_per_day.z{z}"] = per(step_by_z[z], days_by_z[z]) * us
    shares = step_shares(tracer, self_t)
    for z in STEP_ZONES:
        out[f"epidemic.transition_matrix.step_share.z{z}"] = shares.get(z, {}).get(
            "epidemic.transition_matrix", 0.0
        )

    sim_self = total["dynamics.simulate"] - total["dynamics.step"] - total["dynamics.metrics"]
    runs = calls["dynamics.simulate"]
    records = days + runs  # each run records day 0 plus one record per step
    loads = runs or calls["scenarios.load"]  # fig3_points loads all 28 runs at once
    out["dynamics.simulate.self_us_per_day"] = per(sim_self, days) * us
    out["dynamics.metrics.us_per_run"] = per(total["dynamics.metrics"], runs) * us
    out["cli.render_timeseries.us_per_day"] = per(total["cli.render_timeseries"], records) * us
    out["cli.write_run_artifacts.us_per_run"] = per(total["cli.write_run_artifacts"], runs) * us
    out["scenarios.load.us_per_run"] = per(total["scenarios.load"], loads) * us
    out["equilibrium.construct_equilibrium.us_per_call"] = (
        per(total["equilibrium.construct_equilibrium"], calls["equilibrium.construct_equilibrium"])
        * us
    )
    check = "equilibrium.check_equilibrium"
    out[f"{check}.self_us_per_call"] = per(self_sum[check], calls[check]) * us
    return out


def step_shares(tracer: Tracer, self_t: list[float]) -> dict[int, dict[str, float]]:
    """Per zone count: share of ``dynamics.step`` time that is each layer's self time."""
    step_id = tracer._name_ids.get("dynamics.step", -1)
    step_of = {}  # span index -> enclosing step span index
    step_total = defaultdict(float)
    shares = defaultdict(lambda: defaultdict(float))
    for i in range(len(tracer)):
        par = tracer.parent[i]
        if tracer.name_id[i] == step_id:
            step_of[i] = i
            step_total[tracer.zones[i]] += tracer.end[i] - tracer.start[i]
        elif par in step_of:
            step_of[i] = step_of[par]
        else:
            continue
        shares[tracer.zones[step_of[i]]][tracer.names[tracer.name_id[i]]] += self_t[i]
    return {z: {name: t / step_total[z] for name, t in by_name.items()}
            for z, by_name in shares.items()}


def retained_bytes(result) -> int:
    """Array payload a simulation result keeps, found by walking its dataclasses."""
    seen = set()

    def walk(obj) -> int:
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        nbytes = getattr(obj, "nbytes", None)
        if isinstance(nbytes, int) and hasattr(obj, "dtype"):
            return nbytes
        if dataclasses.is_dataclass(obj):
            return sum(walk(getattr(obj, f.name)) for f in dataclasses.fields(obj))
        if isinstance(obj, (tuple, list)):
            return sum(walk(x) for x in obj)
        return 0

    return walk(result)
