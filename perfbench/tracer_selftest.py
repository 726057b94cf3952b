"""Self-test of the span tracer; ``run.py --trace 1`` runs it before measuring.

Checks self-time arithmetic on nested spans with a scripted clock, the
per-day attribution of :func:`tracer.layer_metrics`, that every module
attribute the tracer wraps is restored afterwards, also when the traced
code raises, and that a name the program lacks is skipped and listed.

Run on its own from the root of a source checkout::

    python3 perfbench/tracer_selftest.py
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

from tracer import LIBRARY_CALLS, WRAPPED, Tracer, layer_metrics, resolve


def _scripted_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def _check_self_times(errors: list[str]) -> None:
    tr = Tracer(clock=_scripted_clock())
    leaf = tr.wrap(lambda: None, "leaf")
    mid = tr.wrap(lambda: (leaf(), leaf()), "mid")
    top = tr.wrap(lambda: (mid(), leaf()), "top")
    top()
    # Clock reads: top 0, mid 1, leaf 2-3, leaf 4-5, mid ends 6, leaf 7-8, top ends 9.
    names = [tr.names[i] for i in tr.name_id]
    got = dict(zip(range(len(tr)), zip(names, tr.self_times(), tr.parent)))
    want = {
        0: ("top", 9.0 - 5.0 - 1.0, -1),
        1: ("mid", 5.0 - 1.0 - 1.0, 0),
        2: ("leaf", 1.0, 1),
        3: ("leaf", 1.0, 1),
        4: ("leaf", 1.0, 0),
    }
    if got != want:
        errors.append(f"nested self times: got {got}, want {want}")
    if (tr.root_time({"top", "mid"}), tr.root_time({"top"}, since=1)) != (9.0, 0.0):
        errors.append("root_time counts spans that are not roots, or before its start")


def _check_day_attribution(errors: list[str]) -> None:
    """Two simulated days: the day-0 observation stays out of per-day counts."""
    tr = Tracer(clock=_scripted_clock())
    validate = tr.wrap(lambda p: None, "core.validate_params")
    observe = tr.wrap(lambda day: validate(None), "dynamics.observe")
    params = types.SimpleNamespace(num_zones=2)
    step = tr.wrap(lambda s, c, p: (validate(p), validate(p)), "dynamics.step")

    def simulate():
        observe(0)
        for day in (1, 2):
            step(None, None, params)
            observe(day)

    tr.wrap(simulate, "dynamics.simulate")()
    got = layer_metrics(tr)
    if got["core.validate_params.calls_per_day"] != 3.0:
        errors.append(f"calls per day: got {got['core.validate_params.calls_per_day']}, want 3")
    # Each step lasts 5 ticks (two 1-tick children in between).
    if got["dynamics.step.us_per_day.z2"] != 5e6 or got["dynamics.step.us_per_day.z1"] != 0.0:
        errors.append(f"step time per day by zones: got {got['dynamics.step.us_per_day.z2']}")


def _check_restore(errors: list[str], package) -> None:
    present = [(path, attr, resolve(package, path, attr)) for path, attr, _ in WRAPPED]
    present = [(path, attr, owner) for path, attr, owner in present if owner is not None]
    before = {(path, attr): owner.__dict__[attr] for path, attr, owner in present}
    tr = Tracer()
    try:
        with tr.installed(package):
            for path, attr, owner in present:
                if owner.__dict__[attr] is before[(path, attr)]:
                    errors.append(f"{path}.{attr} was not wrapped")
            raise KeyboardInterrupt  # restoration must survive any exception
    except KeyboardInterrupt:
        pass
    for path, attr, owner in present:
        if owner.__dict__[attr] is not before[(path, attr)]:
            errors.append(f"{path}.{attr} was not restored")


def _check_missing_name(errors: list[str]) -> None:
    """A name the program no longer has is listed as missing, not an error."""
    package = types.SimpleNamespace(cli=types.ModuleType("cli"))
    tr = Tracer(only=LIBRARY_CALLS)
    with tr.installed(package):
        pass
    if tr.missing != ["cli.simulate", "cli.construct_equilibrium", "cli.check_equilibrium"]:
        errors.append(f"missing names: got {tr.missing}")


def run() -> list[str]:
    """All checks; returns the failures, empty when the tracer is sound."""
    import epigame.cli  # noqa: F401  (loads every wrapped module)

    errors: list[str] = []
    _check_self_times(errors)
    _check_day_attribution(errors)
    _check_restore(errors, sys.modules["epigame"])
    _check_missing_name(errors)
    return errors


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    failures = run()
    for failure in failures:
        print(f"FAIL {failure}")
    print("tracer self-test: " + ("FAILED" if failures else "ok"))
    raise SystemExit(1 if failures else 0)
