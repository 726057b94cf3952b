"""Command-line interface.

Subcommands::

    simulate               run one scenario, write timeseries.csv + summary.json
    sweep                  run a grid of scenarios, write per-point artifacts + sweep.csv
    check-equilibrium      verify a social-state file against a scenario
    construct-equilibrium  build a stationary equilibrium and write it to a file
    presets                list built-in scenarios (--export prints one as JSON)

Exit codes: 0 success (or check passed), 1 validation or input error,
2 runtime/numerical error, 3 equilibrium check failed.

Scenario files are JSON with the same layout ``presets --export`` prints:
``name``, ``params`` (all model parameters by name), ``lockdown_degrees``
(per behavior class, one degree per zone), ``initial_dist`` (per infection
state, one mass per zone), and optional ``lockdown_multiplier``,
``benefit`` ("linear" or an explicit list), ``horizon``,
``extinction_threshold``, ``policy_settle_threshold``,
``infected_forced_home``, ``healthy_q``, ``subtract_initial_immune``.

Social-state files are JSON with ``num_zones``, ``a_max``, ``dist`` (5 x Z
nested lists) and ``policy_class_rows`` (3 x Z x J nested lists).

All files are written atomically (temp file plus rename). Time-series
files contain no timestamps, so reruns are byte-identical; wall-clock
metadata lives only in summary.json.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import itertools
import json
import os
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    NUM_CLASSES,
    NUM_STATES,
    BehaviorClass,
    InfectionState,
    NumericsError,
    Policy,
    SocialState,
    StateDistribution,
    ValidationError,
    checked_index,
    is_integer,
    numeric_table,
)
from .dynamics import SimulationResult, simulate
from .equilibrium import check_equilibrium, construct_equilibrium
from .scenarios import (
    PRESET_NAMES,
    ScenarioConfig,
    fig3_points,
    preset,
    preset_description,
    scenario_from_dict,
    sweep,
)

SOCIAL_STATE_FORMAT = "epigame-social-state"
SOCIAL_STATE_VERSION = 1
SOCIAL_STATE_KEYS = {"format", "version", "num_zones", "a_max", "dist", "policy_class_rows"}


# --- atomic file helpers ----------------------------------------------------


@contextlib.contextmanager
def _atomic_open(path: Path):
    """A text file open at ``path``'s ``.tmp`` name, renamed onto ``path`` on success.

    On an exception the ``.tmp`` file is removed and an earlier ``path`` is left as it was.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w") as out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fmt(x) -> str:
    """Full-precision float formatting; parses back to the identical value."""
    return repr(float(x))


# --- run artifacts ----------------------------------------------------------


def timeseries_header(num_zones: int) -> list[str]:
    cols = ["day"]
    for z in range(num_zones):
        cols += [f"d_{s.name}_z{z}" for s in InfectionState]
    for z in range(num_zones):
        cols += [f"mean_degree_{cls.name.lower()}_z{z}" for cls in BehaviorClass]
    for src in range(num_zones):
        for dst in range(num_zones):
            if src != dst:
                cols.append(f"flow_z{src}_to_z{dst}")
    cols.append("welfare")
    return cols


#: Cells in one block of days that :func:`render_timeseries` lays out at once.
#: A block spreads the per-call numpy cost over many short rows (fig4 renders
#: as fast as from one table of the whole run) and holds a few kB, however
#: long the run; from 13 zones up (Z² + 8Z cells a day) a block is one day.
RENDER_BLOCK_CELLS = 512


def render_timeseries(result: SimulationResult, out) -> None:
    """Write ``timeseries.csv`` to the text stream ``out``: the header, then one line a day.

    The trajectory's columns are laid out a block of days at a time
    (:data:`RENDER_BLOCK_CELLS`) and each day's line is written as it is
    formatted, so writing holds one block; ``repr`` of a list of floats is
    :func:`_fmt` of each.
    """
    traj = result.trajectory
    out.write(",".join(timeseries_header(traj.num_zones)) + "\n")
    off_diagonal = ~np.eye(traj.num_zones, dtype=bool).ravel()
    day_cells = traj.dist[0].size + traj.activation[0].size + traj.flows[0].size
    step = max(1, RENDER_BLOCK_CELLS // day_cells)
    for first in range(0, len(traj), step):
        span = slice(first, first + step)
        rows = len(traj.daily_welfare[span])
        block = np.concatenate(
            [
                traj.dist[span].transpose(0, 2, 1).reshape(rows, -1),
                traj.activation[span].transpose(0, 2, 1).reshape(rows, -1),
                traj.flows[span].reshape(rows, -1)[:, off_diagonal],
                traj.daily_welfare[span, None],
            ],
            axis=1,
        )
        for day, row in enumerate(block.tolist(), first):
            out.write(f"{day},{repr(row)[1:-1].replace(', ', ',')}\n")


def summary_payload(result: SimulationResult, wall_clock: float) -> dict:
    return {
        "scenario": result.scenario.to_dict(),
        "days": len(result.trajectory) - 1,
        "stop_reason": result.stop_reason,
        "metrics": result.metrics.to_dict(),
        "meta": {
            "tool": "epigame",
            "version": __version__,
            # Excluded from determinism guarantees by design.
            "wall_clock_seconds": wall_clock,
        },
    }


def write_run_artifacts(result: SimulationResult, out_dir: Path, wall_clock: float) -> None:
    with _atomic_open(out_dir / "timeseries.csv") as out:
        render_timeseries(result, out)
    with _atomic_open(out_dir / "summary.json") as out:
        out.write(json.dumps(summary_payload(result, wall_clock), indent=2) + "\n")


# --- social-state files -------------------------------------------------------


def write_social_state(social: SocialState, path: Path) -> None:
    doc = {
        "format": SOCIAL_STATE_FORMAT,
        "version": SOCIAL_STATE_VERSION,
        "num_zones": social.dist.num_zones,
        "a_max": social.policy.a_max,
        "dist": social.dist.d.tolist(),
        "policy_class_rows": social.policy.class_rows.tolist(),
    }
    with _atomic_open(path) as out:
        out.write(json.dumps(doc, indent=2) + "\n")


def _read_json(path: Path, kind: str):
    """The JSON document at ``path``; ``kind`` names the file in the errors."""
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read {kind} {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValidationError(f"{kind} {path} is not valid JSON: {exc}") from exc


def read_social_state(path: Path, *, num_zones: int, a_max: int) -> SocialState:
    doc = _read_json(path, "social state file")
    if not isinstance(doc, dict) or doc.get("format") != SOCIAL_STATE_FORMAT:
        raise ValidationError(f"{path} is not a social-state file")
    unknown = set(doc) - SOCIAL_STATE_KEYS
    if unknown:
        raise ValidationError(f"unknown social state keys in {path}: {sorted(unknown)}")
    version = doc.get("version")
    if not (is_integer(version) and version == SOCIAL_STATE_VERSION):
        raise ValidationError(
            f"social state version must be {SOCIAL_STATE_VERSION}; got {version!r}"
        )
    dims = (doc.get("num_zones"), doc.get("a_max"))
    if not all(map(is_integer, dims)) or dims != (num_zones, a_max):
        raise ValidationError(
            f"social state dimensions (num_zones={dims[0]!r}, a_max={dims[1]!r}) must be "
            f"the scenario's integers (num_zones={num_zones}, a_max={a_max})"
        )

    def table(key, shape, build):
        if key not in doc:
            raise ValidationError(f"social state file {path} is missing key {key!r}")
        values = numeric_table(f"social state {key}", doc[key], shape)
        try:
            return build(values)
        except ValidationError as exc:
            raise ValidationError(f"social state {key}: {exc}") from exc

    dist = table("dist", (NUM_STATES, num_zones), StateDistribution)
    rows_shape = (NUM_CLASSES, num_zones, (a_max + 1) * num_zones)
    policy = table("policy_class_rows", rows_shape, lambda rows: Policy(rows, a_max))
    return SocialState(policy, dist)


# --- scenario loading ---------------------------------------------------------


def _load_scenario(args) -> ScenarioConfig:
    if args.preset and args.config:
        raise ValidationError("give either --preset or --config, not both")
    if args.preset:
        scenario = preset(args.preset)
        if isinstance(scenario, list):
            raise ValidationError(
                f"preset {args.preset!r} is a sweep of {len(scenario)} runs; use the sweep command"
            )
        return scenario
    if args.config:
        return scenario_from_dict(_read_json(Path(args.config), "config"))
    raise ValidationError("one of --preset or --config is required")


def _with_horizon(scenario: ScenarioConfig, args) -> ScenarioConfig:
    """``scenario`` with the ``--horizon`` override, if one is given."""
    if args.horizon is not None:
        scenario = replace(scenario, horizon=args.horizon)
    return scenario


def _safe_dirname(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._,=-]+", "_", name)


# --- subcommands --------------------------------------------------------------


def cmd_simulate(args) -> int:
    scenario = _with_horizon(_load_scenario(args), args)
    start = time.perf_counter()
    result = simulate(scenario)
    wall = time.perf_counter() - start
    out_dir = Path(args.out) if args.out else Path("runs") / _safe_dirname(scenario.name)
    write_run_artifacts(result, out_dir, wall)
    m = result.metrics
    print(f"scenario: {scenario.name}")
    print(f"days simulated: {len(result.trajectory) - 1}")
    print(f"total_infections: {m.total_infections:.6f}")
    print(f"peak_infections: {m.peak_infections:.6f} (day {m.peak_day})")
    print(f"average_welfare: {m.average_welfare:.6f}")
    print(f"artifacts: {out_dir}")
    return 0


def _run_point(numbered: tuple[int, tuple[dict, ScenarioConfig]]):
    idx, (fields, scenario) = numbered
    start = time.perf_counter()
    try:
        result = simulate(scenario)
    except Exception as exc:  # reported per point, sweep continues
        return idx, fields, scenario, None, 0.0, f"{type(exc).__name__}: {exc}"
    return idx, fields, scenario, result, time.perf_counter() - start, None


def _sweep_outcomes(points, jobs: int):
    """Each point's :func:`_run_point` outcome, in point order, its index first.

    With ``jobs`` > 1 the points run in a process pool. While one outcome is
    taken, ``jobs`` more are submitted and not yet taken, so every worker
    stays busy and a sweep whose writer falls behind holds ``jobs`` + 1
    results, not every finished one.
    """
    if jobs == 1:
        yield from map(_run_point, enumerate(points))
        return
    import concurrent.futures  # only a parallel sweep pays for this import

    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        pending = collections.deque()
        for numbered in enumerate(points):
            pending.append(pool.submit(_run_point, numbered))
            if len(pending) > jobs:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _sweep_points(args) -> list[tuple[dict, ScenarioConfig]]:
    if args.preset:
        if args.config or args.grid:
            raise ValidationError("--preset cannot be combined with --config/--grid")
        if args.preset == "fig3_sweep":
            return [(fields, _with_horizon(cfg, args)) for fields, cfg in fig3_points()]
        preset(args.preset)  # an unknown name raises here
        raise ValidationError(
            f"preset {args.preset!r} is a single scenario; use the simulate command"
        )
    if not args.config or not args.grid:
        raise ValidationError("sweep needs --preset, or --config together with --grid")
    base = _load_scenario(args)
    paths, value_lists = [], []
    for entry in args.grid:
        if "=" not in entry:
            raise ValidationError(f"bad --grid entry {entry!r}; expected path=v1,v2,...")
        path, _, values = entry.partition("=")
        parsed = []
        for token in values.split(","):
            token = token.strip()
            if token == "":
                raise ValidationError(f"empty value in --grid entry {entry!r}")
            try:
                parsed.append(json.loads(token))
            except (json.JSONDecodeError, RecursionError):
                parsed.append(token)  # bare strings, e.g. healthy_q modes
        paths.append(path.strip())
        value_lists.append(parsed)
    if args.horizon is not None and "horizon" in paths:
        raise ValidationError("--horizon cannot be combined with the grid path 'horizon'")
    configs = sweep(list(zip(paths, value_lists)), _with_horizon(base, args))
    return [
        (dict(zip(paths, combo)), cfg)
        for combo, cfg in zip(itertools.product(*value_lists), configs)
    ]


def cmd_sweep(args) -> int:
    points = _sweep_points(args)
    if not points:
        raise ValidationError("sweep grid is empty")
    jobs = min(len(points), os.cpu_count() or 1) if args.jobs is None else args.jobs
    if jobs < 1:
        raise ValidationError(f"--jobs must be >= 1; got {args.jobs}")

    out_root = Path(args.out) if args.out else Path("runs") / "sweep"
    field_names = list(points[0][0].keys())
    header = ["point", "name", *field_names, "total_infections", "peak_infections",
              "peak_day", "average_welfare", "days"]
    failures = []
    with _atomic_open(out_root / "sweep.csv") as csv:
        csv.write(",".join(header) + "\n")
        # Each outcome is written as it arrives and dropped before the next is taken
        # (a new tuple each, as enumerate's reused one would keep the last result).
        for idx, fields, scenario, result, wall, error in _sweep_outcomes(points, jobs):
            if error is not None:
                failures.append((scenario.name, error))
                continue
            point_dir = out_root / "points" / f"{idx:03d}_{_safe_dirname(scenario.name)}"
            write_run_artifacts(result, point_dir, wall)
            m = result.metrics
            row = [str(idx), scenario.name]
            row += [_fmt(fields[k]) if isinstance(fields[k], float) else str(fields[k])
                    for k in field_names]
            row += [_fmt(m.total_infections), _fmt(m.peak_infections), str(m.peak_day),
                    _fmt(m.average_welfare), str(len(result.trajectory) - 1)]
            csv.write(",".join(row) + "\n")
            del result

    print(f"sweep points: {len(points)}, failed: {len(failures)}")
    print(f"aggregate: {out_root / 'sweep.csv'}")
    for name, error in failures:
        print(f"point {name} failed: {error}", file=sys.stderr)
    return 2 if failures else 0


def cmd_check_equilibrium(args) -> int:
    scenario = _load_scenario(args)
    social = read_social_state(
        Path(args.state), num_zones=scenario.params.num_zones, a_max=scenario.params.a_max
    )
    report = check_equilibrium(
        social,
        scenario.reward_config(),
        scenario.params,
        tol=args.tol,
        infected_forced_home=scenario.infected_forced_home,
    )
    print(f"se1_gap (occupied states):   {report.se1_gap:.3e}")
    print(f"se1_gap (unoccupied states): {report.se1_gap_unoccupied:.3e}")
    print(f"se2_gap (stationarity):      {report.se2_gap:.3e}")
    print(f"tolerance:                   {report.tol:.3e}")
    print(f"verdict: {'PASS' if report.verdict else 'FAIL'}")
    return 0 if report.verdict else 3


def _parse_mass_split(entries: str, num_zones: int) -> np.ndarray:
    split = np.zeros((5, num_zones))
    for item in entries.split(","):
        item = item.strip()
        if not item:
            continue
        match = re.fullmatch(
            r"([SAIRU])\s*:\s*(\d+)\s*=\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)", item
        )
        if not match:
            raise ValidationError(
                f"bad --split entry {item!r}; expected STATE:ZONE=MASS, e.g. S:0=0.9"
            )
        state = InfectionState[match.group(1)]
        zone = checked_index("--split zone", int(match.group(2)), num_zones)
        split[state, zone] += float(match.group(3))
    return split


def cmd_construct_equilibrium(args) -> int:
    scenario = _load_scenario(args)
    split = _parse_mass_split(args.split, scenario.params.num_zones)
    cfg = scenario.reward_config()
    try:
        social = construct_equilibrium(
            cfg, scenario.params, split, infected_forced_home=scenario.infected_forced_home
        )
    except ValidationError as exc:
        raise ValidationError(f"--split: {exc}") from None
    out = Path(args.out) if args.out else Path(f"{_safe_dirname(scenario.name)}-equilibrium.json")
    write_social_state(social, out)
    report = check_equilibrium(
        social,
        cfg,
        scenario.params,
        infected_forced_home=scenario.infected_forced_home,
    )
    print(f"wrote {out}")
    print(f"se1_gap={report.se1_gap:.3e} se2_gap={report.se2_gap:.3e} "
          f"({'PASS' if report.verdict else 'FAIL'})")
    return 0


def cmd_presets(args) -> int:
    if args.export:
        built = preset(args.export)
        if isinstance(built, list):
            doc = [cfg.to_dict() for cfg in built]
        else:
            doc = built.to_dict()
        print(json.dumps(doc, indent=2))
        return 0
    for name in PRESET_NAMES:
        print(f"{name:16s} {preset_description(name)}")
    return 0


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epigame",
        description="Simulator for strategic activation and migration in a zoned epidemic.",
    )
    parser.add_argument("--version", action="version", version=f"epigame {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p, with_horizon=True):
        p.add_argument("--preset", help="built-in scenario name (see the presets command)")
        p.add_argument("--config", help="path to a scenario JSON file")
        if with_horizon:
            p.add_argument("--horizon", type=int, help="override the scenario horizon")

    p = sub.add_parser("simulate", help="run one scenario and write artifacts")
    add_scenario_args(p)
    p.add_argument("--out", help="output directory (default runs/<name>)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a grid of scenarios")
    add_scenario_args(p)
    p.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="PATH=V1,V2,...",
        help="sweep values for a field path (repeatable), e.g. lockdown.all=0,1,2",
    )
    p.add_argument("--out", help="output directory (default runs/sweep)")
    p.add_argument("--jobs", type=int, help="parallel workers (default: one per point)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check-equilibrium", help="check a social-state file")
    add_scenario_args(p, with_horizon=False)
    p.add_argument("--state", required=True, help="path to a social-state JSON file")
    p.add_argument("--tol", type=float, default=1e-8, help="gap tolerance (default 1e-8)")
    p.set_defaults(func=cmd_check_equilibrium)

    p = sub.add_parser("construct-equilibrium", help="build a stationary equilibrium")
    add_scenario_args(p, with_horizon=False)
    p.add_argument(
        "--split",
        required=True,
        metavar="S:0=0.9,R:1=0.1",
        help="population mass per (state, zone); states by letter, zones by index; "
        "repeated entries for one (state, zone) add up",
    )
    p.add_argument("--out", help="output file (default <scenario>-equilibrium.json)")
    p.set_defaults(func=cmd_construct_equilibrium)

    p = sub.add_parser("presets", help="list built-in scenarios")
    p.add_argument("--export", metavar="NAME", help="print one preset as scenario JSON")
    p.set_defaults(func=cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
