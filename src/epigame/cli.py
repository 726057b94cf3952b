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
import concurrent.futures
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


# --- atomic file helpers ----------------------------------------------------


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


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


def render_timeseries(result: SimulationResult) -> str:
    zones = result.trajectory.num_zones
    lines = [",".join(timeseries_header(zones))]
    for rec in result.trajectory.records:
        row = [str(rec.day)]
        for z in range(zones):
            row += [_fmt(rec.social.dist.d[s, z]) for s in InfectionState]
        for z in range(zones):
            row += [_fmt(rec.mean_activation[cls, z]) for cls in BehaviorClass]
        for src in range(zones):
            for dst in range(zones):
                if src != dst:
                    row.append(_fmt(rec.migration_flow[src, dst]))
        row.append(_fmt(rec.welfare))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def summary_payload(result: SimulationResult, wall_clock: float) -> dict:
    return {
        "scenario": result.scenario.to_dict(),
        "days": len(result.trajectory) - 1,
        "metrics": result.metrics.to_dict(),
        "meta": {
            "tool": "epigame",
            "version": __version__,
            # Excluded from determinism guarantees by design.
            "wall_clock_seconds": wall_clock,
        },
    }


def write_run_artifacts(result: SimulationResult, out_dir: Path, wall_clock: float) -> None:
    _atomic_write_text(out_dir / "timeseries.csv", render_timeseries(result))
    payload = summary_payload(result, wall_clock)
    _atomic_write_text(out_dir / "summary.json", json.dumps(payload, indent=2) + "\n")


# --- social-state files -------------------------------------------------------


def write_social_state(social: SocialState, path: Path) -> None:
    doc = {
        "format": SOCIAL_STATE_FORMAT,
        "version": 1,
        "num_zones": social.dist.num_zones,
        "a_max": social.policy.a_max,
        "dist": [[float(x) for x in row] for row in social.dist.d],
        "policy_class_rows": [
            [[float(x) for x in row] for row in cls_rows] for cls_rows in social.policy.class_rows
        ],
    }
    _atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def read_social_state(path: Path, *, num_zones: int, a_max: int) -> SocialState:
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read social state file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"social state file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != SOCIAL_STATE_FORMAT:
        raise ValidationError(f"{path} is not a social-state file")
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


def _load_scenario(args) -> ScenarioConfig | list[ScenarioConfig]:
    if getattr(args, "preset", None) and getattr(args, "config", None):
        raise ValidationError("give either --preset or --config, not both")
    if getattr(args, "preset", None):
        return preset(args.preset)
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            doc = json.loads(path.read_text())
        except OSError as exc:
            raise ValidationError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
        return scenario_from_dict(doc)
    raise ValidationError("one of --preset or --config is required")


def _single_scenario(args) -> ScenarioConfig:
    scenario = _load_scenario(args)
    if isinstance(scenario, list):
        raise ValidationError(
            f"preset {args.preset!r} is a sweep of {len(scenario)} runs; use the sweep command"
        )
    if getattr(args, "horizon", None) is not None:
        scenario = replace(scenario, horizon=args.horizon)
    return scenario


def _safe_dirname(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._,=-]+", "_", name)


# --- subcommands --------------------------------------------------------------


def cmd_simulate(args) -> int:
    scenario = _single_scenario(args)
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


def _run_point(point: tuple[dict, ScenarioConfig]):
    fields, scenario = point
    start = time.perf_counter()
    try:
        result = simulate(scenario)
    except Exception as exc:  # reported per point, sweep continues
        return fields, scenario, None, 0.0, f"{type(exc).__name__}: {exc}"
    return fields, scenario, result, time.perf_counter() - start, None


def _sweep_points(args) -> list[tuple[dict, ScenarioConfig]]:
    if args.preset:
        if args.config or args.grid:
            raise ValidationError("--preset cannot be combined with --config/--grid")
        if args.preset == "fig3_sweep":
            return fig3_points()
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
            except json.JSONDecodeError:
                parsed.append(token)  # bare strings, e.g. healthy_q modes
        paths.append(path.strip())
        value_lists.append(parsed)
    configs = sweep(list(zip(paths, value_lists)), base)
    return [
        (dict(zip(paths, combo)), cfg)
        for combo, cfg in zip(itertools.product(*value_lists), configs)
    ]


def cmd_sweep(args) -> int:
    points = _sweep_points(args)
    if args.horizon is not None:
        points = [(f, replace(cfg, horizon=args.horizon)) for f, cfg in points]
    if not points:
        raise ValidationError("sweep grid is empty")
    jobs = min(len(points), os.cpu_count() or 1) if args.jobs is None else args.jobs
    if jobs < 1:
        raise ValidationError(f"--jobs must be >= 1; got {args.jobs}")

    if jobs == 1:
        outcomes = [_run_point(pt) for pt in points]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_point, points))

    out_root = Path(args.out) if args.out else Path("runs") / "sweep"
    field_names = list(points[0][0].keys())
    header = ["point", "name", *field_names, "total_infections", "peak_infections",
              "peak_day", "average_welfare", "days"]
    lines = [",".join(header)]
    failures = []
    for idx, (fields, scenario, result, wall, error) in enumerate(outcomes):
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
        lines.append(",".join(row))
    _atomic_write_text(out_root / "sweep.csv", "\n".join(lines) + "\n")

    print(f"sweep points: {len(points)}, failed: {len(failures)}")
    print(f"aggregate: {out_root / 'sweep.csv'}")
    for name, error in failures:
        print(f"point {name} failed: {error}", file=sys.stderr)
    return 2 if failures else 0


def cmd_check_equilibrium(args) -> int:
    scenario = _single_scenario(args)
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
        zone = int(match.group(2))
        if zone >= num_zones:
            raise ValidationError(f"--split zone {zone} out of range for {num_zones} zones")
        split[state, zone] += float(match.group(3))
    return split


def cmd_construct_equilibrium(args) -> int:
    scenario = _single_scenario(args)
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
        help="population mass per (state, zone); states by letter, zones by index",
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
