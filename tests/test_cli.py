"""End-to-end command-line runs, exercised in process via main(argv).

The BLAS thread-count test runs the command in child processes, whose
environment it sets.
"""

import io
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import epigame
from epigame import NumericsError, cli, preset, scenario_from_dict, simulate
from epigame.cli import (
    main,
    render_timeseries,
    summary_payload,
    timeseries_header,
    write_run_artifacts,
    write_social_state,
)
from conftest import make_params, random_social
from test_dynamics import seeded_scenario


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg.to_dict()))
    return path


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


def rendered(result):
    """The text ``render_timeseries`` writes for ``result``."""
    out = io.StringIO()
    render_timeseries(result, out)
    return out.getvalue()


def drop_wall_clock(summary):
    summary = json.loads(json.dumps(summary))
    summary["meta"].pop("wall_clock_seconds")
    return summary


# --- simulate ----------------------------------------------------------------


def test_simulate_artifacts_match_a_direct_run(tmp_path, capsys):
    cfg = replace(preset("fig2b"), horizon=25)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert "days simulated: 25" in capsys.readouterr().out

    result = simulate(cfg)
    assert (out / "timeseries.csv").read_text() == rendered(result)
    expected = summary_payload(result, wall_clock=0.0)
    assert drop_wall_clock(read_summary(out)) == drop_wall_clock(expected)


def test_simulate_preset_with_horizon_override(tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", "--preset", "fig2a", "--horizon", "10", "--out", str(out)])
    assert code == 0
    summary = read_summary(out)
    assert summary["scenario"]["horizon"] == 10
    assert summary["days"] == 10
    assert summary["meta"]["tool"] == "epigame"


def test_simulate_timeseries_layout(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--preset", "fig4_migration", "--horizon", "5",
                 "--out", str(out)]) == 0
    lines = (out / "timeseries.csv").read_text().splitlines()
    assert lines[0] == ",".join(timeseries_header(2))
    assert lines[0].split(",")[:6] == [
        "day", "d_S_z0", "d_A_z0", "d_I_z0", "d_R_z0", "d_U_z0"
    ]
    assert "flow_z0_to_z1" in lines[0]
    assert lines[0].split(",")[-1] == "welfare"
    assert len(lines) == 1 + 6  # header plus days 0..5
    day0 = lines[1].split(",")
    assert day0[0] == "0"
    assert float(day0[1]) == pytest.approx(0.873, abs=1e-12)


def per_cell_timeseries(result):
    """The timeseries text formatted cell by cell from the per-day records."""

    def fmt(x):
        return repr(float(x))

    zones = result.trajectory.num_zones
    lines = [",".join(timeseries_header(zones))]
    for rec in result.trajectory.records:
        row = [str(rec.day)]
        for z in range(zones):
            row += [fmt(rec.social.dist.d[s, z]) for s in range(5)]
        for z in range(zones):
            row += [fmt(rec.mean_activation[cls, z]) for cls in range(3)]
        for src in range(zones):
            for dst in range(zones):
                if src != dst:
                    row.append(fmt(rec.migration_flow[src, dst]))
        row.append(fmt(rec.welfare))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def three_zone_scenario():
    return replace(seeded_scenario(54, "belief", True), horizon=40)


def csv_lines(text):
    """Lines with their endings: equal exactly when the texts are, and fast to diff."""
    return text.splitlines(keepends=True)


def test_render_timeseries_matches_a_per_cell_oracle(preset_runs):
    for result in (preset_runs["fig4_migration"][0], simulate(three_zone_scenario())):
        assert csv_lines(rendered(result)) == csv_lines(per_cell_timeseries(result))


def traced_write_peak(result, out_dir):
    """Peak traced allocation while ``write_run_artifacts`` writes ``result``."""
    tracemalloc.start()
    try:
        write_run_artifacts(result, out_dir, 0.0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writing_a_run_holds_a_block_not_the_file(tmp_path):
    short = simulate(replace(preset("fig4_migration"), horizon=50))
    long = simulate(replace(preset("fig4_migration"), horizon=400))
    assert len(long.trajectory) > 7 * len(short.trajectory)
    write_run_artifacts(short, tmp_path / "warm", 0.0)  # first-call allocations
    short_peak = traced_write_peak(short, tmp_path / "short")
    long_peak = traced_write_peak(long, tmp_path / "long")
    size = (tmp_path / "long" / "timeseries.csv").stat().st_size
    row = size / len(long.trajectory)
    # Both runs render in equal blocks of days; tracemalloc sees numpy's buffers
    # too, so a table or text that grows with the run would show.
    assert long_peak <= short_peak + 4 * row, (short_peak, long_peak, size)


def test_a_failed_write_keeps_the_earlier_file_and_leaves_no_tmp(tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    argv = ["simulate", "--preset", "fig4_migration", "--out", str(out), "--horizon"]
    assert main(argv + ["5"]) == 0
    before = {name: (out / name).read_bytes() for name in ("timeseries.csv", "summary.json")}
    real = cli.render_timeseries

    class FailsOnFourthLine:
        def __init__(self, stream):
            self.stream, self.lines = stream, 0

        def write(self, text):
            if self.lines == 3:
                raise OSError("device full")
            self.lines += 1
            return self.stream.write(text)

    def render_then_fail(result, stream):
        real(result, FailsOnFourthLine(stream))

    monkeypatch.setattr(cli, "render_timeseries", render_then_fail)
    capsys.readouterr()
    assert main(argv + ["10"]) == 1
    assert "device full" in capsys.readouterr().err
    assert sorted(path.name for path in out.iterdir()) == sorted(before)
    assert {name: (out / name).read_bytes() for name in before} == before


@pytest.mark.parametrize("zones", [2, 10])
def test_social_state_file_is_the_hand_built_document(tmp_path, zones):
    p = make_params(num_zones=zones)
    social = random_social(np.random.default_rng(zones), p)
    doc = {
        "format": "epigame-social-state",
        "version": 1,
        "num_zones": zones,
        "a_max": p.a_max,
        "dist": [[float(x) for x in row] for row in social.dist.d],
        "policy_class_rows": [
            [[float(x) for x in row] for row in rows] for rows in social.policy.class_rows
        ],
    }
    write_social_state(social, tmp_path / "state.json")
    assert (tmp_path / "state.json").read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()
    assert not (tmp_path / "state.json.tmp").exists()


def test_summary_reports_why_the_run_stopped(tmp_path):
    settled, capped = tmp_path / "settled", tmp_path / "capped"
    assert main(["simulate", "--preset", "fig2a", "--out", str(settled)]) == 0
    assert main(["simulate", "--preset", "fig2a", "--horizon", "10", "--out", str(capped)]) == 0
    assert read_summary(settled)["stop_reason"] == "settled"
    assert read_summary(settled)["days"] < preset("fig2a").horizon
    assert read_summary(capped)["stop_reason"] == "horizon"
    assert read_summary(capped)["days"] == 10


def test_simulate_without_infection_reports_zero_totals(tmp_path):
    cfg = replace(
        preset("fig2a"),
        initial_dist=np.array([[0.9], [0.0], [0.0], [0.1], [0.0]]),
        horizon=50,
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(out)]) == 0
    metrics = read_summary(out)["metrics"]
    assert metrics["peak_infections"] == 0.0
    assert metrics["total_infections"] == pytest.approx(0.1, abs=1e-12)


def test_simulate_reruns_are_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, replace(preset("fig2b"), horizon=20))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert (out1 / "timeseries.csv").read_bytes() == (out2 / "timeseries.csv").read_bytes()
    assert drop_wall_clock(read_summary(out1)) == drop_wall_clock(read_summary(out2))


def test_simulate_input_errors(tmp_path, capsys):
    cfg_path = write_config(tmp_path, preset("fig2a"))
    assert main(["simulate", "--preset", "fig2a", "--config", str(cfg_path)]) == 1
    assert main(["simulate", "--out", str(tmp_path / "x")]) == 1
    assert main(["simulate", "--preset", "fig9"]) == 1
    assert main(["simulate", "--preset", "fig3_sweep"]) == 1
    assert "sweep command" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad)]) == 1
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 1

    doc = preset("fig2a").to_dict()
    doc["mystery"] = 1
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(odd)]) == 1


def run_document(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")])


@pytest.mark.parametrize(
    "section, key, value, field",
    [
        ("params", "alpha", "0.9", "alpha"),
        ("params", "rationality", float("inf"), "rationality"),
        (None, "horizon", "5", "horizon"),
        (None, "infected_forced_home", "no", "infected_forced_home"),
        (None, "initial_dist", {s: [0.0] for s in "SAIRU"} | {"S": [1.0]}, "initial_dist"),
    ],
)
def test_simulate_rejects_malformed_values(tmp_path, capsys, section, key, value, field):
    doc = replace(preset("fig4_migration"), horizon=3).to_dict()
    (doc[section] if section else doc)[key] = value
    assert run_document(tmp_path, doc) == 1
    assert field in capsys.readouterr().err


def test_simulate_rejects_an_infinite_value_bound(tmp_path, capsys):
    # The reward table is finite, but max|table| / (1 - alpha) overflows.
    doc = replace(preset("fig4_migration"), horizon=3).to_dict()
    doc["params"]["illness_cost"] = 1e308
    assert run_document(tmp_path, doc) == 1
    err = capsys.readouterr().err
    assert "alpha" in err and "illness_cost" in err


def test_simulate_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    # At 40 zones the day core solves 40 x 40 blocks, whose LAPACK solves give
    # the same bits at 1 and 2 threads; one dense 200 x 200 solve did not.
    cfg_path = write_config(tmp_path, seeded_scenario(57, "belief", True, num_zones=40))
    src = Path(epigame.__file__).resolve().parents[1]
    run = "import sys; from epigame.cli import main; sys.exit(main(sys.argv[1:]))"
    series = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
        subprocess.run(
            [sys.executable, "-c", run, "simulate", "--config", str(cfg_path), "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        series.append((out / "timeseries.csv").read_bytes())
    assert series[0] == series[1]


REAL_BAD = ["0.9", True, None, [0.5], {"v": 1}, float("inf"), float("nan")]
INT_BAD = ["5", True, None, 2.5, [1], {"v": 1}]
BOOL_BAD = ["no", 0, 1, None, [True], 1.0]
ROW_BAD = [["0.1"], [None], [0.1, 0.2, 0.3], "x", [[0.1]], {"v": 1}]


def malformations(doc):
    """(field name, mutator) pairs that each break one field of ``doc``."""
    out = []
    for name, value in doc["params"].items():
        bad = INT_BAD if name in ("num_zones", "a_max") else REAL_BAD
        out += [(name, lambda d, n=name, v=v: d["params"].__setitem__(n, v)) for v in bad]
    tops = {
        "horizon": INT_BAD,
        "lockdown_multiplier": REAL_BAD,
        "extinction_threshold": REAL_BAD,
        "policy_settle_threshold": REAL_BAD,
        "infected_forced_home": BOOL_BAD,
        "subtract_initial_immune": BOOL_BAD,
        "healthy_q": [1, None, "sure", ["belief"]],
        "name": ["", 1, None, ["x"]],
        "benefit": ["cubic", [0.0, 1.0], [1.0] * 7, ["0"] * 7, {"v": 1}],
        "initial_dist": ["x", None, [0.5]],
        "lockdown_degrees": ["x", None, [2]],
    }
    for name, bad in tops.items():
        out += [(name, lambda d, n=name, v=v: d.__setitem__(n, v)) for v in bad]
    for name in ("initial_dist", "lockdown_degrees"):
        for row in doc[name]:
            out += [
                (name, lambda d, n=name, r=row, v=v: d[n].__setitem__(r, v))
                for v in ROW_BAD + [[2.5] * len(doc[name][row]), [9] * len(doc[name][row])]
            ]
    return out


def test_malformed_scenario_documents_exit_1_naming_the_field(tmp_path, capsys):
    rng = np.random.default_rng(31)
    bases = [replace(preset(name), horizon=3).to_dict() for name in ("fig2a", "fig4_migration")]
    for _ in range(120):
        base = bases[rng.integers(len(bases))]
        cases = malformations(base)
        field, mutate = cases[rng.integers(len(cases))]
        doc = json.loads(json.dumps(base))
        mutate(doc)
        code = run_document(tmp_path, doc)
        err = capsys.readouterr().err
        assert code == 1, (field, doc, err)
        assert field in err, (field, err)


STATE_TABLE_BAD = ["abc", None, 0.5, [[0.5]], {"v": 1}, [[0.5, "x"]]]
SPLIT_BAD_MASSES = ["1e-3-", "..", "1e", "+-1", "e5", "-", "1.2.3", "1e+"]


def state_malformations(doc):
    """(field name, mutator) pairs that each break one field of a social-state ``doc``."""
    out = []
    for name in ("num_zones", "a_max"):
        bad = [float(doc[name]), True, str(doc[name]), None, [doc[name]]]
        out += [(name, lambda d, n=name, v=v: d.__setitem__(n, v)) for v in bad]
    for name in ("dist", "policy_class_rows"):
        out += [(name, lambda d, n=name, v=v: d.__setitem__(n, v)) for v in STATE_TABLE_BAD]
        out += [(name, lambda d, n=name, v=v: d[n].__setitem__(0, v)) for v in ROW_BAD]
        out.append((name, lambda d, n=name: d.pop(n)))
    return out


def test_malformed_state_documents_and_splits_exit_1_naming_the_field(tmp_path, capsys):
    rng = np.random.default_rng(31)
    cfg_path = write_config(tmp_path, preset("fig4_migration"))
    state = tmp_path / "state.json"
    assert main(["construct-equilibrium", "--config", str(cfg_path),
                 "--split", "S:0=0.6,R:0=0.2,R:1=0.2", "--out", str(state)]) == 0
    base = json.loads(state.read_text())
    bad = tmp_path / "bad.json"
    for _ in range(80):
        cases = state_malformations(base)
        field, mutate = cases[rng.integers(len(cases))]
        doc = json.loads(json.dumps(base))
        mutate(doc)
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["check-equilibrium", "--config", str(cfg_path), "--state", str(bad)])
        err = capsys.readouterr().err
        assert code == 1, (field, doc, err)
        assert field in err, (field, err)
    for _ in range(40):
        entry = f"{'SR'[rng.integers(2)]}:{rng.integers(2)}={rng.choice(SPLIT_BAD_MASSES)}"
        split = ",".join(rng.permutation(["S:0=0.5", entry]))
        code = main(["construct-equilibrium", "--config", str(cfg_path), "--split", split,
                     "--out", str(tmp_path / "split.json")])
        err = capsys.readouterr().err
        assert code == 1, (split, err)
        assert "--split" in err, (split, err)


def test_unknown_table_keys_and_state_fields_exit_1_naming_them(tmp_path, capsys):
    doc = preset("fig4_migration").to_dict()
    config = tmp_path / "bad.json"
    for table, key in (("lockdown_degrees", "healthyy"), ("initial_dist", "X")):
        bad = json.loads(json.dumps(doc))
        bad[table][key] = [0, 0]
        config.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert table in err and repr(key) in err, err

    cfg_path = write_config(tmp_path, preset("fig4_migration"))
    state = tmp_path / "state.json"
    assert main(["construct-equilibrium", "--config", str(cfg_path),
                 "--split", "S:0=0.6,R:0=0.4", "--out", str(state)]) == 0
    base = json.loads(state.read_text())
    check = ["check-equilibrium", "--config", str(cfg_path), "--state", str(state)]
    assert main(check) == 0
    cases = [({"version": v}, "version") for v in (99, 0, "1", 1.0, True, None)]
    cases.append(({"extra": 1}, "'extra'"))
    for change, named in cases:
        state.write_text(json.dumps({**base, **change}))
        capsys.readouterr()
        assert main(check) == 1, change
        assert named in capsys.readouterr().err, change
    del base["version"]
    state.write_text(json.dumps(base))
    assert main(check) == 1
    assert "version" in capsys.readouterr().err


def test_zero_and_non_finite_flag_values_exit_1_naming_the_flag(tmp_path, capsys):
    cfg_path = str(write_config(tmp_path, replace(preset("fig2b"), horizon=12)))
    fig4_path = str(write_config(tmp_path, preset("fig4_migration"), "fig4.json"))
    state = str(tmp_path / "state.json")
    assert main(["construct-equilibrium", "--config", fig4_path,
                 "--split", "S:0=1.0", "--out", state]) == 0
    sweep = ["sweep", "--config", cfg_path, "--grid", "lockdown.all=1,3",
             "--out", str(tmp_path / "sweep")]
    check = ["check-equilibrium", "--config", fig4_path, "--state", state]
    cases = [
        (["simulate", "--preset", "fig2a", "--horizon", "0", "--out", str(tmp_path / "run")],
         "horizon"),
        (sweep + ["--jobs", "1", "--horizon", "0"], "horizon"),
        (sweep + ["--jobs", "0"], "--jobs"),
        (check + ["--tol", "nan"], "tol"),
        (check + ["--tol", "inf"], "tol"),
        (["construct-equilibrium", "--config", fig4_path, "--split", "S:0=0.5"], "--split"),
        (["construct-equilibrium", "--config", fig4_path, "--split", "S:0=1e999"], "--split"),
    ]
    capsys.readouterr()
    for argv, flag in cases:
        assert main(argv) == 1, argv
        assert flag in capsys.readouterr().err, argv
    assert not (tmp_path / "run").exists()
    assert not (tmp_path / "sweep").exists()


# --- sweep -------------------------------------------------------------------


def test_sweep_grid_writes_consistent_artifacts(tmp_path):
    cfg_path = write_config(tmp_path, replace(preset("fig2b"), horizon=12))
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(cfg_path), "--grid", "lockdown.all=1,3",
                 "--jobs", "1", "--out", str(out)])
    assert code == 0

    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["point", "name", "lockdown.all", "total_infections",
                      "peak_infections", "peak_day", "average_welfare", "days"]
    assert len(lines) == 3
    for idx, line in enumerate(lines[1:]):
        cells = dict(zip(header, line.split(",")))
        assert cells["point"] == str(idx)
        assert cells["name"].startswith("fig2b[lockdown.all=")
        point_dirs = sorted((out / "points").glob(f"{idx:03d}_*"))
        assert len(point_dirs) == 1
        summary = read_summary(point_dirs[0])
        metrics = summary["metrics"]
        assert float(cells["total_infections"]) == metrics["total_infections"]
        assert float(cells["peak_infections"]) == metrics["peak_infections"]
        assert int(cells["peak_day"]) == metrics["peak_day"]
        assert float(cells["average_welfare"]) == metrics["average_welfare"]
        assert int(cells["days"]) == summary["days"]
        assert (point_dirs[0] / "timeseries.csv").exists()


def test_sweep_parallel_run_matches_serial(tmp_path):
    cfg_path = write_config(tmp_path, replace(preset("fig2b"), horizon=12))
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    base_args = ["sweep", "--config", str(cfg_path), "--grid", "lockdown.all=1,3"]
    assert main(base_args + ["--jobs", "1", "--out", str(serial)]) == 0
    assert main(base_args + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()
    for point in sorted((serial / "points").iterdir()):
        twin = parallel / "points" / point.name
        assert (point / "timeseries.csv").read_bytes() == (twin / "timeseries.csv").read_bytes()


@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="the workers must inherit the patched simulate",
)
def test_sweep_reports_a_failed_point_alike_at_any_job_count(tmp_path, monkeypatch, capsys):
    real = cli.simulate

    def simulate_or_fail(scenario):
        if "lockdown.all=3" in scenario.name:
            raise NumericsError("stalled")
        return real(scenario)

    monkeypatch.setattr(cli, "simulate", simulate_or_fail)
    cfg_path = write_config(tmp_path, replace(preset("fig2b"), horizon=12))
    base_args = ["sweep", "--config", str(cfg_path), "--grid", "lockdown.all=1,3,5"]
    seen = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(base_args + ["--jobs", jobs, "--out", str(out)]) == 2
        files = {
            str(path.relative_to(out)): path.read_bytes() if path.name != "summary.json" else None
            for path in out.rglob("*")
            if path.is_file()
        }
        stdout, stderr = capsys.readouterr()
        seen.append((stdout.replace(str(out), "<out>"), stderr, files))
    assert seen[0] == seen[1]
    stdout, stderr, files = seen[0]
    assert "sweep points: 3, failed: 1" in stdout
    assert "lockdown.all=3] failed: NumericsError: stalled" in stderr
    assert sorted(files) == [
        "points/000_fig2b_lockdown.all=1_/summary.json",
        "points/000_fig2b_lockdown.all=1_/timeseries.csv",
        "points/002_fig2b_lockdown.all=5_/summary.json",
        "points/002_fig2b_lockdown.all=5_/timeseries.csv",
        "sweep.csv",
    ]
    assert [line.split(",")[0] for line in files["sweep.csv"].decode().splitlines()] == [
        "point", "0", "2"
    ]


def test_sweep_preset_family_with_short_horizon(tmp_path):
    out = tmp_path / "fig3"
    code = main(["sweep", "--preset", "fig3_sweep", "--horizon", "5",
                 "--jobs", "1", "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].split(",")[:4] == ["point", "name", "family", "a_lock"]
    assert len(lines) == 29
    assert len(list((out / "points").iterdir())) == 28


def test_sweep_input_errors(tmp_path, capsys):
    cfg_path = write_config(tmp_path, preset("fig2b"))
    assert main(["sweep", "--preset", "fig2b", "--out", str(tmp_path / "x")]) == 1
    assert "simulate command" in capsys.readouterr().err
    assert main(["sweep", "--preset", "fig3_sweep", "--grid", "lockdown.all=1"]) == 1
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    assert main(["sweep", "--config", str(cfg_path), "--grid", "lockdown.all"]) == 1
    assert main(["sweep", "--config", str(cfg_path), "--grid", "lockdown.all="]) == 1
    assert main(["sweep", "--config", str(cfg_path), "--grid", "bogus.path=1"]) == 1
    assert main(["sweep", "--config", str(cfg_path), "--grid", "lockdown.all=1",
                 "--jobs", "-1", "--out", str(tmp_path / "neg")]) == 1
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg_path), "--grid", "params.alpha=0.1,0.2",
                 "--grid", "params.alpha=0.5", "--out", str(tmp_path / "twice")]) == 1
    assert "'params.alpha' is given more than once" in capsys.readouterr().err
    assert main(["sweep", "--config", str(cfg_path), "--grid", "lockdown.recovered=5",
                 "--grid", "lockdown.all=6", "--horizon", "3", "--jobs", "1",
                 "--out", str(tmp_path / "overlap")]) == 1
    err = capsys.readouterr().err
    assert "'lockdown.recovered' and 'lockdown.all' both set" in err
    assert not (tmp_path / "overlap").exists()
    assert main(["sweep", "--config", str(cfg_path), "--grid", "horizon=3,4",
                 "--horizon", "6", "--out", str(tmp_path / "both")]) == 1
    assert "--horizon cannot be combined with the grid path 'horizon'" in capsys.readouterr().err
    assert not (tmp_path / "twice").exists() and not (tmp_path / "both").exists()


# --- equilibrium files ----------------------------------------------------------


def test_construct_then_check_round_trip(tmp_path, capsys):
    cfg_path = write_config(tmp_path, preset("fig4_migration"))
    state = tmp_path / "state.json"
    code = main(["construct-equilibrium", "--config", str(cfg_path),
                 "--split", "S:0=0.6,R:0=0.2,R:1=0.2", "--out", str(state)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out

    assert main(["check-equilibrium", "--config", str(cfg_path),
                 "--state", str(state)]) == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_check_flags_a_perturbed_state(tmp_path, capsys):
    cfg_path = write_config(tmp_path, preset("fig4_migration"))
    state = tmp_path / "state.json"
    assert main(["construct-equilibrium", "--config", str(cfg_path),
                 "--split", "S:0=0.6,R:0=0.2,R:1=0.2", "--out", str(state)]) == 0
    doc = json.loads(state.read_text())
    doc["dist"][0] = [0.59, 0.01]  # push susceptible mass into the harsh zone
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check-equilibrium", "--config", str(cfg_path),
                 "--state", str(moved)]) == 3
    assert "verdict: FAIL" in capsys.readouterr().out


def test_split_entries_accumulate(tmp_path):
    cfg_path = write_config(tmp_path, preset("fig4_migration"))
    state = tmp_path / "state.json"
    assert main(["construct-equilibrium", "--config", str(cfg_path),
                 "--split", "S:0=0.3,S:0=0.3,R:1=0.4", "--out", str(state)]) == 0
    doc = json.loads(state.read_text())
    assert doc["dist"][0][0] == pytest.approx(0.6)


def test_construct_rejects_bad_splits(tmp_path, capsys):
    cfg_path = write_config(tmp_path, preset("fig4_migration"))
    out = str(tmp_path / "state.json")
    # Mass in a zone the susceptible would leave.
    assert main(["construct-equilibrium", "--config", str(cfg_path),
                 "--split", "S:1=1.0", "--out", out]) == 1
    assert "worth leaving" in capsys.readouterr().err
    assert main(["construct-equilibrium", "--config", str(cfg_path),
                 "--split", "X:0=1.0", "--out", out]) == 1
    assert main(["construct-equilibrium", "--config", str(cfg_path),
                 "--split", "S:5=1.0", "--out", out]) == 1
    assert main(["construct-equilibrium", "--config", str(cfg_path),
                 "--split", "A:0=1.0", "--out", out]) == 1


def test_check_rejects_bad_state_files(tmp_path):
    fig4_path = write_config(tmp_path, preset("fig4_migration"), "fig4.json")
    fig2_path = write_config(tmp_path, preset("fig2a"), "fig2.json")
    state = tmp_path / "state.json"
    assert main(["construct-equilibrium", "--config", str(fig4_path),
                 "--split", "S:0=1.0", "--out", str(state)]) == 0
    # Dimension mismatch: a two-zone state against a one-zone scenario.
    assert main(["check-equilibrium", "--config", str(fig2_path),
                 "--state", str(state)]) == 1
    assert main(["check-equilibrium", "--config", str(fig4_path),
                 "--state", str(tmp_path / "absent.json")]) == 1
    not_state = tmp_path / "plain.json"
    not_state.write_text(json.dumps({"hello": 1}))
    assert main(["check-equilibrium", "--config", str(fig4_path),
                 "--state", str(not_state)]) == 1


# --- presets and version ------------------------------------------------------------


def test_presets_listing_and_export(tmp_path, capsys):
    assert main(["presets"]) == 0
    listing = capsys.readouterr().out
    for name in ("fig2a", "fig2b", "fig2c", "fig3_sweep", "fig4_migration"):
        assert name in listing

    assert main(["presets", "--export", "fig2a"]) == 0
    doc = json.loads(capsys.readouterr().out)
    clone = scenario_from_dict(doc)
    assert clone.to_dict() == doc

    assert main(["presets", "--export", "fig3_sweep"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert isinstance(docs, list) and len(docs) == 28

    assert main(["presets", "--export", "fig9"]) == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("epigame ")
