"""Acceptance gate: one test per shipped guarantee.

Each test prints a single pass/fail line under ``pytest -v``. The first
block checks structural properties that hold for any parameter set; the
second block checks the quantitative targets of the bundled presets at
the calibration baked into them (epsilon 0.1, healthy agents evaluating
options as if susceptible).
"""

import io
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import SINGLE_PRESETS, make_params, random_reward_config, random_social

from epigame import (
    BehaviorClass,
    InfectionState,
    best_response,
    check_equilibrium,
    classify_zones,
    construct_equilibrium,
    detect_second_wave,
    expected_reward,
    feasible_actions,
    fig3_points,
    logit_choice,
    preset,
    q_function,
    simulate,
    transition_matrix,
    value_function,
)
from epigame.core import CLASS_OF_STATE, NUM_STATES, flatten_state_table
from epigame.cli import render_timeseries

TIE_TOL = 1e-9


@pytest.fixture(scope="module")
def fig3_runs():
    """All 28 lockdown-sweep points, simulated once."""
    return [(fields, simulate(cfg)) for fields, cfg in fig3_points()]


def test_criterion_01_kernel_rows_and_population_mass_stay_on_the_simplex(preset_runs):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_row = 0.0
    worst_mass = 0.0
    for _ in range(1000):
        p = make_params(
            num_zones=int(rng.integers(1, 4)), a_max=int(rng.integers(0, 5))
        )
        social = random_social(rng, p)
        kernel = transition_matrix(social, p)
        worst_row = max(worst_row, float(np.abs(kernel.matrix.sum(axis=1) - 1.0).max()))
        worst_mass = max(worst_mass, abs(float(kernel.propagate(social.dist).sum()) - 1.0))
    for name in SINGLE_PRESETS:
        result, _ = preset_runs[name]
        p = result.scenario.params
        masses = result.trajectory.dist_array().sum(axis=(1, 2))
        worst_mass = max(worst_mass, float(np.abs(masses - 1.0).max()))
        for rec in result.trajectory.records:
            kernel = transition_matrix(rec.social, p)
            worst_row = max(
                worst_row, float(np.abs(kernel.matrix.sum(axis=1) - 1.0).max())
            )
    assert worst_row < 1e-10
    assert worst_mass < 1e-10
    assert time.perf_counter() - start < 10.0


def test_criterion_02_direct_value_solve_matches_fixed_point_iteration():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        p = make_params(
            num_zones=int(rng.integers(1, 4)),
            a_max=int(rng.integers(1, 5)),
            alpha=float(rng.uniform(0.0, 0.9)),
        )
        social = random_social(rng, p)
        cfg = random_reward_config(rng, p)
        kernel = transition_matrix(social, p)
        rewards = expected_reward(social.policy, cfg)
        solved = flatten_state_table(value_function(kernel, rewards, p))
        r = flatten_state_table(rewards)
        iterated = np.zeros_like(r)
        for _ in range(600):
            iterated = r + p.alpha * kernel.matrix @ iterated
        worst = max(worst, float(np.abs(solved - iterated).max()))
    assert worst < 1e-9


def test_criterion_03_best_response_matches_exhaustive_enumeration():
    rng = np.random.default_rng(303)
    for _ in range(1000):
        p = make_params(num_zones=int(rng.integers(1, 4)), a_max=int(rng.integers(0, 5)))
        shape = (NUM_STATES, p.num_zones, p.num_actions)
        if rng.random() < 0.5:
            q = rng.integers(-4, 5, size=shape) * 0.5  # exact ties are common
        else:
            q = rng.normal(size=shape)
        s = int(rng.integers(0, NUM_STATES))
        z = int(rng.integers(0, p.num_zones))
        if rng.random() < 0.5:
            mask = feasible_actions(p)[CLASS_OF_STATE[s]]
        else:
            mask = None
        allowed = range(p.num_actions) if mask is None else np.flatnonzero(mask)
        top = max(float(q[s, z, j]) for j in allowed)
        expected = sorted(int(j) for j in allowed if float(q[s, z, j]) >= top - TIE_TOL)
        got = sorted(int(j) for j in best_response(q, s, z, feasible=mask))
        assert got == expected


def test_criterion_04_constructed_equilibria_pass_both_conditions():
    rng = np.random.default_rng(404)
    for _ in range(50):
        p = make_params(
            num_zones=int(rng.integers(1, 4)),
            a_max=int(rng.integers(1, 7)),
            alpha=float(rng.uniform(0.0, 0.95)),
        )
        cfg = random_reward_config(rng, p)
        classes = classify_zones(cfg, p)
        split = np.zeros((NUM_STATES, p.num_zones))
        for state in (InfectionState.S, InfectionState.R):
            for z in range(p.num_zones):
                if z not in classes.leave_zones[state]:
                    split[state, z] = rng.uniform(0.1, 1.0)
        split /= split.sum()
        social = construct_equilibrium(cfg, p, split)
        report = check_equilibrium(social, cfg, p)
        assert report.verdict
        assert report.se1_gap <= 1e-8
        assert report.se2_gap <= 1e-8
        values = value_function(
            transition_matrix(social, p), expected_reward(social.policy, cfg), p
        )
        stationary = classes.activation_value / (1.0 - p.alpha)
        occupied = social.dist.d > 0.0
        assert float(np.abs(values - stationary)[occupied].max()) < 1e-9


def test_criterion_05_two_zone_reference_rewards_are_exact():
    scenario = preset("fig4_migration")
    cfg = scenario.reward_config()
    classes = classify_zones(cfg, scenario.params)
    assert float(classes.activation_value[InfectionState.S, 1]) == 1.0 / 3.0
    assert float(classes.best_value[InfectionState.S]) == 2.0 / 3.0
    assert scenario.params.alpha == 0.9
    assert cfg.migration_cost == 2.0
    assert 1 in classes.leave_zones[InfectionState.S]
    assert classes.best_zones[InfectionState.S] == (0,)


def test_criterion_06_every_preset_burns_out_with_monotone_immunity(
    preset_runs, fig3_runs
):
    results = [run for run, _ in preset_runs.values()]
    results += [run for _, run in fig3_runs]
    for result in results:
        traj = result.trajectory
        assert len(traj) - 1 <= 2000
        assert float(traj.active()[-1]) < 1e-6
        assert float(np.diff(traj.immune()).min(initial=0.0)) >= -1e-12


def test_criterion_07_logit_uniformity_shift_invariance_and_concentration():
    rng = np.random.default_rng(707)
    feasible_of_class = None
    for _ in range(50):
        p = make_params(num_zones=int(rng.integers(1, 3)), a_max=int(rng.integers(1, 5)))
        social = random_social(rng, p)
        q = rng.normal(size=(NUM_STATES, p.num_zones, p.num_actions))
        feasible_of_class = feasible_actions(p)

        # Zero rationality: exactly uniform over the feasible actions.
        flat = logit_choice(q, social.dist.d, make_params(**{
            "num_zones": p.num_zones, "a_max": p.a_max, "rationality": 0.0}))
        for cls in BehaviorClass:
            mask = feasible_of_class[cls]
            for z in range(p.num_zones):
                row = flat.class_rows[cls, z]
                assert row[mask].min() == row[mask].max()
                assert not row[~mask].any()

        # Adding a constant to every Q entry leaves the choice unchanged.
        base = logit_choice(q, social.dist.d, p)
        shifted = logit_choice(q + 123.456, social.dist.d, p)
        assert float(np.abs(base.class_rows - shifted.class_rows).max()) < 1e-12

        # Huge rationality: all but < 1e-6 of the mass on the argmax set.
        grid_q = rng.integers(-4, 5, size=q.shape) * 0.5
        sharp_p = make_params(**{
            "num_zones": p.num_zones, "a_max": p.a_max, "rationality": 1e6})
        sharp = logit_choice(
            grid_q, social.dist.d, sharp_p, healthy_q="assume_susceptible"
        )
        for cls, state in ((0, InfectionState.S), (1, InfectionState.I), (2, InfectionState.R)):
            for z in range(p.num_zones):
                best = best_response(grid_q, state, z, feasible=feasible_of_class[cls])
                assert 1.0 - float(sharp.class_rows[cls, z, best].sum()) < 1e-6


def test_criterion_08_single_zone_epidemic_sizes_match_reference_values(preset_runs):
    targets = {
        "fig2a": (0.934, 0.251),
        "fig2b": (0.670, 0.084),
        "fig2c": (0.532, 0.085),
    }
    for name, (total, peak) in targets.items():
        result, wall = preset_runs[name]
        assert abs(result.metrics.total_infections - total) < 0.08
        assert abs(result.metrics.peak_infections - peak) < 0.08
        assert wall < 5.0

    # The qualitative orderings must survive any calibration choice.
    for epsilon in (0.001, 0.01, 0.1):
        for mode in ("belief", "assume_susceptible"):
            m = {}
            for name in ("fig2a", "fig2b", "fig2c"):
                cfg = preset(name)
                cfg = replace(
                    cfg, params=replace(cfg.params, epsilon=epsilon), healthy_q=mode
                )
                m[name] = simulate(cfg).metrics
            setting = f"epsilon={epsilon}, healthy_q={mode}"
            assert m["fig2a"].total_infections > m["fig2b"].total_infections, setting
            assert m["fig2b"].total_infections > m["fig2c"].total_infections, setting
            assert m["fig2a"].peak_infections > max(
                m["fig2b"].peak_infections, m["fig2c"].peak_infections
            ), setting
            assert abs(m["fig2b"].peak_infections - m["fig2c"].peak_infections) < 0.03, setting


def test_criterion_09_myopic_agents_roughly_follow_the_lockdown_degree(preset_runs):
    result, _ = preset_runs["fig2a"]
    series = result.trajectory.mean_activation(BehaviorClass.HEALTHY, 0)
    assert 1.6 <= float(series.mean()) <= 2.4


def test_criterion_10_farsighted_agents_withdraw_beyond_the_lockdown(preset_runs):
    result, _ = preset_runs["fig2b"]
    activation = result.trajectory.mean_activation(BehaviorClass.HEALTHY, 0)
    peak_day = result.metrics.peak_day
    assert activation[5] - activation[peak_day] >= 0.5


def test_criterion_11_welfare_orderings_across_lockdown_families(fig3_runs):
    welfare = {
        (fields["family"], fields["a_lock"]): run.metrics.average_welfare
        for fields, run in fig3_runs
    }
    for a_lock in range(1, 6):
        exempt = welfare[("farsighted-exempt", a_lock)]
        full = welfare[("farsighted-full", a_lock)]
        assert exempt >= full, f"a_lock={a_lock}"
        myopic = welfare[("myopic-full", a_lock)]
        others = [
            welfare[(family, a_lock)]
            for family in (
                "farsighted-full",
                "farsighted-exempt",
                "farsighted-exempt-serology",
            )
        ]
        assert myopic <= min(others), f"a_lock={a_lock}"


def test_criterion_12_migration_reversal_and_second_wave(preset_runs):
    result, wall = preset_runs["fig4_migration"]
    traj = result.trajectory
    m = result.metrics

    # (i) the open zone initially attracts mass from the locked-down zone
    inflow = traj.net_flow(1, 0)
    early = inflow[1:11]
    assert float(early.max()) > 0.0
    inflow_day = 1 + int(np.argmax(early))

    # (ii) the flow reverses once infections in the open zone climb
    later = inflow[inflow_day + 1 :]
    assert float(later.min()) < 0.0
    reversal_day = inflow_day + 1 + int(np.argmax(later < 0.0))
    infected_open = traj.infected(0)
    assert infected_open[reversal_day] > infected_open[1]

    # (iii) returning mass ignites a second wave in the open zone
    flag, days = detect_second_wave(traj, 0)
    assert flag
    assert days[-1] > 40
    assert m.second_wave[0]

    # (iv) the locked-down zone is hit, but less hard
    assert 0.0 < m.zone_peak_infections[1] < m.zone_peak_infections[0]

    # (v) final sizes and peaks near the reference values
    assert abs(m.zone_total_infections[0] - 0.621) < 0.08
    assert abs(m.zone_total_infections[1] - 0.245) < 0.08
    assert abs(m.zone_peak_infections[0] - 0.111) < 0.05
    assert abs(m.zone_peak_infections[1] - 0.095) < 0.05
    assert wall < 10.0


def rendered_bytes(result):
    out = io.StringIO()
    render_timeseries(result, out)
    return out.getvalue().encode()


def test_criterion_13_repeated_runs_render_byte_identical_series(preset_runs):
    for name in SINGLE_PRESETS:
        result, _ = preset_runs[name]
        again = simulate(preset(name))
        first = rendered_bytes(result)
        second = rendered_bytes(again)
        assert first == second
