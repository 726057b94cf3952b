"""Daily updates, full runs, summary metrics and wave detection."""

from dataclasses import replace

import json

import numpy as np
import pytest

from epigame import (
    InfectionState,
    RewardConfig,
    SocialState,
    StateDistribution,
    Trajectory,
    ValidationError,
    infection_waves,
    detect_second_wave,
    linear_benefit,
    logit_choice,
    metrics,
    policy_update,
    preset,
    q_function,
    simulate,
    step,
    transition_matrix,
    uniform_no_move_policy,
    value_function,
    expected_reward,
    check_equilibrium,
    construct_equilibrium,
)
from epigame.core import (
    NUM_CLASSES,
    NUM_STATES,
    BehaviorClass,
    flatten_action,
    unflatten_action,
)
from epigame.rewards import immediate_reward
from epigame.dynamics import WAVE_PROMINENCE, StepRecord
from conftest import make_params, random_social
from test_equilibrium import two_zone_config, two_zone_params
from test_scenarios import frozen_scenario


def plain_config(num_zones):
    return RewardConfig(
        benefit=linear_benefit(6),
        activation_cost=np.zeros((NUM_STATES, num_zones, 7)),
        migration_cost=2.0,
        illness_cost=10.0,
    )


# --- single day -------------------------------------------------------------


def test_step_moves_mass_by_the_pre_step_policy():
    p = make_params(num_zones=2)
    rows = np.zeros((NUM_CLASSES, 2, p.num_actions))
    rows[:, 0, flatten_action(3, 1, 6, 2)] = 1.0  # zone 0 moves to zone 1
    rows[:, 1, flatten_action(3, 1, 6, 2)] = 1.0  # zone 1 stays
    from epigame import Policy

    d = np.zeros((NUM_STATES, 2))
    d[InfectionState.R] = [0.6, 0.4]
    social = SocialState(Policy(rows, 6), StateDistribution(d))
    nxt = step(social, plain_config(2), p)
    assert nxt.dist.d[InfectionState.R].tolist() == [0.0, 1.0]


def test_step_composes_the_published_pieces():
    p = make_params(num_zones=2, a_max=3)
    cfg = RewardConfig(
        benefit=linear_benefit(3),
        activation_cost=np.zeros((NUM_STATES, 2, 4)),
        migration_cost=2.0,
        illness_cost=10.0,
    )
    social = random_social(np.random.default_rng(40), p, forced_home=True)
    nxt = step(social, cfg, p, healthy_q="belief")

    kernel = transition_matrix(social, p)
    values = value_function(kernel, expected_reward(social.policy, cfg), p)
    q = q_function(social, values, cfg, p)
    target = logit_choice(q, social.dist.d, p, healthy_q="belief")
    expected_policy = policy_update(social.policy, target, p.inertia)
    assert np.array_equal(nxt.policy.class_rows, expected_policy.class_rows)
    assert np.array_equal(nxt.dist.d, kernel.propagate(social.dist))


def test_step_is_a_fixed_point_at_a_constructed_equilibrium():
    cfg = two_zone_config()
    p = two_zone_params(rationality=1e6)
    split = np.zeros((NUM_STATES, 2))
    split[InfectionState.S, 0] = 1.0
    social = construct_equilibrium(cfg, p, split)
    nxt = step(social, cfg, p)
    assert np.max(np.abs(nxt.dist.d - social.dist.d)) < 1e-12
    assert np.max(np.abs(nxt.policy.class_rows - social.policy.class_rows)) < 1e-8


# --- full runs ------------------------------------------------------------------


def test_first_day_of_infection_follows_the_flow_rates():
    # Day-1 symptomatic mass is policy independent:
    # I1 = I0 (1 - delta_I_R) + A0 delta_A_I.
    result = simulate(replace(preset("fig2a"), horizon=1))
    d1 = result.trajectory.records[1].social.dist.d
    assert d1[InfectionState.I, 0] == pytest.approx(0.0112, abs=1e-12)
    assert d1[InfectionState.U, 0] == pytest.approx(0.02 * 0.08, abs=1e-12)
    assert d1[InfectionState.R, 0] == pytest.approx(0.01 * 0.04, abs=1e-12)
    assert d1[InfectionState.A, 0] > 0.02 * (1 - 0.16)  # fresh infections arrived


def test_run_without_seed_infections_stays_clean():
    cfg = frozen_scenario(
        initial_dist=np.array([[0.9], [0.0], [0.0], [0.1], [0.0]]), horizon=300
    )
    result = simulate(cfg)
    assert np.all(result.trajectory.infected() == 0.0)
    assert result.metrics.peak_infections == 0.0
    assert result.metrics.total_infections == pytest.approx(0.1, abs=1e-12)
    # The policy settles and the run stops well before the horizon.
    assert 1 < len(result.trajectory) < 301


def test_immunity_accumulates_monotonically():
    result = simulate(replace(preset("fig2a"), horizon=80))
    immune = result.trajectory.immune()
    assert np.all(np.diff(immune) >= -1e-12)


def test_population_mass_is_conserved_every_day():
    result = simulate(replace(preset("fig4_migration"), horizon=80))
    sums = result.trajectory.dist_array().sum(axis=(1, 2))
    assert np.max(np.abs(sums - 1.0)) < 1e-10


def test_simulation_is_deterministic():
    first = simulate(replace(preset("fig2b"), horizon=40))
    second = simulate(replace(preset("fig2b"), horizon=40))
    assert np.array_equal(first.trajectory.dist_array(), second.trajectory.dist_array())
    assert np.array_equal(first.trajectory.welfare(), second.trajectory.welfare())
    assert first.metrics.to_dict() == second.metrics.to_dict()


def test_day_zero_observables_of_the_initial_policy():
    result = simulate(replace(preset("fig2a"), horizon=1))
    rec0 = result.trajectory.records[0]
    assert rec0.mean_activation[:, 0] == pytest.approx([3.0, 0.0, 3.0])
    assert rec0.migration_flow == pytest.approx(np.ones((1, 1)), abs=1e-15)
    assert rec0.welfare == pytest.approx(-0.8778571428571428, abs=1e-12)


# --- trajectory container ---------------------------------------------------------


def synthetic_record(day, dist_column, welfare=0.0):
    p = make_params(num_zones=1)
    social = SocialState(
        uniform_no_move_policy(p), StateDistribution(np.array(dist_column)[:, None])
    )
    return StepRecord(
        day=day,
        social=social,
        mean_activation=np.zeros((3, 1)),
        migration_flow=np.zeros((1, 1)),
        welfare=welfare,
    )


def test_three_zone_flow_and_welfare_match_loops_over_actions():
    p = make_params(num_zones=3, a_max=2)
    init = np.zeros((NUM_STATES, 3))
    init[InfectionState.S] = (0.5, 0.3, 0.15)
    init[InfectionState.I] = (0.05, 0.0, 0.0)
    scenario = frozen_scenario(
        params=p,
        lockdown_degrees=np.array([[2, 1, 0], [2, 1, 0], [2, 2, 2]]),
        initial_dist=init,
        horizon=3,
    )
    cfg = scenario.reward_config()
    records = simulate(scenario).trajectory.records
    assert len(records) == 4
    for rec in records:
        d, rows = rec.social.dist.d, rec.social.policy.state_rows()
        flow = np.zeros((3, 3))
        welfare = 0.0
        for s in range(NUM_STATES):
            for z in range(3):
                for j in range(p.num_actions):
                    a, target = unflatten_action(j, p.a_max, 3)
                    mass = d[s, z] * rows[s, z, j]
                    flow[z, target] += mass
                    welfare += mass * immediate_reward(s, z, a, target, cfg)
        assert np.max(np.abs(rec.migration_flow - flow)) < 1e-15
        assert rec.welfare == pytest.approx(welfare, abs=1e-12)
    assert records[-1].migration_flow[0, 1] > 0.0  # off-diagonal flows are exercised


def test_step_and_checker_reject_a_reward_config_of_other_dimensions():
    social = preset("fig4_migration").initial_social()
    one_zone = preset("fig2a")
    with pytest.raises(ValidationError, match="reward table"):
        step(social, one_zone.reward_config(), make_params(num_zones=2))
    with pytest.raises(ValidationError, match="reward table"):
        check_equilibrium(social, one_zone.reward_config(), make_params(num_zones=2))


def test_trajectory_rejects_bad_day_sequences():
    with pytest.raises(ValidationError):
        Trajectory(())
    rec0 = synthetic_record(0, [0.9, 0.05, 0.05, 0.0, 0.0])
    rec2 = synthetic_record(2, [0.9, 0.05, 0.05, 0.0, 0.0])
    with pytest.raises(ValidationError):
        Trajectory((rec0, rec2))


def test_trajectory_observables_on_a_two_zone_run():
    result = simulate(replace(preset("fig4_migration"), horizon=30))
    traj = result.trajectory
    assert len(traj) == 31
    assert traj.days().tolist() == list(range(31))
    assert traj.final() is traj.records[-1]
    total_infected = traj.infected()
    by_zone = traj.infected(0) + traj.infected(1)
    assert total_infected == pytest.approx(by_zone, abs=1e-15)
    d = traj.dist_array()
    assert traj.active() == pytest.approx(d[:, 1, :].sum(axis=1) + d[:, 2, :].sum(axis=1))
    assert np.array_equal(traj.net_flow(0, 1), -traj.net_flow(1, 0))
    series = traj.mean_activation(int(BehaviorClass.HEALTHY), 0)
    assert series.shape == (31,)
    assert series[0] == pytest.approx(3.0)


# --- metrics ------------------------------------------------------------------------


def test_metrics_against_a_hand_built_trajectory():
    traj = Trajectory(
        (
            synthetic_record(0, [0.94, 0.05, 0.01, 0.0, 0.0], welfare=1.0),
            synthetic_record(1, [0.80, 0.10, 0.05, 0.05, 0.0], welfare=2.0),
            synthetic_record(2, [0.70, 0.05, 0.02, 0.15, 0.08], welfare=3.0),
        )
    )
    m = metrics(traj)
    assert m.total_infections == pytest.approx(0.23)
    assert m.peak_infections == pytest.approx(0.05)
    assert m.peak_day == 1
    assert m.average_welfare == pytest.approx(2.0)
    assert m.zone_total_infections == pytest.approx([0.23])
    assert m.zone_peak_infections == pytest.approx([0.05])
    assert m.zone_peak_days.tolist() == [1]
    assert m.second_wave == (False,)
    assert m.wave_days == ((),)
    json.dumps(m.to_dict())


def test_metrics_can_discount_initial_immunity():
    traj = Trajectory(
        (
            synthetic_record(0, [0.85, 0.04, 0.01, 0.10, 0.0]),
            synthetic_record(1, [0.80, 0.05, 0.02, 0.13, 0.0]),
        )
    )
    assert metrics(traj).total_infections == pytest.approx(0.13)
    assert metrics(traj, subtract_initial_immune=True).total_infections == pytest.approx(0.03)


# --- wave detection -----------------------------------------------------------------


def test_single_peak_is_not_a_second_wave():
    series = [0.0, 0.02, 0.06, 0.04, 0.01, 0.0]
    assert infection_waves(series) == (False, ())


def test_shallow_rebound_stays_below_the_prominence_bar():
    series = [0.0, 0.05, 0.046, 0.05, 0.0]  # trough only 0.004 deep
    assert infection_waves(series, prominence=0.01) == (False, ())


def test_two_separated_peaks_qualify():
    series = [0.0, 0.05, 0.01, 0.04, 0.0]
    assert infection_waves(series, prominence=0.01) == (True, (1, 3))


def test_plateau_peaks_count_once():
    series = [0.0, 0.05, 0.05, 0.01, 0.04, 0.0]
    assert infection_waves(series, prominence=0.01) == (True, (1, 4))


def test_distant_peaks_can_qualify_across_a_middle_bump():
    series = [0.0, 0.05, 0.045, 0.048, 0.01, 0.05, 0.0]
    flag, days = infection_waves(series, prominence=0.01)
    assert flag
    assert days == (1, 3, 5)


def test_flat_series_has_no_waves():
    assert infection_waves([0.02] * 5) == (False, ())


def test_wave_detection_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        infection_waves([0.0, 0.1], prominence=0.0)
    with pytest.raises(ValidationError):
        infection_waves([0.0, 0.1], prominence=-0.5)
    with pytest.raises(ValidationError):
        infection_waves([])
    with pytest.raises(ValidationError):
        infection_waves(np.zeros((3, 2)))


def test_zone_wave_lookup_validates_the_zone():
    result = simulate(replace(preset("fig2a"), horizon=10))
    with pytest.raises(ValidationError):
        detect_second_wave(result.trajectory, 1)
    flag, _ = detect_second_wave(result.trajectory, 0, prominence=WAVE_PROMINENCE)
    assert flag in (False, True)
