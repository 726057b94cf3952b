"""Parameter validation, index bijections and the population containers."""

import dataclasses

import numpy as np
import pytest

from epigame import (
    InfectionState,
    Policy,
    SocialState,
    StateDistribution,
    ValidationError,
    uniform_no_move_policy,
    validate_params,
)
from epigame.core import (
    CLASS_OF_STATE,
    HEALTHY_STATES,
    NUM_STATES,
    BehaviorClass,
    action_degrees,
    action_targets,
    flatten_action,
    flatten_state,
    flatten_state_table,
    unflatten_action,
    unflatten_state,
    unflatten_state_table,
)
from conftest import make_params, random_dist, random_policy


# --- parameters -----------------------------------------------------------


def test_valid_params_pass_through():
    p = make_params()
    assert validate_params(p) is p


@pytest.mark.parametrize(
    "overrides",
    [
        {"alpha": 1.0},
        {"alpha": -0.1},
        {"delta_A_I": 0.0},
        {"delta_A_I": 0.6, "delta_A_U": 0.6},
        {"delta_I_R": 0.0},
        {"delta_U_R": 1.5},
        {"epsilon": 0.0},
        {"epsilon": -1.0},
        {"inertia": 0.0},
        {"inertia": 1.2},
        {"rationality": -1.0},
        {"beta_A": 1.5},
        {"beta_I": -0.2},
        {"num_zones": 0},
        {"num_zones": 2.0},
        {"a_max": -1},
        {"a_max": 3.5},
        {"migration_cost": -0.5},
        {"illness_cost": -2.0},
        {"alpha": "0.9"},
        {"beta_A": True},
        {"illness_cost": None},
        {"rationality": float("inf")},
        {"epsilon": float("nan")},
        {"inertia": [0.2]},
        {"num_zones": True},
        {"a_max": "6"},
    ],
)
def test_invalid_params_rejected(overrides):
    with pytest.raises(ValidationError):
        validate_params(make_params(**overrides))


def test_params_validate_on_construction_and_replace():
    p = make_params()
    with pytest.raises(ValidationError, match="alpha"):
        dataclasses.replace(p, alpha=1.0)
    with pytest.raises(ValidationError, match="rationality must be a finite real"):
        dataclasses.replace(p, rationality=float("inf"))
    assert dataclasses.replace(p, a_max=np.int64(3), alpha=np.float64(0.5)).a_max == 3


def test_degenerate_zero_degree_params_allowed():
    validate_params(make_params(a_max=0))


def test_action_space_size():
    p = make_params(a_max=6, num_zones=2)
    assert p.num_actions == 14
    assert p.num_flat_states == 10


# --- index bijections -------------------------------------------------------


def test_state_index_formula_and_round_trip():
    assert flatten_state(InfectionState.I, 1, 2) == 7
    assert flatten_state(InfectionState.S, 0, 3) == 0
    for num_zones in (1, 2, 4):
        for z in range(num_zones):
            for s in range(NUM_STATES):
                idx = flatten_state(s, z, num_zones)
                assert idx == NUM_STATES * z + s
                assert unflatten_state(idx, num_zones) == (s, z)


def test_action_index_formula_and_round_trip():
    assert flatten_action(2, 1, 2, 2) == 5
    for a_max, num_zones in ((2, 2), (6, 1), (3, 4)):
        for target in range(num_zones):
            for a in range(a_max + 1):
                idx = flatten_action(a, target, a_max, num_zones)
                assert idx == (a_max + 1) * target + a
                assert unflatten_action(idx, a_max, num_zones) == (a, target)


def test_index_bounds_rejected():
    with pytest.raises(ValidationError):
        flatten_state(5, 0, 2)
    with pytest.raises(ValidationError):
        flatten_state(0, 2, 2)
    with pytest.raises(ValidationError):
        unflatten_state(10, 2)
    with pytest.raises(ValidationError):
        flatten_action(3, 0, 2, 2)
    with pytest.raises(ValidationError):
        flatten_action(0, 2, 2, 2)
    with pytest.raises(ValidationError):
        unflatten_action(6, 2, 2)


def test_action_component_lookups():
    assert action_degrees(2, 2).tolist() == [0, 1, 2, 0, 1, 2]
    assert action_targets(2, 2).tolist() == [0, 0, 0, 1, 1, 1]


def test_state_table_flattening_round_trip():
    table = np.array([[10 * z + s for z in range(2)] for s in range(NUM_STATES)], float)
    flat = flatten_state_table(table)
    assert flat.tolist() == [0, 1, 2, 3, 4, 10, 11, 12, 13, 14]
    assert np.array_equal(unflatten_state_table(flat, 2), table)


# --- class structure --------------------------------------------------------


def test_behavior_class_of_each_state():
    assert CLASS_OF_STATE.tolist() == [0, 0, 1, 2, 0]
    for s in HEALTHY_STATES:
        assert CLASS_OF_STATE[s] == BehaviorClass.HEALTHY
    assert CLASS_OF_STATE[InfectionState.I] == BehaviorClass.SYMPTOMATIC
    assert CLASS_OF_STATE[InfectionState.R] == BehaviorClass.RECOVERED


# --- distribution container -------------------------------------------------


def test_distribution_renormalizes_tiny_drift():
    d = np.full((NUM_STATES, 2), 0.1)
    drifted = d * (1.0 + 5e-13)
    dist = StateDistribution(drifted)
    assert dist.d.sum() == pytest.approx(1.0, abs=1e-15)


def test_distribution_rejects_large_mass_error():
    d = np.full((NUM_STATES, 2), 0.1) * (1.0 + 1e-9)
    with pytest.raises(ValidationError):
        StateDistribution(d)


def test_distribution_rejects_negative_and_bad_shape():
    d = np.full((NUM_STATES, 2), 0.1)
    d[0, 0] = -0.1
    d[1, 0] = 0.3
    with pytest.raises(ValidationError):
        StateDistribution(d)
    with pytest.raises(ValidationError):
        StateDistribution(np.full((4, 2), 0.125))


def test_distribution_is_read_only():
    dist = random_dist(np.random.default_rng(0), 2)
    with pytest.raises(ValueError):
        dist.d[0, 0] = 0.5


def test_distribution_summaries():
    d = np.zeros((NUM_STATES, 2))
    d[InfectionState.S, 0] = 0.4
    d[InfectionState.A, 1] = 0.2
    d[InfectionState.I, 0] = 0.1
    d[InfectionState.R, 1] = 0.2
    d[InfectionState.U, 0] = 0.1
    dist = StateDistribution(d)
    assert dist.zone_masses() == pytest.approx([0.6, 0.4])
    assert dist.active_mass() == pytest.approx(0.3)
    assert dist.immune_mass() == pytest.approx(0.3)
    expected_flat = [0.4, 0.0, 0.1, 0.0, 0.1, 0.0, 0.2, 0.0, 0.2, 0.0]
    assert dist.flat().tolist() == pytest.approx(expected_flat)


# --- policy container ---------------------------------------------------------


def test_policy_healthy_states_share_rows():
    p = make_params()
    pi = random_policy(np.random.default_rng(1), p)
    rows = pi.state_rows()
    assert np.array_equal(rows[InfectionState.S], rows[InfectionState.A])
    assert np.array_equal(rows[InfectionState.S], rows[InfectionState.U])
    assert np.array_equal(rows[InfectionState.S, 0], pi.class_row(BehaviorClass.HEALTHY, 0))
    assert np.array_equal(pi.row(InfectionState.I, 0), pi.class_rows[1, 0])


def test_policy_rejects_bad_rows():
    p = make_params(a_max=1)
    rows = np.full((3, p.num_zones, p.num_actions), 0.25)
    rows[0, 0, 0] = 0.5  # row sums to 1.25
    with pytest.raises(ValidationError):
        Policy(rows, p.a_max)
    rows = np.full((3, p.num_zones, p.num_actions), 0.25)
    rows[0, 0, 0] = -0.25
    rows[0, 0, 1] = 0.75
    with pytest.raises(ValidationError):
        Policy(rows, p.a_max)


def test_uniform_no_move_policy_stays_home():
    p = make_params(a_max=1, num_zones=2)
    pi = uniform_no_move_policy(p)
    assert pi.row(InfectionState.S, 0).tolist() == [0.5, 0.5, 0.0, 0.0]
    assert pi.row(InfectionState.S, 1).tolist() == [0.0, 0.0, 0.5, 0.5]


def test_uniform_no_move_policy_mean_degree():
    p = make_params(a_max=6, num_zones=2)
    pi = uniform_no_move_policy(p)
    assert pi.mean_degrees() == pytest.approx(np.full((3, 2), 3.0))


def test_uniform_no_move_policy_degenerate_degree():
    p = make_params(a_max=0, num_zones=3)
    pi = uniform_no_move_policy(p)
    assert pi.row(InfectionState.R, 1).tolist() == [0.0, 1.0, 0.0]


# --- joint container -----------------------------------------------------------


def test_social_state_zone_mismatch_rejected():
    p2 = make_params(num_zones=2)
    p3 = make_params(num_zones=3)
    rng = np.random.default_rng(2)
    with pytest.raises(ValidationError):
        SocialState(random_policy(rng, p2), random_dist(rng, 3))
    with pytest.raises(ValidationError):
        SocialState(random_policy(rng, p3), random_dist(rng, 2))


def test_params_are_immutable():
    p = make_params()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.alpha = 0.5
