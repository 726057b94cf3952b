"""Zone classification, equilibrium construction and the two-gap checker."""

import numpy as np
import pytest

from epigame import (
    InfectionState,
    RewardConfig,
    SocialState,
    StateDistribution,
    ValidationError,
    check_equilibrium,
    classify_zones,
    construct_equilibrium,
    dominant_activation,
    expected_reward,
    linear_benefit,
    lockdown_cost,
    q_function,
    transition_matrix,
    uniform_no_move_policy,
    value_function,
)
from epigame.core import NUM_STATES, BehaviorClass, flatten_action, unflatten_action
from conftest import make_params


def two_zone_config():
    """Two zones, zone 1 under a harsher lockdown; recovered exempt."""
    o = linear_benefit(6)
    cost = lockdown_cost(np.array([[4, 2], [4, 2], [6, 6]]), o, multiplier=3.0)
    return RewardConfig(o, cost, migration_cost=2.0, illness_cost=10.0)


def two_zone_params(**overrides):
    fields = dict(num_zones=2, a_max=6, alpha=0.9, migration_cost=2.0, delta_U_R=0.01)
    fields.update(overrides)
    return make_params(**fields)


def three_zone_config():
    """Best, neutral and worth-leaving zones for the healthy states."""
    o = np.array([0.0, 0.5, 1.0])
    cost = lockdown_cost(np.array([[2, 1, 0], [0, 0, 0], [2, 2, 2]]), o, multiplier=3.0)
    return RewardConfig(o, cost, migration_cost=0.6, illness_cost=5.0)


def three_zone_params():
    return make_params(num_zones=3, a_max=2, alpha=0.5, migration_cost=0.6)


# --- zone classification ------------------------------------------------------


def test_two_zone_classification_exact_values():
    cls = classify_zones(two_zone_config(), two_zone_params())
    assert cls.activation_value[InfectionState.S, 1] == 1 / 3
    assert cls.best_value[InfectionState.S] == 2 / 3
    assert cls.best_zones[InfectionState.S] == (0,)
    assert cls.leave_zones[InfectionState.S] == (1,)
    assert cls.neutral_zones[InfectionState.S] == ()
    assert cls.best_degrees[InfectionState.S][0] == (4,)
    assert cls.best_degrees[InfectionState.S][1] == (2,)
    # The recovered are exempt everywhere, so no zone is worth leaving.
    assert cls.best_degrees[InfectionState.R][0] == (6,)
    assert cls.best_zones[InfectionState.R] == (0, 1)
    assert cls.leave_zones[InfectionState.R] == ()


def test_myopic_agents_never_leave():
    cls = classify_zones(two_zone_config(), two_zone_params(alpha=0.0))
    assert cls.leave_zones[InfectionState.S] == ()
    assert cls.neutral_zones[InfectionState.S] == (1,)


def test_leave_threshold_is_sharp():
    # Shortfall equals best - own activation value; the migration threshold
    # at alpha = 0.5 and cost 1 is exactly 1.
    p = make_params(num_zones=2, a_max=1, alpha=0.5, migration_cost=1.0)

    def shortfall_case(top_benefit):
        o = np.array([0.0, top_benefit])
        cost = lockdown_cost(np.array([[1, 0], [1, 0], [1, 1]]), o, multiplier=3.0)
        cfg = RewardConfig(o, cost, migration_cost=1.0, illness_cost=0.0)
        return classify_zones(cfg, p).leave_zones[InfectionState.S]

    assert shortfall_case(1.0 + 1e-6) == (1,)
    assert shortfall_case(1.0) == ()  # exactly at the threshold: stay
    assert shortfall_case(1.0 - 1e-6) == ()


def test_near_ties_merge_into_the_best_zone_set():
    o = np.array([0.0, 1.0])
    cost = np.zeros((NUM_STATES, 2, 2))
    cost[:, 1, 1] = 1e-12  # zone 1 is worse by far less than the tie tolerance
    cost[InfectionState.R] = 0.0
    cfg = RewardConfig(o, cost, migration_cost=1.0, illness_cost=0.0)
    cls = classify_zones(cfg, make_params(num_zones=2, a_max=1))
    assert cls.best_zones[InfectionState.S] == (0, 1)
    assert cls.leave_zones[InfectionState.S] == ()


def test_dominant_activation_degrees():
    cfg = two_zone_config()
    assert dominant_activation(cfg, 0) == (6,)
    assert dominant_activation(cfg, 0, InfectionState.S) == (4,)
    assert dominant_activation(cfg, 1, InfectionState.S) == (2,)
    flat = RewardConfig(
        np.zeros(3), np.zeros((NUM_STATES, 1, 3)), migration_cost=0.0, illness_cost=0.0
    )
    assert dominant_activation(flat, 0) == (0, 1, 2)
    with pytest.raises(ValidationError):
        dominant_activation(cfg, 2)


# --- construction -----------------------------------------------------------------


def test_constructed_recovered_population_passes_both_checks():
    cfg = two_zone_config()
    p = two_zone_params()
    split = np.zeros((NUM_STATES, 2))
    split[InfectionState.R, 0] = 1.0
    social = construct_equilibrium(cfg, p, split)
    report = check_equilibrium(social, cfg, p)
    assert report.verdict
    assert report.se1_gap == 0.0
    assert report.se2_gap == 0.0
    row = social.policy.class_rows[BehaviorClass.RECOVERED, 0]
    assert row[flatten_action(6, 0, 6, 2)] == 1.0


def test_constructed_susceptible_population_passes_both_checks():
    cfg = two_zone_config()
    p = two_zone_params()
    split = np.zeros((NUM_STATES, 2))
    split[InfectionState.S, 0] = 1.0
    social = construct_equilibrium(cfg, p, split)
    report = check_equilibrium(social, cfg, p)
    assert report.verdict
    assert report.se1_gap <= 1e-12
    assert report.se2_gap <= 1e-12


def test_constructed_mixed_population_passes_and_prices_correctly():
    cfg = two_zone_config()
    p = two_zone_params()
    split = np.zeros((NUM_STATES, 2))
    split[InfectionState.S, 0] = 0.4
    split[InfectionState.R] = [0.3, 0.3]
    social = construct_equilibrium(cfg, p, split)
    report = check_equilibrium(social, cfg, p)
    assert report.verdict
    # Occupied states earn their stationary activation value forever.
    kernel = transition_matrix(social, p)
    values = value_function(kernel, expected_reward(social.policy, cfg), p)
    assert values[InfectionState.S, 0] == pytest.approx((2 / 3) / 0.1, abs=1e-9)
    assert values[InfectionState.R, 0] == pytest.approx(1.0 / 0.1, abs=1e-9)
    assert values[InfectionState.R, 1] == pytest.approx(1.0 / 0.1, abs=1e-9)


def test_construct_rejects_transient_state_mass():
    cfg = two_zone_config()
    p = two_zone_params()
    for state in (InfectionState.A, InfectionState.I, InfectionState.U):
        split = np.zeros((NUM_STATES, 2))
        split[InfectionState.S, 0] = 0.9
        split[state, 0] = 0.1
        with pytest.raises(ValidationError, match="no mass"):
            construct_equilibrium(cfg, p, split)


def test_construct_rejects_mass_in_zones_worth_leaving():
    cfg = two_zone_config()
    p = two_zone_params()
    split = np.zeros((NUM_STATES, 2))
    split[InfectionState.S, 1] = 1.0
    with pytest.raises(ValidationError, match="worth leaving"):
        construct_equilibrium(cfg, p, split)


def test_constructed_symptomatic_row_stays_home_when_confined():
    cfg = two_zone_config()
    p = two_zone_params()
    split = np.zeros((NUM_STATES, 2))
    split[InfectionState.S, 0] = 1.0
    social = construct_equilibrium(cfg, p, split)
    for z in range(2):
        row = social.policy.class_rows[BehaviorClass.SYMPTOMATIC, z]
        assert row[flatten_action(0, z, 6, 2)] == 1.0


def test_constructed_symptomatic_rows_follow_the_forced_home_flag():
    cfg = two_zone_config()
    p = two_zone_params()
    split = np.zeros((NUM_STATES, 2))
    split[InfectionState.S, 0] = 1.0
    for confined in (True, False):
        social = construct_equilibrium(cfg, p, split, infected_forced_home=confined)
        for z in range(2):
            row = social.policy.class_rows[BehaviorClass.SYMPTOMATIC, z]
            used = {unflatten_action(int(j), 6, 2)[0] for j in np.flatnonzero(row)}
            dominant = set(dominant_activation(cfg, z, InfectionState.I))
            assert used == ({0} if confined else dominant), (confined, z)
        assert check_equilibrium(social, cfg, p, infected_forced_home=confined).verdict


def test_construct_spreads_uniformly_over_tied_optima():
    o = np.zeros(3)
    flat = RewardConfig(
        o, np.zeros((NUM_STATES, 1, 3)), migration_cost=0.5, illness_cost=0.0
    )
    p = make_params(num_zones=1, a_max=2)
    split = np.zeros((NUM_STATES, 1))
    split[InfectionState.R, 0] = 1.0
    social = construct_equilibrium(flat, p, split)
    row = social.policy.class_rows[BehaviorClass.RECOVERED, 0]
    assert row.min() == row.max()
    assert check_equilibrium(social, flat, p).verdict


# --- three-zone pricing ----------------------------------------------------------


def test_three_zone_partition_and_migration_pricing():
    cfg = three_zone_config()
    p = three_zone_params()
    cls = classify_zones(cfg, p)
    assert cls.best_zones[InfectionState.S] == (0,)
    assert cls.neutral_zones[InfectionState.S] == (1,)
    assert cls.leave_zones[InfectionState.S] == (2,)

    split = np.zeros((NUM_STATES, 3))
    split[InfectionState.S] = [0.3, 0.3, 0.0]
    split[InfectionState.R] = [0.1, 0.1, 0.2]
    social = construct_equilibrium(cfg, p, split)
    report = check_equilibrium(social, cfg, p)
    assert report.verdict

    kernel = transition_matrix(social, p)
    values = value_function(kernel, expected_reward(social.policy, cfg), p)
    q = q_function(social, values, cfg, p)

    # Migrating out of the worst zone is priced by the best zone's annuity.
    migrate = q[InfectionState.S, 2, flatten_action(0, 0, 2, 3)]
    best_value = 1.0
    own_value = 0.0
    expected_migrate = own_value - 0.6 + 0.5 * best_value / (1.0 - 0.5)
    assert migrate == pytest.approx(expected_migrate, abs=1e-9)

    # In the worst zone the migration deviation beats staying put...
    stay = q[InfectionState.S, 2, flatten_action(0, 2, 2, 3)]
    assert migrate > stay
    # ...while in the neutral zone staying is weakly better than moving.
    stay_neutral = q[InfectionState.S, 1, flatten_action(1, 1, 2, 3)]
    move_neutral = q[InfectionState.S, 1, flatten_action(1, 0, 2, 3)]
    assert stay_neutral >= move_neutral


# --- the checker on non-equilibria ---------------------------------------------------


def test_perturbed_distribution_breaks_stationarity_not_optimality():
    cfg = two_zone_config()
    p = two_zone_params()
    split = np.zeros((NUM_STATES, 2))
    split[InfectionState.S, 0] = 1.0
    social = construct_equilibrium(cfg, p, split)

    moved = np.zeros((NUM_STATES, 2))
    moved[InfectionState.S] = [0.99, 0.01]
    perturbed = SocialState(social.policy, StateDistribution(moved))
    report = check_equilibrium(perturbed, cfg, p)
    assert not report.verdict
    # The policy migrates out of the deserted zone, so the played action is
    # still optimal there; what fails is stationarity, by the moved mass.
    assert report.se1_gap == 0.0
    assert report.se2_gap == pytest.approx(0.01, abs=1e-12)


def test_uniform_policy_is_far_from_equilibrium():
    cfg = two_zone_config()
    p = two_zone_params()
    d = np.zeros((NUM_STATES, 2))
    d[InfectionState.S] = [0.6, 0.4]
    social = SocialState(uniform_no_move_policy(p), StateDistribution(d))
    report = check_equilibrium(social, cfg, p)
    assert not report.verdict
    assert report.se1_gap > 0.1
    assert report.gaps.shape == (NUM_STATES, 2)
    assert report.tol == 1e-8
    assert report.occupied[InfectionState.S, 0]
    assert not report.occupied[InfectionState.R, 0]
