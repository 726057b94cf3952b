"""Benefit schedules, lockdown fines and the immediate reward table."""

import numpy as np
import pytest

from epigame import (
    InfectionState,
    Policy,
    RewardConfig,
    ValidationError,
    expected_reward,
    preset,
    immediate_reward,
    linear_benefit,
    lockdown_cost,
    uniform_no_move_policy,
)
from epigame.core import CLASS_OF_STATE, NUM_CLASSES, NUM_STATES, BehaviorClass, unflatten_action
from conftest import make_params, random_reward_config, random_social


def state_table(cfg):
    """The per-state reward table (5, Z, J): each state's class row."""
    return cfg.table.take(CLASS_OF_STATE, axis=0)


def zero_cost_config(num_zones=1, a_max=6):
    return RewardConfig(
        benefit=linear_benefit(a_max),
        activation_cost=np.zeros((NUM_CLASSES, num_zones, a_max + 1)),
        migration_cost=2.0,
        illness_cost=10.0,
    )


# --- benefit schedule --------------------------------------------------------


def test_linear_benefit_frozen():
    o = linear_benefit(6)
    assert o[0] == 0.0
    assert o[2] == 1 / 3
    assert o[3] == 0.5
    assert o[6] == 1.0
    assert np.all(np.diff(o) > 0.0)


def test_linear_benefit_rejects_degenerate_degree():
    with pytest.raises(ValidationError):
        linear_benefit(0)
    with pytest.raises(ValidationError):
        linear_benefit(-2)
    for coerced in (2.5, True):
        with pytest.raises(ValidationError, match="a_max"):
            linear_benefit(coerced)


# --- lockdown fines -------------------------------------------------------------


def test_lockdown_fine_frozen_values():
    cost = lockdown_cost(np.array([[2], [0], [6]]), linear_benefit(6), multiplier=3.0)
    assert cost.shape == (3, 1, 7)  # one row per behavior class
    healthy = cost[BehaviorClass.HEALTHY, 0]
    assert healthy.tolist() == [0.0, 0.0, 0.0, 1.5, 2.0, 2.5, 3.0]
    sympt = cost[BehaviorClass.SYMPTOMATIC, 0]
    assert sympt[0] == 0.0
    assert sympt[1] == pytest.approx(0.5)
    assert sympt[6] == pytest.approx(3.0)
    assert cost[BehaviorClass.RECOVERED, 0].tolist() == [0.0] * 7


def test_lockdown_exempt_when_allowed_max_degree():
    cost = lockdown_cost(np.full((3, 2), 6), linear_benefit(6))
    assert np.all(cost == 0.0)


def test_lockdown_overshoot_never_pays():
    o = linear_benefit(6)
    cost = lockdown_cost(np.array([[4, 2], [4, 2], [6, 6]]), o, multiplier=3.0)
    net = o[None, None, :] - cost  # (3, Z, 7)
    allowed = np.array([[4, 2], [4, 2], [6, 6]])
    for cls in range(NUM_CLASSES):
        for z in range(2):
            assert net[cls, z].argmax() <= allowed[cls, z]


def test_lockdown_rejects_inverted_class_order():
    o = linear_benefit(6)
    with pytest.raises(ValidationError):
        lockdown_cost(np.array([[2], [3], [6]]), o)  # symptomatic above healthy
    with pytest.raises(ValidationError):
        lockdown_cost(np.array([[3], [1], [2]]), o)  # recovered below healthy


def test_lockdown_rejects_bad_degrees_and_multiplier():
    o = linear_benefit(6)
    with pytest.raises(ValidationError):
        lockdown_cost(np.array([[7], [0], [7]]), o)
    with pytest.raises(ValidationError):
        lockdown_cost(np.array([[-1], [-1], [0]]), o)
    with pytest.raises(ValidationError):
        lockdown_cost(np.array([[1.5], [0.0], [2.0]]), o)
    with pytest.raises(ValidationError):
        lockdown_cost(np.array([[2], [0]]), o)  # one class row missing
    with pytest.raises(ValidationError):
        lockdown_cost(np.array([[2], [0], [6]]), o, multiplier=0.0)
    with pytest.raises(ValidationError, match="lockdown_degrees entries must be numbers; got bool"):
        lockdown_cost([[True]] * 3, [0, 1, 2])
    with pytest.raises(ValidationError, match="lockdown_degrees entries must be numbers; got str"):
        lockdown_cost([["2"], ["0"], ["6"]], o)
    with pytest.raises(ValidationError, match="benefit entries must be numbers; got str"):
        lockdown_cost(np.array([[2], [0], [2]]), ["0", "0.5", "1"])
    # The benefit passes the RewardConfig benefit rule, whatever its shape.
    ld = np.array([[1], [0], [1]])
    for benefit in ([[0.0, 1.0]], 1.0, []):
        with pytest.raises(ValidationError, match="benefit must be a nonempty vector"):
            lockdown_cost(ld, benefit)
    with pytest.raises(ValidationError, match="benefit at degree 0 must be 0"):
        lockdown_cost(ld, [0.5, 1.0])
    with pytest.raises(ValidationError, match="benefit must be nondecreasing"):
        lockdown_cost(ld, [0.0, 1.0, 0.5])
    with pytest.raises(ValidationError, match="benefit entries must be finite and nonnegative"):
        lockdown_cost(ld, [0.0, float("nan")])


@pytest.mark.parametrize("multiplier", [float("nan"), float("inf"), -float("inf"), True, "x"])
def test_lockdown_rejects_non_real_multiplier(multiplier):
    with pytest.raises(ValidationError, match="lockdown_multiplier must be a finite positive"):
        lockdown_cost(np.array([[2], [0], [6]]), linear_benefit(6), multiplier)


# --- reward config invariants ------------------------------------------------------


def test_reward_config_rejects_bad_benefit():
    cost = np.zeros((NUM_CLASSES, 1, 3))
    with pytest.raises(ValidationError):
        RewardConfig(np.array([0.1, 0.5, 1.0]), cost, 0.0, 0.0)
    with pytest.raises(ValidationError):
        RewardConfig(np.array([0.0, 0.6, 0.5]), cost, 0.0, 0.0)
    with pytest.raises(ValidationError):
        RewardConfig(np.array([0.0, -0.1, 0.5]), cost, 0.0, 0.0)
    with pytest.raises(ValidationError, match="benefit entries must be numbers; got bool"):
        RewardConfig([False, True, True], cost, 0.0, 0.0)
    with pytest.raises(ValidationError, match="benefit entries must be numbers; got str"):
        RewardConfig(["x", 0.5, 1.0], cost, 0.0, 0.0)


def test_reward_config_rejects_bad_costs():
    o = np.array([0.0, 0.5, 1.0])
    decreasing = np.zeros((NUM_CLASSES, 1, 3))
    decreasing[:, 0] = [0.5, 0.4, 0.6]
    with pytest.raises(ValidationError):
        RewardConfig(o, decreasing, 0.0, 0.0)

    # One row per behavior class: a per-state table is rejected by its shape.
    with pytest.raises(ValidationError, match=r"shape \(3, Z, 3\); got \(5, 1, 3\)"):
        RewardConfig(o, np.zeros((NUM_STATES, 1, 3)), 0.0, 0.0)

    cheap_illness = np.zeros((NUM_CLASSES, 1, 3))
    cheap_illness[BehaviorClass.HEALTHY, 0] = [0.0, 0.2, 0.4]
    cheap_illness[BehaviorClass.SYMPTOMATIC, 0] = [0.0, 0.1, 0.2]
    with pytest.raises(ValidationError):
        RewardConfig(o, cheap_illness, 0.0, 0.0)

    with pytest.raises(ValidationError, match="activation_cost entries must be numbers; got bool"):
        RewardConfig(o, np.zeros((NUM_CLASSES, 1, 3), dtype=bool), 0.0, 0.0)
    with pytest.raises(ValidationError, match="activation_cost entries must be numbers; got str"):
        RewardConfig(o, np.full((NUM_CLASSES, 1, 3), "0"), 0.0, 0.0)

    costly_recovery = np.zeros((NUM_CLASSES, 1, 3))
    costly_recovery[BehaviorClass.RECOVERED, 0] = [0.0, 0.1, 0.2]
    with pytest.raises(ValidationError):
        RewardConfig(o, costly_recovery, 0.0, 0.0)

    negative = np.zeros((NUM_CLASSES, 1, 3))
    negative[:, 0, 0] = -0.1
    with pytest.raises(ValidationError):
        RewardConfig(o, negative, 0.0, 0.0)

    with pytest.raises(ValidationError):
        RewardConfig(o, np.zeros((NUM_CLASSES, 1, 4)), 0.0, 0.0)
    with pytest.raises(ValidationError):
        RewardConfig(o, np.zeros((NUM_CLASSES, 1, 3)), -1.0, 0.0)
    with pytest.raises(ValidationError):
        RewardConfig(o, np.zeros((NUM_CLASSES, 1, 3)), 0.0, -1.0)


@pytest.mark.parametrize("name", ["migration_cost", "illness_cost"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), "1.0", True])
def test_reward_config_rejects_non_real_scalar_costs(name, value):
    costs = {"migration_cost": 0.0, "illness_cost": 0.0, name: value}
    with pytest.raises(ValidationError, match=name):
        RewardConfig(linear_benefit(2), np.zeros((NUM_CLASSES, 1, 3)), **costs)


def test_reward_config_random_instances_accepted():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = make_params(num_zones=int(rng.integers(1, 4)), a_max=int(rng.integers(1, 6)))
        cfg = random_reward_config(rng, p)
        assert cfg.num_zones == p.num_zones
        assert cfg.a_max == p.a_max


# --- immediate rewards ----------------------------------------------------------


def test_immediate_reward_frozen_cases():
    cfg = zero_cost_config(num_zones=2)
    assert immediate_reward(InfectionState.R, 0, 6, 0, cfg) == 1.0
    assert immediate_reward(InfectionState.I, 0, 0, 0, cfg) == -10.0
    assert immediate_reward(InfectionState.S, 0, 0, 1, cfg) == -2.0
    assert immediate_reward(InfectionState.I, 1, 6, 0, cfg) == -11.0
    assert immediate_reward(InfectionState.S, 1, 2, 1, cfg) == 1 / 3


def test_immediate_reward_rejects_bad_indices():
    cfg = zero_cost_config(num_zones=2)
    with pytest.raises(ValidationError):
        immediate_reward(InfectionState.S, 0, 7, 0, cfg)
    with pytest.raises(ValidationError):
        immediate_reward(InfectionState.S, 2, 0, 0, cfg)
    with pytest.raises(ValidationError):
        immediate_reward(InfectionState.S, 0, 0, 2, cfg)
    for bad in (-1, True, 0.5):
        for args in ((bad, 0, 0, 0), (0, bad, 0, 0), (0, 0, bad, 0), (0, 0, 0, bad)):
            with pytest.raises(ValidationError):
                immediate_reward(*args, cfg)
    with pytest.raises(ValidationError):
        immediate_reward(5, 0, 0, 0, cfg)


def test_reward_table_matches_scalar_rewards():
    rng = np.random.default_rng(13)
    p = make_params(num_zones=2, a_max=3)
    cfg = random_reward_config(rng, p)
    table = cfg.table
    assert table.shape == (NUM_CLASSES, 2, p.num_actions)
    for s in range(NUM_STATES):  # every state reads its class's row
        for z in range(2):
            for j in range(p.num_actions):
                a, target = unflatten_action(j, p.a_max, 2)
                assert table[CLASS_OF_STATE[s], z, j] == pytest.approx(
                    immediate_reward(s, z, a, target, cfg), abs=1e-12
                )


def test_illness_cost_only_hits_symptomatic_rows():
    cfg = zero_cost_config(num_zones=2)
    table = cfg.table
    healthy = table[BehaviorClass.HEALTHY]
    assert np.array_equal(table[BehaviorClass.SYMPTOMATIC], healthy - 10.0)
    assert np.array_equal(table[BehaviorClass.RECOVERED], healthy)


# --- policy-averaged rewards --------------------------------------------------------


def test_expected_reward_one_hot_policy_is_exact():
    rng = np.random.default_rng(14)
    p = make_params(num_zones=2, a_max=4)
    cfg = random_reward_config(rng, p)
    rows = np.zeros((3, 2, p.num_actions))
    picks = {}
    for cls in range(3):
        for z in range(2):
            j = int(rng.integers(p.num_actions))
            rows[cls, z, j] = 1.0
            picks[cls, z] = unflatten_action(j, p.a_max, 2)
    policy = Policy(rows, p.a_max)
    values = expected_reward(policy, cfg)
    for s in range(NUM_STATES):
        for z in range(2):
            a, target = picks[int(CLASS_OF_STATE[s]), z]
            assert values[s, z] == pytest.approx(immediate_reward(s, z, a, target, cfg))


def test_expected_reward_uniform_stay_home_frozen():
    p = make_params(num_zones=1, a_max=6)
    cfg = zero_cost_config(num_zones=1)
    values = expected_reward(uniform_no_move_policy(p), cfg)
    assert values[InfectionState.S, 0] == pytest.approx(0.5)
    assert values[InfectionState.I, 0] == pytest.approx(-9.5)
    assert values[InfectionState.R, 0] == pytest.approx(0.5)


def test_class_rewards_have_the_per_state_contractions_bits():
    """Contracted per class, each state's reward keeps the per-state contraction's bits.

    The per-state contraction runs on the class table expanded to the states.
    """
    rng = np.random.default_rng(80)
    for name in ("fig2a", "fig4_migration"):
        cfg = preset(name).reward_config()
        p = preset(name).params
        assert cfg.table.flags.c_contiguous
        for _ in range(20):
            policy = random_social(rng, p).policy
            per_state = np.einsum("szj,szj->sz", policy.state_rows(), state_table(cfg))
            assert np.array_equal(expected_reward(policy, cfg), per_state)
    for _ in range(200):
        p = make_params(num_zones=int(rng.integers(1, 5)), a_max=int(rng.integers(0, 7)))
        cfg = random_reward_config(rng, p)
        policy = random_social(rng, p).policy
        per_state = np.einsum("szj,szj->sz", policy.state_rows(), state_table(cfg))
        assert np.array_equal(expected_reward(policy, cfg), per_state)


def test_expected_reward_rejects_dimension_mismatch():
    p = make_params(num_zones=1, a_max=3)
    cfg = zero_cost_config(num_zones=1, a_max=6)
    with pytest.raises(ValidationError):
        expected_reward(uniform_no_move_policy(p), cfg)
