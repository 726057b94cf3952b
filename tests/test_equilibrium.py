"""Zone classification, equilibrium construction and the two-gap checker."""

import math

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
from epigame.core import (
    CLASS_OF_STATE,
    NUM_CLASSES,
    NUM_STATES,
    BehaviorClass,
    Policy,
    flatten_action,
    unflatten_action,
)
from epigame.decision import BLOCK_SOLVE_MIN_ZONES, DayPlan, feasible_actions, lookahead_q, tied
from conftest import make_params, random_reward_config, random_social


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
    cost = np.zeros((NUM_CLASSES, 2, 2))
    cost[:, 1, 1] = 1e-12  # zone 1 is worse by far less than the tie tolerance
    cost[BehaviorClass.RECOVERED] = 0.0
    # Free migration makes any shortfall worth leaving, but not a tied zone's.
    for migration_cost in (1.0, 0.0):
        cfg = RewardConfig(o, cost, migration_cost=migration_cost, illness_cost=0.0)
        cls = classify_zones(cfg, make_params(num_zones=2, a_max=1))
        assert cls.best_zones[InfectionState.S] == (0, 1)
        assert cls.leave_zones[InfectionState.S] == ()


def test_dominant_activation_degrees():
    cfg = two_zone_config()
    assert dominant_activation(cfg, 0) == (6,)
    assert dominant_activation(cfg, 0, InfectionState.S) == (4,)
    assert dominant_activation(cfg, 1, InfectionState.S) == (2,)
    flat = RewardConfig(
        np.zeros(3), np.zeros((NUM_CLASSES, 1, 3)), migration_cost=0.0, illness_cost=0.0
    )
    assert dominant_activation(flat, 0) == (0, 1, 2)
    with pytest.raises(ValidationError):
        dominant_activation(cfg, 2)
    for bad in (-1, True, 0.5):
        with pytest.raises(ValidationError):
            dominant_activation(cfg, bad)
        with pytest.raises(ValidationError):
            dominant_activation(cfg, 0, bad)
    with pytest.raises(ValidationError):
        dominant_activation(cfg, 0, 5)


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


def test_construct_rejects_split_entries_that_are_not_numbers():
    cfg = two_zone_config()
    p = two_zone_params()
    split = np.zeros((NUM_STATES, 2)).tolist()
    split[InfectionState.S][0] = True
    with pytest.raises(ValidationError, match="mass split entries must be numbers; got bool"):
        construct_equilibrium(cfg, p, split)
    split[InfectionState.S][0] = "1.0"
    with pytest.raises(ValidationError, match="mass split entries must be numbers; got str"):
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
        o, np.zeros((NUM_CLASSES, 1, 3)), migration_cost=0.5, illness_cost=0.0
    )
    p = make_params(num_zones=1, a_max=2)
    split = np.zeros((NUM_STATES, 1))
    split[InfectionState.R, 0] = 1.0
    social = construct_equilibrium(flat, p, split)
    row = social.policy.class_rows[BehaviorClass.RECOVERED, 0]
    assert row.min() == row.max()
    assert check_equilibrium(social, flat, p).verdict


def test_constructed_equilibria_pass_both_checks_at_many_zones():
    # From BLOCK_SOLVE_MIN_ZONES zones up the checker's plan is structured:
    # it solves the values and propagates the mass on the kernel's blocks.
    rng = np.random.default_rng(2041)
    for num_zones in (20, 40):
        assert num_zones >= BLOCK_SOLVE_MIN_ZONES
        p = make_params(num_zones=num_zones, a_max=6, alpha=0.8)
        cfg = random_reward_config(rng, p)
        leave = classify_zones(cfg, p).leave_zones
        assert 0 < len(leave[InfectionState.S]) < num_zones - 1  # some migrate, some stay
        split = np.zeros((NUM_STATES, num_zones))
        for s in (InfectionState.S, InfectionState.R):
            split[s] = rng.uniform(0.1, 1.0, num_zones)
            split[s, list(leave[s])] = 0.0
        split /= split.sum()
        for confined in (True, False):
            social = construct_equilibrium(cfg, p, split, infected_forced_home=confined)
            report = check_equilibrium(social, cfg, p, infected_forced_home=confined)
            assert report.verdict, (num_zones, confined)
            assert report.se1_gap <= 1e-8
            assert report.se2_gap <= 1e-8


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


# --- the loop construction as the oracle of the mask construction --------------------


def oracle_partition(net, alpha, migration_cost):
    """Zone by zone: optima of one row's (Z, a_max+1) activation rewards and its partition."""
    values = net.max(axis=1)
    degrees = tuple(tuple(int(a) for a in np.flatnonzero(row)) for row in tied(net))
    best = float(values.max())
    best_zones = tuple(int(z) for z in np.flatnonzero(tied(values)))
    threshold = math.inf if alpha == 0.0 else (1.0 - alpha) / alpha * migration_cost
    leave = tuple(
        int(z)
        for z in range(values.size)
        if z not in best_zones and best - values[z] > threshold
    )
    neutral = tuple(z for z in range(values.size) if z not in best_zones and z not in leave)
    return values, degrees, best, best_zones, leave, neutral


def oracle_classification(cfg, p):
    """The fields of ``classify_zones``, one state row at a time."""
    net = cfg.benefit[None, None, :] - cfg.activation_cost[CLASS_OF_STATE]
    values, degrees, best, best_zones, leave, neutral = zip(
        *(oracle_partition(net[s], p.alpha, cfg.migration_cost) for s in range(NUM_STATES))
    )
    return np.array(values), degrees, np.array(best), best_zones, leave, neutral


def oracle_construction(cfg, p, split, infected_forced_home):
    """``construct_equilibrium`` by a loop over classes, zones and policy entries."""
    degree_mask = feasible_actions(p, infected_forced_home)[:, : p.a_max + 1]
    class_degrees, class_best_zones, class_leave = [], [], []
    for cls in BehaviorClass:
        net = np.where(degree_mask[cls], cfg.benefit[None, :] - cfg.activation_cost[cls], -np.inf)
        _, degrees, _, best_zones, leave, _ = oracle_partition(net, p.alpha, cfg.migration_cost)
        class_degrees.append(degrees)
        class_best_zones.append(best_zones)
        class_leave.append(leave)
    for s in (InfectionState.A, InfectionState.I, InfectionState.U):
        if np.any(split[s] != 0.0):
            z = int(np.flatnonzero(split[s])[0])
            raise ValidationError(
                f"stationary equilibria carry no mass on state {s.name}: "
                f"condition d[{s.name}, z] = 0 violated in zone {z}"
            )
    healthy, recovered = BehaviorClass.HEALTHY, BehaviorClass.RECOVERED
    for s, cls in ((InfectionState.S, healthy), (InfectionState.R, recovered)):
        for z in class_leave[cls]:
            if split[s, z] != 0.0:
                raise ValidationError(
                    f"condition 'd[{s.name}, z] = 0 for zones worth leaving' violated: "
                    f"zone {z} has mass {split[s, z]} but its activation shortfall "
                    f"exceeds the discounted migration cost"
                )
    rows = np.zeros((NUM_CLASSES, p.num_zones, p.num_actions))
    for cls in BehaviorClass:
        for z in range(p.num_zones):
            degrees = class_degrees[cls][z]
            targets = class_best_zones[cls] if z in class_leave[cls] else (z,)
            share = 1.0 / (len(degrees) * len(targets))
            for a in degrees:
                for t in targets:
                    rows[cls, z, flatten_action(a, t, p.a_max, p.num_zones)] = share
    return SocialState(Policy(rows, p.a_max), StateDistribution(split))


def oracle_gaps(social, cfg, p, infected_forced_home):
    """The checker's deviation gains (5, Z), blocking infeasible unplayed actions by np.where."""
    plan = DayPlan(cfg, p, infected_forced_home=infected_forced_home)
    _, stay, values = plan.terms(plan.state_rewards(social.policy.class_rows), social.dist.d)
    q = lookahead_q(stay, values, cfg.table.take(CLASS_OF_STATE, axis=0), plan.law, p.alpha)
    states = social.policy.class_rows.take(CLASS_OF_STATE, axis=0)
    averaged = np.einsum("szj,szj->sz", states, q)
    allowed = (plan.penalty == 0.0)[CLASS_OF_STATE] | (states > 0.0)
    return np.where(allowed, q, -np.inf).max(axis=2) - averaged


def integer_grid_config(rng, num_zones, a_max):
    """Rewards and migration cost on an integer grid, so degrees and zones tie often."""
    width = a_max + 1
    benefit = np.concatenate([[0.0], np.cumsum(rng.integers(0, 3, a_max))])
    healthy = np.cumsum(rng.integers(0, 3, (num_zones, width)), axis=1)
    cost = np.empty((NUM_CLASSES, num_zones, width))
    cost[BehaviorClass.HEALTHY] = healthy
    extra = np.cumsum(rng.integers(0, 2, (num_zones, width)), axis=1)
    cost[BehaviorClass.SYMPTOMATIC] = healthy + extra
    cost[BehaviorClass.RECOVERED] = healthy * rng.integers(0, 2, (num_zones, 1))
    return RewardConfig(
        benefit,
        cost,
        migration_cost=float(rng.integers(0, 4)),
        illness_cost=float(rng.integers(0, 5)),
    )


def test_mask_construction_matches_the_loop_oracle():
    rng = np.random.default_rng(2525)
    checked = constructed = rejected = 0
    for num_zones in (1, 2, 3, 10, 40):
        for a_max in (0, 1, 6):
            for draw in range(16):
                alpha = (0.0, 0.5, float(rng.uniform(0.05, 0.99)))[draw % 3]
                cfg = integer_grid_config(rng, num_zones, a_max)
                p = make_params(
                    num_zones=num_zones, a_max=a_max, alpha=alpha, migration_cost=cfg.migration_cost
                )
                expected = oracle_classification(cfg, p)
                got = classify_zones(cfg, p)
                assert got.activation_value.tobytes() == expected[0].tobytes()
                assert got.best_degrees == expected[1]
                assert got.best_value.tobytes() == expected[2].tobytes()
                assert (got.best_zones, got.leave_zones, got.neutral_zones) == expected[3:]

                for confined in (True, False):
                    split = np.zeros((NUM_STATES, num_zones))
                    for s in (InfectionState.S, InfectionState.R):
                        split[s] = rng.integers(0, 3, num_zones)
                        if rng.random() < 0.8:  # mostly away from the zones worth leaving
                            split[s, list(expected[4][s])] = 0.0
                    if rng.random() < 0.1:
                        split[rng.choice([InfectionState.A, InfectionState.I, InfectionState.U]),
                              rng.integers(num_zones)] = 1.0
                    if split.sum() == 0.0:
                        split[InfectionState.R, 0] = 1.0
                    split /= split.sum()
                    try:
                        expected_state = oracle_construction(cfg, p, split, confined)
                    except ValidationError as exc:
                        with pytest.raises(ValidationError) as raised:
                            construct_equilibrium(cfg, p, split, infected_forced_home=confined)
                        assert str(raised.value) == str(exc)
                        rejected += 1
                        continue
                    social = construct_equilibrium(cfg, p, split, infected_forced_home=confined)
                    rows, d = social.policy.class_rows, social.dist.d
                    assert rows.tobytes() == expected_state.policy.class_rows.tobytes()
                    assert d.tobytes() == expected_state.dist.d.tobytes()
                    report = check_equilibrium(social, cfg, p, infected_forced_home=confined)
                    assert report.gaps.tobytes() == oracle_gaps(social, cfg, p, confined).tobytes()
                    constructed += 1
                # The checker's gaps off equilibrium too, on a random confined policy.
                noisy = random_social(rng, p, forced_home=True)
                report = check_equilibrium(noisy, cfg, p, infected_forced_home=True)
                assert report.gaps.tobytes() == oracle_gaps(noisy, cfg, p, True).tobytes()
                checked += 1
    assert checked == 240
    assert constructed > 300 and rejected > 30, (constructed, rejected)


def test_construct_names_the_first_offending_zone():
    # Zone 0 is best for the healthy class; zones 1-3 are worth leaving at
    # alpha 0.5 and migration cost 0.1 (all four are tied for the recovered).
    o = np.array([0.0, 1.0])
    cost = np.zeros((NUM_CLASSES, 4, 2))
    cost[BehaviorClass.HEALTHY, 1:, 1] = 3.0
    cost[BehaviorClass.SYMPTOMATIC, 1:, 1] = 3.0
    cfg = RewardConfig(o, cost, migration_cost=0.1, illness_cost=0.0)
    p = make_params(num_zones=4, a_max=1, alpha=0.5, migration_cost=0.1)
    assert classify_zones(cfg, p).leave_zones[InfectionState.S] == (1, 2, 3)

    def message(cells):
        split = np.zeros((NUM_STATES, 4))
        for s, z in cells:
            split[s, z] = 1.0
        split /= split.sum()
        with pytest.raises(ValidationError) as raised:
            construct_equilibrium(cfg, p, split)
        with pytest.raises(ValidationError) as oracle:
            oracle_construction(cfg, p, split, True)
        assert str(raised.value) == str(oracle.value)
        return str(raised.value)

    S, A, U = InfectionState.S, InfectionState.A, InfectionState.U
    assert "worth leaving' violated: zone 2 has mass 0.5 " in message([(S, 3), (S, 2)])
    assert "zone 1 has mass 0.25 " in message([(S, 0), (S, 3), (S, 1), (S, 2)])
    assert "on state A: condition d[A, z] = 0 violated in zone 1" in message([(A, 3), (A, 1)])
    # A, I, U mass is named before S mass in leave zones, A before U.
    assert "violated in zone 2" in message([(S, 1), (U, 3), (A, 2)])
