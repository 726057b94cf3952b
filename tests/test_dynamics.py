"""Daily updates, full runs, summary metrics and wave detection."""

from dataclasses import replace

import json

import numpy as np
import pytest

from epigame import (
    InfectionState,
    NumericsError,
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
from epigame import Policy, decision, dynamics, epidemic
from epigame.rewards import immediate_reward
from epigame.dynamics import WAVE_PROMINENCE, StepRecord
from conftest import make_params, random_reward_config, random_social
from test_checks import random_day_inputs
from test_equilibrium import two_zone_config, two_zone_params
from test_scenarios import frozen_scenario


def plain_config(num_zones):
    return RewardConfig(
        benefit=linear_benefit(6),
        activation_cost=np.zeros((NUM_CLASSES, num_zones, 7)),
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


def composed_step(healthy_q, compose_target):
    """``step`` and the published pieces composed, on a random two-zone state.

    ``compose_target(social, values, q, cfg, p)`` builds the logit target.
    """
    p = make_params(num_zones=2, a_max=3)
    cfg = RewardConfig(
        benefit=linear_benefit(3),
        activation_cost=np.zeros((NUM_CLASSES, 2, 4)),
        migration_cost=2.0,
        illness_cost=10.0,
    )
    social = random_social(np.random.default_rng(40), p, forced_home=True)
    nxt = step(social, cfg, p, healthy_q=healthy_q)

    kernel = transition_matrix(social, p)
    values = value_function(kernel, expected_reward(social.policy, cfg), p)
    q = q_function(social, values, cfg, p)
    target = compose_target(social, values, q, cfg, p)
    expected_policy = policy_update(social.policy, target, p.inertia)
    assert np.array_equal(nxt.policy.class_rows, expected_policy.class_rows)
    assert np.array_equal(nxt.dist.d, kernel.propagate(social.dist))


def test_step_composes_the_published_pieces():
    # In belief mode the day core blends the healthy row before adding the
    # reward row that S, A and U share: lookahead_q of the class table,
    # not healthy_blend.
    def target(social, values, q, cfg, p):
        cq = decision.lookahead_q(
            epidemic.survival(social, p),
            values,
            cfg.table,
            epidemic.idle_law(p),
            p.alpha,
            decision.belief_weights(social.dist.d),
        )
        penalty = decision.action_penalty(decision.feasible_actions(p)[:, None, :])
        return Policy(decision.logit_rows(cq, penalty, p.rationality), p.a_max)

    composed_step("belief", target)


def test_step_composes_the_published_pieces_assuming_susceptible():
    def target(social, values, q, cfg, p):
        return logit_choice(q, social.dist.d, p, healthy_q="assume_susceptible")

    composed_step("assume_susceptible", target)


def test_step_is_a_fixed_point_at_a_constructed_equilibrium():
    cfg = two_zone_config()
    p = two_zone_params(rationality=1e6)
    split = np.zeros((NUM_STATES, 2))
    split[InfectionState.S, 0] = 1.0
    social = construct_equilibrium(cfg, p, split)
    nxt = step(social, cfg, p)
    assert np.max(np.abs(nxt.dist.d - social.dist.d)) < 1e-12
    assert np.max(np.abs(nxt.policy.class_rows - social.policy.class_rows)) < 1e-8


def seeded_scenario(seed, healthy_q, infected_forced_home, num_zones=3):
    rng = np.random.default_rng(seed)
    init = rng.random((NUM_STATES, num_zones)) + 0.01
    healthy = rng.integers(0, 4, num_zones)
    lockdown = np.array([healthy, rng.integers(0, healthy + 1), rng.integers(healthy, 4)])
    return frozen_scenario(
        params=make_params(
            num_zones=num_zones, a_max=3, rationality=float(rng.uniform(1.0, 30.0))
        ),
        lockdown_degrees=lockdown,
        initial_dist=init / init.sum(),
        horizon=15,
        healthy_q=healthy_q,
        infected_forced_home=infected_forced_home,
    )


@pytest.mark.parametrize(
    "scenario",
    [
        replace(preset("fig4_migration"), horizon=40),
        seeded_scenario(50, "belief", True),
        seeded_scenario(51, "belief", False),
        seeded_scenario(52, "assume_susceptible", True),
        seeded_scenario(53, "assume_susceptible", False),
    ],
    ids=["fig4", "belief-home", "belief-free", "susceptible-home", "susceptible-free"],
)
def test_simulate_is_chained_step(scenario):
    cfg, p = scenario.reward_config(), scenario.params
    records = simulate(scenario).trajectory.records
    assert len(records) == scenario.horizon + 1
    for before, after in zip(records, records[1:]):
        nxt = step(
            before.social,
            cfg,
            p,
            healthy_q=scenario.healthy_q,
            infected_forced_home=scenario.infected_forced_home,
        )
        assert np.array_equal(nxt.policy.class_rows, after.social.policy.class_rows)
        assert np.array_equal(nxt.dist.d, after.social.dist.d)


def test_simulate_builds_no_container_per_day(monkeypatch):
    scenarios = [replace(preset("fig2b"), horizon=horizon) for horizon in (5, 40)]
    built = []
    for container in (Policy, StateDistribution):
        post_init = container.__post_init__

        def counting(obj, post_init=post_init, name=container.__name__):
            built.append(name)
            post_init(obj)

        monkeypatch.setattr(container, "__post_init__", counting)
    counts = []
    for scenario in scenarios:
        built.clear()
        assert len(simulate(scenario).trajectory) == scenario.horizon + 1
        counts.append(sorted(built))
    assert counts[0] == counts[1]


def test_simulate_fires_the_value_residual_gate(monkeypatch):
    solve = np.linalg.solve
    # One scenario on each side of BLOCK_SOLVE_MIN_ZONES: the dense and the block solve.
    scenarios = (preset("fig4_migration"), seeded_scenario(56, "belief", True, num_zones=20))
    for scenario in scenarios:
        for corrupt in (lambda x: x * (1.0 + 1e-6), lambda x: x * np.nan):
            monkeypatch.setattr(np.linalg, "solve", lambda a, b: corrupt(solve(a, b)))
            with pytest.raises(NumericsError, match="residual"):
                simulate(scenario)


def test_simulate_fires_the_kernel_stochasticity_gate(monkeypatch):
    idle_law = epidemic.idle_law

    def leaky_law(p):
        law = idle_law(p)
        law[InfectionState.R, InfectionState.R] = 0.9  # recovered mass leaks away
        return law

    monkeypatch.setattr(epidemic, "idle_law", leaky_law)
    monkeypatch.setattr(decision, "idle_law", leaky_law)
    # One scenario on each side of BLOCK_SOLVE_MIN_ZONES: the dense matrix and its blocks.
    for scenario in (preset("fig4_migration"), seeded_scenario(58, "belief", True, num_zones=20)):
        with pytest.raises(NumericsError, match="stochasticity"):
            simulate(scenario)


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


def test_observed_flows_and_activation_match_loops_over_actions():
    """Over random checked social states, some rows pure and some entries zero.

    Flows are masses of at most 1; the activation is a degree of up to
    ``a_max``, so its bound scales with its size.
    """
    rng = np.random.default_rng(1300)
    for _ in range(200):
        a_max = int(rng.integers(0, 9))
        class_rows, d, degrees, _ = random_day_inputs(rng, a_max)
        zones = d.shape[1]
        p = make_params(num_zones=zones, a_max=a_max)
        social = SocialState(Policy(class_rows, a_max), StateDistribution(d))
        plan = decision.DayPlan(random_reward_config(rng, p), p)
        rows = plan.state_rewards(social.policy.class_rows)
        _, activation, flow, _ = dynamics._observe(social.dist.d, rows)
        state_rows = social.policy.state_rows()
        expected_flow = np.zeros((zones, zones))
        for s in range(NUM_STATES):
            for z in range(zones):
                for j in range(p.num_actions):
                    _, target = unflatten_action(j, a_max, zones)
                    expected_flow[z, target] += d[s, z] * state_rows[s, z, j]
        expected_activation = np.zeros((NUM_CLASSES, zones))
        for c in range(NUM_CLASSES):
            for z in range(zones):
                for j in range(p.num_actions):
                    a, _ = unflatten_action(j, a_max, zones)
                    expected_activation[c, z] += a * class_rows[c, z, j]
        assert np.max(np.abs(flow - expected_flow)) <= 1e-15
        scale = np.maximum(1.0, expected_activation)
        assert np.max(np.abs(activation - expected_activation) / scale) <= 1e-15


def test_step_and_checker_reject_a_reward_config_of_other_dimensions():
    social = preset("fig4_migration").initial_social()
    one_zone = preset("fig2a")
    with pytest.raises(ValidationError, match="reward table"):
        step(social, one_zone.reward_config(), make_params(num_zones=2))
    with pytest.raises(ValidationError, match="reward table"):
        check_equilibrium(social, one_zone.reward_config(), make_params(num_zones=2))
    one_zone_params = make_params(num_zones=1)
    with pytest.raises(ValidationError, match="policy num_zones=2 does not match parameters"):
        step(social, one_zone.reward_config(), one_zone_params)
    with pytest.raises(ValidationError, match="policy num_zones=2 does not match parameters"):
        check_equilibrium(social, one_zone.reward_config(), one_zone_params)


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
    for bad in (-1, 2, True, 0.5):
        for call in (lambda: traj.infected(bad), lambda: traj.mean_activation(0, bad),
                     lambda: traj.net_flow(bad, 0), lambda: traj.net_flow(0, bad)):
            with pytest.raises(ValidationError):
                call()
    for bad in (-1, 3, True, 0.5):
        with pytest.raises(ValidationError):
            traj.mean_activation(bad, 0)


def held_array_shapes(obj, seen=None):
    """Shapes of every array reachable through object attributes, tuples and lists."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj.shape]
    if isinstance(obj, (tuple, list)):
        children = obj
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        children = list(vars(obj).values())
    else:
        return []
    return [shape for child in children for shape in held_array_shapes(child, seen)]


def test_a_run_keeps_columns_only_until_its_records_are_read():
    scenario = seeded_scenario(55, "belief", True)
    p = scenario.params
    policy_shape = (NUM_CLASSES, p.num_zones, p.num_actions)
    fixed = held_array_shapes(scenario).count(policy_shape)  # the class reward table
    result = simulate(scenario)
    assert held_array_shapes(result).count(policy_shape) == fixed
    traj = result.trajectory
    assert len(traj.records) == len(traj) == scenario.horizon + 1
    assert traj.final() is traj.records[-1]
    assert held_array_shapes(result).count(policy_shape) > fixed


@pytest.mark.parametrize(
    "scenario",
    [
        *(replace(preset(name), horizon=40)
          for name in ("fig2a", "fig2b", "fig2c", "fig4_migration")),
        seeded_scenario(54, "belief", True),
    ],
    ids=["fig2a", "fig2b", "fig2c", "fig4", "three-zone"],
)
def test_replayed_records_match_the_run_columns(scenario):
    traj = simulate(scenario).trajectory
    plan = decision.DayPlan(scenario.reward_config(), scenario.params,
                   scenario.healthy_q, scenario.infected_forced_home)
    for day, rec in enumerate(traj.records):
        assert rec.day == day
        assert np.array_equal(rec.social.dist.d, traj.dist[day])
        assert np.array_equal(rec.social.policy.class_rows @ plan.degrees, traj.activation[day])
        rewards = plan.state_rewards(rec.social.policy.class_rows).rewards
        assert float(np.sum(rec.social.dist.d * rewards)) == traj.daily_welfare[day]


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
    for prominence in (float("nan"), float("inf"), "x"):
        with pytest.raises(ValidationError, match="prominence"):
            infection_waves([0, 1, 0, 1, 0], prominence)
    with pytest.raises(ValidationError):
        infection_waves([])
    with pytest.raises(ValidationError):
        infection_waves(np.zeros((3, 2)))


def waves_on_numpy_scalars(series, prominence):
    """The wave rule as first written, indexing numpy scalars: the oracle below."""
    x = np.asarray(series, dtype=float)
    maxima = []
    i, n = 0, x.size
    while i < n:
        j = i
        while j + 1 < n and x[j + 1] == x[i]:
            j += 1
        left = x[i - 1] if i > 0 else -np.inf
        right = x[j + 1] if j + 1 < n else -np.inf
        if x[i] > left and x[i] > right:
            maxima.append(i)
        i = j + 1
    qualifying = set()
    for a in range(len(maxima)):
        for b in range(a + 1, len(maxima)):
            t1, t2 = maxima[a], maxima[b]
            trough = float(x[t1 + 1 : t2].min())
            if x[t1] - trough >= prominence and x[t2] - trough >= prominence:
                qualifying.update((t1, t2))
    days = tuple(sorted(qualifying))
    return len(days) >= 2, days


def test_wave_detection_matches_the_numpy_scalar_rule():
    rng = np.random.default_rng(7)
    specials = [np.nan, np.inf, -np.inf]
    for trial in range(300):
        # Few levels, so plateaus and equal peaks are common.
        series = rng.integers(0, 6, size=int(rng.integers(1, 40))) / 100.0
        if trial % 5 == 0:
            series[rng.integers(0, series.size)] = specials[trial % 3]
        for prominence in (0.005, 0.01, 0.03):
            expected = waves_on_numpy_scalars(series, prominence)
            assert infection_waves(series, prominence) == expected, (series, prominence)
            assert infection_waves(list(series), prominence) == expected


def test_zone_wave_lookup_validates_the_zone():
    result = simulate(replace(preset("fig2a"), horizon=10))
    with pytest.raises(ValidationError):
        detect_second_wave(result.trajectory, 1)
    for bad in (-1, True, 0.5, None):
        with pytest.raises(ValidationError):
            detect_second_wave(result.trajectory, bad)
    flag, _ = detect_second_wave(result.trajectory, 0, prominence=WAVE_PROMINENCE)
    assert flag in (False, True)
