"""Value solve, deviation values, best responses and the logit update."""

from dataclasses import replace

import numpy as np
import pytest

from epigame import (
    InfectionState,
    NumericsError,
    Policy,
    SocialState,
    StateDistribution,
    TransitionKernel,
    ValidationError,
    best_response,
    check_equilibrium,
    construct_equilibrium,
    expected_reward,
    feasible_actions,
    immediate_reward,
    logit_choice,
    policy_update,
    preset,
    q_function,
    simulate,
    state_transition,
    step,
    sweep,
    transition_matrix,
    uniform_no_move_policy,
    value_function,
)
from epigame.core import (
    CLASS_OF_STATE,
    NUM_STATES,
    BehaviorClass,
    action_degrees,
    flatten_action,
    flatten_state_table,
    policy_rows,
    unflatten_action,
)
from epigame import decision, epidemic
from epigame.decision import TIE_TOL, DayPlan, check_healthy_q, healthy_blend
from conftest import make_params, random_reward_config, random_social

from test_dynamics import seeded_scenario
from test_rewards import state_table, zero_cost_config


def solved_value(social, cfg, p):
    kernel = transition_matrix(social, p)
    return kernel, value_function(kernel, expected_reward(social.policy, cfg), p)


# --- value function ----------------------------------------------------------


def test_value_equals_reward_when_myopic():
    rng = np.random.default_rng(20)
    p = make_params(alpha=0.0, num_zones=2, a_max=3)
    cfg = random_reward_config(rng, p)
    social = random_social(rng, p)
    _, values = solved_value(social, cfg, p)
    assert values == pytest.approx(expected_reward(social.policy, cfg), abs=1e-13)


def test_value_of_absorbing_state_is_geometric_sum():
    p = make_params(num_zones=1, a_max=6, alpha=0.9)
    cfg = zero_cost_config(num_zones=1)
    social = SocialState(uniform_no_move_policy(p), StateDistribution(np.full((5, 1), 0.2)))
    _, values = solved_value(social, cfg, p)
    assert values[InfectionState.R, 0] == pytest.approx(0.5 / (1.0 - 0.9), abs=1e-9)


def test_value_matches_fixed_point_iteration():
    rng = np.random.default_rng(21)
    for _ in range(3):
        p = make_params(num_zones=int(rng.integers(1, 4)), a_max=3, alpha=0.9)
        cfg = random_reward_config(rng, p)
        social = random_social(rng, p)
        kernel, values = solved_value(social, cfg, p)
        r = flatten_state_table(expected_reward(social.policy, cfg))
        v = np.zeros_like(r)
        for _ in range(500):
            v = r + p.alpha * kernel.matrix @ v
        assert np.max(np.abs(flatten_state_table(values) - v)) < 1e-9


@pytest.mark.parametrize(
    "overrides, horizon",
    [({"illness_cost": 1e7}, 2000), ({"alpha": 0.999999999}, 50)],
)
def test_value_gate_scales_with_the_rewards(overrides, horizon):
    # An absolute 1e-10 gate rejected both runs on their first day
    # (residuals 2.7e-10 and 2.1e-9).
    grid = [(f"params.{name}", [value]) for name, value in overrides.items()]
    (cfg,) = sweep(grid, replace(preset("fig4_migration"), horizon=horizon))
    assert len(simulate(cfg).trajectory) > 1


def test_value_gate_fires_on_a_corrupted_solve(monkeypatch):
    rng = np.random.default_rng(24)
    p = make_params(num_zones=2, a_max=3, alpha=0.9)
    cfg = random_reward_config(rng, p)
    social = random_social(rng, p)
    kernel = transition_matrix(social, p)
    rewards = expected_reward(social.policy, cfg)
    value_function(kernel, rewards, p)
    solve = np.linalg.solve
    for corrupt in (lambda x: x * (1.0 + 1e-6), lambda x: x * np.nan):
        monkeypatch.setattr(decision.np.linalg, "solve", lambda a, b: corrupt(solve(a, b)))
        with pytest.raises(NumericsError, match="residual"):
            value_function(kernel, rewards, p)


def test_value_function_reads_a_kernel_in_either_memory_order():
    rng = np.random.default_rng(25)
    p = make_params(num_zones=3, a_max=3, alpha=0.9)
    social = random_social(rng, p)
    kernel = transition_matrix(social, p)
    rewards = expected_reward(social.policy, random_reward_config(rng, p))
    fortran = TransitionKernel(np.asfortranarray(kernel.matrix), p.num_zones)
    assert fortran.matrix.flags.f_contiguous
    assert np.array_equal(value_function(fortran, rewards, p), value_function(kernel, rewards, p))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_value_function_rejects_non_finite_rewards(bad):
    rng = np.random.default_rng(24)
    p = make_params(num_zones=2, a_max=3, alpha=0.9)
    social = random_social(rng, p)
    rewards = expected_reward(social.policy, random_reward_config(rng, p))
    rewards[InfectionState.A, 1] = bad
    with pytest.raises(ValidationError, match="expected rewards contains non-finite"):
        value_function(transition_matrix(social, p), rewards, p)


# --- deviation values -----------------------------------------------------------


def public_blocks(social, p):
    """The :class:`KernelBlocks` of the public pieces: the policy's marginals and survival."""
    moves, _ = epidemic.policy_marginals(social, p)
    healthy = social.policy.class_rows[BehaviorClass.HEALTHY]
    stay = epidemic.survival(social, p)
    return epidemic.kernel_blocks(healthy, moves, stay, epidemic.idle_law(p))


def test_day_terms_match_the_public_pieces():
    rng = np.random.default_rng(25)
    # 20, 25 and 40 zones: the structured side of BLOCK_SOLVE_MIN_ZONES.
    for num_zones in (1, 2, 3, 20, 25, 40):
        p = make_params(num_zones=num_zones, a_max=3)
        cfg = random_reward_config(rng, p)
        social = random_social(rng, p)
        d = social.dist.d
        plan = DayPlan(cfg, p)
        kernel, stay, values = plan.terms(plan.state_rewards(social.policy.class_rows), d)
        expected_kernel, expected_values = solved_value(social, cfg, p)
        assert plan.structured == (num_zones >= decision.BLOCK_SOLVE_MIN_ZONES)
        if plan.structured:
            # Every block, bit for bit the dense matrix's block.
            moves, law, ss, sa = kernel
            dense = expected_kernel.matrix.reshape(num_zones, NUM_STATES, num_zones, NUM_STATES)
            S, A = InfectionState.S, InfectionState.A
            for s in InfectionState:
                for t in InfectionState:
                    if s == S:
                        block = {S: ss, A: sa}.get(t, np.zeros((num_zones, num_zones)))
                    else:
                        block = law[s, t] * moves[CLASS_OF_STATE[s]]
                    assert np.array_equal(dense[:, s, :, t], block)
            rewards = expected_reward(social.policy, cfg)
            solve = decision.solve_values_by_state
            expected_values = solve(public_blocks(social, p), rewards, p.alpha)
        else:
            assert np.array_equal(kernel, expected_kernel.matrix)
        assert np.array_equal(values, expected_values)
        q = q_function(social, values, cfg, p)
        per_state = decision.lookahead_q(stay, values, state_table(cfg), plan.law, p.alpha)
        assert np.array_equal(per_state, q)
        # Class Q: exact where it runs the per-state operations, rearranged
        # (S, A and U share one reward row) for the belief-weighted healthy row.
        for mode, weights in (("assume_susceptible", None), ("belief", decision.belief_weights(d))):
            cq = decision.lookahead_q(stay, values, cfg.table, plan.law, p.alpha, weights)
            blended = healthy_blend(q, d, mode)
            assert np.array_equal(cq[1:], blended[1:])
            if weights is None:
                assert np.array_equal(cq, blended)
            else:
                scale = max(1.0, float(np.abs(blended).max()))
                assert np.max(np.abs(cq - blended)) <= 1e-14 * scale


def test_the_day_cores_values_match_the_dense_solve():
    # Criterion 2's 1e-9 where the core solves state by state; bit for bit below.
    rng = np.random.default_rng(28)
    for num_zones in (1, 2, 10, 19, 20, 25, 40):
        p = make_params(num_zones=num_zones, a_max=3, alpha=float(rng.uniform(0.8, 0.99)))
        cfg = random_reward_config(rng, p)
        social = random_social(rng, p)
        plan = DayPlan(cfg, p)
        rows = plan.state_rewards(social.policy.class_rows)
        kernel, stay, values = plan.terms(rows, social.dist.d)
        rewards = rows.rewards
        assert np.array_equal(values, plan.values(kernel, rewards))
        by_state = num_zones >= decision.BLOCK_SOLVE_MIN_ZONES
        # The blocks stand for transition_matrix's matrix, bit for bit (test above).
        matrix = transition_matrix(social, p) if by_state else TransitionKernel(kernel, num_zones)
        dense = value_function(matrix, rewards, p)
        solve = decision.solve_values_by_state if by_state else decision.solve_values
        assert np.array_equal(values, solve(kernel, rewards, p.alpha))
        if by_state:
            assert np.max(np.abs(values - dense)) < 1e-9
        else:
            assert np.array_equal(values, dense)
        q = decision.lookahead_q(stay, values, state_table(cfg), plan.law, p.alpha)
        assert np.array_equal(q, q_function(social, values, cfg, p))


def split_class_rewards(class_table, width):
    """The degree part (2, Z, width) and the move cost (Z, Z') re-derived from a class table.

    The symptomatic and recovered rows are ``degree[c, z, a] - move[z, t]``
    for the action (t, a): the degree part is the reward of staying, and the
    move cost the recovered class's loss at degree 0 from moving from z to t.
    """
    zones = class_table.shape[1]
    by_target = class_table[1:].reshape(2, zones, zones, width)
    own = np.arange(zones)
    degree = by_target[:, own, own]  # a copy
    return degree, degree[1, :, :1] - by_target[1, :, :, 0]


def test_the_factorised_target_rows_match_the_full_logit():
    # From BLOCK_SOLVE_MIN_ZONES up the I and R rows are a product of two
    # softmaxes; the healthy row still runs the full logit, bit for bit. The
    # full logit rounds its scores rationality * Q to their own ulp, so the
    # rows are held to 1e-15 (4.5 ulp) of that scale: 1e-14 up to a scale of 10.
    # The plan reads its split from the RewardConfig's fields; for a
    # scenario's config (no lockdown cost at degree 0) that is the split of
    # its class table, bit for bit.
    rng = np.random.default_rng(29)
    seeds = iter(range(2900, 3000))
    for num_zones in (20, 40):
        for mode in decision.HEALTHY_Q_MODES:
            for forced_home in (True, False):
                p = make_params(num_zones=num_zones, a_max=3,
                                rationality=float(rng.uniform(1.0, 30.0)))
                cfg = random_reward_config(rng, p)
                social = random_social(rng, p, forced_home)
                scenario = seeded_scenario(next(seeds), mode, forced_home, num_zones)
                built = (scenario.reward_config(), scenario.params,
                         random_social(rng, scenario.params, forced_home))
                for cfg, p, social in ((cfg, p, social), built):
                    d = social.dist.d
                    plan = DayPlan(cfg, p, mode, forced_home)
                    degree, move = split_class_rewards(cfg.table, p.a_max + 1)
                    penalty = plan.penalty[1:, :, : p.a_max + 1]
                    assert np.array_equal(plan.degree_logit,
                                          decision.logit_rows(degree, penalty, p.rationality))
                    if cfg is built[0]:
                        assert np.array_equal(plan.move_cost, move)
                    _, stay, values = plan.terms(plan.state_rewards(social.policy.class_rows), d)
                    weights = decision.belief_weights(d) if mode == "belief" else None
                    cq = decision.lookahead_q(stay, values, cfg.table, plan.law, p.alpha, weights)
                    scale = max(1.0, p.rationality * float(np.abs(cq[1:]).max()))
                    full = policy_rows(decision.logit_rows(cq, plan.penalty, p.rationality),
                                       p.a_max)
                    target = plan.target(stay, values, d)
                    assert np.array_equal(target[0], full[0])
                    assert np.max(np.abs(target[1:] - full[1:])) <= 1e-15 * scale


def test_the_days_mean_degree_is_the_policys():
    rng = np.random.default_rng(27)
    for num_zones, a_max in ((1, 0), (1, 6), (2, 3), (6, 8), (40, 6)):
        p = make_params(num_zones=num_zones, a_max=a_max)
        policy = random_social(rng, p).policy
        rows = DayPlan(random_reward_config(rng, p), p).state_rewards(policy.class_rows)
        assert np.array_equal(rows.mean_degree, policy.mean_degrees())


@pytest.mark.parametrize("num_zones, a_max", [(1, 0), (1, 4), (2, 3), (3, 2)])
def test_q_matches_brute_force_lookahead(num_zones, a_max):
    rng = np.random.default_rng(26)
    p = make_params(num_zones=num_zones, a_max=a_max)
    cfg = random_reward_config(rng, p)
    social = random_social(rng, p)
    _, values = solved_value(social, cfg, p)
    q = q_function(social, values, cfg, p)
    for s in range(NUM_STATES):
        for z in range(num_zones):
            for j in range(p.num_actions):
                a, target = unflatten_action(j, a_max, num_zones)
                tomorrow = np.sum(state_transition(s, z, a, target, social, p) * values)
                expected = immediate_reward(s, z, a, target, cfg) + p.alpha * tomorrow
                assert abs(q[s, z, j] - expected) <= 1e-12


def test_q_equals_reward_table_when_myopic():
    rng = np.random.default_rng(22)
    p = make_params(alpha=0.0, num_zones=2, a_max=3)
    cfg = random_reward_config(rng, p)
    social = random_social(rng, p)
    _, values = solved_value(social, cfg, p)
    q = q_function(social, values, cfg, p)
    assert q == pytest.approx(state_table(cfg), abs=1e-13)


def test_q_recomposes_value_under_the_policy():
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = make_params(num_zones=int(rng.integers(1, 4)), a_max=3, alpha=0.9)
        cfg = random_reward_config(rng, p)
        social = random_social(rng, p)
        _, values = solved_value(social, cfg, p)
        q = q_function(social, values, cfg, p)
        recomposed = np.einsum("szj,szj->sz", social.policy.state_rows(), q)
        assert np.max(np.abs(recomposed - values)) < 1e-9


def test_recovered_prefers_full_activity_without_lockdown():
    p = make_params(num_zones=1, a_max=6, alpha=0.9)
    cfg = zero_cost_config(num_zones=1)
    social = SocialState(uniform_no_move_policy(p), StateDistribution(np.full((5, 1), 0.2)))
    _, values = solved_value(social, cfg, p)
    q = q_function(social, values, cfg, p)
    assert int(q[InfectionState.R, 0].argmax()) == flatten_action(6, 0, 6, 1)


# --- best response ------------------------------------------------------------


def brute_force_best(q_row, tie_tol, feasible=None):
    allowed = np.ones(q_row.size, bool) if feasible is None else feasible
    best = q_row[allowed].max()
    return {int(j) for j in range(q_row.size) if allowed[j] and q_row[j] >= best - tie_tol}


def test_best_response_matches_brute_force_with_planted_ties():
    rng = np.random.default_rng(24)
    p = make_params(num_zones=2, a_max=3)
    for _ in range(200):
        # Half-integer grids force exact ties; a continuous draw breaks them.
        if rng.random() < 0.5:
            q = rng.integers(0, 4, size=(NUM_STATES, 2, p.num_actions)) / 2.0
        else:
            q = rng.random((NUM_STATES, 2, p.num_actions))
        s = int(rng.integers(NUM_STATES))
        z = int(rng.integers(2))
        got = set(int(j) for j in best_response(q, s, z))
        assert got == brute_force_best(q[s, z], TIE_TOL)


def test_best_response_respects_feasibility_mask():
    p = make_params(num_zones=1, a_max=3)
    q = np.zeros((NUM_STATES, 1, p.num_actions))
    q[InfectionState.I, 0] = [10.0, 4.0, 3.0, 7.0]
    feasible = feasible_actions(p)[1]  # symptomatic: only degree 0
    got = set(int(j) for j in best_response(q, InfectionState.I, 0, feasible=feasible))
    assert got == {0}
    unrestricted = set(int(j) for j in best_response(q, InfectionState.I, 0))
    assert unrestricted == {0}
    q[InfectionState.I, 0] = [4.0, 10.0, 3.0, 7.0]
    got = set(int(j) for j in best_response(q, InfectionState.I, 0, feasible=feasible))
    assert got == {0}
    # masks that are too short, allow nothing, or are not bool; and bad indices
    for bad in (feasible[:3], np.zeros(4, bool), np.full(4, 0.5), [1, 0, 0, 0]):
        with pytest.raises(ValidationError, match="feasible"):
            best_response(q, InfectionState.I, 0, feasible=bad)
    for s, z in ((0, -1), (0, 1), (0, True), (0, 0.5), (-1, 0), (5, 0), (7, 0), (True, 0)):
        with pytest.raises(ValidationError):
            best_response(q, s, z)
    for bad in (q[:, 0], q[0, 0], [["x"]]):
        with pytest.raises(ValidationError, match="q "):
            best_response(bad, 0, 0)


def test_best_response_tie_tolerance_boundary():
    q = np.zeros((1, 1, 3))
    q[0, 0] = [1.0, 1.0 - 1e-9, 1.0 - 3e-9]
    got = set(int(j) for j in best_response(q, 0, 0))
    assert got == {0, 1}


def test_feasible_actions_masks():
    p = make_params(num_zones=2, a_max=3)
    mask = feasible_actions(p)
    assert mask.shape == (3, p.num_actions)
    assert mask[BehaviorClass.HEALTHY].all()
    assert mask[BehaviorClass.RECOVERED].all()
    home = action_degrees(p.a_max, 2) == 0
    assert np.array_equal(mask[BehaviorClass.SYMPTOMATIC], home)
    assert feasible_actions(p, infected_forced_home=False).all()
    # Every entry point that takes the flag reads it as a bool only.
    rng = np.random.default_rng(34)
    cfg, social = random_reward_config(rng, p), random_social(rng, p)
    split = np.zeros((NUM_STATES, 2))
    split[InfectionState.S, 0] = 1.0
    entries = (
        lambda flag: feasible_actions(p, flag),
        lambda flag: step(social, cfg, p, infected_forced_home=flag),
        lambda flag: check_equilibrium(social, cfg, p, infected_forced_home=flag),
        lambda flag: logit_choice(np.zeros((NUM_STATES, 2, p.num_actions)), social.dist.d, p,
                                  infected_forced_home=flag),
        lambda flag: construct_equilibrium(cfg, p, split, infected_forced_home=flag),
    )
    for call in entries:
        for coerced in ("no", None, 0):
            with pytest.raises(ValidationError, match="infected_forced_home"):
                call(coerced)


# --- class-level deviation values ---------------------------------------------------


def test_class_q_belief_blend_frozen_weights():
    q = np.zeros((NUM_STATES, 1, 2))
    q[InfectionState.S] = 1.0
    q[InfectionState.A] = 2.0
    q[InfectionState.U] = 4.0
    q[InfectionState.I] = -1.0
    q[InfectionState.R] = 7.0
    d = np.array([[0.2], [0.1], [0.2], [0.3], [0.1]])
    d = d / d.sum() * np.array([[0.2, 0.1, 0.2, 0.3, 0.1]]).T.sum()  # keep raw masses
    out = healthy_blend(q, d, mode="belief")
    # Healthy weights: S 0.2, A 0.1, U 0.1 -> 1/2, 1/4, 1/4 of the healthy mass.
    blended = 0.5 * 1.0 + 0.25 * 2.0 + 0.25 * 4.0
    assert out[BehaviorClass.HEALTHY, 0] == pytest.approx([blended, blended])
    assert np.array_equal(out[BehaviorClass.SYMPTOMATIC], q[InfectionState.I])
    assert np.array_equal(out[BehaviorClass.RECOVERED], q[InfectionState.R])


def test_class_q_belief_falls_back_when_zone_empty_of_healthy():
    q = np.zeros((NUM_STATES, 2, 2))
    q[InfectionState.S, 1] = [3.0, 4.0]
    q[InfectionState.A, 1] = [9.0, 9.0]
    d = np.zeros((NUM_STATES, 2))
    d[InfectionState.S, 0] = 0.5
    d[InfectionState.R, 1] = 0.5
    out = healthy_blend(q, d, mode="belief")
    assert np.array_equal(out[BehaviorClass.HEALTHY, 1], q[InfectionState.S, 1])


def test_class_q_assume_susceptible_ignores_distribution():
    rng = np.random.default_rng(25)
    q = rng.random((NUM_STATES, 2, 4))
    d = rng.random((NUM_STATES, 2))
    out = healthy_blend(q, d, mode="assume_susceptible")
    assert np.array_equal(out[BehaviorClass.HEALTHY], q[InfectionState.S])


def test_class_q_falls_back_to_the_susceptible_row_in_a_zone_empty_of_healthy():
    rng = np.random.default_rng(29)
    p = make_params(num_zones=3, a_max=3)
    cfg = random_reward_config(rng, p)
    social = random_social(rng, p)
    d = social.dist.d.copy()
    d[[InfectionState.S, InfectionState.A, InfectionState.U], 1] = 0.0
    weights = decision.belief_weights(d)
    assert weights[:, 1].tolist() == [1.0, 0.0, 0.0]
    assert np.allclose(weights.sum(axis=0), 1.0, rtol=0.0, atol=1e-15)
    plan = DayPlan(cfg, p)
    stay, values = epidemic.survival(social, p), rng.normal(size=(NUM_STATES, 3))
    belief = decision.lookahead_q(stay, values, cfg.table, plan.law, p.alpha, weights)
    susceptible = decision.lookahead_q(stay, values, cfg.table, plan.law, p.alpha)
    scale = max(1.0, float(np.abs(susceptible).max()))
    healthy = BehaviorClass.HEALTHY
    assert np.max(np.abs(belief[healthy, 1] - susceptible[healthy, 1])) <= 1e-14 * scale
    assert np.array_equal(belief[1:], susceptible[1:])


def test_class_q_rejects_unknown_mode():
    q = np.zeros((NUM_STATES, 1, 2))
    d = np.full((NUM_STATES, 1), 0.2)
    with pytest.raises(ValidationError, match="healthy_q"):
        check_healthy_q("optimistic")
    with pytest.raises(ValidationError, match="healthy_q"):
        logit_choice(q, d, make_params(num_zones=1, a_max=1), healthy_q="optimistic")


def test_q_function_and_logit_choice_read_tables_by_the_entry_rule():
    rng = np.random.default_rng(29)
    p = make_params(num_zones=2, a_max=3)
    cfg = random_reward_config(rng, p)
    social = random_social(rng, p)
    for values, match in (
        ([[True, True]] * NUM_STATES, "values entries must be numbers; got bool"),
        ([["x", "x"]] * NUM_STATES, "values entries must be numbers; got str"),
        (np.full((NUM_STATES, 2), np.nan), "values contains non-finite"),
        (np.zeros((NUM_STATES, 1)), "values must be a table of shape"),
    ):
        with pytest.raises(ValidationError, match=match):
            q_function(social, values, cfg, p)
    q, d = np.zeros((NUM_STATES, 2, p.num_actions)), social.dist.d
    for q_arg, d_arg, match in (
        (q[..., :-1], d, "q must be a table of shape"),
        (q.astype(bool), d, "q entries must be numbers; got bool"),
        (np.full(q.shape, np.nan), d, "q contains non-finite"),
        (q, d[:, :1], "dist_table must be a table of shape"),
        (q, np.full(d.shape, "x"), "dist_table entries must be numbers; got str"),
    ):
        with pytest.raises(ValidationError, match=match):
            logit_choice(q_arg, d_arg, p)


# --- logit choice -----------------------------------------------------------------


def test_logit_zero_rationality_is_exactly_uniform():
    p = make_params(num_zones=2, a_max=6, rationality=0.0)
    rng = np.random.default_rng(26)
    q = rng.random((NUM_STATES, 2, p.num_actions))
    d = np.full((NUM_STATES, 2), 0.1)
    policy = logit_choice(q, d, p)
    healthy = policy.class_rows[BehaviorClass.HEALTHY]
    # Uniform means all entries of a row are bit-identical; the stored row
    # is normalized so its common value may differ from 1/J in the last bit.
    assert healthy.min() == healthy.max()
    assert healthy.min() == pytest.approx(1.0 / p.num_actions, abs=1e-15)
    sympt = policy.class_rows[BehaviorClass.SYMPTOMATIC]
    home = action_degrees(p.a_max, 2) == 0
    assert np.all(sympt[:, ~home] == 0.0)
    on_home = sympt[:, home]
    assert on_home.min() == on_home.max()
    assert on_home.min() == pytest.approx(0.5, abs=1e-15)


def test_logit_is_shift_invariant():
    p = make_params(num_zones=2, a_max=4, rationality=7.0)
    rng = np.random.default_rng(27)
    q = rng.random((NUM_STATES, 2, p.num_actions))
    d = np.full((NUM_STATES, 2), 0.1)
    base = logit_choice(q, d, p).class_rows
    shifted = logit_choice(q + 123.456, d, p).class_rows
    assert np.max(np.abs(base - shifted)) < 1e-12


def test_logit_two_action_odds_follow_the_gap():
    p = make_params(num_zones=1, a_max=1, rationality=3.0)
    q = np.zeros((NUM_STATES, 1, 2))
    q[:, 0, 1] = 0.7
    d = np.full((NUM_STATES, 1), 0.2)
    policy = logit_choice(q, d, p, infected_forced_home=False)
    row = policy.class_rows[BehaviorClass.HEALTHY, 0]
    assert row[1] / row[0] == pytest.approx(np.exp(3.0 * 0.7), rel=1e-12)


def test_logit_sharpens_with_rationality():
    q = np.zeros((NUM_STATES, 1, 4))
    q[:, 0] = [0.1, 0.9, 0.3, 0.2]
    d = np.full((NUM_STATES, 1), 0.2)
    masses = []
    for lam in (1.0, 5.0, 25.0):
        p = make_params(num_zones=1, a_max=3, rationality=lam)
        policy = logit_choice(q, d, p, infected_forced_home=False)
        masses.append(policy.class_rows[BehaviorClass.HEALTHY, 0, 1])
    assert masses[0] < masses[1] < masses[2]
    assert masses[2] > 0.99


def test_logit_extreme_rationality_concentrates_on_best_set():
    rng = np.random.default_rng(28)
    p = make_params(num_zones=2, a_max=3, rationality=1e6)
    for _ in range(20):
        q = rng.integers(0, 4, size=(NUM_STATES, 2, p.num_actions)) / 2.0
        d = np.full((NUM_STATES, 2), 0.1)
        policy = logit_choice(q, d, p, healthy_q="assume_susceptible")
        feasible = feasible_actions(p)
        for cls, state in ((0, 0), (1, 2), (2, 3)):
            for z in range(2):
                best = brute_force_best(q[state, z], TIE_TOL, feasible[cls])
                row = policy.class_rows[cls, z]
                leakage = sum(row[j] for j in range(p.num_actions) if j not in best)
                assert leakage < 1e-6


def test_logit_forced_home_empties_active_symptomatic_rows():
    p = make_params(num_zones=2, a_max=3)
    rng = np.random.default_rng(29)
    q = rng.random((NUM_STATES, 2, p.num_actions))
    d = np.full((NUM_STATES, 2), 0.1)
    policy = logit_choice(q, d, p)
    active = action_degrees(p.a_max, 2) > 0
    assert np.all(policy.class_rows[BehaviorClass.SYMPTOMATIC][:, active] == 0.0)


def test_logit_healthy_mode_changes_the_blend():
    p = make_params(num_zones=1, a_max=2, rationality=5.0)
    q = np.zeros((NUM_STATES, 1, 3))
    q[InfectionState.S, 0] = [0.0, 0.5, 1.0]
    q[InfectionState.A, 0] = [1.0, 0.0, 0.0]
    d = np.zeros((NUM_STATES, 1))
    d[InfectionState.S, 0] = 0.1
    d[InfectionState.A, 0] = 0.9
    belief = logit_choice(q, d, p).class_rows[BehaviorClass.HEALTHY, 0]
    assume = logit_choice(q, d, p, healthy_q="assume_susceptible")
    assume_row = assume.class_rows[BehaviorClass.HEALTHY, 0]
    assert belief[0] > belief[2]  # the asymptomatic majority prefers action 0
    assert assume_row[2] > assume_row[0]


# --- inertial update ------------------------------------------------------------------


def test_policy_update_full_inertia_weight_copies_target():
    p = make_params(num_zones=2, a_max=3)
    rng = np.random.default_rng(30)
    current = random_social(rng, p).policy
    target = random_social(rng, p).policy
    updated = policy_update(current, target, 1.0)
    assert np.array_equal(updated.class_rows, target.class_rows)


def test_policy_update_blends_linearly():
    p = make_params(num_zones=2, a_max=3)
    rng = np.random.default_rng(31)
    current = random_social(rng, p).policy
    target = random_social(rng, p).policy
    updated = policy_update(current, target, 0.2)
    expected = 0.8 * current.class_rows + 0.2 * target.class_rows
    assert updated.class_rows == pytest.approx(expected, abs=1e-15)


def test_policy_update_fixed_point():
    p = make_params(num_zones=2, a_max=3)
    pi = random_social(np.random.default_rng(32), p).policy
    updated = policy_update(pi, pi, 0.3)
    assert updated.class_rows == pytest.approx(pi.class_rows, abs=1e-15)


def test_policy_update_rejects_bad_weight_and_mismatch():
    p = make_params(num_zones=2, a_max=3)
    rng = np.random.default_rng(33)
    pi = random_social(rng, p).policy
    with pytest.raises(ValidationError):
        policy_update(pi, pi, 0.0)
    with pytest.raises(ValidationError):
        policy_update(pi, pi, 1.0001)
    with pytest.raises(ValidationError, match="inertia"):
        policy_update(pi, pi, True)
    other = random_social(rng, make_params(num_zones=3, a_max=3)).policy
    with pytest.raises(ValidationError):
        policy_update(pi, other, 0.5)
