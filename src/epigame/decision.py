"""Single-agent valuation and choice against a frozen social state.

An agent evaluates a unilateral one-day deviation while everyone else,
including its own future self, keeps playing the shared policy. That
yields a linear value equation solved directly, per-action lookahead
values, and the smoothed (logit) choice rule that drives the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    CLASS_OF_STATE,
    HEALTHY_STATES,
    NUM_CLASSES,
    NUM_STATES,
    STATE_OF_CLASS,
    BehaviorClass,
    InfectionState,
    ModelParams,
    NumericsError,
    Policy,
    SocialState,
    ValidationError,
    action_degrees,
    checked_index,
    flatten_state_table,
    float_entries,
    is_flag,
    is_real,
    numeric_table,
    policy_rows,
    same_dims,
    store,
    unflatten_state_table,
)
from .epidemic import (
    KernelBlocks,
    TransitionKernel,
    assemble_kernel,
    check_kernel,
    class_marginals,
    idle_law,
    kernel_blocks,
    survival,
    survival_table,
)
from .rewards import RewardConfig, class_expected_rewards

# Q values closer than this are treated as tied when picking best responses.
TIE_TOL = 1e-9

# Residual bound for the direct linear solve of the value equation, in units
# of max(1, |r|_inf / (1 - alpha)), the scale of V.
VALUE_RESIDUAL_TOL = 1e-10

# Healthy mass below this falls back to the susceptible row when weighting Q.
BELIEF_FLOOR = 1e-12

# From this many zones up a DayPlan is structured: it keeps the day's kernel
# in its blocks, solves the value equation state by state on them
# (solve_values_by_state) and builds the I and R logit rows as products;
# below it, it builds the dense kernel, solves it in one go and runs the full
# logit. Measured on a 2-vCPU VM with numpy 2.4.6 and OpenBLAS 0.3.31, in us
# per call at a_max = 6:
# - kernel, check, solve and propagation: 74 / 110 / 173 dense against
#   133 / 142 / 152 on the blocks at Z = 10 / 15 / 20, and 910 against 231 at
#   Z = 40 (the dense 5Z x 5Z solve);
# - target: 51 / 73 / 103 full against 58 / 75 / 97 factorised at Z = 10 /
#   15 / 20, and 348 against 284 at Z = 40; so both cross at Z of 15-20;
# - determinism: np.linalg.solve gave the same bits at 1 and 2 BLAS threads
#   for every n from 1 to 99 and different bits for every n probed from 100
#   to 200, so with this cutoff the dense solve only sees n = 5Z <= 95 and
#   the block solve only Z x Z blocks.
BLOCK_SOLVE_MIN_ZONES = 20

HEALTHY_Q_MODES = ("belief", "assume_susceptible")

# The infection states as plain ints, for the day core: unpacking the
# IntEnum itself costs microseconds.
STATE_INDEX = tuple(int(s) for s in InfectionState)


def value_function(
    kernel: TransitionKernel,
    expected_rewards: np.ndarray,
    p: ModelParams,
) -> np.ndarray:
    """Discounted value of following the shared policy forever; shape (5, Z).

    Solves ``(I - alpha * P) V = R`` directly; the system is small and
    strictly diagonally dominant for ``alpha < 1``.
    """
    same_dims("kernel", kernel, "parameters", p)
    rewards = numeric_table("expected rewards", expected_rewards, (NUM_STATES, p.num_zones))
    return solve_values(kernel.matrix, rewards, p.alpha)


def solve_values(matrix: np.ndarray, rewards: np.ndarray, alpha: float) -> np.ndarray:
    """Values (5, Z) of the rewards (5, Z) under the flat kernel ``matrix``."""
    r = flatten_state_table(rewards)
    system = np.multiply(matrix, -alpha, order="C")  # C order: reshape(-1) is a view
    system.reshape(-1)[:: r.size + 1] += 1.0  # I - alpha * matrix, built in place
    v = np.linalg.solve(system, r)
    check_value_residual(system @ v - r, r, alpha)
    return unflatten_state_table(v, rewards.shape[1])


def solve_values_by_state(kernel: KernelBlocks, rewards: np.ndarray, alpha: float) -> np.ndarray:
    """:func:`solve_values` of the :class:`~epigame.epidemic.KernelBlocks` ``kernel``.

    SAIR(U) has no reinfection: R is absorbing, I and U lead only to R, A
    only to I and U, and S only to A. So ``I - alpha * P`` is block-triangular
    by state, and four Z x Z solves replace the one (5Z)^2 solve: R, then I
    and U stacked, then A, then S. State s's diagonal block is ``law[s, s] *
    moves[class(s)]`` and its coupling to t ``law[s, t] * moves[class(s)]``;
    S's are ``ss`` and ``sa``. The residual gate runs on the full system,
    through the same blocks.
    """
    moves, law, ss, sa = kernel
    zones = rewards.shape[1]
    S, A, I, R, U = STATE_INDEX
    v = np.empty((NUM_STATES, zones))

    def block(s, t):  # (Z, Z') block of moves from state s to state t, stacked over s
        return law[s, t, None, None] * moves[CLASS_OF_STATE[s]]

    def solve(system, rhs):  # (I - alpha * system) x = rhs, stacked over the first axes
        system = system * -alpha
        system.reshape(*system.shape[:-2], -1)[..., :: zones + 1] += 1.0
        return np.linalg.solve(system, rhs[..., None])[..., 0]

    v[R] = solve(block(R, R), rewards[R])
    v[[I, U]] = solve(block([I, U], [I, U]), rewards[[I, U]] + alpha * (block([I, U], R) @ v[R]))
    v[A] = solve(block(A, A), rewards[A] + alpha * (block(A, I) @ v[I] + block(A, U) @ v[U]))
    v[S] = solve(ss, rewards[S] + alpha * (sa @ v[A]))
    # P v: state s's row is moves[class(s)] @ (law @ v)[s], S's is ss @ v_S + sa @ v_A.
    pv = (moves @ (law @ v).T)[CLASS_OF_STATE, :, STATE_INDEX]
    pv[S] = ss @ v[S] + sa @ v[A]
    check_value_residual(v - alpha * pv - rewards, rewards, alpha)
    return v


def check_value_residual(residual: np.ndarray, r: np.ndarray, alpha: float) -> None:
    """Raise NumericsError unless the value equation's ``residual`` is small.

    The gate is relative to ``max(1, |r|_inf / (1 - alpha))``, the bound on
    ``|V|_inf``.
    """
    worst = float(np.abs(residual).max())
    tol = VALUE_RESIDUAL_TOL * max(1.0, float(np.abs(r).max()) / (1.0 - alpha))
    if not worst <= tol:  # a NaN residual fails too
        raise NumericsError(f"value equation residual {worst} exceeds {tol}")


def lookahead_q(
    stay: np.ndarray,
    values: np.ndarray,
    table: np.ndarray,
    law: np.ndarray,
    alpha: float,
    weights: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Reward ``table`` plus discounted ``values`` of tomorrow's state, into ``out`` if given.

    ``table`` is per state (5, Z, J) or per behavior class (3, Z, J), as
    :attr:`~epigame.rewards.RewardConfig.table` is, or the leading rows of
    one. Tomorrow lies in the action's target zone t (the flat action axis
    splits into target and degree). Only the first row, S's, depends on
    today's zone and degree: S survives with probability ``stay``
    (Z, a_max+1) or turns A. Every other row is ``table + alpha * (law @
    values)[s, t]``, ``law`` being the :func:`~epigame.epidemic.idle_law`.
    With ``weights``, the :func:`belief_weights` (w_S, w_A, w_U) of a class
    table, the first row is the healthy class's blend of the S, A and U
    rows, which share the healthy reward row: ``table + alpha * (base[z, t]
    + w_S[z] * stay[z, a] * (V_S - V_A)[t])`` with ``base = w_S V_A + w_A (law @ V)_A + w_U (law @ V)_U``.
    """
    zones, width = stay.shape
    S, A, I, R, U = STATE_INDEX
    lv = law @ values
    q = np.empty(table.shape) if out is None else out
    by_target = q.reshape(len(table), zones, zones, width)
    others = lv[1:] if len(table) == NUM_STATES else lv[I : R + 1]  # A-U, or classes I and R
    np.multiply(others[: len(table) - 1, None, :, None], alpha, out=by_target[1:])
    first = by_target[0]
    if weights is None:
        stay = stay[:, None, :]  # (Z, 1, a_max+1) against (Z', 1) values
        np.multiply(stay, values[S][:, None], out=first)
        first += (1.0 - stay) * values[A][:, None]
    else:
        w_S, w_A, w_U = weights[:, :, None]  # (Z, 1) each
        np.multiply((w_S * stay)[:, None, :], (values[S] - values[A])[:, None], out=first)
        first += (w_S * values[A] + w_A * lv[A] + w_U * lv[U])[:, :, None]
    first *= alpha
    q += table
    return q


def q_function(
    social: SocialState,
    values: np.ndarray,
    cfg: RewardConfig,
    p: ModelParams,
) -> np.ndarray:
    """One-day deviation values Q[s, z, action]; shape (5, Z, J).

    The agent picks (degree, target zone) today and reverts to the shared
    policy tomorrow, so tomorrow is priced by ``values`` at the target zone.
    """
    same_dims("reward config", cfg, "parameters", p)
    values = numeric_table("values", values, (NUM_STATES, p.num_zones))
    table = cfg.table.take(CLASS_OF_STATE, axis=0)
    return lookahead_q(survival(social, p), values, table, idle_law(p), p.alpha)


class DayRows(NamedTuple):
    """One day's policy rows and what a day derives from them once."""

    classes: np.ndarray  # (3, Z, J) the class rows
    moves: np.ndarray  # (3, Z, Z') each class's rows summed over degree
    mean_degree: np.ndarray  # (3, Z) each class's expected degree
    rewards: np.ndarray  # (5, Z) each state's expected reward


@dataclass(frozen=True, eq=False)
class DayPlan:
    """What stays fixed over one scenario's day updates, built and checked once.

    ``rewards`` is the scenario's :class:`~epigame.rewards.RewardConfig`,
    checked against the parameters' dimensions; its class table (3, Z, J)
    prices each class's actions as it is. :meth:`state_rewards`,
    :meth:`terms` and :meth:`target` evaluate a day on plain arrays: class
    rows (3, Z, J) of those dimensions and the distribution table (5, Z).
    They work per behavior class and build no per-state (5, Z, J) table,
    nor any of the public containers. They check the kernel, the value
    residual and the logit target's rows, but not the values they derive in
    range.

    From :data:`BLOCK_SOLVE_MIN_ZONES` zones up the plan is ``structured``:
    the day's kernel stays in its :class:`~epigame.epidemic.KernelBlocks`,
    and the symptomatic and recovered logit rows are products of a softmax
    over the target zone and the plan's ``degree_logit``. Their reward for
    the action (t, a) in zone z is ``degree[c, z, a] - move_cost[z, t]``,
    both read from the config's fields: the degree part is ``benefit -
    activation_cost`` of the class, less ``illness_cost`` for I,
    and the move cost is ``migration_cost`` for a move to another zone.
    """

    rewards: RewardConfig
    params: ModelParams
    healthy_q: str = "belief"
    infected_forced_home: bool = True
    degrees: np.ndarray = field(init=False, repr=False)  # (J,) float degree of each action
    powers: np.ndarray = field(init=False, repr=False)  # (a_max+1,) contacts per degree
    law: np.ndarray = field(init=False, repr=False)  # (5, 5) idle_law
    penalty: np.ndarray = field(init=False, repr=False)  # (3, 1, J) action_penalty; 0 if feasible
    structured: bool = field(init=False, repr=False)
    # Structured plans only: the I and R degree softmax (2, Z, a_max+1) and the move cost (Z, Z').
    degree_logit: np.ndarray | None = field(init=False, repr=False)
    move_cost: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p, cfg = self.params, self.rewards
        same_dims("reward table", cfg, "parameters", p)
        check_healthy_q(self.healthy_q)
        penalty = action_penalty(feasible_actions(p, self.infected_forced_home)[:, None, :])
        structured = p.num_zones >= BLOCK_SOLVE_MIN_ZONES
        degree_logit = move_cost = None
        if structured:
            degree = cfg.benefit - cfg.activation_cost[1:]  # (2, Z, a_max+1) of I and R
            degree[0] -= cfg.illness_cost
            zones = np.arange(p.num_zones)
            move_cost = np.where(zones[:, None] != zones, cfg.migration_cost, 0.0)
            degree_logit = logit_rows(degree, penalty[1:, :, : p.a_max + 1], p.rationality)
        store(self, degrees=action_degrees(p.a_max, p.num_zones).astype(float),
              powers=np.arange(p.a_max + 1), law=idle_law(p), penalty=penalty,
              structured=structured, degree_logit=degree_logit, move_cost=move_cost)

    def state_rewards(self, class_rows: np.ndarray) -> DayRows:
        """The :class:`DayRows` of ``class_rows``: marginals and the states' rewards (5, Z).

        A simulated day builds them once and shares them between its
        observation and :meth:`terms`.
        """
        rewards = class_expected_rewards(class_rows, self.rewards.table)
        return DayRows(class_rows, *class_marginals(class_rows, self.degrees), rewards)

    def terms(
        self, rows: DayRows, d: np.ndarray
    ) -> tuple[np.ndarray | KernelBlocks, np.ndarray, np.ndarray]:
        """One day's checked kernel, survival table (Z, a_max+1) and values (5, Z).

        ``rows`` comes from :meth:`state_rewards`, and ``d`` is the
        distribution table (5, Z). The kernel is the flat matrix (5Z, 5Z),
        or its blocks in a structured plan; either propagates mass through
        :func:`~epigame.epidemic.propagate_mass`. The survival table is
        computed once and shared by the kernel and the lookahead:
        :func:`lookahead_q` prices tomorrow from it, per class in
        :meth:`target` and per state in the equilibrium checker.
        """
        p = self.params
        stay = survival_table(rows.mean_degree, d, self.powers, p)
        build = kernel_blocks if self.structured else assemble_kernel
        kernel = build(rows.classes[BehaviorClass.HEALTHY], rows.moves, stay, self.law)
        check_kernel(kernel, p.num_zones)
        return kernel, stay, self.values(kernel, rows.rewards)

    def values(self, kernel: np.ndarray | KernelBlocks, rewards: np.ndarray) -> np.ndarray:
        """Values (5, Z) of the day's checked ``kernel`` and ``rewards``.

        Solved state by state on the blocks of a structured plan, densely on
        the matrix below.
        """
        solve = solve_values_by_state if self.structured else solve_values
        return solve(kernel, rewards, self.params.alpha)

    def target(self, stay: np.ndarray, values: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Checked logit target rows (3, Z, J) of :meth:`terms`' ``stay`` and ``values``.

        The class Q is :func:`lookahead_q` of the config's class table; in
        ``belief`` mode its healthy row is blended by the
        :func:`belief_weights` of the distribution ``d``. A structured plan builds Q and its logit for the
        healthy class only. The I and R rows' Q is ``degree[z, a] - move[z, t]
        + alpha * (law @ V)[s, t]``, whose softmax is the product of the
        plan's ``degree_logit`` and a softmax over the target zone t.
        """
        p, table = self.params, self.rewards.table
        weights = belief_weights(d) if self.healthy_q == "belief" else None
        if not self.structured:
            cq = lookahead_q(stay, values, table, self.law, p.alpha, weights)
            return policy_rows(logit_rows(cq, self.penalty, p.rationality), p.a_max)
        zones, width = stay.shape
        rows = np.empty(table.shape)
        healthy = lookahead_q(stay, values, table[:1], self.law, p.alpha, weights,
                              out=rows[:1])
        logit_rows(healthy, self.penalty[:1], p.rationality)
        _, _, I, R, _ = STATE_INDEX
        scores = (self.law[I : R + 1] @ values)[:, None, :] * p.alpha - self.move_cost
        by_target = logit_rows(scores, 0.0, p.rationality)  # (2, Z, Z')
        np.multiply(by_target[..., None], self.degree_logit[:, :, None, :],
                    out=rows[1:].reshape(2, zones, zones, width))
        return policy_rows(rows, p.a_max)


def feasible_actions(p: ModelParams, infected_forced_home: bool = True) -> np.ndarray:
    """Boolean (3, J) mask of actions available to each behavior class.

    With ``infected_forced_home`` the symptomatic class may only pick
    degree 0 (choice of tomorrow's zone stays free).
    """
    if not is_flag(infected_forced_home):
        raise ValidationError(
            f"infected_forced_home must be true or false; got {infected_forced_home!r}"
        )
    mask = np.ones((NUM_CLASSES, p.num_actions), dtype=bool)
    if infected_forced_home:
        mask[BehaviorClass.SYMPTOMATIC] = action_degrees(p.a_max, p.num_zones) == 0
    return mask


def action_penalty(feasible: np.ndarray) -> np.ndarray:
    """Logit mask of a :func:`feasible_actions` mask: 0 on feasible actions, -inf on the others."""
    return np.where(feasible, 0.0, -np.inf)


def best_response(
    q: np.ndarray,
    s: InfectionState | int,
    z: int,
    *,
    feasible: np.ndarray | None = None,
) -> np.ndarray:
    """Flat indices of the :func:`tied` best ``feasible`` actions of state ``s`` in zone ``z``."""
    q = float_entries("q", q)
    if q.ndim != 3:
        raise ValidationError(f"q must be a (states, zones, actions) table; got shape {q.shape}")
    row = q[checked_index("infection state", s, len(q)), checked_index("zone", z, q.shape[1])]
    allowed = np.ones(row.shape, dtype=bool) if feasible is None else np.asarray(feasible)
    if allowed.dtype != bool or allowed.shape != row.shape or not allowed.any():
        raise ValidationError(f"feasible must be a {row.shape} bool mask allowing an action")
    return np.flatnonzero(allowed)[tied(row[allowed])]


def tied(values: np.ndarray) -> np.ndarray:
    """The one tie rule: ``values`` within ``TIE_TOL`` of the maximum along the last axis."""
    return values >= values.max(axis=-1, keepdims=True) - TIE_TOL


def check_healthy_q(mode: str) -> None:
    """Raise ValidationError unless ``mode`` is one of :data:`HEALTHY_Q_MODES`."""
    if mode not in HEALTHY_Q_MODES:
        raise ValidationError(f"healthy_q must be one of {HEALTHY_Q_MODES}; got {mode!r}")


def healthy_blend(q: np.ndarray, d: np.ndarray, mode: str) -> np.ndarray:
    """Q values (3, Z, J) per behavior class of the float tables ``q`` and ``d``.

    Each class takes the Q row of its :data:`~epigame.core.STATE_OF_CLASS`.
    The healthy class cannot tell S, A and U apart, so in ``belief`` mode its
    Q row is the posterior-weighted blend of the three states' rows given
    the current distribution (falling back to the susceptible row when the
    zone holds almost no healthy mass); ``assume_susceptible`` keeps the
    susceptible row. ``mode`` must already be checked.
    """
    out = q.take(STATE_OF_CLASS, axis=0)
    if mode == "assume_susceptible":
        return out
    out[BehaviorClass.HEALTHY] = np.einsum("hz,hzj->zj", belief_weights(d), q[list(HEALTHY_STATES)])
    return out


def belief_weights(d: np.ndarray) -> np.ndarray:
    """Posterior weights (3, Z) of S, A and U within each zone's healthy mass of ``d``.

    A zone holding less healthy mass than :data:`BELIEF_FLOOR` acts as if
    susceptible: weights (1, 0, 0).
    """
    healthy = d.take(HEALTHY_STATES, axis=0)  # (3, Z) masses of S, A and U
    mass = healthy.sum(axis=0)
    small = mass < BELIEF_FLOOR
    if small.any():
        healthy[:, small] = ((1.0,), (0.0,), (0.0,))
        mass[small] = 1.0
    healthy /= mass
    return healthy


def logit_rows(cq: np.ndarray, penalty: np.ndarray, rationality: float) -> np.ndarray:
    """Row-wise softmax of ``rationality * cq`` (3, Z, J), overwriting ``cq``.

    Adding the :func:`action_penalty` ``penalty`` (3, 1, J) sets the
    infeasible actions' scores to -inf and leaves the finite others as
    they are.
    """
    scores = np.multiply(cq, rationality, out=cq)
    scores += penalty
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def logit_choice(
    q: np.ndarray,
    dist_table: np.ndarray,
    p: ModelParams,
    *,
    healthy_q: str = "belief",
    infected_forced_home: bool = True,
) -> Policy:
    """Smoothed best response: row-wise softmax of ``rationality * Q``.

    Zero rationality yields the uniform policy over feasible actions; large
    values concentrate on the best-response set. The row maximum is
    subtracted before exponentiation so arbitrarily sharp choices stay
    finite.
    """
    check_healthy_q(healthy_q)
    q = numeric_table("q", q, (NUM_STATES, p.num_zones, p.num_actions))
    d = numeric_table("dist_table", dist_table, (NUM_STATES, p.num_zones))
    cq = healthy_blend(q, d, healthy_q)
    penalty = action_penalty(feasible_actions(p, infected_forced_home)[:, None, :])
    return Policy(logit_rows(cq, penalty, p.rationality), p.a_max)


def blend(current: np.ndarray, target: np.ndarray, inertia: float) -> np.ndarray:
    """Rows ``inertia`` of the way from ``current`` to ``target``; scales ``target`` in place.

    One new array: the bits of ``(1 - inertia) * current + inertia * target``.
    """
    out = np.multiply(current, 1.0 - inertia)
    target *= inertia
    out += target
    return out


def policy_update(current: Policy, target: Policy, inertia: float) -> Policy:
    """Inertial step from ``current`` toward ``target``."""
    if not (is_real(inertia) and 0.0 < inertia <= 1.0):
        raise ValidationError(f"inertia must be a real number in (0, 1]; got {inertia!r}")
    same_dims("current policy", current, "target policy", target)
    return Policy(blend(current.class_rows, target.class_rows.copy(), inertia), current.a_max)
