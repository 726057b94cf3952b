"""Single-agent valuation and choice against a frozen social state.

An agent evaluates a unilateral one-day deviation while everyone else,
including its own future self, keeps playing the shared policy. That
yields a linear value equation solved directly, per-action lookahead
values, and the smoothed (logit) choice rule that drives the dynamics.
"""

from __future__ import annotations

import numpy as np

from .core import (
    HEALTHY_STATES,
    NUM_CLASSES,
    NUM_STATES,
    BehaviorClass,
    InfectionState,
    ModelParams,
    NumericsError,
    Policy,
    SocialState,
    ValidationError,
    action_degrees,
    flatten_state_table,
    unflatten_state_table,
)
from .epidemic import TransitionKernel, assemble_kernel, idle_law, survival
from .rewards import RewardConfig

# Q values closer than this are treated as tied when picking best responses.
TIE_TOL = 1e-9

# Residual bound for the direct linear solve of the value equation, in units
# of max(1, |r|_inf / (1 - alpha)), the scale of V.
VALUE_RESIDUAL_TOL = 1e-10

# Healthy mass below this falls back to the susceptible row when weighting Q.
BELIEF_FLOOR = 1e-12

HEALTHY_Q_MODES = ("belief", "assume_susceptible")


def value_function(
    kernel: TransitionKernel,
    expected_rewards: np.ndarray,
    p: ModelParams,
) -> np.ndarray:
    """Discounted value of following the shared policy forever; shape (5, Z).

    Solves ``(I - alpha * P) V = R`` directly; the system is small and
    strictly diagonally dominant for ``alpha < 1``. The residual gate is
    relative to ``|r|_inf / (1 - alpha)``, the bound on ``|V|_inf``.
    """
    n = p.num_flat_states
    r = flatten_state_table(np.asarray(expected_rewards, dtype=float))
    if r.shape != (n,):
        raise ValidationError(f"expected rewards must have shape (5, {p.num_zones})")
    system = np.eye(n) - p.alpha * kernel.matrix
    v = np.linalg.solve(system, r)
    residual = float(np.abs(system @ v - r).max())
    tol = VALUE_RESIDUAL_TOL * max(1.0, float(np.abs(r).max()) / (1.0 - p.alpha))
    if residual > tol:
        raise NumericsError(f"value equation residual {residual} exceeds {tol}")
    return unflatten_state_table(v, p.num_zones)


def lookahead_q(
    stay: np.ndarray, values: np.ndarray, table: np.ndarray, p: ModelParams
) -> np.ndarray:
    """Reward ``table`` (5, Z, J) plus discounted ``values`` of tomorrow's state.

    Tomorrow lies in the action's target zone (the flat action axis splits
    into target and degree). S survives with probability ``stay`` (Z,
    a_max+1) or turns A; other states follow :func:`~epigame.epidemic.idle_law`.
    """
    zones, width = p.num_zones, p.a_max + 1
    S, A = InfectionState.S, InfectionState.A
    tomorrow = np.empty((NUM_STATES, zones, zones, width))
    tomorrow[:] = (idle_law(p) @ values)[:, None, :, None]
    stay = stay[:, None, :]  # (Z, 1, a_max+1) against (Z', 1) values
    tomorrow[S] = stay * values[S][:, None] + (1.0 - stay) * values[A][:, None]
    return table + p.alpha * tomorrow.reshape(NUM_STATES, zones, p.num_actions)


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
    values = np.asarray(values, dtype=float)
    if values.shape != (NUM_STATES, p.num_zones):
        raise ValidationError(f"values must have shape (5, {p.num_zones}); got {values.shape}")
    return lookahead_q(survival(social, p), values, cfg.table, p)


def day_terms(
    social: SocialState, table: np.ndarray, p: ModelParams
) -> tuple[TransitionKernel, np.ndarray]:
    """One day's evaluation of a social state: its kernel and its Q table.

    The survival table is computed once and shared by the kernel, the value
    solve and the lookahead, so the dynamics and the equilibrium checker act
    on the same Q. ``table`` is a :class:`~epigame.rewards.RewardConfig`'s
    reward table.
    """
    rows = social.policy.state_rows()
    if table.shape != rows.shape:
        raise ValidationError(f"reward table shape {table.shape} does not match {rows.shape}")
    stay = survival(social, p)
    kernel = assemble_kernel(rows, stay, p)
    values = value_function(kernel, np.einsum("szj,szj->sz", rows, table), p)
    return kernel, lookahead_q(stay, values, table, p)


def feasible_actions(p: ModelParams, infected_forced_home: bool = True) -> np.ndarray:
    """Boolean (3, J) mask of actions available to each behavior class.

    With ``infected_forced_home`` the symptomatic class may only pick
    degree 0 (choice of tomorrow's zone stays free).
    """
    mask = np.ones((NUM_CLASSES, p.num_actions), dtype=bool)
    if infected_forced_home:
        mask[BehaviorClass.SYMPTOMATIC] = action_degrees(p.a_max, p.num_zones) == 0
    return mask


def best_response(
    q: np.ndarray,
    s: InfectionState | int,
    z: int,
    tie_tol: float = TIE_TOL,
    feasible: np.ndarray | None = None,
) -> np.ndarray:
    """Flat indices of all actions within ``tie_tol`` of the best Q value."""
    row = np.asarray(q)[int(s), z]
    allowed = np.ones(row.shape, dtype=bool) if feasible is None else np.asarray(feasible, bool)
    best = row[allowed].max()
    return np.flatnonzero((row >= best - tie_tol) & allowed)


def class_q(
    q: np.ndarray,
    dist_table: np.ndarray,
    mode: str = "belief",
) -> np.ndarray:
    """Q values per behavior class; shape (3, Z, J).

    The healthy class cannot tell S, A and U apart. In ``belief`` mode its
    Q row is the posterior-weighted blend of the three states' rows given
    the current distribution (falling back to the susceptible row when the
    zone holds almost no healthy mass); ``assume_susceptible`` always uses
    the susceptible row.
    """
    if mode not in HEALTHY_Q_MODES:
        raise ValidationError(f"healthy_q must be one of {HEALTHY_Q_MODES}; got {mode!r}")
    q = np.asarray(q, dtype=float)
    d = np.asarray(dist_table, dtype=float)
    zones = q.shape[1]
    out = np.empty((NUM_CLASSES, zones, q.shape[2]))
    out[BehaviorClass.SYMPTOMATIC] = q[InfectionState.I]
    out[BehaviorClass.RECOVERED] = q[InfectionState.R]
    if mode == "assume_susceptible":
        out[BehaviorClass.HEALTHY] = q[InfectionState.S]
        return out
    idx = [int(s) for s in HEALTHY_STATES]
    healthy_mass = d[idx].sum(axis=0)  # (Z,)
    weights = np.zeros((len(idx), zones))
    small = healthy_mass < BELIEF_FLOOR
    weights[:, ~small] = d[idx][:, ~small] / healthy_mass[~small]
    weights[0, small] = 1.0  # degenerate zones: act as if susceptible
    out[BehaviorClass.HEALTHY] = np.einsum("hz,hzj->zj", weights, q[idx])
    return out


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
    cq = class_q(q, dist_table, healthy_q)
    mask = feasible_actions(p, infected_forced_home)
    scores = np.where(mask[:, None, :], p.rationality * cq, -np.inf)
    scores = scores - scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    rows = weights / weights.sum(axis=-1, keepdims=True)
    return Policy(rows, p.a_max)


def policy_update(current: Policy, target: Policy, inertia: float) -> Policy:
    """Inertial step from ``current`` toward ``target``."""
    if not 0.0 < inertia <= 1.0:
        raise ValidationError(f"inertia must lie in (0, 1]; got {inertia}")
    if current.num_zones != target.num_zones or current.a_max != target.a_max:
        raise ValidationError("policies being blended have different dimensions")
    rows = (1.0 - inertia) * current.class_rows + inertia * target.class_rows
    return Policy(rows, current.a_max)
