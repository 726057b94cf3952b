"""Stationary equilibria: closed-form construction and numerical checking.

Once nobody is infected, only the activation rewards matter. Every zone
then has a best achievable activation reward per state; a zone is worth
leaving when the shortfall against the best zone exceeds what the
migration cost amounts to as a perpetuity, ``(1 - alpha) / alpha *
migration_cost``. Placing all mass on S and R in zones not worth leaving,
activating on the dominant degrees, and migrating only out of zones worth
leaving yields a stationary equilibrium; ``check_equilibrium`` verifies
the two defining conditions numerically for any social state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CLASS_OF_STATE,
    NUM_CLASSES,
    NUM_STATES,
    BehaviorClass,
    InfectionState,
    ModelParams,
    Policy,
    SocialState,
    StateDistribution,
    ValidationError,
    checked_index,
    is_real,
    numeric_table,
    same_dims,
)
from .decision import DayPlan, feasible_actions, lookahead_q, tied
from .epidemic import propagate_mass
from .rewards import RewardConfig


@dataclass(frozen=True, eq=False)
class ZoneClassification:
    """Per-state activation optima and the induced partition of zones."""

    activation_value: np.ndarray  # (5, Z) best achievable activation reward
    best_degrees: tuple[tuple[tuple[int, ...], ...], ...]  # [s][z] -> tied degrees
    best_value: np.ndarray  # (5,) best activation reward over zones
    best_zones: tuple[tuple[int, ...], ...]  # [s] -> zones achieving it
    leave_zones: tuple[tuple[int, ...], ...]  # [s] -> zones worth leaving
    neutral_zones: tuple[tuple[int, ...], ...]  # [s] -> remaining zones

    @property
    def num_zones(self) -> int:
        return self.activation_value.shape[1]


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """Numerical slack of the two stationary-equilibrium conditions."""

    se1_gap: float  # best achievable one-day deviation gain, occupied states
    se1_gap_unoccupied: float  # same over zero-mass states (informational)
    se2_gap: float  # sup-norm distance of the distribution from stationarity
    tol: float
    verdict: bool
    gaps: np.ndarray  # (5, Z) per-state deviation gains
    occupied: np.ndarray  # (5, Z) boolean mask of states carrying mass


def _partition(net: np.ndarray, alpha: float, migration_cost: float) -> tuple:
    """Optima of activation rewards ``net`` (k, Z, a_max+1) and the zone partition of each row.

    Returns the best reward per zone (k, Z), the mask of its :func:`tied`
    degrees (k, Z, a_max+1), and the masks (k, Z) of the best zones and of
    the zones worth leaving: those outside the best ones whose shortfall
    against the best zone exceeds ``(1 - alpha) / alpha * migration_cost``,
    never with ``alpha = 0``. The remaining zones are neutral.
    """
    values = net.max(axis=2)
    best_zones = tied(values)
    threshold = math.inf if alpha == 0.0 else (1.0 - alpha) / alpha * migration_cost
    leave = ~best_zones & (values.max(axis=1, keepdims=True) - values > threshold)
    return values, tied(net), best_zones, leave


def _indices(mask: np.ndarray) -> tuple:
    """Nested tuples of the True positions along the last axis of ``mask``."""
    if mask.ndim == 1:
        return tuple(np.flatnonzero(mask).tolist())
    return tuple(_indices(m) for m in mask)


def classify_zones(cfg: RewardConfig, p: ModelParams) -> ZoneClassification:
    """Activation optima per (state, zone) and the zone partition per state.

    One :func:`_partition` of the five state rows gives every field, as
    the masks turned into index tuples. A zone lands in ``leave_zones[s]``
    when the best zone's activation reward exceeds the zone's own by
    strictly more than ``(1 - alpha) / alpha * migration_cost``; with
    ``alpha = 0`` no zone is ever worth leaving.
    """
    net = cfg.benefit - cfg.activation_cost.take(CLASS_OF_STATE, axis=0)  # (5, Z, a_max+1)
    values, degrees, best_zones, leave = _partition(net, p.alpha, cfg.migration_cost)
    best_value = values.max(axis=1)
    values.setflags(write=False)
    best_value.setflags(write=False)
    return ZoneClassification(
        activation_value=values,
        best_degrees=_indices(degrees),
        best_value=best_value,
        best_zones=_indices(best_zones),
        leave_zones=_indices(leave),
        neutral_zones=_indices(~(best_zones | leave)),
    )


def dominant_activation(
    cfg: RewardConfig,
    z: int,
    s: InfectionState | int = InfectionState.R,
) -> tuple[int, ...]:
    """Degrees maximizing the activation reward for state ``s`` in zone ``z``."""
    cls = CLASS_OF_STATE[checked_index("infection state", s, NUM_STATES)]
    net = cfg.benefit - cfg.activation_cost[cls, checked_index("zone", z, cfg.num_zones)]
    return tuple(int(a) for a in np.flatnonzero(tied(net)))


def construct_equilibrium(
    cfg: RewardConfig,
    p: ModelParams,
    mass_split: np.ndarray,
    *,
    infected_forced_home: bool = True,
) -> SocialState:
    """Build a stationary equilibrium carrying the requested mass.

    ``mass_split`` is a (5, Z) table of population mass. It may only load
    states S and R, and only in zones those states do not prefer to leave;
    anything else is rejected with the violated condition named, in the
    lowest offending zone (A, I and U mass first). One :func:`_partition`
    of the three class rows, over their feasible degrees, gives the
    policy as masks: each row activates uniformly over its tied dominant
    degrees, stays put outside leave zones, and migrates uniformly to the
    best zones from inside them.
    """
    same_dims("reward config", cfg, "parameters", p)

    # Per-class activation optima over the feasible degrees (those of the
    # actions targeting zone 0); the symptomatic class may be confined.
    degree_mask = feasible_actions(p, infected_forced_home)[:, None, : p.a_max + 1]
    net = np.where(degree_mask, cfg.benefit - cfg.activation_cost, -np.inf)  # (3, Z, a_max+1)
    _, degrees, best_zones, leave = _partition(net, p.alpha, cfg.migration_cost)

    split = numeric_table("mass split", mass_split, (NUM_STATES, p.num_zones))
    for s in (InfectionState.A, InfectionState.I, InfectionState.U):
        if np.any(split[s] != 0.0):
            z = int(np.flatnonzero(split[s])[0])
            raise ValidationError(
                f"stationary equilibria carry no mass on state {s.name}: "
                f"condition d[{s.name}, z] = 0 violated in zone {z}"
            )
    for s, cls in ((InfectionState.S, BehaviorClass.HEALTHY), (InfectionState.R, BehaviorClass.RECOVERED)):
        offending = np.flatnonzero(leave[cls] & (split[s] != 0.0))
        if offending.size:
            z = int(offending[0])
            raise ValidationError(
                f"condition 'd[{s.name}, z] = 0 for zones worth leaving' violated: "
                f"zone {z} has mass {split[s, z]} but its activation shortfall "
                f"exceeds the discounted migration cost"
            )

    # Row (cls, z) spreads one share over its tied degrees times its targets:
    # the best zones from a leave zone, z itself from any other.
    targets = np.where(leave[:, :, None], best_zones[:, None, :], np.eye(p.num_zones, dtype=bool))
    share = 1.0 / (degrees.sum(axis=2) * targets.sum(axis=2))  # (3, Z)
    rows = (targets[:, :, :, None] & degrees[:, :, None, :]) * share[:, :, None, None]
    rows = rows.reshape(NUM_CLASSES, p.num_zones, p.num_actions)  # flat action (a_max+1)*t + a
    return SocialState(Policy(rows, p.a_max), StateDistribution(split))


def check_equilibrium(
    social: SocialState,
    cfg: RewardConfig,
    p: ModelParams,
    tol: float = 1e-8,
    *,
    infected_forced_home: bool = True,
) -> EquilibriumReport:
    """Measure how far a social state is from a stationary equilibrium.

    The first condition (no profitable one-day deviation) is evaluated for
    every state but the verdict only counts states that carry mass, since
    zero-mass states never bind; their worst gap is reported separately.
    The second condition is stationarity of the distribution under one
    application of the kernel. The kernel and the terms of Q come from the
    same :meth:`~epigame.decision.DayPlan.terms` evaluation the dynamics
    step on; Q is built per state from them, as :func:`~epigame.decision.q_function` does.
    """
    if not (is_real(tol) and tol > 0.0):
        raise ValidationError(f"tol must be a finite positive number; got {tol!r}")
    plan = DayPlan(cfg, p, infected_forced_home=infected_forced_home)
    same_dims("policy", social.policy, "parameters", p)
    d = social.dist.d
    kernel, stay, values = plan.terms(plan.state_rewards(social.policy.class_rows), d)
    q = lookahead_q(stay, values, cfg.table.take(CLASS_OF_STATE, axis=0), plan.law, p.alpha)

    rows = social.policy.class_rows
    averaged = np.einsum("szj,szj->sz", rows.take(CLASS_OF_STATE, axis=0), q)
    # Deviations may reach the feasible actions and any action the policy plays.
    blocked = ((plan.penalty != 0.0) & (rows == 0.0)).take(CLASS_OF_STATE, axis=0)
    q[blocked] = -np.inf
    gaps = q.max(axis=2) - averaged

    occupied = d > 0.0
    se1 = float(gaps[occupied].max()) if occupied.any() else 0.0
    se1_un = float(gaps[~occupied].max()) if (~occupied).any() else 0.0
    se2 = float(np.abs(propagate_mass(d, kernel) - d).max())
    gaps.setflags(write=False)
    occupied.setflags(write=False)
    return EquilibriumReport(
        se1_gap=se1,
        se1_gap_unoccupied=se1_un,
        se2_gap=se2,
        tol=tol,
        verdict=bool(se1 <= tol and se2 <= tol),
        gaps=gaps,
        occupied=occupied,
    )
