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
    STATE_OF_CLASS,
    BehaviorClass,
    InfectionState,
    ModelParams,
    Policy,
    SocialState,
    StateDistribution,
    ValidationError,
    flatten_action,
    is_real,
    numeric_table,
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
    """Optima of one state's (Z, a_max+1) activation rewards and the zone partition.

    Returns the best reward and its tied degrees per zone, the best reward
    over zones, and the best, leave and neutral zones.
    """
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


def classify_zones(cfg: RewardConfig, p: ModelParams) -> ZoneClassification:
    """Activation optima per (state, zone) and the zone partition per state.

    A zone lands in ``leave_zones[s]`` when the best zone's activation
    reward exceeds the zone's own by strictly more than
    ``(1 - alpha) / alpha * migration_cost``; with ``alpha = 0`` no zone is
    ever worth leaving.
    """
    net = cfg.benefit[None, None, :] - cfg.activation_cost  # (5, Z, a_max+1)
    values, degrees, best, best_zones, leave, neutral = zip(
        *(_partition(net[s], p.alpha, cfg.migration_cost) for s in range(NUM_STATES))
    )
    act_value, best_value = np.array(values), np.array(best)
    act_value.setflags(write=False)
    best_value.setflags(write=False)
    return ZoneClassification(
        activation_value=act_value,
        best_degrees=degrees,
        best_value=best_value,
        best_zones=best_zones,
        leave_zones=leave,
        neutral_zones=neutral,
    )


def dominant_activation(
    cfg: RewardConfig,
    z: int,
    s: InfectionState | int = InfectionState.R,
) -> tuple[int, ...]:
    """Degrees maximizing the activation reward for state ``s`` in zone ``z``."""
    if not 0 <= z < cfg.num_zones:
        raise ValidationError(f"zone {z} out of range for {cfg.num_zones} zones")
    net = cfg.benefit - cfg.activation_cost[int(s), z]
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
    anything else is rejected with the violated condition named. The
    returned policy activates uniformly over the tied dominant degrees,
    stays put outside leave zones, and migrates uniformly to the best
    zones from inside them.
    """
    if cfg.num_zones != p.num_zones or cfg.a_max != p.a_max:
        raise ValidationError("reward config dimensions do not match the parameters")

    # Per-class activation optima over the feasible degrees (those of the
    # actions targeting zone 0); the symptomatic class may be confined.
    degree_mask = feasible_actions(p, infected_forced_home)[:, : p.a_max + 1]
    class_degrees, class_best_zones, class_leave = [], [], []
    for cls in BehaviorClass:
        net = cfg.benefit[None, :] - cfg.activation_cost[STATE_OF_CLASS[cls]]  # (Z, a_max+1)
        net = np.where(degree_mask[cls], net, -np.inf)
        _, degrees, _, best_zones, leave, _ = _partition(net, p.alpha, cfg.migration_cost)
        class_degrees.append(degrees)
        class_best_zones.append(best_zones)
        class_leave.append(leave)

    split = numeric_table("mass split", mass_split, (NUM_STATES, p.num_zones))
    for s in (InfectionState.A, InfectionState.I, InfectionState.U):
        if np.any(split[s] != 0.0):
            z = int(np.flatnonzero(split[s])[0])
            raise ValidationError(
                f"stationary equilibria carry no mass on state {s.name}: "
                f"condition d[{s.name}, z] = 0 violated in zone {z}"
            )
    for s, cls in ((InfectionState.S, BehaviorClass.HEALTHY), (InfectionState.R, BehaviorClass.RECOVERED)):
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
    plan = DayPlan(cfg.table, p, infected_forced_home=infected_forced_home)
    d = social.dist.d
    matrix, stay, values = plan.terms(plan.state_rewards(social.policy.class_rows), d)
    q = lookahead_q(stay, values, plan.table, plan.law, p.alpha)

    states = social.policy.class_rows.take(CLASS_OF_STATE, axis=0)
    averaged = np.einsum("szj,szj->sz", states, q)
    allowed = (plan.penalty == 0.0)[CLASS_OF_STATE] | (states > 0.0)  # (5, 1, J) | (5, Z, J)
    best = np.where(allowed, q, -np.inf).max(axis=2)
    gaps = best - averaged

    occupied = d > 0.0
    se1 = float(gaps[occupied].max()) if occupied.any() else 0.0
    se1_un = float(gaps[~occupied].max()) if (~occupied).any() else 0.0
    se2 = float(np.abs(propagate_mass(d, matrix) - d).max())
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
