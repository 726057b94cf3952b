"""Daily rewards: activation benefit net of lockdown, migration and illness costs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    CLASS_OF_STATE,
    NUM_CLASSES,
    NUM_STATES,
    BehaviorClass,
    InfectionState,
    Policy,
    ValidationError,
    action_degrees,
    action_targets,
    checked_index,
    float_entries,
    is_integer,
    is_real,
    same_dims,
    store,
)


@dataclass(frozen=True, eq=False)
class RewardConfig:
    """Benefit and cost tables defining the per-day reward.

    ``activation_cost`` has one row per behavior class, as a
    :class:`~epigame.core.Policy` has: S, A and U cannot tell their states
    apart, so they share the healthy row. The symptomatic row must be at
    least the healthy one and the recovered row at most; :func:`lockdown_cost`
    builds such a table. ``table`` is derived on construction: the immediate
    reward of every (class, zone, flat action), shape (3, Z, J), with
    ``illness_cost`` on the symptomatic row. State s reads row
    ``CLASS_OF_STATE[s]`` of either.
    """

    benefit: np.ndarray  # (a_max+1,) reward of activating at each degree
    activation_cost: np.ndarray  # (3, Z, a_max+1)
    migration_cost: float
    illness_cost: float
    table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        o = checked_benefit(self.benefit)
        c = np.array(float_entries("activation_cost", self.activation_cost))
        if c.ndim != 3 or c.shape[0] != NUM_CLASSES or c.shape[2] != o.size:
            raise ValidationError(
                f"activation cost must have shape (3, Z, {o.size}); got {c.shape}"
            )
        if not np.all(np.isfinite(c)) or np.any(c < 0.0):
            raise ValidationError("activation cost entries must be finite and nonnegative")
        if np.any(np.diff(c, axis=2) < 0.0):
            raise ValidationError("activation cost must be nondecreasing in the degree")
        healthy, sympt, recov = c
        if np.any(sympt < healthy):
            raise ValidationError("activation cost for I must dominate the healthy cost")
        if np.any(recov > healthy):
            raise ValidationError("activation cost for R must not exceed the healthy cost")

        for name in ("migration_cost", "illness_cost"):
            value = getattr(self, name)
            if not (is_real(value) and value >= 0.0):
                raise ValidationError(f"{name} must be a finite real number >= 0; got {value!r}")

        zones, a_max = c.shape[1], o.size - 1
        deg = action_degrees(a_max, zones)
        moves = action_targets(a_max, zones)[None, :] != np.arange(zones)[:, None]  # (Z, J)
        r = o[deg][None, None, :] - c.take(deg, axis=2) - self.migration_cost * moves[None, :, :]
        r[BehaviorClass.SYMPTOMATIC] -= self.illness_cost
        store(self, benefit=o, activation_cost=c, table=r)

    @property
    def num_zones(self) -> int:
        return self.activation_cost.shape[1]

    @property
    def a_max(self) -> int:
        return self.benefit.size - 1


def linear_benefit(a_max: int) -> np.ndarray:
    """Benefit proportional to the degree, normalized so the maximum is 1."""
    if not (is_integer(a_max) and a_max >= 1):
        raise ValidationError(f"linear benefit needs an integer a_max >= 1; got {a_max!r}")
    return np.arange(a_max + 1) / a_max


def checked_benefit(benefit) -> np.ndarray:
    """A float copy of ``benefit``, a nonempty, nonnegative, nondecreasing vector from 0."""
    o = np.array(float_entries("benefit", benefit))
    if o.ndim != 1 or o.size < 1:
        raise ValidationError(f"benefit must be a nonempty vector; got shape {o.shape}")
    if not np.all(np.isfinite(o)) or np.any(o < 0.0):
        raise ValidationError("benefit entries must be finite and nonnegative")
    if o[0] != 0.0:
        raise ValidationError(f"benefit at degree 0 must be 0; got {o[0]}")
    if np.any(np.diff(o) < 0.0):
        raise ValidationError("benefit must be nondecreasing in the degree")
    return o


def lockdown_cost(
    lockdown_degrees: np.ndarray,
    benefit: np.ndarray,
    multiplier: float = 3.0,
) -> np.ndarray:
    """Class cost table (3, Z, a_max+1) of a lockdown: degrees above the allowed one cost a fine.

    ``lockdown_degrees`` has one allowed degree per (behavior class, zone);
    exceeding it costs ``multiplier`` times the benefit of the chosen
    degree, so overshooting is never worth it for ``multiplier > 1``.
    ``benefit`` must pass the :class:`RewardConfig` benefit rule.
    """
    ld = float_entries("lockdown_degrees", lockdown_degrees)
    o = checked_benefit(benefit)
    a_max = o.size - 1
    if ld.ndim != 2 or ld.shape[0] != NUM_CLASSES:
        raise ValidationError(f"lockdown_degrees must have shape (3, Z); got {ld.shape}")
    if np.any(ld != np.floor(ld)) or np.any(ld < 0) or np.any(ld > a_max):
        raise ValidationError(f"lockdown_degrees must be integers in [0, {a_max}]")
    if not is_real(multiplier) or multiplier <= 0.0:
        raise ValidationError(
            f"lockdown_multiplier must be a finite positive number; got {multiplier!r}"
        )
    ld = ld.astype(int)
    healthy, sympt, recov = ld
    if np.any(sympt > healthy) or np.any(healthy > recov):
        raise ValidationError(
            "lockdown_degrees must satisfy symptomatic <= healthy <= recovered "
            "per zone, otherwise the cost ordering across classes breaks"
        )
    over = np.arange(a_max + 1)[None, None, :] > ld[:, :, None]  # (3, Z, a_max+1)
    return np.where(over, multiplier * o[None, None, :], 0.0)


def immediate_reward(
    s: InfectionState | int,
    z: int,
    a: int,
    target: int,
    cfg: RewardConfig,
) -> float:
    """Reward of one agent's day: benefit net of lockdown, moving and illness."""
    a = checked_index("activation degree", a, cfg.a_max + 1)
    z = checked_index("zone", z, cfg.num_zones)
    target = checked_index("target zone", target, cfg.num_zones)
    s = InfectionState(checked_index("infection state", s, NUM_STATES))
    value = float(cfg.benefit[a] - cfg.activation_cost[CLASS_OF_STATE[s], z, a])
    if target != z:
        value -= cfg.migration_cost
    if s == InfectionState.I:
        value -= cfg.illness_cost
    return value


def expected_reward(policy: Policy, cfg: RewardConfig) -> np.ndarray:
    """Per-(state, zone) expected one-day reward under the policy; shape (5, Z)."""
    same_dims("policy", policy, "reward config", cfg)
    return class_expected_rewards(policy.class_rows, cfg.table)


def class_expected_rewards(class_rows: np.ndarray, class_table: np.ndarray) -> np.ndarray:
    """Per-(state, zone) expected rewards (5, Z) of class rows and a class reward table.

    ``class_table`` is a :attr:`RewardConfig.table` (3, Z, J). S, A and U
    share their policy row and their reward row, so each state's reward is
    its class's, contracted once per class and gathered to the states.
    """
    # take() gathers small arrays about twice as fast as fancy indexing.
    return np.einsum("czj,czj->cz", class_rows, class_table).take(CLASS_OF_STATE, axis=0)
