"""Daily rewards: activation benefit net of lockdown, migration and illness costs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    CLASS_OF_STATE,
    NUM_CLASSES,
    NUM_STATES,
    STATE_OF_CLASS,
    BehaviorClass,
    InfectionState,
    Policy,
    ValidationError,
    action_degrees,
    action_targets,
    float_entries,
    is_real,
    store,
)


@dataclass(frozen=True, eq=False)
class RewardConfig:
    """Benefit and cost tables defining the per-day reward.

    ``activation_cost`` must be equal across S, A and U (agents that never
    showed symptoms are treated alike), at least as high for I, and no
    higher for R than for the healthy states. The builder in
    :func:`lockdown_cost` guarantees this by keying the lockdown degree on
    the behavior class. ``table`` is derived on construction: the immediate
    reward of every (state, zone, flat action), shape (5, Z, J).
    """

    benefit: np.ndarray  # (a_max+1,) reward of activating at each degree
    activation_cost: np.ndarray  # (5, Z, a_max+1)
    migration_cost: float
    illness_cost: float
    table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        o = float_entries("benefit", np.array(self.benefit, dtype=object))
        if o.ndim != 1 or o.size < 1:
            raise ValidationError(f"benefit must be a nonempty vector; got shape {o.shape}")
        if not np.all(np.isfinite(o)) or np.any(o < 0.0):
            raise ValidationError("benefit entries must be finite and nonnegative")
        if o[0] != 0.0:
            raise ValidationError(f"benefit at degree 0 must be 0; got {o[0]}")
        if np.any(np.diff(o) < 0.0):
            raise ValidationError("benefit must be nondecreasing in the degree")

        c = float_entries("activation_cost", np.array(self.activation_cost, dtype=object))
        if c.ndim != 3 or c.shape[0] != NUM_STATES or c.shape[2] != o.size:
            raise ValidationError(
                f"activation cost must have shape (5, Z, {o.size}); got {c.shape}"
            )
        if not np.all(np.isfinite(c)) or np.any(c < 0.0):
            raise ValidationError("activation cost entries must be finite and nonnegative")
        if np.any(np.diff(c, axis=2) < 0.0):
            raise ValidationError("activation cost must be nondecreasing in the degree")
        s_, a_, i_, r_, u_ = (
            c[InfectionState.S],
            c[InfectionState.A],
            c[InfectionState.I],
            c[InfectionState.R],
            c[InfectionState.U],
        )
        if not (np.array_equal(s_, a_) and np.array_equal(s_, u_)):
            raise ValidationError("activation cost must be identical for S, A and U")
        if np.any(i_ < s_):
            raise ValidationError("activation cost for I must dominate the healthy cost")
        if np.any(r_ > s_):
            raise ValidationError("activation cost for R must not exceed the healthy cost")

        for name in ("migration_cost", "illness_cost"):
            value = getattr(self, name)
            if not (is_real(value) and value >= 0.0):
                raise ValidationError(f"{name} must be a finite real number >= 0; got {value!r}")

        zones, a_max = c.shape[1], o.size - 1
        deg = action_degrees(a_max, zones)
        moves = action_targets(a_max, zones)[None, :] != np.arange(zones)[:, None]  # (Z, J)
        r = o[deg][None, None, :] - c.take(deg, axis=2) - self.migration_cost * moves[None, :, :]
        r[InfectionState.I] -= self.illness_cost
        store(self, benefit=o, activation_cost=c, table=r)

    @property
    def num_zones(self) -> int:
        return self.activation_cost.shape[1]

    @property
    def a_max(self) -> int:
        return self.benefit.size - 1


def linear_benefit(a_max: int) -> np.ndarray:
    """Benefit proportional to the degree, normalized so the maximum is 1."""
    if a_max < 1:
        raise ValidationError(f"linear benefit needs a_max >= 1; got {a_max}")
    return np.arange(a_max + 1) / a_max


def lockdown_cost(
    lockdown_degrees: np.ndarray,
    benefit: np.ndarray,
    multiplier: float = 3.0,
) -> np.ndarray:
    """Cost table of a lockdown: degrees above the allowed one cost a fine.

    ``lockdown_degrees`` has one allowed degree per (behavior class, zone);
    exceeding it costs ``multiplier`` times the benefit of the chosen
    degree, so overshooting is never worth it for ``multiplier > 1``.
    """
    ld = np.array(lockdown_degrees, dtype=object)
    o = float_entries("benefit", np.array(benefit, dtype=object))
    a_max = o.size - 1
    if ld.ndim != 2 or ld.shape[0] != NUM_CLASSES:
        raise ValidationError(f"lockdown_degrees must have shape (3, Z); got {ld.shape}")
    ld = float_entries("lockdown_degrees", ld)
    if np.any(ld != np.floor(ld)) or np.any(ld < 0) or np.any(ld > a_max):
        raise ValidationError(f"lockdown_degrees must be integers in [0, {a_max}]")
    if not is_real(multiplier) or multiplier <= 0.0:
        raise ValidationError(
            f"lockdown_multiplier must be a finite positive number; got {multiplier!r}"
        )
    ld = ld.astype(int)
    healthy, sympt, recov = (
        ld[BehaviorClass.HEALTHY],
        ld[BehaviorClass.SYMPTOMATIC],
        ld[BehaviorClass.RECOVERED],
    )
    if np.any(sympt > healthy) or np.any(healthy > recov):
        raise ValidationError(
            "lockdown_degrees must satisfy symptomatic <= healthy <= recovered "
            "per zone, otherwise the cost ordering across states breaks"
        )
    degrees = np.arange(a_max + 1)
    over = degrees[None, None, :] > ld[:, :, None]  # (3, Z, a_max+1)
    per_class = np.where(over, multiplier * o[None, None, :], 0.0)
    return per_class[CLASS_OF_STATE]  # (5, Z, a_max+1)


def immediate_reward(
    s: InfectionState | int,
    z: int,
    a: int,
    target: int,
    cfg: RewardConfig,
) -> float:
    """Reward of one agent's day: benefit net of lockdown, moving and illness."""
    if not 0 <= a <= cfg.a_max:
        raise ValidationError(f"activation degree {a} out of range [0, {cfg.a_max}]")
    if not (0 <= z < cfg.num_zones and 0 <= target < cfg.num_zones):
        raise ValidationError(f"zone pair ({z}, {target}) out of range")
    s = InfectionState(int(s))
    value = float(cfg.benefit[a] - cfg.activation_cost[s, z, a])
    if target != z:
        value -= cfg.migration_cost
    if s == InfectionState.I:
        value -= cfg.illness_cost
    return value


def expected_reward(policy: Policy, cfg: RewardConfig) -> np.ndarray:
    """Per-(state, zone) expected one-day reward under the policy; shape (5, Z)."""
    if policy.num_zones != cfg.num_zones or policy.a_max != cfg.a_max:
        raise ValidationError(
            f"policy dimensions ({policy.num_zones} zones, a_max={policy.a_max}) do not "
            f"match reward config ({cfg.num_zones} zones, a_max={cfg.a_max})"
        )
    return class_expected_rewards(policy.class_rows, class_reward_table(cfg.table))


def class_reward_table(table: np.ndarray) -> np.ndarray:
    """Rows (3, Z, J) of a reward ``table`` for each class's :data:`~epigame.core.STATE_OF_CLASS`."""
    return table.take(STATE_OF_CLASS, axis=0)


def class_expected_rewards(class_rows: np.ndarray, class_table: np.ndarray) -> np.ndarray:
    """Per-(state, zone) expected rewards (5, Z) of class rows and a :func:`class_reward_table`.

    S, A and U share their rows and their reward table, so each state's
    reward is its class's, contracted once per class and gathered to the
    states.
    """
    # take() gathers small arrays about twice as fast as fancy indexing.
    return np.einsum("czj,czj->cz", class_rows, class_table).take(CLASS_OF_STATE, axis=0)
