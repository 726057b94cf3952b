"""Shared domain types and indexing conventions for the zone epidemic game.

Conventions used by every module:

* The five infection states are ordered ``S < A < I < R < U``.
* A population state ``(s, z)`` flattens to ``5 * z + s`` (zone-major).
* An action ``(a, target)`` flattens to ``(a_max + 1) * target + a``,
  where ``a`` is the activation degree and ``target`` the zone the agent
  wants to wake up in tomorrow.
* Probability tables are held in read-only numpy arrays. Constructors
  renormalize sums that are within ``PROB_TOL`` of one and reject anything
  farther off, so floating-point drift is absorbed without masking logic
  errors.

Everything here is immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

NUM_STATES = 5
NUM_CLASSES = 3

# Simplex drift absorbed silently by constructors; anything larger is an error.
PROB_TOL = 1e-12


class ValidationError(ValueError):
    """A domain object or configuration violates a documented invariant."""


class NumericsError(RuntimeError):
    """An internal numerical guarantee failed (solver residual, stochasticity)."""


class InfectionState(IntEnum):
    """Infection compartments in canonical order."""

    S = 0  # susceptible
    A = 1  # infected, no symptoms yet or ever
    I = 2  # infected and symptomatic
    R = 3  # recovered and aware of it (immune, absorbing)
    U = 4  # recovered without ever showing symptoms (immune, unaware)


class BehaviorClass(IntEnum):
    """Groups of infection states indistinguishable to the agent itself.

    Agents in S, A and U have never shown symptoms, cannot tell the three
    states apart, and therefore share one policy row per zone. Policies
    store exactly one row per class so the shared-row constraint holds
    structurally instead of being re-imposed after every update.
    """

    HEALTHY = 0
    SYMPTOMATIC = 1
    RECOVERED = 2


#: BehaviorClass value of each InfectionState, indexable by state value.
CLASS_OF_STATE = np.array([0, 0, 1, 2, 0], dtype=np.intp)
CLASS_OF_STATE.setflags(write=False)

#: Representative InfectionState of each BehaviorClass, indexable by class value:
#: S for the healthy class (its states share one cost table), then I and R.
STATE_OF_CLASS = np.array([0, 2, 3], dtype=np.intp)
STATE_OF_CLASS.setflags(write=False)

HEALTHY_STATES = (InfectionState.S, InfectionState.A, InfectionState.U)


@dataclass(frozen=True)
class ModelParams:
    """Epidemic, preference and rationality scalars shared by all modules.

    Construction runs :func:`validate_params`, so every instance is valid.
    """

    beta_A: float  # infection probability per contact with an asymptomatic agent
    beta_I: float  # infection probability per contact with a symptomatic agent
    delta_A_I: float  # daily P(A -> I), symptoms appear
    delta_A_U: float  # daily P(A -> U), recovery without symptoms
    delta_I_R: float  # daily P(I -> R)
    delta_U_R: float  # daily P(U -> R), e.g. serological testing
    epsilon: float  # fictitious activity mass; keeps pairing defined at zero activity
    num_zones: int
    a_max: int  # largest activation degree
    alpha: float  # discount factor; 0 = myopic
    rationality: float  # logit sharpness; 0 = uniform, large = best response
    inertia: float  # weight of the fresh logit target in the policy update
    migration_cost: float
    illness_cost: float  # flat daily discomfort while symptomatic

    def __post_init__(self) -> None:
        validate_params(self)

    @property
    def num_actions(self) -> int:
        return (self.a_max + 1) * self.num_zones

    @property
    def num_flat_states(self) -> int:
        return NUM_STATES * self.num_zones


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def is_integer(value) -> bool:
    """True for Python and numpy integers, but not for bools."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for integers and finite floats, Python or numpy, but not for bools."""
    return is_integer(value) or (isinstance(value, (float, np.floating)) and math.isfinite(value))


def numeric_table(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` as a read-only float array of ``shape``; anything but numbers is rejected."""
    arr = np.array(value, dtype=object)  # ragged nesting keeps its lists as entries
    _require(arr.shape == shape, f"{name} must be a table of shape {shape}; got {arr.shape}")
    arr = float_entries(name, arr)
    _require(bool(np.all(np.isfinite(arr))), f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def float_entries(name: str, arr: np.ndarray) -> np.ndarray:
    """The object array ``arr`` as floats; bools and anything but numbers are rejected."""
    bad = sorted(
        kind.__name__
        for kind in set(map(type, arr.flat))  # one check per entry type, not per entry
        if issubclass(kind, bool) or not issubclass(kind, (int, float, np.integer, np.floating))
    )
    _require(not bad, f"{name} entries must be numbers; got {', '.join(bad)} entries")
    return arr.astype(float)


def store(container, **values) -> None:
    """Set each field named in ``values`` on the frozen ``container``; arrays become read-only."""
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(container, name, value)


def validate_params(p: ModelParams) -> ModelParams:
    """Return ``p`` unchanged if every documented bound holds.

    Raises ValidationError naming the offending field otherwise. Integer
    fields must be integers, every other field a finite real number; bools
    and strings are rejected rather than coerced.
    """
    for f in fields(ModelParams):
        value = getattr(p, f.name)
        if f.name in ("num_zones", "a_max"):
            _require(is_integer(value), f"{f.name} must be an integer; got {value!r}")
        else:
            _require(is_real(value), f"{f.name} must be a finite real number; got {value!r}")
    _require(0.0 <= p.beta_A <= 1.0, f"beta_A must lie in [0, 1]; got {p.beta_A}")
    _require(0.0 <= p.beta_I <= 1.0, f"beta_I must lie in [0, 1]; got {p.beta_I}")
    _require(0.0 < p.delta_A_I <= 1.0, f"delta_A_I must lie in (0, 1]; got {p.delta_A_I}")
    _require(0.0 <= p.delta_A_U <= 1.0, f"delta_A_U must lie in [0, 1]; got {p.delta_A_U}")
    _require(
        p.delta_A_I + p.delta_A_U <= 1.0,
        f"delta_A_I + delta_A_U must not exceed 1; got {p.delta_A_I + p.delta_A_U}",
    )
    _require(0.0 < p.delta_I_R <= 1.0, f"delta_I_R must lie in (0, 1]; got {p.delta_I_R}")
    _require(0.0 <= p.delta_U_R <= 1.0, f"delta_U_R must lie in [0, 1]; got {p.delta_U_R}")
    _require(p.epsilon > 0.0, f"epsilon must be positive; got {p.epsilon}")
    _require(p.num_zones >= 1, f"num_zones must be >= 1; got {p.num_zones}")
    _require(p.a_max >= 0, f"a_max must be >= 0; got {p.a_max}")
    _require(0.0 <= p.alpha < 1.0, f"alpha must lie in [0, 1); got {p.alpha}")
    _require(p.rationality >= 0.0, f"rationality must be >= 0; got {p.rationality}")
    _require(0.0 < p.inertia <= 1.0, f"inertia must lie in (0, 1]; got {p.inertia}")
    _require(p.migration_cost >= 0.0, f"migration_cost must be >= 0; got {p.migration_cost}")
    _require(p.illness_cost >= 0.0, f"illness_cost must be >= 0; got {p.illness_cost}")
    return p


# --- index bijections ----------------------------------------------------


def flatten_state(s: InfectionState | int, z: int, num_zones: int) -> int:
    """Map (infection state, zone) to the zone-major flat index ``5*z + s``."""
    _require(0 <= int(s) < NUM_STATES, f"infection state out of range: {s}")
    _require(0 <= z < num_zones, f"zone {z} out of range for {num_zones} zones")
    return NUM_STATES * z + int(s)


def unflatten_state(index: int, num_zones: int) -> tuple[InfectionState, int]:
    _require(0 <= index < NUM_STATES * num_zones, f"state index out of range: {index}")
    return InfectionState(index % NUM_STATES), index // NUM_STATES


def flatten_action(a: int, target: int, a_max: int, num_zones: int) -> int:
    """Map (degree, target zone) to the flat index ``(a_max+1)*target + a``."""
    _require(0 <= a <= a_max, f"activation degree {a} out of range [0, {a_max}]")
    _require(0 <= target < num_zones, f"target zone {target} out of range for {num_zones} zones")
    return (a_max + 1) * target + a


def unflatten_action(index: int, a_max: int, num_zones: int) -> tuple[int, int]:
    _require(
        0 <= index < (a_max + 1) * num_zones,
        f"action index out of range: {index}",
    )
    return index % (a_max + 1), index // (a_max + 1)


def action_degrees(a_max: int, num_zones: int) -> np.ndarray:
    """Activation degree of each flat action index."""
    return np.arange(num_zones * (a_max + 1)) % (a_max + 1)


def action_targets(a_max: int, num_zones: int) -> np.ndarray:
    """Target zone of each flat action index."""
    return np.repeat(np.arange(num_zones), a_max + 1)


def flatten_state_table(table: np.ndarray) -> np.ndarray:
    """Reorder a (5, Z) per-state table into the flat (5Z,) zone-major vector."""
    return np.asarray(table).T.reshape(-1)


def unflatten_state_table(flat: np.ndarray, num_zones: int) -> np.ndarray:
    """Inverse of :func:`flatten_state_table`."""
    return np.asarray(flat).reshape(num_zones, NUM_STATES).T


# --- population objects ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class StateDistribution:
    """Population mass over (infection state, zone); sums to one."""

    d: np.ndarray  # (5, Z)

    def __post_init__(self) -> None:
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 2 or d.shape[0] != NUM_STATES:
            raise ValidationError(f"distribution must have shape (5, Z); got {d.shape}")
        # One test of all conditions first (an infinite entry makes the total infinite).
        total = float(d.sum()) if d.min(initial=0.0) >= 0.0 else math.nan
        if not abs(total - 1.0) <= PROB_TOL:
            if not np.isfinite(d).all():
                raise ValidationError("distribution contains non-finite entries")
            if (d < 0.0).any():
                raise ValidationError(f"distribution has negative mass (min {d.min()})")
            if abs(total - 1.0) > PROB_TOL:
                raise ValidationError(f"distribution mass must be 1 within {PROB_TOL}; got {total}")
        store(self, d=d / total)

    @property
    def num_zones(self) -> int:
        return self.d.shape[1]

    def zone_masses(self) -> np.ndarray:
        return self.d.sum(axis=0)

    def active_mass(self) -> float:
        """Total infected mass (A plus I) across zones."""
        return float(self.d[InfectionState.A].sum() + self.d[InfectionState.I].sum())

    def immune_mass(self) -> float:
        """Total recovered mass (R plus U) across zones."""
        return float(self.d[InfectionState.R].sum() + self.d[InfectionState.U].sum())

    def flat(self) -> np.ndarray:
        return flatten_state_table(self.d)


@dataclass(frozen=True, eq=False)
class Policy:
    """Shared behavior rule: one action distribution per (behavior class, zone).

    Rows are indexed by the flat action convention. Reading a row for an
    infection state resolves through :data:`CLASS_OF_STATE`, so the rows of
    S, A and U are the same array and the healthy-class constraint cannot
    drift.
    """

    class_rows: np.ndarray  # (3, Z, num_actions)
    a_max: int

    def __post_init__(self) -> None:
        store(self, class_rows=policy_rows(np.asarray(self.class_rows, dtype=float), self.a_max))

    @property
    def num_zones(self) -> int:
        return self.class_rows.shape[1]

    @property
    def num_actions(self) -> int:
        return self.class_rows.shape[2]

    def class_row(self, cls: BehaviorClass | int, z: int) -> np.ndarray:
        return self.class_rows[int(cls), z]

    def row(self, s: InfectionState | int, z: int) -> np.ndarray:
        """Action distribution of an agent in infection state ``s``, zone ``z``."""
        return self.class_rows[CLASS_OF_STATE[int(s)], z]

    def state_rows(self) -> np.ndarray:
        """Expanded (5, Z, num_actions) view; healthy states share one row."""
        return self.class_rows[CLASS_OF_STATE]

    def mean_degrees(self) -> np.ndarray:
        """Expected activation degree per (behavior class, zone)."""
        deg = action_degrees(self.a_max, self.num_zones)
        return self.class_rows @ deg


def policy_rows(rows: np.ndarray, a_max: int) -> np.ndarray:
    """Float ``rows`` (3, Z, J) over their row sums, once every :class:`Policy` invariant holds."""
    if rows.ndim != 3 or rows.shape[0] != NUM_CLASSES:
        raise ValidationError(f"policy rows must have shape (3, Z, J); got {rows.shape}")
    zones = rows.shape[1]
    expected = (a_max + 1) * zones
    if rows.shape[2] != expected:
        raise ValidationError(
            f"policy rows have {rows.shape[2]} actions; expected {expected} "
            f"for a_max={a_max} and {zones} zones"
        )
    # One test of all conditions first (an infinite entry makes its row sum infinite).
    if rows.min(initial=0.0) >= 0.0:
        sums = rows.sum(axis=-1)
        if np.abs(sums - 1.0).max(initial=0.0) <= PROB_TOL:
            return rows / sums[..., None]
    if not np.isfinite(rows).all():
        raise ValidationError("policy rows contain non-finite entries")
    if (rows < 0.0).any():
        raise ValidationError(f"policy rows have negative probability (min {rows.min()})")
    sums = rows.sum(axis=-1)
    deviation = np.abs(sums - 1.0)
    if (deviation > PROB_TOL).any():
        worst = float(deviation.max())
        raise ValidationError(f"policy row sums deviate from 1 by {worst} (> {PROB_TOL})")
    return rows / sums[..., None]


@dataclass(frozen=True, eq=False)
class SocialState:
    """A policy together with the population distribution it acts in."""

    policy: Policy
    dist: StateDistribution

    def __post_init__(self) -> None:
        if self.policy.num_zones != self.dist.num_zones:
            raise ValidationError(
                f"policy covers {self.policy.num_zones} zones but distribution "
                f"covers {self.dist.num_zones}"
            )


def no_move_rows(p: ModelParams) -> np.ndarray:
    """Class rows (3, Z, J) uniform over activation degrees, all mass on the own zone."""
    zones, width = p.num_zones, p.a_max + 1
    rows = np.zeros((NUM_CLASSES, zones, width * zones))
    for z in range(zones):
        rows[:, z, width * z : width * (z + 1)] = 1.0 / width
    return rows


def uniform_no_move_policy(p: ModelParams) -> Policy:
    """Uniform over activation degrees, all mass on staying in the own zone."""
    return Policy(no_move_rows(p), p.a_max)
