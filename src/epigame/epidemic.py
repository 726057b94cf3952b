"""Population-dependent epidemic transitions.

Whether a susceptible agent gets infected depends on who else is out
interacting in its zone, which in turn depends on the whole population's
policy and distribution. This module computes per-zone activity masses,
the encounter probabilities they induce, the transition law of a single
agent (only a susceptible agent's depends on its action, through the
survival table), and the policy-averaged kernel of the whole population.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import (
    NUM_STATES,
    PROB_TOL,
    InfectionState,
    ModelParams,
    NumericsError,
    SocialState,
    StateDistribution,
    ValidationError,
    action_degrees,
    flatten_state_table,
    float_entries,
    unflatten_state_table,
)


@dataclass(frozen=True, eq=False)
class ActivityMasses:
    """Aggregate activation mass per zone, total and per infectious state."""

    total: np.ndarray  # (Z,) everyone's activity
    asymptomatic: np.ndarray  # (Z,) activity of agents in A
    symptomatic: np.ndarray  # (Z,) activity of agents in I

    def __post_init__(self) -> None:
        for name, arr in _stored_fields(self, "activity mass"):
            if (arr < 0.0).any() or not np.isfinite(arr).all():
                raise ValidationError(f"activity mass {name} must be finite and nonnegative")
        if (self.asymptomatic + self.symptomatic > self.total + PROB_TOL).any():
            raise ValidationError("infectious activity exceeds total activity")


@dataclass(frozen=True, eq=False)
class EncounterProbs:
    """Outcome distribution of one pairing attempt in each zone."""

    no_partner: np.ndarray  # (Z,) matched with nobody (fictitious mass)
    asymptomatic: np.ndarray  # (Z,) partner is asymptomatically infected
    symptomatic: np.ndarray  # (Z,) partner is symptomatically infected

    def __post_init__(self) -> None:
        for name, arr in _stored_fields(self, "encounter probability"):
            if (arr < 0.0).any() or (arr > 1.0 + PROB_TOL).any():
                raise ValidationError(f"encounter probability {name} outside [0, 1]")
            if not np.isfinite(arr).all():
                raise ValidationError(f"encounter probability {name} must be finite")
        if (self.no_partner + self.asymptomatic + self.symptomatic > 1.0 + PROB_TOL).any():
            raise ValidationError("encounter probabilities of one attempt exceed 1")


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """Dense row-stochastic kernel over flat (state, zone) indices."""

    matrix: np.ndarray  # (5Z, 5Z), zone-major flattening on both axes
    num_zones: int

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        check_kernel(m, self.num_zones)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def propagate(self, dist: StateDistribution) -> np.ndarray:
        """One day of mass transport; returns the raw (5, Z) product."""
        return propagate_mass(dist.d, self.matrix)


def _stored_fields(container, kind: str):
    """Yield (name, array) for each field of ``container``, stored as a read-only float array.

    Each field must hold numbers only, be one-dimensional and be as long as
    the first; ``kind`` names the fields in the messages. The caller checks
    the values of each field as it is yielded.
    """
    first = None
    for f in fields(container):
        arr = float_entries(f"{kind} {f.name}", np.array(getattr(container, f.name), dtype=object))
        if arr.ndim != 1:
            raise ValidationError(f"{kind} {f.name} must be one-dimensional")
        if first is None:
            first = (f.name, arr.size)
        elif arr.size != first[1]:
            raise ValidationError(
                f"{kind} {f.name} has length {arr.size}; {first[0]} has length {first[1]}"
            )
        arr.setflags(write=False)
        object.__setattr__(container, f.name, arr)
        yield f.name, arr


def check_kernel(m: np.ndarray, num_zones: int) -> None:
    """Raise unless the float matrix is a valid :class:`TransitionKernel` over ``num_zones``."""
    n = NUM_STATES * num_zones
    if m.shape != (n, n):
        raise ValidationError(f"kernel must have shape ({n}, {n}); got {m.shape}")
    # One test of all conditions first (an infinite entry makes its row sum infinite).
    if m.min(initial=0.0) >= 0.0 and np.abs(m.sum(axis=1) - 1.0).max() <= PROB_TOL:
        return
    if (m < 0.0).any() or not np.isfinite(m).all():
        raise ValidationError("kernel entries must be finite and nonnegative")
    worst = float(np.abs(m.sum(axis=1) - 1.0).max())
    if worst > PROB_TOL:
        raise NumericsError(f"kernel rows deviate from stochasticity by {worst}")


def propagate_mass(d: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """One day of mass transport of a (5, Z) table through a flat kernel matrix."""
    return unflatten_state_table(flatten_state_table(d) @ matrix, d.shape[1])


def activity_arrays(rows: np.ndarray, d: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Total, asymptomatic and symptomatic activity (3, Z) of state rows (5, Z, J) on ``d``."""
    mean_deg = rows @ degrees  # (5, Z)
    out = np.empty((3, d.shape[1]))
    np.einsum("sz,sz->z", d, mean_deg, out=out[0])
    np.multiply(d[InfectionState.A], mean_deg[InfectionState.A], out=out[1])
    np.multiply(d[InfectionState.I], mean_deg[InfectionState.I], out=out[2])
    return out


def encounter_arrays(total, asymptomatic, symptomatic, epsilon: float) -> np.ndarray:
    """No-partner, asymptomatic and symptomatic encounter probabilities (3, Z)."""
    pool = total + epsilon
    out = np.empty((3,) + pool.shape)
    np.divide(epsilon, pool, out=out[0])
    np.divide(asymptomatic, pool, out=out[1])
    np.divide(symptomatic, pool, out=out[2])
    return out


def activity_masses(social: SocialState, p: ModelParams) -> ActivityMasses:
    """Expected activation mass per zone under the current policy."""
    deg = action_degrees(p.a_max, p.num_zones)
    return ActivityMasses(*activity_arrays(social.policy.state_rows(), social.dist.d, deg))


def encounter_probs(masses: ActivityMasses, p: ModelParams) -> EncounterProbs:
    """Probabilities of whom one unit of activity meets, per zone.

    A fictitious activity mass ``epsilon`` is always present, so the
    pairing distribution stays well defined when nobody is active: in that
    limit every attempt matches nobody.
    """
    return EncounterProbs(
        *encounter_arrays(masses.total, masses.asymptomatic, masses.symptomatic, p.epsilon)
    )


def idle_law(p: ModelParams) -> np.ndarray:
    """Next-state law (5, 5) at degree 0: a susceptible agent stays susceptible."""
    _, A, I, R, U = InfectionState
    law = np.diag([1.0, 1.0 - p.delta_A_I - p.delta_A_U, 1.0 - p.delta_I_R, 1.0, 1.0 - p.delta_U_R])
    law[A, I], law[A, U], law[I, R], law[U, R] = p.delta_A_I, p.delta_A_U, p.delta_I_R, p.delta_U_R
    return law


def infection_transition(
    s: InfectionState | int,
    z: int,
    a: int,
    probs: EncounterProbs,
    p: ModelParams,
) -> np.ndarray:
    """Next-day infection-state distribution for one agent.

    Only the susceptible row depends on the activation degree: each of the
    ``a`` contacts independently infects with probability ``beta_A`` or
    ``beta_I`` depending on the partner drawn.
    """
    if not 0 <= a <= p.a_max:
        raise ValidationError(f"activation degree {a} out of range [0, {p.a_max}]")
    if not 0 <= z < p.num_zones:
        raise ValidationError(f"zone {z} out of range for {p.num_zones} zones")
    s = InfectionState(int(s))
    out = idle_law(p)[s]
    if s == InfectionState.S:
        pressure = p.beta_A * probs.asymptomatic[z] + p.beta_I * probs.symptomatic[z]
        stay = float(np.clip(1.0 - pressure, 0.0, 1.0)) ** a
        out[InfectionState.S], out[InfectionState.A] = stay, 1.0 - stay
    return out


def survival_table(
    rows: np.ndarray, d: np.ndarray, degrees: np.ndarray, powers: np.ndarray, p: ModelParams
) -> np.ndarray:
    """Chance (Z, a_max+1) that a susceptible agent stays S through ``powers`` contacts.

    ``rows`` (5, Z, J) act on the distribution table ``d`` (5, Z);
    ``degrees`` is the activation degree of each flat action. The activity
    masses and encounter probabilities are not checked: when the rows are
    stochastic, ``d`` is a distribution, the degrees lie in 0..a_max and
    ``epsilon > 0``, they pass the checks of :class:`ActivityMasses` and
    :class:`EncounterProbs` by construction.
    """
    probs = encounter_arrays(*activity_arrays(rows, d, degrees), p.epsilon)
    pressure = p.beta_A * probs[1] + p.beta_I * probs[2]  # (Z,)
    base = np.clip(1.0 - pressure, 0.0, 1.0)
    return base[:, None] ** powers[None, :]


def survival(social: SocialState, p: ModelParams) -> np.ndarray:
    """Chance (Z, a_max+1) that a susceptible agent stays S through ``degree`` contacts."""
    deg = action_degrees(p.a_max, p.num_zones)
    return survival_table(social.policy.state_rows(), social.dist.d, deg, np.arange(p.a_max + 1), p)


def state_transition(
    s: InfectionState | int,
    z: int,
    a: int,
    target: int,
    social: SocialState,
    p: ModelParams,
) -> np.ndarray:
    """Joint next (state, zone) law for one agent taking action (a, target).

    Infection resolves in the current zone; relocation to ``target`` is
    deterministic. Returns a (5, Z) table.
    """
    if not 0 <= target < p.num_zones:
        raise ValidationError(f"target zone {target} out of range for {p.num_zones} zones")
    probs = encounter_probs(activity_masses(social, p), p)
    out = np.zeros((NUM_STATES, p.num_zones))
    out[:, target] = infection_transition(s, z, a, probs, p)
    return out


def assemble_kernel(
    rows: np.ndarray, stay: np.ndarray, law: np.ndarray, p: ModelParams
) -> np.ndarray:
    """Flat kernel matrix (5Z, 5Z) of state rows (5, Z, J) under the survival table ``stay``.

    The flat action axis splits into (target zone, degree). States other
    than S progress by ``law``, the :func:`idle_law`, wherever the class
    moves; the susceptible mass an action sends to its target splits on
    ``stay`` (Z, a_max+1).
    """
    zones, width = p.num_zones, p.a_max + 1
    S, A = InfectionState.S, InfectionState.A
    by_target = rows.reshape(NUM_STATES, zones, zones, width)
    moves = by_target.sum(axis=3)  # (5, Z, Z') migration marginal
    joint = law[:, None, :, None] * moves[:, :, None, :]  # (5, Z, 5, Z')
    kept = by_target[S] * stay[:, None, :]  # (Z, Z', a_max+1)
    joint[S, :, S] = kept.sum(axis=2)
    joint[S, :, A] = (by_target[S] - kept).sum(axis=2)
    return joint.transpose(1, 0, 3, 2).reshape(p.num_flat_states, p.num_flat_states)


def transition_matrix(social: SocialState, p: ModelParams) -> TransitionKernel:
    """Policy-averaged one-day kernel of the population."""
    matrix = assemble_kernel(social.policy.state_rows(), survival(social, p), idle_law(p), p)
    return TransitionKernel(matrix, p.num_zones)
