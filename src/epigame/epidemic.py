"""Population-dependent epidemic transitions.

Whether a susceptible agent gets infected depends on who else is out
interacting in its zone, which in turn depends on the whole population's
policy and distribution. This module computes per-zone activity masses,
the encounter probabilities they induce, the per-action transition law of
a single agent, and the policy-averaged transition kernel of the whole
population.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    unflatten_state_table,
)


@dataclass(frozen=True, eq=False)
class ActivityMasses:
    """Aggregate activation mass per zone, total and per infectious state."""

    total: np.ndarray  # (Z,) everyone's activity
    asymptomatic: np.ndarray  # (Z,) activity of agents in A
    symptomatic: np.ndarray  # (Z,) activity of agents in I

    def __post_init__(self) -> None:
        for name in ("total", "asymptomatic", "symptomatic"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValidationError(f"activity mass {name} must be one-dimensional")
            if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
                raise ValidationError(f"activity mass {name} must be finite and nonnegative")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.asymptomatic + self.symptomatic > self.total + PROB_TOL):
            raise ValidationError("infectious activity exceeds total activity")


@dataclass(frozen=True, eq=False)
class EncounterProbs:
    """Outcome distribution of one pairing attempt in each zone."""

    no_partner: np.ndarray  # (Z,) matched with nobody (fictitious mass)
    asymptomatic: np.ndarray  # (Z,) partner is asymptomatically infected
    symptomatic: np.ndarray  # (Z,) partner is symptomatically infected

    def __post_init__(self) -> None:
        for name in ("no_partner", "asymptomatic", "symptomatic"):
            arr = np.array(getattr(self, name), dtype=float)
            if np.any(arr < 0.0) or np.any(arr > 1.0 + PROB_TOL):
                raise ValidationError(f"encounter probability {name} outside [0, 1]")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.no_partner + self.asymptomatic + self.symptomatic > 1.0 + PROB_TOL):
            raise ValidationError("encounter probabilities of one attempt exceed 1")


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """Dense row-stochastic kernel over flat (state, zone) indices."""

    matrix: np.ndarray  # (5Z, 5Z), zone-major flattening on both axes
    num_zones: int

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        n = NUM_STATES * self.num_zones
        if m.shape != (n, n):
            raise ValidationError(f"kernel must have shape ({n}, {n}); got {m.shape}")
        if np.any(m < 0.0) or not np.all(np.isfinite(m)):
            raise ValidationError("kernel entries must be finite and nonnegative")
        worst = float(np.abs(m.sum(axis=1) - 1.0).max())
        if worst > PROB_TOL:
            raise NumericsError(f"kernel rows deviate from stochasticity by {worst}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def propagate(self, dist: StateDistribution) -> np.ndarray:
        """One day of mass transport; returns the raw (5, Z) product."""
        return unflatten_state_table(dist.flat() @ self.matrix, self.num_zones)


def activity_masses(social: SocialState, p: ModelParams) -> ActivityMasses:
    """Expected activation mass per zone under the current policy."""
    deg = action_degrees(p.a_max, p.num_zones)
    mean_deg = social.policy.state_rows() @ deg  # (5, Z)
    d = social.dist.d
    total = np.einsum("sz,sz->z", d, mean_deg)
    asym = d[InfectionState.A] * mean_deg[InfectionState.A]
    sym = d[InfectionState.I] * mean_deg[InfectionState.I]
    return ActivityMasses(total, asym, sym)


def encounter_probs(masses: ActivityMasses, p: ModelParams) -> EncounterProbs:
    """Probabilities of whom one unit of activity meets, per zone.

    A fictitious activity mass ``epsilon`` is always present, so the
    pairing distribution stays well defined when nobody is active: in that
    limit every attempt matches nobody.
    """
    pool = masses.total + p.epsilon
    return EncounterProbs(
        no_partner=p.epsilon / pool,
        asymptomatic=masses.asymptomatic / pool,
        symptomatic=masses.symptomatic / pool,
    )


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
    out = np.zeros(NUM_STATES)
    if s == InfectionState.S:
        pressure = p.beta_A * probs.asymptomatic[z] + p.beta_I * probs.symptomatic[z]
        stay = float(np.clip(1.0 - pressure, 0.0, 1.0)) ** a
        out[InfectionState.S] = stay
        out[InfectionState.A] = 1.0 - stay
    elif s == InfectionState.A:
        out[InfectionState.I] = p.delta_A_I
        out[InfectionState.U] = p.delta_A_U
        out[InfectionState.A] = 1.0 - p.delta_A_I - p.delta_A_U
    elif s == InfectionState.I:
        out[InfectionState.R] = p.delta_I_R
        out[InfectionState.I] = 1.0 - p.delta_I_R
    elif s == InfectionState.R:
        out[InfectionState.R] = 1.0
    else:
        out[InfectionState.R] = p.delta_U_R
        out[InfectionState.U] = 1.0 - p.delta_U_R
    return out


def infection_matrix(probs: EncounterProbs, p: ModelParams) -> np.ndarray:
    """Vectorized form of :func:`infection_transition`.

    Returns ``(5, Z, J, 5)``: current state, current zone, flat action,
    next state. Zones and actions only matter for the susceptible row.
    """
    zones, width = p.num_zones, p.a_max + 1
    deg = action_degrees(p.a_max, zones)
    out = np.zeros((NUM_STATES, zones, width * zones, NUM_STATES))

    pressure = p.beta_A * probs.asymptomatic + p.beta_I * probs.symptomatic  # (Z,)
    base = np.clip(1.0 - pressure, 0.0, 1.0)
    stay = base[:, None] ** deg[None, :]  # (Z, J)
    out[InfectionState.S, :, :, InfectionState.S] = stay
    out[InfectionState.S, :, :, InfectionState.A] = 1.0 - stay

    out[InfectionState.A, :, :, InfectionState.I] = p.delta_A_I
    out[InfectionState.A, :, :, InfectionState.U] = p.delta_A_U
    out[InfectionState.A, :, :, InfectionState.A] = 1.0 - p.delta_A_I - p.delta_A_U
    out[InfectionState.I, :, :, InfectionState.R] = p.delta_I_R
    out[InfectionState.I, :, :, InfectionState.I] = 1.0 - p.delta_I_R
    out[InfectionState.R, :, :, InfectionState.R] = 1.0
    out[InfectionState.U, :, :, InfectionState.R] = p.delta_U_R
    out[InfectionState.U, :, :, InfectionState.U] = 1.0 - p.delta_U_R
    return out


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


def assemble_kernel(rows: np.ndarray, per_action: np.ndarray, p: ModelParams) -> TransitionKernel:
    """Kernel of state rows (5, Z, J) acting through the per-action law (5, Z, J, 5).

    The flat action axis splits into (target zone, degree), so the mass an
    action sends to its target is a contraction over degrees alone.
    """
    zones, width = p.num_zones, p.a_max + 1
    joint = np.einsum(
        "sztd,sztdk->szkt",
        rows.reshape(NUM_STATES, zones, zones, width),
        per_action.reshape(NUM_STATES, zones, zones, width, NUM_STATES),
    )  # (5, Z, 5, Z')
    flat = joint.transpose(1, 0, 3, 2).reshape(p.num_flat_states, p.num_flat_states)
    return TransitionKernel(flat, zones)


def action_law(social: SocialState, p: ModelParams) -> np.ndarray:
    """:func:`infection_matrix` under the encounters of a social state; (5, Z, J, 5)."""
    return infection_matrix(encounter_probs(activity_masses(social, p), p), p)


def transition_matrix(social: SocialState, p: ModelParams) -> TransitionKernel:
    """Policy-averaged one-day kernel of the population."""
    return assemble_kernel(social.policy.state_rows(), action_law(social, p), p)
