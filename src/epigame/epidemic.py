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
from typing import NamedTuple

import numpy as np

from .core import (
    CLASS_OF_STATE,
    NUM_STATES,
    PROB_TOL,
    BehaviorClass,
    InfectionState,
    ModelParams,
    NumericsError,
    SocialState,
    StateDistribution,
    ValidationError,
    action_degrees,
    checked_index,
    flatten_state_table,
    float_entries,
    is_integer,
    same_dims,
    store,
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

    @property
    def num_zones(self) -> int:
        return self.total.size


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

    @property
    def num_zones(self) -> int:
        return self.no_partner.size


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """Dense row-stochastic kernel over flat (state, zone) indices."""

    matrix: np.ndarray  # (5Z, 5Z), zone-major flattening on both axes
    num_zones: int

    def __post_init__(self) -> None:
        m = np.array(float_entries("kernel", self.matrix))  # a copy of its own
        check_kernel(m, self.num_zones)
        store(self, matrix=m)

    def propagate(self, dist: StateDistribution) -> np.ndarray:
        """One day of mass transport; returns the raw (5, Z) product."""
        same_dims("distribution", dist, "kernel", self)
        return propagate_mass(dist.d, self.matrix)


def _stored_fields(container, kind: str):
    """Yield (name, array) for each field of ``container``, stored as a read-only float array.

    Each field must hold numbers only, be one-dimensional and be as long as
    the first; ``kind`` names the fields in the messages. The caller checks
    the values of each field as it is yielded.
    """
    first = None
    for f in fields(container):
        arr = np.array(float_entries(f"{kind} {f.name}", getattr(container, f.name)))
        if arr.ndim != 1:
            raise ValidationError(f"{kind} {f.name} must be one-dimensional")
        if first is None:
            first = (f.name, arr.size)
        elif arr.size != first[1]:
            raise ValidationError(
                f"{kind} {f.name} has length {arr.size}; {first[0]} has length {first[1]}"
            )
        store(container, **{f.name: arr})
        yield f.name, arr


class KernelBlocks(NamedTuple):
    """A day kernel as the pieces its flat (5Z, 5Z) matrix is built from.

    Every state s but S moves as its class does and progresses by the
    :func:`idle_law` ``law``: its (Z, Z') block toward state t is ``law[s, t]
    * moves[class(s)]``. S's blocks are ``ss`` toward S and ``sa`` toward A;
    the idle law sends S nowhere else.
    """

    moves: np.ndarray  # (3, Z, Z') class marginals
    law: np.ndarray  # (5, 5)
    ss: np.ndarray  # (Z, Z') S -> S
    sa: np.ndarray  # (Z, Z') S -> A


def check_kernel(m: np.ndarray | KernelBlocks, num_zones: int) -> None:
    """Raise unless ``m`` is a valid :class:`TransitionKernel` over ``num_zones``.

    ``m`` is the float matrix or its :class:`KernelBlocks`, checked as the
    matrix they stand for: every factor finite and nonnegative, and the mass
    of every (state, zone) row within ``PROB_TOL`` of 1.
    """
    if not is_integer(num_zones):
        raise ValidationError(f"num_zones must be an integer; got {num_zones!r}")
    if isinstance(m, KernelBlocks):
        entries, smallest = m, min(e.min(initial=0.0) for e in m)
        mass = m.law.sum(axis=1)[:, None] * m.moves.sum(axis=2).take(CLASS_OF_STATE, axis=0)
        mass[InfectionState.S] = m.ss.sum(axis=1) + m.sa.sum(axis=1)
    else:
        n = NUM_STATES * num_zones
        if m.shape != (n, n):
            raise ValidationError(f"kernel must have shape ({n}, {n}); got {m.shape}")
        entries, smallest, mass = (m,), m.min(initial=0.0), m.sum(axis=1)
    # One test of all conditions first (a non-finite entry makes its row mass non-finite).
    if smallest >= 0.0 and np.abs(mass - 1.0).max() <= PROB_TOL:
        return
    if any((e < 0.0).any() or not np.isfinite(e).all() for e in entries):
        raise ValidationError("kernel entries must be finite and nonnegative")
    worst = float(np.abs(mass - 1.0).max())
    if worst > PROB_TOL:
        raise NumericsError(f"kernel rows deviate from stochasticity by {worst}")


def propagate_mass(d: np.ndarray, kernel: np.ndarray | KernelBlocks) -> np.ndarray:
    """One day of mass transport of a (5, Z) table through a flat kernel matrix or its blocks."""
    if not isinstance(kernel, KernelBlocks):
        return unflatten_state_table(flatten_state_table(d) @ kernel, d.shape[1])
    moves, law, ss, sa = kernel
    S, A = InfectionState.S, InfectionState.A
    # Every state's mass moved by every class's marginal (3, 5, Z'); each state but S
    # takes its own class's and progresses by the law.
    moved = (d @ moves)[CLASS_OF_STATE[1:], np.arange(1, NUM_STATES)]
    out = law[1:].T @ moved
    out[S] += d[S] @ ss
    out[A] += d[S] @ sa
    return out


def class_marginals(class_rows: np.ndarray, degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Migration marginal (3, Z, Z') and mean degree (3, Z) of class rows (3, Z, J).

    The flat action axis splits into (target zone, degree), and ``degrees``
    is the activation degree of each flat action. A day computes both once;
    the kernel, the survival table and the observed flows read them.
    """
    classes, zones, actions = class_rows.shape
    width = actions // zones
    # A product with ones sums the short degree axis far faster than a reduction.
    moves = (class_rows.reshape(-1, width) @ np.ones(width)).reshape(classes, zones, zones)
    return moves, class_rows @ degrees


def policy_marginals(social: SocialState, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """:func:`class_marginals` of the social state's policy."""
    same_dims("policy", social.policy, "parameters", p)
    return class_marginals(
        social.policy.class_rows, action_degrees(p.a_max, p.num_zones).astype(float)
    )


def activity_arrays(mean_degree: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Total, asymptomatic and symptomatic activity (3, Z) of class mean degrees (3, Z) on ``d``."""
    mean_deg = mean_degree.take(CLASS_OF_STATE, axis=0)  # (5, Z)
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
    _, mean_degree = policy_marginals(social, p)
    return ActivityMasses(*activity_arrays(mean_degree, social.dist.d))


def encounter_probs(masses: ActivityMasses, p: ModelParams) -> EncounterProbs:
    """Probabilities of whom one unit of activity meets, per zone.

    A fictitious activity mass ``epsilon`` is always present, so the
    pairing distribution stays well defined when nobody is active: in that
    limit every attempt matches nobody.
    """
    same_dims("activity masses", masses, "parameters", p)
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
    same_dims("encounter probabilities", probs, "parameters", p)
    a = checked_index("activation degree", a, p.a_max + 1)
    z = checked_index("zone", z, p.num_zones)
    s = InfectionState(checked_index("infection state", s, NUM_STATES))
    out = idle_law(p)[s]
    if s == InfectionState.S:
        pressure = p.beta_A * probs.asymptomatic[z] + p.beta_I * probs.symptomatic[z]
        stay = float(np.clip(1.0 - pressure, 0.0, 1.0)) ** a
        out[InfectionState.S], out[InfectionState.A] = stay, 1.0 - stay
    return out


def survival_table(
    mean_degree: np.ndarray, d: np.ndarray, powers: np.ndarray, p: ModelParams
) -> np.ndarray:
    """Chance (Z, a_max+1) that a susceptible agent stays S through ``powers`` contacts.

    ``mean_degree`` (3, Z) is each class's expected degree, from
    :func:`class_marginals`, and ``d`` the distribution table (5, Z). The
    activity masses and encounter probabilities are not checked: when the
    class rows are stochastic, ``d`` is a distribution, the degrees lie in
    0..a_max and ``epsilon > 0``, they pass the checks of
    :class:`ActivityMasses` and :class:`EncounterProbs` by construction.
    """
    activity = activity_arrays(mean_degree, d)
    # The asymptomatic and symptomatic rows of encounter_arrays, without the no-partner one.
    probs = activity[1:] / (activity[0] + p.epsilon)
    pressure = p.beta_A * probs[0] + p.beta_I * probs[1]  # (Z,)
    base = np.maximum(1.0 - pressure, 0.0)  # pressure >= 0, so base <= 1
    return base[:, None] ** powers[None, :]


def survival(social: SocialState, p: ModelParams) -> np.ndarray:
    """Chance (Z, a_max+1) that a susceptible agent stays S through ``degree`` contacts."""
    _, mean_degree = policy_marginals(social, p)
    return survival_table(mean_degree, social.dist.d, np.arange(p.a_max + 1), p)


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
    target = checked_index("target zone", target, p.num_zones)
    probs = encounter_probs(activity_masses(social, p), p)
    out = np.zeros((NUM_STATES, p.num_zones))
    out[:, target] = infection_transition(s, z, a, probs, p)
    return out


def kernel_blocks(
    healthy: np.ndarray, moves: np.ndarray, stay: np.ndarray, law: np.ndarray
) -> KernelBlocks:
    """The :class:`KernelBlocks` of a day's class marginal ``moves`` (3, Z, Z').

    Every state but S progresses by ``law``, the :func:`idle_law`, and moves
    as its class does. The susceptible mass that the healthy rows
    ``healthy`` (Z, J) send to a target stays S with the survival chance
    ``stay`` (Z, a_max+1) of the degree taken and turns A otherwise; both
    are sums of nonnegative terms. Z and a_max+1 are read from ``stay``.
    """
    zones, width = stay.shape
    by_target = healthy.reshape(zones, zones, width)
    ss = np.matmul(by_target, stay[:, :, None])[:, :, 0]
    sa = np.matmul(by_target, (1.0 - stay)[:, :, None])[:, :, 0]
    return KernelBlocks(moves, law, ss, sa)


def assemble_kernel(
    healthy: np.ndarray, moves: np.ndarray, stay: np.ndarray, law: np.ndarray
) -> np.ndarray:
    """Flat kernel matrix (5Z, 5Z) of the :func:`kernel_blocks` of the same arguments.

    It writes each block in place: the products of ``law`` and ``moves``
    for every state but S, and S's two blocks straight from the matrix
    products.
    """
    zones, width = stay.shape
    S, A = InfectionState.S, InfectionState.A
    kernel = np.empty((zones, NUM_STATES, zones, NUM_STATES))  # (z, s) -> (z', s')
    # Written with the target zone innermost; the next-state axis is only 5 long.
    np.multiply(
        law[:, :, None],
        moves.take(CLASS_OF_STATE, axis=0).transpose(1, 0, 2)[:, :, None, :],
        out=kernel.transpose(0, 1, 3, 2),
        order="C",
    )
    by_target = healthy.reshape(zones, zones, width)
    np.matmul(by_target, stay[:, :, None], out=kernel[:, S, :, S, None])
    np.matmul(by_target, (1.0 - stay)[:, :, None], out=kernel[:, S, :, A, None])
    return kernel.reshape(NUM_STATES * zones, NUM_STATES * zones)


def transition_matrix(social: SocialState, p: ModelParams) -> TransitionKernel:
    """Policy-averaged one-day kernel of the population."""
    moves, mean_degree = policy_marginals(social, p)
    stay = survival_table(mean_degree, social.dist.d, np.arange(p.a_max + 1), p)
    healthy = social.policy.class_rows[BehaviorClass.HEALTHY]
    return TransitionKernel(assemble_kernel(healthy, moves, stay, idle_law(p)), p.num_zones)
