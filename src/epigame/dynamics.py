"""Day-by-day evolution of the coupled policy and population distribution.

Each day every agent smooths toward the logit best response against the
current social state while the population mass moves through the
policy-averaged kernel. Both updates read the same pre-step state, so the
step is a simultaneous (Jacobi) update and independent of evaluation
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    NUM_STATES,
    InfectionState,
    ModelParams,
    SocialState,
    StateDistribution,
    ValidationError,
)
from .decision import day_terms, logit_choice, policy_update
from .rewards import RewardConfig, reward_table
from .scenarios import ScenarioConfig

WAVE_PROMINENCE = 0.01


@dataclass(frozen=True, eq=False)
class StepRecord:
    """Snapshot of one simulated day plus derived observables."""

    day: int
    social: SocialState
    mean_activation: np.ndarray  # (3, Z) expected degree per behavior class
    migration_flow: np.ndarray  # (Z, Z) mass moving from row zone to column zone
    welfare: float  # population-average expected reward this day


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ordered per-day records of a simulation run."""

    records: tuple[StepRecord, ...]

    def __post_init__(self) -> None:
        if not self.records:
            raise ValidationError("a trajectory needs at least one record")
        days = [rec.day for rec in self.records]
        if days != list(range(len(days))):
            raise ValidationError("trajectory days must be contiguous from 0")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def num_zones(self) -> int:
        return self.records[0].social.dist.num_zones

    def days(self) -> np.ndarray:
        return np.arange(len(self.records))

    def dist_array(self) -> np.ndarray:
        """Stacked distributions, shape (T, 5, Z)."""
        return np.stack([rec.social.dist.d for rec in self.records])

    def infected(self, zone: int | None = None) -> np.ndarray:
        """Symptomatic mass per day, for one zone or summed over all."""
        series = self.dist_array()[:, InfectionState.I, :]
        return series[:, zone] if zone is not None else series.sum(axis=1)

    def active(self) -> np.ndarray:
        """Infected mass (A plus I) per day."""
        d = self.dist_array()
        return (d[:, InfectionState.A, :] + d[:, InfectionState.I, :]).sum(axis=1)

    def immune(self) -> np.ndarray:
        """Recovered mass (R plus U) per day."""
        d = self.dist_array()
        return (d[:, InfectionState.R, :] + d[:, InfectionState.U, :]).sum(axis=1)

    def welfare(self) -> np.ndarray:
        return np.array([rec.welfare for rec in self.records])

    def mean_activation(self, cls: int, zone: int) -> np.ndarray:
        return np.array([rec.mean_activation[cls, zone] for rec in self.records])

    def net_flow(self, src: int, dst: int) -> np.ndarray:
        """Net daily migration mass from ``src`` to ``dst``."""
        return np.array(
            [rec.migration_flow[src, dst] - rec.migration_flow[dst, src] for rec in self.records]
        )

    def final(self) -> StepRecord:
        return self.records[-1]


@dataclass(frozen=True, eq=False)
class EpidemicMetrics:
    """Summary statistics of one run.

    All masses are fractions of the whole population, so the per-zone
    entries sum to the global ones. Zone populations shift over a run,
    which makes shares of the total the only stable per-zone unit.
    """

    total_infections: float  # final R+U mass
    peak_infections: float  # max over days of symptomatic mass
    peak_day: int
    average_welfare: float
    zone_total_infections: np.ndarray  # (Z,)
    zone_peak_infections: np.ndarray  # (Z,)
    zone_peak_days: np.ndarray  # (Z,)
    second_wave: tuple[bool, ...]  # per zone, at the default prominence
    wave_days: tuple[tuple[int, ...], ...]  # per zone

    def to_dict(self) -> dict:
        return {
            "total_infections": self.total_infections,
            "peak_infections": self.peak_infections,
            "peak_day": int(self.peak_day),
            "average_welfare": self.average_welfare,
            "zone_total_infections": [float(x) for x in self.zone_total_infections],
            "zone_peak_infections": [float(x) for x in self.zone_peak_infections],
            "zone_peak_days": [int(x) for x in self.zone_peak_days],
            "second_wave": list(self.second_wave),
            "wave_days": [list(days) for days in self.wave_days],
        }


@dataclass(frozen=True, eq=False)
class SimulationResult:
    scenario: ScenarioConfig
    trajectory: Trajectory
    metrics: EpidemicMetrics


def _observe(day: int, social: SocialState, table: np.ndarray, p: ModelParams) -> StepRecord:
    d = social.dist.d
    rows = social.policy.state_rows()  # (5, Z, J)
    welfare = float(np.sum(d * np.einsum("szj,szj->sz", rows, table)))
    by_target = rows.reshape(NUM_STATES, p.num_zones, p.num_zones, p.a_max + 1)
    flow = np.einsum("sz,sztd->zt", d, by_target)
    mean_act = social.policy.mean_degrees()
    mean_act.setflags(write=False)
    flow.setflags(write=False)
    return StepRecord(day, social, mean_act, flow, welfare)


def step(
    social: SocialState,
    cfg: RewardConfig,
    p: ModelParams,
    *,
    healthy_q: str = "belief",
    infected_forced_home: bool = True,
) -> SocialState:
    """One simultaneous day update of policy and distribution."""
    kernel, q = day_terms(social, reward_table(cfg), p)
    target = logit_choice(
        q, social.dist.d, p, healthy_q=healthy_q, infected_forced_home=infected_forced_home
    )
    new_policy = policy_update(social.policy, target, p.inertia)
    new_dist = StateDistribution(kernel.propagate(social.dist))
    return SocialState(new_policy, new_dist)


def simulate(scenario: ScenarioConfig) -> SimulationResult:
    """Run a scenario to its horizon or until the epidemic is over.

    The run stops early once the infected mass is below the extinction
    threshold and the previous policy update moved no entry by more than
    the settle threshold; post-epidemic adjustment (notably return
    migration) would otherwise be cut off.
    """
    p = scenario.params
    cfg = scenario.reward_config()
    table = reward_table(cfg)
    social = scenario.initial_social()
    records = [_observe(0, social, table, p)]
    policy_change = math.inf
    day = 0
    while day < scenario.horizon:
        settled = (
            social.dist.active_mass() < scenario.extinction_threshold
            and policy_change < scenario.policy_settle_threshold
        )
        if settled:
            break
        nxt = step(
            social,
            cfg,
            p,
            healthy_q=scenario.healthy_q,
            infected_forced_home=scenario.infected_forced_home,
        )
        policy_change = float(np.abs(nxt.policy.class_rows - social.policy.class_rows).max())
        social = nxt
        day += 1
        records.append(_observe(day, social, table, p))
    traj = Trajectory(tuple(records))
    return SimulationResult(
        scenario, traj, metrics(traj, subtract_initial_immune=scenario.subtract_initial_immune)
    )


def metrics(traj: Trajectory, subtract_initial_immune: bool = False) -> EpidemicMetrics:
    """Summaries of a trajectory; see :class:`EpidemicMetrics` for conventions."""
    d = traj.dist_array()  # (T, 5, Z)
    infected = d[:, InfectionState.I, :]  # (T, Z)
    immune = d[:, InfectionState.R, :] + d[:, InfectionState.U, :]
    baseline = immune[0] if subtract_initial_immune else np.zeros(traj.num_zones)

    total = float((immune[-1] - baseline).sum())
    global_infected = infected.sum(axis=1)
    peak_day = int(np.argmax(global_infected))

    waves = [infection_waves(infected[:, z], WAVE_PROMINENCE) for z in range(traj.num_zones)]
    return EpidemicMetrics(
        total_infections=total,
        peak_infections=float(global_infected[peak_day]),
        peak_day=peak_day,
        average_welfare=float(traj.welfare().mean()),
        zone_total_infections=immune[-1] - baseline,
        zone_peak_infections=infected.max(axis=0),
        zone_peak_days=np.argmax(infected, axis=0),
        second_wave=tuple(flag for flag, _ in waves),
        wave_days=tuple(days for _, days in waves),
    )


def infection_waves(series, prominence: float = WAVE_PROMINENCE) -> tuple[bool, tuple[int, ...]]:
    """Detect separate infection waves in a scalar series.

    Two local maxima count as separate waves when the lowest point between
    them sits at least ``prominence`` below both. Returns the detection
    flag (at least two waves) and the days of all maxima that qualify.
    """
    if prominence <= 0.0:
        raise ValidationError(f"wave prominence must be positive; got {prominence}")
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValidationError("wave detection needs a nonempty one-dimensional series")

    maxima: list[int] = []
    i = 0
    n = x.size
    while i < n:
        j = i
        while j + 1 < n and x[j + 1] == x[i]:
            j += 1  # skip plateau
        left = x[i - 1] if i > 0 else -math.inf
        right = x[j + 1] if j + 1 < n else -math.inf
        if x[i] > left and x[i] > right:
            maxima.append(i)
        i = j + 1

    qualifying: set[int] = set()
    for a in range(len(maxima)):
        for b in range(a + 1, len(maxima)):
            t1, t2 = maxima[a], maxima[b]
            trough = float(x[t1 + 1 : t2].min())
            if x[t1] - trough >= prominence and x[t2] - trough >= prominence:
                qualifying.update((t1, t2))
    days = tuple(sorted(qualifying))
    return len(days) >= 2, days


def detect_second_wave(
    traj: Trajectory, zone: int, prominence: float = WAVE_PROMINENCE
) -> tuple[bool, tuple[int, ...]]:
    """Wave detection on a zone's symptomatic-mass series."""
    if not 0 <= zone < traj.num_zones:
        raise ValidationError(f"zone {zone} out of range for {traj.num_zones} zones")
    return infection_waves(traj.infected(zone), prominence)
