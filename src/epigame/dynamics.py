"""Day-by-day evolution of the coupled policy and population distribution.

Each day every agent smooths toward the logit best response against the
current social state while the population mass moves through the
policy-averaged kernel. Both updates read the same pre-step state, so the
step is a simultaneous (Jacobi) update and independent of evaluation
order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    CLASS_OF_STATE,
    NUM_CLASSES,
    InfectionState,
    ModelParams,
    Policy,
    SocialState,
    StateDistribution,
    ValidationError,
    checked_index,
    distribution_table,
    float_entries,
    is_real,
    policy_rows,
    same_dims,
    store,
)
from .decision import STATE_INDEX, DayPlan, DayRows, blend
from .epidemic import propagate_mass
from .rewards import RewardConfig
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


@dataclass(frozen=True, eq=False, init=False)
class Trajectory:
    """Per-day columns of a simulation run and the source of its records.

    ``Trajectory(records)`` stacks the columns of hand-made records;
    :func:`simulate` fills them day by day and keeps no per-day social
    state. The columns are read-only, and the accessors below return them
    or views of them, so copy before changing one in place.
    """

    dist: np.ndarray  # (T, 5, Z)
    activation: np.ndarray  # (T, 3, Z) expected degree per behavior class
    flows: np.ndarray  # (T, Z, Z) mass moving from row zone to column zone
    daily_welfare: np.ndarray  # (T,) population-average expected reward
    source: ScenarioConfig | tuple[StepRecord, ...]  # the run replayed for records, or the records

    def __init__(self, records: tuple[StepRecord, ...]) -> None:
        records = tuple(records)
        if not records:
            raise ValidationError("a trajectory needs at least one record")
        days = [rec.day for rec in records]
        if days != list(range(len(days))):
            raise ValidationError("trajectory days must be contiguous from 0")
        observed = [
            (rec.social.dist.d, rec.mean_activation, rec.migration_flow, rec.welfare)
            for rec in records
        ]
        self._fill(observed, records)

    @classmethod
    def _of_run(cls, observed: list[tuple], scenario: ScenarioConfig) -> Trajectory:
        """The trajectory of a run's per-day :func:`_observe` tuples."""
        traj = cls.__new__(cls)
        traj._fill(observed, scenario)
        return traj

    def _fill(
        self, observed: list[tuple], source: ScenarioConfig | tuple[StepRecord, ...]
    ) -> None:
        dist, activation, flows, welfare = zip(*observed)
        store(self, dist=np.stack(dist), activation=np.stack(activation), flows=np.stack(flows),
              daily_welfare=np.array(welfare), source=source)

    @cached_property
    def records(self) -> tuple[StepRecord, ...]:
        """One record per day, built once on first read.

        A simulated trajectory replays its run from the scenario's initial
        state, one :func:`_step` a day. The constructors there divide each
        array once, as :func:`simulate` does, so the states hold its bits.
        """
        if not isinstance(self.source, ScenarioConfig):
            return self.source
        plan = _plan(self.source)
        states = [self.source.initial_social()]
        while len(states) < len(self):
            states.append(_step(plan, states[-1]))
        return tuple(
            StepRecord(day, social, self.activation[day], self.flows[day],
                       float(self.daily_welfare[day]))
            for day, social in enumerate(states)
        )

    def __len__(self) -> int:
        return len(self.dist)

    @property
    def num_zones(self) -> int:
        return self.dist.shape[2]

    def days(self) -> np.ndarray:
        return np.arange(len(self))

    def dist_array(self) -> np.ndarray:
        """Distributions per day, shape (T, 5, Z)."""
        return self.dist

    def infected(self, zone: int | None = None) -> np.ndarray:
        """Symptomatic mass per day, for one zone or summed over all."""
        series = self.dist[:, InfectionState.I, :]
        if zone is None:
            return series.sum(axis=1)
        return series[:, checked_index("zone", zone, self.num_zones)]

    def active(self) -> np.ndarray:
        """Infected mass (A plus I) per day."""
        d = self.dist
        return (d[:, InfectionState.A, :] + d[:, InfectionState.I, :]).sum(axis=1)

    def immune(self) -> np.ndarray:
        """Recovered mass (R plus U) per day."""
        d = self.dist
        return (d[:, InfectionState.R, :] + d[:, InfectionState.U, :]).sum(axis=1)

    def welfare(self) -> np.ndarray:
        return self.daily_welfare

    def mean_activation(self, cls: int, zone: int) -> np.ndarray:
        cls = checked_index("behavior class", cls, NUM_CLASSES)
        return self.activation[:, cls, checked_index("zone", zone, self.num_zones)]

    def net_flow(self, src: int, dst: int) -> np.ndarray:
        """Net daily migration mass from ``src`` to ``dst``."""
        src = checked_index("src", src, self.num_zones)
        dst = checked_index("dst", dst, self.num_zones)
        return self.flows[:, src, dst] - self.flows[:, dst, src]

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
    stop_reason: str  # "settled" (epidemic over, policy settled) or "horizon"


def _observe(d: np.ndarray, rows: DayRows) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Distribution (5, Z), mean activation (3, Z), flows (Z, Z) and welfare of one day.

    ``d`` is the day's distribution table and ``rows`` its
    :meth:`DayPlan.state_rewards`: the welfare is the distribution's mass
    against its rewards, the flows against its moves.
    """
    welfare = float((d * rows.rewards).sum())
    flow = np.einsum("sz,szt->zt", d, rows.moves.take(CLASS_OF_STATE, axis=0))
    return d, rows.mean_degree, flow, welfare


def _advance(plan: DayPlan, d: np.ndarray, rows: DayRows) -> tuple[np.ndarray, np.ndarray]:
    """The day update on plain arrays: tomorrow's class rows (the blend) and masses.

    ``d`` is today's distribution table and ``rows`` its :meth:`DayPlan.state_rewards`.
    Neither output is renormalised yet: each caller divides each once.
    """
    kernel, stay, values = plan.terms(rows, d)
    new_rows = blend(rows.classes, plan.target(stay, values, d), plan.params.inertia)
    return new_rows, propagate_mass(d, kernel)


def _plan(scenario: ScenarioConfig) -> DayPlan:
    """The one :class:`DayPlan` of a scenario's run."""
    return DayPlan(scenario.reward_config(), scenario.params, scenario.healthy_q,
                   scenario.infected_forced_home)


def _step(plan: DayPlan, social: SocialState) -> SocialState:
    """One :func:`_advance` of ``social``, renormalised by the checked constructors."""
    rows = plan.state_rewards(social.policy.class_rows)
    new_rows, masses = _advance(plan, social.dist.d, rows)
    return SocialState(Policy(new_rows, plan.params.a_max), StateDistribution(masses))


def step(
    social: SocialState,
    cfg: RewardConfig,
    p: ModelParams,
    *,
    healthy_q: str = "belief",
    infected_forced_home: bool = True,
) -> SocialState:
    """One simultaneous day update of policy and distribution, as :func:`simulate` makes it."""
    plan = DayPlan(cfg, p, healthy_q, infected_forced_home)
    same_dims("policy", social.policy, "parameters", p)
    return _step(plan, social)


def simulate(scenario: ScenarioConfig) -> SimulationResult:
    """Run a scenario to its horizon or until the epidemic is over.

    The run stops early once the infected mass is below the extinction
    threshold and the previous policy update moved no entry by more than
    the settle threshold; post-epidemic adjustment (notably return
    migration) would otherwise be cut off.

    From :meth:`ScenarioConfig.initial_social` on, the run loops on plain
    arrays and builds no container per day. :func:`policy_rows` and
    :func:`distribution_table` renormalise each :func:`_advance` with the
    checks and the one division that the :class:`Policy` and
    :class:`StateDistribution` constructors make. The trajectory keeps the
    per-day columns only, and ``records`` replays the run.
    """
    plan, initial = _plan(scenario), scenario.initial_social()
    classes, d = initial.policy.class_rows, initial.dist.d
    del initial  # no table outlives its day: day 0's rows go once day 1's replace them
    _, A, I, _, _ = STATE_INDEX
    observed = []
    previous = None
    for day in itertools.count():
        rows = plan.state_rewards(classes)
        observed.append(_observe(d, rows))
        if day >= scenario.horizon:
            stop_reason = "horizon"
            break
        if (float(d[A].sum() + d[I].sum()) < scenario.extinction_threshold
                and previous is not None  # day 0 has no update to measure
                and float(np.abs(classes - previous).max()) < scenario.policy_settle_threshold):
            stop_reason = "settled"
            break
        previous = classes
        classes, masses = _advance(plan, d, rows)  # the blend, not yet renormalised
        classes, d = policy_rows(classes, plan.params.a_max), distribution_table(masses)
    traj = Trajectory._of_run(observed, scenario)
    return SimulationResult(
        scenario,
        traj,
        metrics(traj, subtract_initial_immune=scenario.subtract_initial_immune),
        stop_reason,
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
    if not is_real(prominence) or prominence <= 0.0:
        raise ValidationError(
            f"wave prominence must be a finite positive number; got {prominence!r}"
        )
    x = float_entries("wave series", series)
    if x.ndim != 1 or x.size == 0:
        raise ValidationError("wave detection needs a nonempty one-dimensional series")

    x = x.tolist()  # Python floats: the same comparisons, without numpy scalars
    has_nan = any(map(math.isnan, x))
    maxima: list[int] = []
    i = 0
    n = len(x)
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
            between = x[t1 + 1 : t2]
            if has_nan and any(map(math.isnan, between)):
                continue  # numpy's min gave NaN here, which no comparison passes
            trough = min(between)
            if x[t1] - trough >= prominence and x[t2] - trough >= prominence:
                qualifying.update((t1, t2))
    days = tuple(sorted(qualifying))
    return len(days) >= 2, days


def detect_second_wave(
    traj: Trajectory, zone: int, prominence: float = WAVE_PROMINENCE
) -> tuple[bool, tuple[int, ...]]:
    """Wave detection on a zone's symptomatic-mass series."""
    return infection_waves(traj.infected(checked_index("zone", zone, traj.num_zones)), prominence)
