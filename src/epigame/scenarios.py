"""Scenario configuration and the built-in presets.

A scenario bundles the model parameters, the lockdown policy (one allowed
degree per behavior class and zone, overshooting fined at a multiple of
the benefit), the initial population, and run controls. Presets cover a
single-zone epidemic under myopic and farsighted agents, lockdown-level
sweeps of those, and a two-zone setup with asymmetric lockdowns where
migration dynamics emerge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import (
    NUM_CLASSES,
    NUM_STATES,
    BehaviorClass,
    InfectionState,
    ModelParams,
    Policy,
    SocialState,
    StateDistribution,
    ValidationError,
    is_integer,
    is_real,
    no_move_rows,
    numeric_table,
    store,
)
from .decision import check_healthy_q, feasible_actions
from .rewards import RewardConfig, linear_benefit, lockdown_cost

DEFAULT_HORIZON = 300
EXTINCTION_THRESHOLD = 1e-6
POLICY_SETTLE_THRESHOLD = 1e-6

# Shared by all presets; fictitious activity and the healthy-class Q mode
# are the two calibration knobs (see README reproduction notes).
PRESET_EPSILON = 0.1
PRESET_HEALTHY_Q = "assume_susceptible"
PRESET_HORIZON = 2000  # generous cap; runs stop at epidemic extinction


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Everything needed to reproduce one simulation run."""

    name: str
    params: ModelParams
    lockdown_degrees: np.ndarray  # (3, Z) allowed degree per behavior class
    initial_dist: np.ndarray  # (5, Z)
    lockdown_multiplier: float = 3.0
    benefit: np.ndarray | None = None  # None selects the linear benefit
    horizon: int = DEFAULT_HORIZON
    extinction_threshold: float = EXTINCTION_THRESHOLD
    policy_settle_threshold: float = POLICY_SETTLE_THRESHOLD
    infected_forced_home: bool = True
    healthy_q: str = "belief"
    subtract_initial_immune: bool = False
    # Built and checked on construction, from the fields above.
    _rewards: RewardConfig = field(init=False, repr=False)
    _initial_dist: StateDistribution = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError(f"scenario name must be a nonempty string; got {self.name!r}")
        zones, a_max = self.params.num_zones, self.params.a_max
        ld = numeric_table("lockdown_degrees", self.lockdown_degrees, (NUM_CLASSES, zones))
        init = numeric_table("initial_dist", self.initial_dist, (NUM_STATES, zones))
        benefit = (None if self.benefit is None
                   else numeric_table("benefit", self.benefit, (a_max + 1,)))
        if not is_integer(self.horizon) or self.horizon < 1:
            raise ValidationError(f"horizon must be an integer >= 1; got {self.horizon!r}")
        for name in ("extinction_threshold", "policy_settle_threshold"):
            value = getattr(self, name)
            if not is_real(value) or value <= 0.0:
                raise ValidationError(f"{name} must be a finite positive number; got {value!r}")
        for name in ("infected_forced_home", "subtract_initial_immune"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise ValidationError(f"{name} must be true or false; got {value!r}")
        check_healthy_q(self.healthy_q)
        o = benefit if benefit is not None else linear_benefit(a_max)
        rewards = RewardConfig(
            benefit=o,
            activation_cost=lockdown_cost(ld, o, self.lockdown_multiplier),
            migration_cost=self.params.migration_cost,
            illness_cost=self.params.illness_cost,
        )
        # max|table| / (1 - alpha) bounds |V| and scales the value-residual gate.
        if not np.abs(rewards.table).max() <= (1.0 - self.params.alpha) * np.finfo(float).max:
            raise ValidationError(
                "alpha and the reward fields (benefit, lockdown_degrees, lockdown_multiplier, "
                "migration_cost, illness_cost) give a value bound max|reward| / (1 - alpha) "
                "that is not finite"
            )
        try:
            dist = StateDistribution(init)
        except ValidationError as exc:
            raise ValidationError(f"initial_dist: {exc}") from None
        # lockdown_cost has checked that the lockdown entries are integers.
        store(self, lockdown_degrees=ld.astype(int), initial_dist=init, benefit=benefit,
              _rewards=rewards, _initial_dist=dist)

    def reward_config(self) -> RewardConfig:
        return self._rewards

    def initial_social(self) -> SocialState:
        """Uniform stay-home policy over degrees plus the initial distribution.

        With ``infected_forced_home`` the symptomatic row is projected onto
        degree 0 so every policy the scenario produces respects the support
        restriction, including the initial one.
        """
        rows = no_move_rows(self.params)
        if self.infected_forced_home:
            keep = feasible_actions(self.params)[BehaviorClass.SYMPTOMATIC]
            srow = rows[BehaviorClass.SYMPTOMATIC] * keep
            rows[BehaviorClass.SYMPTOMATIC] = srow / srow.sum(axis=-1, keepdims=True)
        return SocialState(Policy(rows, self.params.a_max), self._initial_dist)

    def to_dict(self) -> dict:
        """The scenario as JSON-ready data; numpy scalars become Python scalars."""
        return {
            "name": self.name,
            "params": {f.name: _plain(getattr(self.params, f.name)) for f in fields(ModelParams)},
            "lockdown_degrees": {
                cls.name.lower(): [int(x) for x in self.lockdown_degrees[cls]]
                for cls in BehaviorClass
            },
            "lockdown_multiplier": _plain(self.lockdown_multiplier),
            "benefit": "linear" if self.benefit is None else [float(x) for x in self.benefit],
            "initial_dist": {
                s.name: [float(x) for x in self.initial_dist[s]] for s in InfectionState
            },
            "horizon": _plain(self.horizon),
            "extinction_threshold": _plain(self.extinction_threshold),
            "policy_settle_threshold": _plain(self.policy_settle_threshold),
            "infected_forced_home": _plain(self.infected_forced_home),
            "healthy_q": _plain(self.healthy_q),
            "subtract_initial_immune": _plain(self.subtract_initial_immune),
        }


def _plain(value):
    """``value`` as a Python scalar if it is a numpy scalar, else unchanged."""
    return value.item() if isinstance(value, np.generic) else value


#: Optional one-value scenario fields: documents may set them, sweeps override them.
_SCALAR_FIELDS = (
    "lockdown_multiplier",
    "horizon",
    "extinction_threshold",
    "policy_settle_threshold",
    "infected_forced_home",
    "healthy_q",
    "subtract_initial_immune",
)
_SCENARIO_KEYS = {"name", "params", "lockdown_degrees", "initial_dist", "benefit", *_SCALAR_FIELDS}


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Inverse of :meth:`ScenarioConfig.to_dict`; rejects unknown keys."""
    if not isinstance(data, dict):
        raise ValidationError("scenario document must be a key-value mapping")
    unknown = set(data) - _SCENARIO_KEYS
    if unknown:
        raise ValidationError(f"unknown scenario keys: {sorted(unknown)}")
    for key in ("name", "params", "lockdown_degrees", "initial_dist"):
        if key not in data:
            raise ValidationError(f"scenario document is missing required key {key!r}")
    param_names = {f.name for f in fields(ModelParams)}
    raw_params = data["params"]
    if not isinstance(raw_params, dict) or set(raw_params) != param_names:
        raise ValidationError(
            f"params must define exactly the fields {sorted(param_names)}"
        )
    params = ModelParams(**raw_params)

    lockdown = _table_rows(data, "lockdown_degrees", [cls.name.lower() for cls in BehaviorClass])
    init = _table_rows(data, "initial_dist", [s.name for s in InfectionState])
    benefit = data.get("benefit", "linear")

    kwargs = {key: data[key] for key in _SCALAR_FIELDS if key in data}
    return ScenarioConfig(
        name=data["name"],
        params=params,
        lockdown_degrees=lockdown,
        initial_dist=init,
        benefit=None if benefit == "linear" else benefit,
        **kwargs,
    )


def _table_rows(data: dict, table: str, keys: list[str]) -> list:
    """The rows under ``keys`` of the scenario's ``table``; rejects missing and unknown keys."""
    doc = data[table]
    try:
        rows = [doc[key] for key in keys]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad {table} table: {exc}") from exc
    unknown = set(doc) - set(keys)
    if unknown:
        raise ValidationError(f"unknown {table} keys: {sorted(unknown)}; expected {keys}")
    return rows


# --- presets ---------------------------------------------------------------


def _base_params(
    *,
    num_zones: int,
    alpha: float,
    delta_U_R: float,
    inertia: float,
    epsilon: float = PRESET_EPSILON,
) -> ModelParams:
    return ModelParams(
        beta_A=0.2,
        beta_I=0.2,
        delta_A_I=0.08,
        delta_A_U=0.08,
        delta_I_R=0.04,
        delta_U_R=delta_U_R,
        epsilon=epsilon,
        num_zones=num_zones,
        a_max=6,
        alpha=alpha,
        rationality=10.0,
        inertia=inertia,
        migration_cost=2.0,
        illness_cost=10.0,
    )


def _single_zone_dist() -> np.ndarray:
    init = np.zeros((NUM_STATES, 1))
    init[InfectionState.S, 0] = 0.97
    init[InfectionState.A, 0] = 0.02
    init[InfectionState.I, 0] = 0.01
    return init


def _single_zone(
    name: str,
    *,
    alpha: float,
    a_lock: int,
    exempt_recovered: bool,
    delta_U_R: float = 0.0,
) -> ScenarioConfig:
    params = _base_params(num_zones=1, alpha=alpha, delta_U_R=delta_U_R, inertia=0.2)
    recovered_lock = params.a_max if exempt_recovered else a_lock
    lockdown = np.array([[a_lock], [a_lock], [recovered_lock]])
    return ScenarioConfig(
        name=name,
        params=params,
        lockdown_degrees=lockdown,
        initial_dist=_single_zone_dist(),
        horizon=PRESET_HORIZON,
        healthy_q=PRESET_HEALTHY_Q,
    )


def _fig2a() -> ScenarioConfig:
    return _single_zone("fig2a", alpha=0.0, a_lock=2, exempt_recovered=False)


def _fig2b() -> ScenarioConfig:
    return _single_zone("fig2b", alpha=0.9, a_lock=2, exempt_recovered=False)


def _fig2c() -> ScenarioConfig:
    return _single_zone("fig2c", alpha=0.9, a_lock=2, exempt_recovered=True)


def _fig4_migration() -> ScenarioConfig:
    params = _base_params(num_zones=2, alpha=0.9, delta_U_R=0.01, inertia=0.1)
    lockdown = np.array([[4, 2], [4, 2], [6, 6]])
    init = np.zeros((NUM_STATES, 2))
    init[InfectionState.S] = (0.873, 0.1)
    init[InfectionState.A] = (0.018, 0.0)
    init[InfectionState.I] = (0.009, 0.0)
    return ScenarioConfig(
        name="fig4_migration",
        params=params,
        lockdown_degrees=lockdown,
        initial_dist=init,
        horizon=PRESET_HORIZON,
        healthy_q=PRESET_HEALTHY_Q,
    )


#: The four lockdown-sweep families: (name, alpha, recovered exempt, delta_U_R).
FIG3_FAMILIES = (
    ("myopic-full", 0.0, False, 0.0),
    ("farsighted-full", 0.9, False, 0.0),
    ("farsighted-exempt", 0.9, True, 0.0),
    ("farsighted-exempt-serology", 0.9, True, 0.05),
)


def fig3_points() -> list[tuple[dict, ScenarioConfig]]:
    """All 28 lockdown-sweep runs with their identifying fields."""
    points = []
    for family, alpha, exempt, d_ur in FIG3_FAMILIES:
        for a_lock in range(7):
            cfg = _single_zone(
                f"fig3-{family}-lock{a_lock}",
                alpha=alpha,
                a_lock=a_lock,
                exempt_recovered=exempt,
                delta_U_R=d_ur,
            )
            points.append(({"family": family, "a_lock": a_lock}, cfg))
    return points


_PRESETS = {
    "fig2a": (_fig2a, "single zone, myopic agents, lockdown degree 2 for everyone"),
    "fig2b": (_fig2b, "single zone, farsighted agents, lockdown degree 2 for everyone"),
    "fig2c": (_fig2c, "single zone, farsighted agents, recovered exempt from lockdown"),
    "fig3_sweep": (
        lambda: [cfg for _, cfg in fig3_points()],
        "28 runs: four scenario families swept over lockdown degrees 0..6",
    ),
    "fig4_migration": (
        _fig4_migration,
        "two zones with asymmetric lockdowns; strategic migration and second wave",
    ),
}

PRESET_NAMES = tuple(_PRESETS)


def _preset_entry(name: str):
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None


def preset(name: str):
    """Named scenario; ``fig3_sweep`` yields a list of configurations."""
    return _preset_entry(name)[0]()


def preset_description(name: str) -> str:
    return _preset_entry(name)[1]


# --- sweeps ----------------------------------------------------------------


def _override(cfg: ScenarioConfig, path: str, value) -> ScenarioConfig:
    if path.startswith("params."):
        name = path[len("params.") :]
        if name not in {f.name for f in fields(ModelParams)}:
            raise ValidationError(f"unknown model parameter in sweep path {path!r}")
        return replace(cfg, params=replace(cfg.params, **{name: value}))
    if path.startswith("lockdown."):
        ld = np.array(cfg.lockdown_degrees, dtype=object)  # the constructor checks values
        ld[_lockdown_rows(path)] = value
        return replace(cfg, lockdown_degrees=ld.tolist())
    if path in _SCALAR_FIELDS:
        return replace(cfg, **{path: value})
    raise ValidationError(f"unknown sweep field path {path!r}")


def _lockdown_rows(path: str) -> list[BehaviorClass]:
    """The lockdown rows that the sweep path ``lockdown.<key>`` writes.

    ``all`` writes every row; a behavior class name, read case-blind, its own.
    """
    key = path[len("lockdown.") :]
    if key == "all":
        return list(BehaviorClass)
    if key.upper() not in BehaviorClass.__members__:
        raise ValidationError(
            f"unknown behavior class in sweep path {path!r}; "
            "use healthy, symptomatic, recovered or all"
        )
    return [BehaviorClass[key.upper()]]


def sweep(grid, base: ScenarioConfig) -> list[ScenarioConfig]:
    """Cartesian product of field overrides applied to ``base``.

    ``grid`` is a sequence of ``(field_path, values)`` pairs; paths address
    model parameters (``params.alpha``), lockdown rows
    (``lockdown.healthy``) or plain scenario fields (``horizon``), each at
    most once; no two paths may write one lockdown row (``lockdown.all``
    writes all three). An empty grid yields just the base configuration.
    """
    grid = list(grid)
    if not grid:
        return [base]
    paths = [path for path, _ in grid]
    writer = {}  # lockdown row -> the path that writes it
    for path in paths:
        if paths.count(path) > 1:
            raise ValidationError(f"sweep field path {path!r} is given more than once")
        if not path.startswith("lockdown."):
            continue
        for row in _lockdown_rows(path):
            if row in writer:
                raise ValidationError(
                    f"sweep field paths {writer[row]!r} and {path!r} both set "
                    f"the lockdown row {row.name.lower()}"
                )
            writer[row] = path
    value_lists = [list(values) for _, values in grid]
    out = []
    for combo in itertools.product(*value_lists):
        cfg = base
        for path, value in zip(paths, combo):
            cfg = _override(cfg, path, value)
        label = ",".join(f"{path}={value}" for path, value in zip(paths, combo))
        out.append(replace(cfg, name=f"{base.name}[{label}]"))
    return out
