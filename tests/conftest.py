"""Shared builders for randomized test inputs, and the shared preset runs.

Every helper takes an explicit ``numpy`` Generator so each test controls
its own seed and stays reproducible in isolation.
"""

import time

import numpy as np
import pytest

from epigame import ModelParams, Policy, SocialState, StateDistribution, preset, simulate
from epigame.core import NUM_CLASSES, NUM_STATES, BehaviorClass, action_degrees
from epigame.rewards import RewardConfig


def make_params(**overrides) -> ModelParams:
    """A valid parameter set; keyword arguments override single fields."""
    fields = dict(
        beta_A=0.2,
        beta_I=0.2,
        delta_A_I=0.08,
        delta_A_U=0.08,
        delta_I_R=0.04,
        delta_U_R=0.0,
        epsilon=0.1,
        num_zones=2,
        a_max=6,
        alpha=0.9,
        rationality=10.0,
        inertia=0.2,
    )
    fields.update(overrides)
    return ModelParams(**fields)


def random_dist(rng: np.random.Generator, num_zones: int) -> StateDistribution:
    """A strictly positive distribution over all (state, zone) cells."""
    d = rng.random((NUM_STATES, num_zones)) + 0.01
    return StateDistribution(d / d.sum())


def random_policy(
    rng: np.random.Generator, p: ModelParams, forced_home: bool = False
) -> Policy:
    """Random strictly positive class policy, optionally confined for class I."""
    rows = rng.random((NUM_CLASSES, p.num_zones, p.num_actions)) + 0.01
    if forced_home:
        home = action_degrees(p.a_max, p.num_zones) == 0
        rows[BehaviorClass.SYMPTOMATIC] *= home[None, :]
    rows /= rows.sum(axis=-1, keepdims=True)
    return Policy(rows, p.a_max)


def random_social(
    rng: np.random.Generator, p: ModelParams, forced_home: bool = False
) -> SocialState:
    return SocialState(random_policy(rng, p, forced_home), random_dist(rng, p.num_zones))


def random_reward_config(rng: np.random.Generator, p: ModelParams) -> RewardConfig:
    """Random rewards satisfying all structural constraints.

    Benefits start at zero and rise; activation costs, one row per
    behavior class, rise with the degree and order symptomatic above healthy
    above recovered.
    """
    width = p.a_max + 1
    benefit = np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 0.5, width - 1))])
    healthy = np.cumsum(rng.uniform(0.0, 0.3, (p.num_zones, width)), axis=1)
    healthy += rng.uniform(0.0, 0.2, (p.num_zones, 1))
    cost = np.empty((NUM_CLASSES, p.num_zones, width))
    cost[BehaviorClass.HEALTHY] = healthy
    cost[BehaviorClass.SYMPTOMATIC] = healthy * (1.0 + rng.uniform(0.0, 1.0))
    cost[BehaviorClass.RECOVERED] = healthy * rng.uniform(0.0, 1.0)
    return RewardConfig(
        benefit=benefit,
        activation_cost=cost,
        migration_cost=float(rng.uniform(0.0, 3.0)),
        illness_cost=float(rng.uniform(0.0, 12.0)),
    )


SINGLE_PRESETS = ("fig2a", "fig2b", "fig2c", "fig4_migration")


@pytest.fixture(scope="session")
def preset_runs():
    """Each bundled single-run preset, simulated once per session, with wall time.

    For tests that only read a finished result. Tests that patch numpy,
    compare reruns or time their own runs make runs of their own.
    """
    runs = {}
    for name in SINGLE_PRESETS:
        start = time.perf_counter()
        result = simulate(preset(name))
        runs[name] = (result, time.perf_counter() - start)
    return runs
