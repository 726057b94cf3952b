"""Seeded scenario documents for the ``many_zones`` and ``equilibrium_checks`` workloads.

Only the standard library is used, so the generator adds nothing to the
set-up it is timed in, and the program under test receives plain JSON
documents and ``--split`` strings, never objects built by the benchmark.

Invariants the documents keep, so that no operation is expected to fail:

* lockdown rows satisfy ``symptomatic <= healthy`` and ``recovered = a_max``
  in every zone, the ordering the cost builder requires;
* ``many_zones`` seeds every zone with infected mass, so the run is ended by
  its horizon, not by extinction, and the day count is fixed;
* equilibrium splits put susceptible mass only in zones with the highest
  healthy lockdown degree (no zone beats them, so none is worth leaving)
  and recovered mass anywhere (recovered agents are never locked down, so
  every zone is equally good for them).
"""

from __future__ import annotations

import random

A_MAX = 6

#: Zone counts and horizons of the ``many_zones`` runs. Each horizon is well
#: short of burn-out at these infection levels (symptomatic mass alone decays
#: no faster than 0.96 per day), so the horizon ends the run.
MANY_ZONES_RUNS = ((10, 150), (40, 30))

#: Zone counts of the ``equilibrium_checks`` scenarios.
EQUILIBRIUM_ZONES = (2, 10)

MASS_UNITS = 1000  # masses are multiples of 1/1000, exact in decimal


def _params(rng: random.Random, num_zones: int) -> dict:
    return {
        "beta_A": round(rng.uniform(0.15, 0.25), 3),
        "beta_I": round(rng.uniform(0.15, 0.25), 3),
        "delta_A_I": 0.08,
        "delta_A_U": 0.08,
        "delta_I_R": 0.04,
        "delta_U_R": round(rng.choice((0.0, 0.01, 0.05)), 3),
        "epsilon": 0.1,
        "num_zones": num_zones,
        "a_max": A_MAX,
        "alpha": round(rng.uniform(0.8, 0.95), 3),
        "rationality": 10.0,
        "inertia": round(rng.uniform(0.1, 0.3), 3),
        "migration_cost": round(rng.uniform(1.0, 3.0), 3),
        "illness_cost": 10.0,
    }


def _lockdown(rng: random.Random, num_zones: int) -> dict:
    healthy = [rng.randint(1, A_MAX) for _ in range(num_zones)]
    return {
        "healthy": healthy,
        "symptomatic": [rng.randint(0, h) for h in healthy],
        "recovered": [A_MAX] * num_zones,
    }


def _split_units(rng: random.Random, cells: int) -> list[int]:
    """``cells`` positive integers summing to MASS_UNITS."""
    cuts = sorted(rng.sample(range(1, MASS_UNITS), cells - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, MASS_UNITS])]


def _mass(units: int) -> float:
    return units / MASS_UNITS


def many_zones_documents(seed: int) -> list[dict]:
    """One scenario document per entry of :data:`MANY_ZONES_RUNS`."""
    rng = random.Random(f"many_zones:{seed}")
    docs = []
    for num_zones, horizon in MANY_ZONES_RUNS:
        units = _split_units(rng, num_zones)
        dist = {s: [0.0] * num_zones for s in "SAIRU"}
        for z, u in enumerate(units):
            # 3% of each zone's mass starts infected: 2% A and 1% I.
            dist["A"][z] = 0.02 * _mass(u)
            dist["I"][z] = 0.01 * _mass(u)
            dist["S"][z] = _mass(u) - dist["A"][z] - dist["I"][z]
        docs.append({
            "name": f"many_zones-z{num_zones}-seed{seed}",
            "params": _params(rng, num_zones),
            "lockdown_degrees": _lockdown(rng, num_zones),
            "initial_dist": dist,
            "horizon": horizon,
            "healthy_q": rng.choice(("belief", "assume_susceptible")),
        })
    return docs


def equilibrium_inputs(seed: int) -> list[tuple[dict, str]]:
    """(scenario document, ``--split`` string) per entry of :data:`EQUILIBRIUM_ZONES`."""
    rng = random.Random(f"equilibrium_checks:{seed}")
    out = []
    for num_zones in EQUILIBRIUM_ZONES:
        lockdown = _lockdown(rng, num_zones)
        top = max(lockdown["healthy"])
        s_zones = [z for z, h in enumerate(lockdown["healthy"]) if h == top]
        r_zones = rng.sample(range(num_zones), rng.randint(1, num_zones))
        cells = [("S", z) for z in s_zones] + [("R", z) for z in r_zones]
        units = _split_units(rng, len(cells))
        split = ",".join(f"{s}:{z}={_mass(u)!r}" for (s, z), u in zip(cells, units))
        init = {s: [0.0] * num_zones for s in "SAIRU"}
        init["S"][s_zones[0]] = 1.0
        doc = {
            "name": f"equilibrium-z{num_zones}-seed{seed}",
            "params": _params(rng, num_zones),
            "lockdown_degrees": lockdown,
            "initial_dist": init,
            "healthy_q": rng.choice(("belief", "assume_susceptible")),
        }
        out.append((doc, split))
    return out
