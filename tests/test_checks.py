"""The container checks against the per-field checks they stand for.

``ActivityMasses`` and ``EncounterProbs`` run the per-field sequence
themselves; ``check_kernel``, ``policy_rows`` and ``StateDistribution``
first test all of their conditions at once and only on a failure run the
per-field sequence that names the fault. The oracles below are those
sequences as they stood before the one-pass tests were added, so every
check must raise the same exception type and message as its oracle on
valid inputs and on corrupted copies of them. The recorded differences are
tightenings the oracles let through: ``EncounterProbs`` rejects NaN entries,
both table containers reject fields of different lengths and entries that
are bools or not numbers, and ``EncounterProbs`` rejects fields that are
not one-dimensional.

The day core no longer builds those two containers: ``survival_table``
derives the activity masses and encounter probabilities from checked rows
and a checked distribution. The last tests show that the derived values
meet the container conditions by construction.
"""

from dataclasses import replace

import numpy as np
import pytest

from epigame import (
    ActivityMasses,
    EncounterProbs,
    NumericsError,
    Policy,
    RewardConfig,
    StateDistribution,
    TransitionKernel,
    ValidationError,
    preset,
    simulate,
)
from epigame.core import (
    CLASS_OF_STATE,
    NUM_CLASSES,
    NUM_STATES,
    PROB_TOL,
    InfectionState,
    action_degrees,
    policy_rows,
)
from epigame.decision import DayPlan
from epigame.epidemic import (
    activity_arrays,
    check_kernel,
    class_marginals,
    encounter_arrays,
    survival_table,
)
from conftest import make_params

CASES = 1000


# --- oracles: the per-field sequences ----------------------------------------


def oracle_activity(total, asymptomatic, symptomatic):
    named = {"total": total, "asymptomatic": asymptomatic, "symptomatic": symptomatic}
    for name, arr in named.items():
        if arr.ndim != 1:
            raise ValidationError(f"activity mass {name} must be one-dimensional")
        if (arr < 0.0).any() or not np.isfinite(arr).all():
            raise ValidationError(f"activity mass {name} must be finite and nonnegative")
    if (asymptomatic + symptomatic > total + PROB_TOL).any():
        raise ValidationError("infectious activity exceeds total activity")


def oracle_encounter(no_partner, asymptomatic, symptomatic):
    named = {"no_partner": no_partner, "asymptomatic": asymptomatic, "symptomatic": symptomatic}
    for name, arr in named.items():
        if (arr < 0.0).any() or (arr > 1.0 + PROB_TOL).any():
            raise ValidationError(f"encounter probability {name} outside [0, 1]")
    if (no_partner + asymptomatic + symptomatic > 1.0 + PROB_TOL).any():
        raise ValidationError("encounter probabilities of one attempt exceed 1")


def oracle_kernel(m, num_zones):
    n = NUM_STATES * num_zones
    if m.shape != (n, n):
        raise ValidationError(f"kernel must have shape ({n}, {n}); got {m.shape}")
    if (m < 0.0).any() or not np.isfinite(m).all():
        raise ValidationError("kernel entries must be finite and nonnegative")
    worst = float(np.abs(m.sum(axis=1) - 1.0).max())
    if worst > PROB_TOL:
        raise NumericsError(f"kernel rows deviate from stochasticity by {worst}")


def oracle_policy_rows(rows, a_max):
    if rows.ndim != 3 or rows.shape[0] != NUM_CLASSES:
        raise ValidationError(f"policy rows must have shape (3, Z, J); got {rows.shape}")
    zones = rows.shape[1]
    expected = (a_max + 1) * zones
    if rows.shape[2] != expected:
        raise ValidationError(
            f"policy rows have {rows.shape[2]} actions; expected {expected} "
            f"for a_max={a_max} and {zones} zones"
        )
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


def oracle_distribution(d):
    d = np.array(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != NUM_STATES:
        raise ValidationError(f"distribution must have shape (5, Z); got {d.shape}")
    if not np.isfinite(d).all():
        raise ValidationError("distribution contains non-finite entries")
    if (d < 0.0).any():
        raise ValidationError(f"distribution has negative mass (min {d.min()})")
    total = float(d.sum())
    if abs(total - 1.0) > PROB_TOL:
        raise ValidationError(f"distribution mass must be 1 within {PROB_TOL}; got {total}")
    return d / total


def outcome(fn, *args):
    """What ``fn(*args)`` does: its exception type and message, or the bytes it returns."""
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the oracle's exception is the expectation
        return type(exc), str(exc)
    if isinstance(result, StateDistribution):
        result = result.d
    return "ok", None if result is None else (result.shape, result.tobytes())


# --- valid inputs, one (3, Z) table or one array each ------------------------


def valid_activity(rng):
    zones = int(rng.integers(1, 7))
    total = rng.uniform(0.0, 5.0, zones) * (rng.random(zones) > 0.1)
    asym = total * rng.random(zones)
    sym = (total - asym) * rng.random(zones)
    return np.stack([total, asym, sym])


def valid_encounter(rng):
    zones = int(rng.integers(1, 7))
    split = rng.dirichlet(np.ones(3), zones).T  # columns sum to 1
    return split * np.where(rng.random(zones) < 0.5, 1.0, rng.random(zones))


def valid_kernel(rng):
    n = NUM_STATES * int(rng.integers(1, 4))
    m = rng.random((n, n)) * (rng.random((n, n)) > 0.5)
    m[np.arange(n), rng.integers(0, n, n)] += 0.1  # no empty row
    return m / m.sum(axis=1, keepdims=True)


def valid_rows(rng):
    zones, a_max = int(rng.integers(1, 4)), int(rng.integers(0, 4))
    rows = rng.random((NUM_CLASSES, zones, (a_max + 1) * zones)) + 1e-3
    return rows / rows.sum(axis=-1, keepdims=True)


def valid_distribution(rng):
    d = rng.random((NUM_STATES, int(rng.integers(1, 5)))) * (rng.random() + 0.5)
    return d / d.sum()


# --- corruptions ---------------------------------------------------------------


def set_entry(value):
    def corrupt(x, rng):
        x.flat[rng.integers(x.size)] = value
        return x

    return corrupt


def negative_keeping_sums(axis):
    """One entry turned negative, with its slice along ``axis`` keeping its sum.

    Only the one-pass test's ``min >= 0`` catches it before the per-field checks:
    no sum moves past its tolerance.
    """

    def corrupt(x, rng):
        idx = np.unravel_index(rng.integers(x.size), x.shape)
        other = list(idx)
        other[axis] = (idx[axis] + 1) % x.shape[axis]
        shift = x[idx] + rng.uniform(1e-3, 0.5)
        x[idx] -= shift
        x[tuple(other)] += shift
        return x

    return corrupt


def negative_activity(x, rng):
    """A negative infectious mass, which keeps ``asymptomatic + symptomatic <= total``."""
    x[int(rng.integers(1, 3)), rng.integers(x.shape[1])] = -rng.uniform(1e-3, 1.0)
    return x


def negative_encounter(x, rng):
    """A negative probability, which only lowers its column sum."""
    x[rng.integers(3), rng.integers(x.shape[1])] = -rng.uniform(1e-3, 1.0)
    return x


def excess_activity(x, rng):
    z = rng.integers(x.shape[1])
    x[2, z] = x[0, z] - x[1, z] + 2 * PROB_TOL
    return x


def excess_encounter(x, rng):
    z = rng.integers(x.shape[1])
    x[rng.integers(3), z] += 1.0 - x[:, z].sum() + 2 * PROB_TOL
    return x


def excess_entry(x, rng):
    x.flat[rng.integers(x.size)] += 2 * PROB_TOL
    return x


COMMON = {"nan": set_entry(np.nan), "+inf": set_entry(np.inf), "-inf": set_entry(-np.inf)}


def corruptions(kind):
    sums = {
        "activity": {"negative": negative_activity, "sum": excess_activity},
        "encounter": {"negative": negative_encounter, "sum": excess_encounter},
        "kernel": {"negative": negative_keeping_sums(1), "sum": excess_entry},
        "rows": {"negative": negative_keeping_sums(2), "sum": excess_entry},
        "distribution": {"negative": negative_keeping_sums(0), "sum": excess_entry},
    }
    return {**COMMON, **sums[kind]}


TABLES = {
    "activity": (ActivityMasses, oracle_activity, valid_activity, "activity mass"),
    "encounter": (EncounterProbs, oracle_encounter, valid_encounter, "encounter probability"),
}


def build_table(container):
    def build(rows):
        container(*rows)

    return build


@pytest.mark.parametrize("kind", TABLES, ids=["ActivityMasses", "EncounterProbs"])
def test_table_checks_match_the_per_field_sequence(kind):
    container, oracle, make, what = TABLES[kind]
    build = build_table(container)
    first = "total" if kind == "activity" else "no_partner"
    names = (first, "asymptomatic", "symptomatic")
    rng = np.random.default_rng(1100 if kind == "activity" else 1101)
    for _ in range(CASES):
        table = make(rng)
        assert outcome(build, table) == ("ok", None)
        for name, corrupt in corruptions(kind).items():
            if name == "nan" and kind == "encounter":
                continue  # the recorded tightening, pinned below
            bad = corrupt(table.copy(), rng)
            assert outcome(build, bad) == outcome(oracle, *bad)
        # wrong shapes: two-dimensional fields and scalar fields
        for bad in (np.repeat(table[:, :, None], 2, axis=2), table[:, 0].copy()):
            if kind == "activity":
                assert outcome(build, bad) == outcome(oracle, *bad)
            else:  # tightened: the oracle checks no dimension
                expected = (ValidationError, f"{what} {first} must be one-dimensional")
                assert outcome(build, bad) == expected
        # fields of different lengths: tightened, the oracle lets them broadcast
        zones = table.shape[1]
        if zones > 1:
            message = f"{what} asymptomatic has length 1; {first} has length {zones}"
            assert outcome(build, [table[0], table[1, :1], table[2]]) == (ValidationError, message)
            message = f"{what} asymptomatic has length {zones}; {first} has length 1"
            assert outcome(build, [table[0, :1], table[1], table[2]]) == (ValidationError, message)
        # entries that are not numbers: tightened, numpy coerced bools and raised on strings
        k, z = int(rng.integers(3)), int(rng.integers(zones))
        for entry, kind_name in ((True, "bool"), ("x", "str")):
            bad = [list(row) for row in table]
            bad[k][z] = entry
            message = f"{what} {names[k]} entries must be numbers; got {kind_name} entries"
            assert outcome(build, bad) == (ValidationError, message)
    message = f"{what} {first} entries must be numbers; got bool entries"
    assert outcome(build, np.ones((3, 2), dtype=bool)) == (ValidationError, message)
    empty = np.empty((3, 0))
    assert outcome(build, empty) == outcome(oracle, *empty)


def test_encounter_check_rejects_nan_naming_the_field():
    rng = np.random.default_rng(1102)
    fields = ("no_partner", "asymptomatic", "symptomatic")
    for _ in range(CASES):
        table = valid_encounter(rng)
        k, z = int(rng.integers(3)), int(rng.integers(table.shape[1]))
        table[k, z] = np.nan
        # the per-field sequence let it through
        assert outcome(oracle_encounter, *table) == ("ok", None)
        expected = (ValidationError, f"encounter probability {fields[k]} must be finite")
        assert outcome(build_table(EncounterProbs), table) == expected
    with pytest.raises(ValidationError, match="no_partner must be finite"):
        EncounterProbs(np.array([np.nan]), np.array([0.1]), np.array([0.2]))


def build_kernel(m, zones):
    TransitionKernel(m, zones)


def test_kernel_check_matches_the_separate_checks():
    rng = np.random.default_rng(1103)
    for _ in range(CASES):
        m = valid_kernel(rng)
        zones = len(m) // NUM_STATES
        assert outcome(check_kernel, m, zones) == ("ok", None)
        for corrupt in corruptions("kernel").values():
            bad = corrupt(m.copy(), rng)
            assert outcome(check_kernel, bad, zones) == outcome(oracle_kernel, bad, zones)
            assert outcome(build_kernel, bad, zones) == outcome(oracle_kernel, bad, zones)
        for bad, z in ((m[:, 1:], zones), (m, zones + 1)):
            assert outcome(check_kernel, bad, z) == outcome(oracle_kernel, bad, z)
    empty = np.empty((0, 0))
    assert outcome(check_kernel, empty, 0) == outcome(oracle_kernel, empty, 0)


def test_policy_rows_match_the_separate_checks():
    rng = np.random.default_rng(1104)
    for _ in range(CASES):
        rows = valid_rows(rng)
        a_max = rows.shape[2] // rows.shape[1] - 1
        assert outcome(policy_rows, rows, a_max) == outcome(oracle_policy_rows, rows, a_max)
        for corrupt in corruptions("rows").values():
            bad = corrupt(rows.copy(), rng)
            assert outcome(policy_rows, bad, a_max) == outcome(oracle_policy_rows, bad, a_max)
        for bad, a in ((rows[1:], a_max), (rows, a_max + 1), (rows[0], a_max)):
            assert outcome(policy_rows, bad, a) == outcome(oracle_policy_rows, bad, a)
    for a_max in (0, 2):
        empty = np.empty((NUM_CLASSES, 0, 0))
        assert outcome(policy_rows, empty, a_max) == outcome(oracle_policy_rows, empty, a_max)


def test_distribution_matches_the_separate_checks():
    rng = np.random.default_rng(1105)
    for _ in range(CASES):
        d = valid_distribution(rng)
        assert outcome(StateDistribution, d) == outcome(oracle_distribution, d)
        for corrupt in corruptions("distribution").values():
            bad = corrupt(d.copy(), rng)
            assert outcome(StateDistribution, bad) == outcome(oracle_distribution, bad)
        for bad in (d[1:], d[:, 0], d[:, :, None]):
            assert outcome(StateDistribution, bad) == outcome(oracle_distribution, bad)
    empty = np.empty((NUM_STATES, 0))
    assert outcome(StateDistribution, empty) == outcome(oracle_distribution, empty)


# --- no aliasing -----------------------------------------------------------------


@pytest.mark.parametrize(
    "build, stored, given",
    [
        (lambda x: Policy(x, 1), "class_rows", np.full((NUM_CLASSES, 1, 2), 0.5)),
        (StateDistribution, "d", np.full((NUM_STATES, 1), 0.2)),
        (lambda x: TransitionKernel(x, 1), "matrix", np.full((NUM_STATES, NUM_STATES), 0.2)),
        (lambda x: RewardConfig(x, np.zeros((NUM_STATES, 1, 2)), 0.0, 0.0), "benefit",
         np.array([0.0, 0.5])),
        (lambda x: RewardConfig(np.array([0.0, 0.5]), x, 0.0, 0.0), "activation_cost",
         np.full((NUM_STATES, 1, 2), 0.25)),
        (lambda x: ActivityMasses(x, [0.0], [0.0]), "total", np.array([0.5])),
        (lambda x: ActivityMasses([1.0], x, [0.0]), "asymptomatic", np.array([0.25])),
        (lambda x: ActivityMasses([1.0], [0.0], x), "symptomatic", np.array([0.25])),
        (lambda x: EncounterProbs(x, [0.0], [0.0]), "no_partner", np.array([0.25])),
        (lambda x: EncounterProbs([0.0], x, [0.0]), "asymptomatic", np.array([0.25])),
        (lambda x: EncounterProbs([0.0], [0.0], x), "symptomatic", np.array([0.25])),
        (lambda x: replace(preset("fig2b"), lockdown_degrees=x), "lockdown_degrees",
         np.array([[2], [2], [6]])),
        (lambda x: replace(preset("fig2b"), initial_dist=x), "initial_dist",
         np.array([[0.97], [0.02], [0.01], [0.0], [0.0]])),
        (lambda x: replace(preset("fig2b"), benefit=x), "benefit", np.arange(7.0) / 6.0),
    ],
    ids=["Policy", "StateDistribution", "TransitionKernel",
         "RewardConfig.benefit", "RewardConfig.activation_cost",
         "ActivityMasses.total", "ActivityMasses.asymptomatic", "ActivityMasses.symptomatic",
         "EncounterProbs.no_partner", "EncounterProbs.asymptomatic",
         "EncounterProbs.symptomatic", "ScenarioConfig.lockdown_degrees",
         "ScenarioConfig.initial_dist", "ScenarioConfig.benefit"],
)
def test_containers_store_a_read_only_array_of_their_own(build, stored, given):
    before = given.copy()
    kept = getattr(build(given), stored)
    assert given.flags.writeable
    assert given.tobytes() == before.tobytes()
    assert kept is not given
    assert not np.shares_memory(kept, given)
    assert not kept.flags.writeable
    given[...] = 0.0
    assert kept.tobytes() == before.tobytes()


def test_derived_tables_and_run_columns_are_read_only():
    scenario = replace(preset("fig4_migration"), horizon=3)
    table = scenario.reward_config().table
    plan = DayPlan(table, scenario.params)
    traj = simulate(scenario).trajectory
    kept = {
        "RewardConfig.table": table,
        **{f"DayPlan.{name}": getattr(plan, name)
           for name in ("degrees", "powers", "law", "penalty", "class_table")},
        **{f"Trajectory.{name}": getattr(traj, name)
           for name in ("dist", "activation", "flows", "daily_welfare")},
    }
    assert [name for name, arr in kept.items() if arr.flags.writeable] == []


# --- derived values: in range by construction -----------------------------------


def random_day_inputs(rng, a_max=None):
    """Class rows, distribution table, degrees and ``epsilon`` of a random checked social state.

    Rows and distribution go through ``Policy`` and ``StateDistribution``;
    some rows are pure actions, some entries zero, and ``epsilon`` spans
    1e-12 to 10.
    """
    zones = int(rng.integers(1, 7))
    a_max = int(rng.integers(0, 7)) if a_max is None else a_max
    width = (a_max + 1) * zones
    rows = rng.random((NUM_CLASSES, zones, width)) * (rng.random((NUM_CLASSES, zones, width)) > 0.3)
    pure = rng.random((NUM_CLASSES, zones)) < 0.3
    rows[pure] = np.eye(width)[rng.integers(width, size=int(pure.sum()))]
    rows[rows.sum(axis=-1) == 0.0, 0] = 1.0
    d = rng.random((NUM_STATES, zones)) * (rng.random((NUM_STATES, zones)) > 0.3)
    d[rng.integers(NUM_STATES), rng.integers(zones)] += rng.random() + 1e-3
    policy = Policy(rows / rows.sum(axis=-1, keepdims=True), a_max)
    dist = StateDistribution(d / d.sum())
    return policy.class_rows, dist.d, action_degrees(a_max, zones), 10.0 ** rng.uniform(-12, 1)


def derived_violations(rows, d, degrees, epsilon):
    """The container conditions that the day core's derived values break."""
    _, mean_degree = class_marginals(rows, degrees)
    masses = activity_arrays(mean_degree, d)
    probs = encounter_arrays(*masses, epsilon)
    broken = []
    if not (np.isfinite(masses).all() and (masses >= 0.0).all()):
        broken.append("masses finite and nonnegative")
    if (masses[1] + masses[2] > masses[0] + PROB_TOL).any():
        broken.append("infectious activity within total")
    if not ((probs >= 0.0) & (probs <= 1.0)).all():
        broken.append("probabilities in [0, 1]")
    if (probs.sum(axis=0) > 1.0 + PROB_TOL).any():
        broken.append("attempt sums at most 1")
    return broken


def test_derived_activity_and_encounter_values_stay_in_range():
    rng = np.random.default_rng(1200)
    for _ in range(CASES):
        rows, d, degrees, epsilon = random_day_inputs(rng)
        assert derived_violations(rows, d, degrees, epsilon) == []


def test_derived_value_invariants_catch_inputs_past_the_container_checks():
    """A negative mass or row weight that keeps every sum breaks the invariants."""
    rng = np.random.default_rng(1201)
    infectious = (InfectionState.A, InfectionState.I)
    for _ in range(CASES):
        rows, d, degrees, epsilon = random_day_inputs(rng, a_max=int(rng.integers(1, 7)))
        s, z = infectious[rng.integers(2)], int(rng.integers(d.shape[1]))
        c = CLASS_OF_STATE[s]
        rows = rows.copy()
        rows[c, z] = 1.0 / rows.shape[2]  # positive mean degree
        d = d.copy()
        d[s, z] += 0.1
        d /= d.sum()
        assert derived_violations(rows, d, degrees, epsilon) == []
        # a negative entry of d, its zone column keeping its sum
        bad = d.copy()
        shift = bad[s, z] + rng.uniform(1e-3, 0.5)
        bad[s, z] -= shift
        bad[InfectionState.R, z] += shift
        assert derived_violations(rows, bad, degrees, epsilon)
        # a negative weight on the top degree, its row keeping its sum
        bad = rows.copy()
        top, idle = int(np.argmax(degrees)), int(np.argmin(degrees))
        shift = bad[c, z, top] + rng.uniform(1.0, 2.0)
        bad[c, z, top] -= shift
        bad[c, z, idle] += shift
        assert derived_violations(bad, d, degrees, epsilon)


def test_the_survival_table_reads_the_encounter_probabilities_bit_for_bit():
    """``survival_table`` divides only the infectious rows, with ``encounter_arrays``' bits."""
    rng = np.random.default_rng(1202)
    for _ in range(CASES):
        rows, d, degrees, epsilon = random_day_inputs(rng)
        a_max = int(degrees.max())
        p = make_params(num_zones=d.shape[1], a_max=a_max, epsilon=epsilon,
                        beta_A=float(rng.uniform(0.0, 1.0)), beta_I=float(rng.uniform(0.0, 1.0)))
        _, mean_degree = class_marginals(rows, degrees)
        probs = encounter_arrays(*activity_arrays(mean_degree, d), epsilon)
        base = np.maximum(1.0 - (p.beta_A * probs[1] + p.beta_I * probs[2]), 0.0)
        powers = np.arange(a_max + 1)
        expected = base[:, None] ** powers[None, :]
        assert np.array_equal(survival_table(mean_degree, d, powers, p), expected)
