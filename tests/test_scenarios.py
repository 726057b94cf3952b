"""Preset catalog, scenario documents and grid sweeps."""

import json
from dataclasses import replace

import numpy as np
import pytest

from epigame import (
    FIG3_FAMILIES,
    PRESET_NAMES,
    InfectionState,
    ScenarioConfig,
    ValidationError,
    fig3_points,
    linear_benefit,
    lockdown_cost,
    preset,
    preset_description,
    scenario_from_dict,
    sweep,
    uniform_no_move_policy,
)
from epigame.core import BehaviorClass, action_degrees
from epigame.scenarios import (
    DEFAULT_HORIZON,
    PRESET_EPSILON,
    PRESET_HEALTHY_Q,
    PRESET_HORIZON,
)
from conftest import make_params


# --- preset catalog -----------------------------------------------------------


def test_preset_catalog_frozen():
    assert PRESET_NAMES == ("fig2a", "fig2b", "fig2c", "fig3_sweep", "fig4_migration")
    for name in PRESET_NAMES:
        assert preset_description(name)


def test_single_zone_presets_share_the_epidemic():
    for name in ("fig2a", "fig2b", "fig2c"):
        cfg = preset(name)
        p = cfg.params
        assert (p.beta_A, p.beta_I) == (0.2, 0.2)
        assert (p.delta_A_I, p.delta_A_U, p.delta_I_R) == (0.08, 0.08, 0.04)
        assert p.delta_U_R == 0.0
        assert p.epsilon == PRESET_EPSILON
        assert (p.num_zones, p.a_max) == (1, 6)
        assert (p.rationality, p.inertia) == (10.0, 0.2)
        assert (p.migration_cost, p.illness_cost) == (2.0, 10.0)
        assert cfg.horizon == PRESET_HORIZON
        assert cfg.healthy_q == PRESET_HEALTHY_Q
        assert cfg.initial_dist[:, 0] == pytest.approx([0.97, 0.02, 0.01, 0.0, 0.0])


def test_fig2a_and_fig2b_differ_only_in_the_discount():
    a = preset("fig2a").to_dict()
    b = preset("fig2b").to_dict()
    assert a["params"].pop("alpha") == 0.0
    assert b["params"].pop("alpha") == 0.9
    a.pop("name"), b.pop("name")
    assert a == b


def test_fig2b_and_fig2c_differ_only_in_the_recovered_lockdown():
    b = preset("fig2b").to_dict()
    c = preset("fig2c").to_dict()
    assert b["lockdown_degrees"].pop("recovered") == [2]
    assert c["lockdown_degrees"].pop("recovered") == [6]
    b.pop("name"), c.pop("name")
    assert b == c


def test_fig4_preset_frozen():
    cfg = preset("fig4_migration")
    p = cfg.params
    assert p.num_zones == 2
    assert p.alpha == 0.9
    assert p.delta_U_R == 0.01
    assert p.inertia == 0.1
    assert p.migration_cost == 2.0
    assert cfg.lockdown_degrees.tolist() == [[4, 2], [4, 2], [6, 6]]
    assert cfg.initial_dist[InfectionState.S].tolist() == [0.873, 0.1]
    assert cfg.initial_dist[InfectionState.A].tolist() == [0.018, 0.0]
    assert cfg.initial_dist[InfectionState.I].tolist() == [0.009, 0.0]
    assert cfg.initial_dist.sum() == pytest.approx(1.0)


def test_unknown_preset_rejected():
    with pytest.raises(ValidationError, match="unknown preset"):
        preset("fig9")
    with pytest.raises(ValidationError, match="unknown preset"):
        preset_description("fig9")


# --- lockdown sweep family -------------------------------------------------------


def test_fig3_points_cover_all_families_and_degrees():
    points = fig3_points()
    assert len(points) == 28
    seen = set()
    for fields, cfg in points:
        seen.add((fields["family"], fields["a_lock"]))
        a_lock = fields["a_lock"]
        assert cfg.lockdown_degrees[BehaviorClass.HEALTHY, 0] == a_lock
        assert cfg.lockdown_degrees[BehaviorClass.SYMPTOMATIC, 0] == a_lock
    families = [name for name, *_ in FIG3_FAMILIES]
    assert seen == {(f, a) for f in families for a in range(7)}
    names = [cfg.name for _, cfg in points]
    assert len(set(names)) == 28


def test_fig3_family_settings():
    by_family = {}
    for fields, cfg in fig3_points():
        by_family.setdefault(fields["family"], []).append(cfg)
    assert all(cfg.params.alpha == 0.0 for cfg in by_family["myopic-full"])
    assert all(cfg.params.alpha == 0.9 for cfg in by_family["farsighted-full"])
    for cfg in by_family["farsighted-full"]:
        healthy = cfg.lockdown_degrees[BehaviorClass.HEALTHY, 0]
        assert cfg.lockdown_degrees[BehaviorClass.RECOVERED, 0] == healthy
    for cfg in by_family["farsighted-exempt"]:
        assert cfg.lockdown_degrees[BehaviorClass.RECOVERED, 0] == 6
        assert cfg.params.delta_U_R == 0.0
    for cfg in by_family["farsighted-exempt-serology"]:
        assert cfg.lockdown_degrees[BehaviorClass.RECOVERED, 0] == 6
        assert cfg.params.delta_U_R == 0.05


def test_fig3_sweep_preset_matches_the_point_list():
    configs = preset("fig3_sweep")
    assert isinstance(configs, list)
    assert [c.name for c in configs] == [cfg.name for _, cfg in fig3_points()]


# --- scenario construction ----------------------------------------------------------


def frozen_scenario(**overrides):
    fields = dict(
        name="custom",
        params=make_params(num_zones=1),
        lockdown_degrees=np.array([[2], [2], [6]]),
        initial_dist=np.array([[0.97], [0.02], [0.01], [0.0], [0.0]]),
    )
    fields.update(overrides)
    return ScenarioConfig(**fields)


def test_scenario_defaults():
    cfg = frozen_scenario()
    assert cfg.horizon == DEFAULT_HORIZON
    assert cfg.lockdown_multiplier == 3.0
    assert cfg.benefit is None
    assert cfg.infected_forced_home
    assert cfg.healthy_q == "belief"
    assert not cfg.subtract_initial_immune


def test_scenario_rejections():
    with pytest.raises(ValidationError):
        frozen_scenario(name="")
    with pytest.raises(ValidationError):
        frozen_scenario(horizon=0)
    with pytest.raises(ValidationError):
        frozen_scenario(extinction_threshold=0.0)
    with pytest.raises(ValidationError):
        frozen_scenario(policy_settle_threshold=-1.0)
    with pytest.raises(ValidationError):
        frozen_scenario(healthy_q="psychic")
    with pytest.raises(ValidationError):
        frozen_scenario(lockdown_degrees=np.array([[2], [3], [6]]))
    with pytest.raises(ValidationError):
        frozen_scenario(initial_dist=np.full((5, 1), 0.3))


def test_scenario_keeps_the_tables_it_validated():
    cfg = frozen_scenario()
    assert cfg.reward_config() is cfg.reward_config()
    assert cfg.initial_social().dist is cfg.initial_social().dist
    looser = replace(cfg, lockdown_degrees=np.array([[4], [3], [6]]))
    expected = lockdown_cost(np.array([[4], [3], [6]]), linear_benefit(6), 3.0)
    assert np.array_equal(looser.reward_config().activation_cost, expected)
    assert not np.array_equal(cfg.reward_config().activation_cost, expected)
    with pytest.raises(ValidationError, match="lockdown_degrees"):
        frozen_scenario(lockdown_degrees=np.array([[2.5], [2], [6]]))


def test_initial_social_confines_the_symptomatic():
    cfg = frozen_scenario()
    social = cfg.initial_social()
    sympt = social.policy.class_rows[BehaviorClass.SYMPTOMATIC, 0]
    assert sympt.tolist() == [1.0] + [0.0] * 6
    healthy = social.policy.class_rows[BehaviorClass.HEALTHY, 0]
    assert healthy.min() == healthy.max()
    # the other rows are the stay-home policy's, normalised once
    unconfined = uniform_no_move_policy(cfg.params).class_rows
    for cls in (BehaviorClass.HEALTHY, BehaviorClass.RECOVERED):
        assert np.array_equal(social.policy.class_rows[cls], unconfined[cls])


def test_initial_social_uniform_when_not_confined():
    social = frozen_scenario(infected_forced_home=False).initial_social()
    sympt = social.policy.class_rows[BehaviorClass.SYMPTOMATIC, 0]
    assert sympt.min() == sympt.max()


def test_initial_social_two_zone_symptomatic_row_stays_home():
    cfg = preset("fig4_migration")
    social = cfg.initial_social()
    home = action_degrees(6, 2) == 0
    sympt = social.policy.class_rows[BehaviorClass.SYMPTOMATIC]
    assert np.all(sympt[:, ~home] == 0.0)
    assert sympt[0].sum() == pytest.approx(1.0)


# --- documents ---------------------------------------------------------------------


def test_scenario_document_round_trip():
    for name in ("fig2a", "fig4_migration"):
        cfg = preset(name)
        doc = cfg.to_dict()
        json.dumps(doc)  # must be serializable as-is
        clone = scenario_from_dict(doc)
        assert clone.to_dict() == doc


def test_numpy_scalar_inputs_round_trip_through_json():
    base = preset("fig2a")
    numpy_params = replace(
        base.params, alpha=np.float64(0.9), a_max=np.int64(6), rationality=np.float32(2.5)
    )
    cfg = replace(
        base,
        params=numpy_params,
        horizon=np.int64(2),
        infected_forced_home=np.True_,
        subtract_initial_immune=np.False_,
        lockdown_multiplier=np.float64(3.0),
    )
    doc = json.loads(json.dumps(cfg.to_dict()))
    clone = scenario_from_dict(doc)
    assert clone.to_dict() == doc
    assert doc["horizon"] == 2 and doc["infected_forced_home"] is True
    assert doc["params"]["rationality"] == 2.5
    # Python inputs keep their exact values.
    assert json.dumps(base.to_dict()) == json.dumps(scenario_from_dict(base.to_dict()).to_dict())


def test_scenario_document_custom_benefit_round_trip():
    cfg = frozen_scenario(
        params=make_params(num_zones=1, a_max=2),
        lockdown_degrees=np.array([[1], [1], [2]]),
        benefit=np.array([0.0, 0.3, 0.9]),
    )
    doc = cfg.to_dict()
    assert doc["benefit"] == [0.0, 0.3, 0.9]
    clone = scenario_from_dict(doc)
    assert clone.benefit.tolist() == [0.0, 0.3, 0.9]


def test_scenario_document_rejections():
    doc = preset("fig2a").to_dict()
    bad = dict(doc)
    bad["mystery"] = 1
    with pytest.raises(ValidationError, match="unknown scenario keys"):
        scenario_from_dict(bad)

    for key in ("name", "params", "lockdown_degrees", "initial_dist"):
        bad = dict(doc)
        del bad[key]
        with pytest.raises(ValidationError, match="missing required key"):
            scenario_from_dict(bad)

    bad = dict(doc)
    bad["params"] = dict(doc["params"])
    del bad["params"]["alpha"]
    with pytest.raises(ValidationError, match="exactly the fields"):
        scenario_from_dict(bad)

    bad = dict(doc)
    bad["params"] = dict(doc["params"], bogus=1.0)
    with pytest.raises(ValidationError, match="exactly the fields"):
        scenario_from_dict(bad)

    bad = dict(doc)
    bad["lockdown_degrees"] = {"healthy": [2]}
    with pytest.raises(ValidationError, match="lockdown_degrees"):
        scenario_from_dict(bad)

    bad = dict(doc)
    bad["initial_dist"] = {"S": [1.0]}
    with pytest.raises(ValidationError, match="initial_dist"):
        scenario_from_dict(bad)

    for table, key in (("lockdown_degrees", "healthyy"), ("initial_dist", "X")):
        bad = dict(doc)
        bad[table] = dict(doc[table], **{key: [0]})
        with pytest.raises(ValidationError, match=f"unknown {table} keys: \\['{key}'\\]"):
            scenario_from_dict(bad)

    with pytest.raises(ValidationError, match="mapping"):
        scenario_from_dict([1, 2, 3])


# --- sweeps ------------------------------------------------------------------------


def test_sweep_over_lockdown_degrees():
    base = preset("fig2b")
    configs = sweep([("lockdown.all", range(7))], base)
    assert len(configs) == 7
    for a_lock, cfg in enumerate(configs):
        assert np.all(cfg.lockdown_degrees == a_lock)
        assert cfg.name == f"fig2b[lockdown.all={a_lock}]"


def test_sweep_empty_grid_returns_the_base():
    base = preset("fig2a")
    assert sweep([], base) == [base]


def test_sweep_cartesian_product():
    base = preset("fig2b")
    configs = sweep(
        [("params.alpha", [0.0, 0.5]), ("healthy_q", ["belief", "assume_susceptible"])],
        base,
    )
    assert len(configs) == 4
    combos = {(cfg.params.alpha, cfg.healthy_q) for cfg in configs}
    assert combos == {(a, m) for a in (0.0, 0.5) for m in ("belief", "assume_susceptible")}
    assert configs[0].name == "fig2b[params.alpha=0.0,healthy_q=belief]"


def test_sweep_over_one_lockdown_row():
    base = preset("fig2b")
    configs = sweep([("lockdown.recovered", [2, 4, 6])], base)
    rows = [cfg.lockdown_degrees[BehaviorClass.RECOVERED, 0] for cfg in configs]
    assert rows == [2, 4, 6]
    for cfg in configs:
        assert cfg.lockdown_degrees[BehaviorClass.HEALTHY, 0] == 2


def test_sweep_rejects_unknown_paths_and_invalid_values():
    base = preset("fig2b")
    with pytest.raises(ValidationError, match="unknown model parameter"):
        sweep([("params.bogus", [1.0])], base)
    with pytest.raises(ValidationError, match="unknown behavior class"):
        sweep([("lockdown.everyone", [2])], base)
    with pytest.raises(ValidationError, match="unknown sweep field path"):
        sweep([("initial_dist", [None])], base)
    with pytest.raises(ValidationError):
        sweep([("lockdown.all", [9])], base)  # above the degree cap
    with pytest.raises(ValidationError):
        sweep([("lockdown.healthy", [1])], base)  # below the symptomatic row
    # A single value, a string or a mapping is not a collection of values; range and lists are.
    singles = (("horizon", 5), ("healthy_q", "belief"), ("params.alpha", np.array(0.5)),
               ("horizon", {5: "x", 7: "y"}))
    for path, values in singles:
        with pytest.raises(ValidationError, match=f"sweep path '{path}' needs a collection"):
            sweep([(path, values)], base)
    with pytest.raises(ValidationError, match="'params.alpha' is given more than once"):
        sweep([("params.alpha", [0.1, 0.2]), ("params.alpha", [0.5])], base)
    # Two paths that write one lockdown row: lockdown.all with a class, or one class twice.
    fig4 = preset("fig4_migration")
    for first, second in (("lockdown.recovered", "lockdown.all"),
                          ("lockdown.all", "lockdown.healthy"),
                          ("lockdown.recovered", "lockdown.RECOVERED")):
        with pytest.raises(ValidationError, match=f"'{first}' and '{second}' both set"):
            sweep([(first, [6]), (second, [5])], fig4)
