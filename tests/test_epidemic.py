"""Activity aggregation, pairing, infection rows and the one-day kernel."""

import numpy as np
import pytest

from epigame import (
    ActivityMasses,
    EncounterProbs,
    InfectionState,
    NumericsError,
    Policy,
    SocialState,
    StateDistribution,
    TransitionKernel,
    ValidationError,
    activity_masses,
    encounter_probs,
    infection_transition,
    state_transition,
    transition_matrix,
    uniform_no_move_policy,
)
from epigame.core import (
    NUM_CLASSES,
    NUM_STATES,
    flatten_action,
    flatten_state,
    unflatten_action,
)
from epigame.epidemic import infection_matrix
from conftest import make_params, random_dist, random_social


def degenerate_policy(p, degree, target_of_zone=None):
    """Every class in zone z plays (degree, target_of_zone(z)) with probability 1."""
    rows = np.zeros((NUM_CLASSES, p.num_zones, p.num_actions))
    for z in range(p.num_zones):
        tgt = z if target_of_zone is None else target_of_zone(z)
        rows[:, z, flatten_action(degree, tgt, p.a_max, p.num_zones)] = 1.0
    return Policy(rows, p.a_max)


# --- activity masses --------------------------------------------------------


def test_activity_mass_single_full_degree_agent():
    p = make_params(num_zones=2, a_max=4)
    d = np.zeros((NUM_STATES, 2))
    d[InfectionState.R, 0] = 1.0
    social = SocialState(degenerate_policy(p, p.a_max), StateDistribution(d))
    masses = activity_masses(social, p)
    assert masses.total.tolist() == [4.0, 0.0]
    assert masses.asymptomatic.tolist() == [0.0, 0.0]
    assert masses.symptomatic.tolist() == [0.0, 0.0]


def test_activity_mass_uniform_policy_is_half_max_times_mass():
    p = make_params(num_zones=2, a_max=6)
    rng = np.random.default_rng(11)
    dist = random_dist(rng, 2)
    social = SocialState(uniform_no_move_policy(p), dist)
    masses = activity_masses(social, p)
    assert masses.total == pytest.approx(3.0 * np.asarray(dist.zone_masses()))
    assert masses.asymptomatic == pytest.approx(3.0 * dist.d[InfectionState.A])
    assert masses.symptomatic == pytest.approx(3.0 * dist.d[InfectionState.I])


def test_activity_mass_requires_infectious_presence():
    p = make_params(num_zones=1, a_max=3)
    d = np.zeros((NUM_STATES, 1))
    d[InfectionState.S, 0] = 0.7
    d[InfectionState.R, 0] = 0.3
    social = SocialState(degenerate_policy(p, 2), StateDistribution(d))
    masses = activity_masses(social, p)
    assert masses.asymptomatic[0] == 0.0
    assert masses.symptomatic[0] == 0.0
    assert masses.total[0] == pytest.approx(2.0)


def test_activity_masses_reject_inconsistent_split():
    with pytest.raises(ValidationError):
        ActivityMasses(
            total=np.array([1.0]),
            asymptomatic=np.array([0.8]),
            symptomatic=np.array([0.4]),
        )


# --- pairing probabilities ----------------------------------------------------


def test_pairing_probs_frozen_values():
    p = make_params(num_zones=1, epsilon=0.01)
    masses = ActivityMasses(
        total=np.array([3.0]),
        asymptomatic=np.array([1.0]),
        symptomatic=np.array([0.5]),
    )
    probs = encounter_probs(masses, p)
    assert probs.no_partner[0] == pytest.approx(0.003322259136212625, abs=1e-15)
    assert probs.asymptomatic[0] == pytest.approx(0.33222591362126247, abs=1e-15)
    assert probs.symptomatic[0] == pytest.approx(0.16611295681063123, abs=1e-15)


def test_pairing_probs_idle_population_meets_nobody():
    p = make_params(num_zones=2, epsilon=0.37)
    masses = ActivityMasses(
        total=np.zeros(2), asymptomatic=np.zeros(2), symptomatic=np.zeros(2)
    )
    probs = encounter_probs(masses, p)
    assert probs.no_partner.tolist() == [1.0, 1.0]
    assert probs.asymptomatic.tolist() == [0.0, 0.0]
    assert probs.symptomatic.tolist() == [0.0, 0.0]


def test_pairing_probs_reject_invalid_rows():
    with pytest.raises(ValidationError):
        EncounterProbs(
            no_partner=np.array([0.5]),
            asymptomatic=np.array([0.4]),
            symptomatic=np.array([0.2]),
        )
    with pytest.raises(ValidationError):
        EncounterProbs(
            no_partner=np.array([-0.1]),
            asymptomatic=np.array([0.5]),
            symptomatic=np.array([0.5]),
        )


# --- per-agent infection rows ---------------------------------------------------


def neutral_probs(num_zones, gamma_a=0.0, gamma_i=0.0):
    return EncounterProbs(
        no_partner=np.full(num_zones, 1.0 - gamma_a - gamma_i),
        asymptomatic=np.full(num_zones, gamma_a),
        symptomatic=np.full(num_zones, gamma_i),
    )


def test_idle_susceptible_row_is_identity():
    p = make_params(num_zones=1)
    probs = neutral_probs(1, 0.3, 0.3)
    row = infection_transition(InfectionState.S, 0, 0, probs, p)
    assert row.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_susceptible_row_frozen_two_contacts():
    p = make_params(num_zones=1, beta_A=0.2, beta_I=0.2)
    probs = neutral_probs(1, 0.25, 0.25)
    row = infection_transition(InfectionState.S, 0, 2, probs, p)
    assert row[InfectionState.S] == pytest.approx(0.81, abs=1e-15)
    assert row[InfectionState.A] == pytest.approx(0.19, abs=1e-15)
    assert row[[2, 3, 4]].tolist() == [0.0, 0.0, 0.0]


def test_susceptible_row_certain_infection_at_full_pressure():
    p = make_params(num_zones=1, beta_A=1.0, beta_I=1.0)
    probs = neutral_probs(1, 0.6, 0.4)
    row = infection_transition(InfectionState.S, 0, 3, probs, p)
    assert row[InfectionState.S] == 0.0
    assert row[InfectionState.A] == 1.0


def test_asymptomatic_row_frozen():
    p = make_params(delta_A_I=0.08, delta_A_U=0.08)
    row = infection_transition(InfectionState.A, 0, 5, neutral_probs(2), p)
    assert row == pytest.approx([0.0, 0.84, 0.08, 0.0, 0.08], abs=1e-15)


def test_symptomatic_row_frozen():
    p = make_params(delta_I_R=0.04)
    row = infection_transition(InfectionState.I, 0, 0, neutral_probs(2), p)
    assert row == pytest.approx([0.0, 0.0, 0.96, 0.04, 0.0], abs=1e-15)


def test_recovered_row_absorbing():
    p = make_params()
    row = infection_transition(InfectionState.R, 1, 4, neutral_probs(2, 0.5, 0.5), p)
    assert row.tolist() == [0.0, 0.0, 0.0, 1.0, 0.0]


def test_unaware_row_frozen():
    p = make_params(delta_U_R=0.01)
    row = infection_transition(InfectionState.U, 0, 6, neutral_probs(2, 0.5, 0.5), p)
    assert row == pytest.approx([0.0, 0.0, 0.0, 0.01, 0.99], abs=1e-15)


def test_infection_transition_rejects_bad_degree_and_zone():
    p = make_params(a_max=6)
    probs = neutral_probs(2)
    with pytest.raises(ValidationError):
        infection_transition(InfectionState.S, 0, 7, probs, p)
    with pytest.raises(ValidationError):
        infection_transition(InfectionState.S, 2, 1, probs, p)


def test_susceptible_infection_matches_monte_carlo_pairing():
    """Independent check of the closed form against simulated daily pairing."""
    p = make_params(num_zones=1, beta_A=0.3, beta_I=0.6)
    gamma_a, gamma_i, contacts = 0.2, 0.1, 3
    probs = neutral_probs(1, gamma_a, gamma_i)
    analytic = 1.0 - infection_transition(InfectionState.S, 0, contacts, probs, p)[0]

    rng = np.random.default_rng(20260825)
    n = 1_000_000
    u = rng.random((n, contacts))
    partner_a = u < gamma_a
    partner_i = (u >= gamma_a) & (u < gamma_a + gamma_i)
    v = rng.random((n, contacts))
    infected = (partner_a & (v < p.beta_A)) | (partner_i & (v < p.beta_I))
    estimate = infected.any(axis=1).mean()
    assert estimate == pytest.approx(analytic, abs=2e-3)


def test_susceptible_risk_monotone_in_infectious_encounters():
    p = make_params(num_zones=1, beta_A=0.2, beta_I=0.2)
    last = -1.0
    for gamma_a in np.linspace(0.0, 0.8, 9):
        probs = neutral_probs(1, float(gamma_a), 0.1)
        infected = 1.0 - infection_transition(InfectionState.S, 0, 4, probs, p)[0]
        assert infected > last
        last = infected


def test_degree_composition_of_susceptible_survival():
    p = make_params(num_zones=1)
    probs = neutral_probs(1, 0.13, 0.21)
    base = infection_transition(InfectionState.S, 0, 1, probs, p)[0]
    for a in range(p.a_max + 1):
        row = infection_transition(InfectionState.S, 0, a, probs, p)
        assert row[0] == base**a


# --- vectorized infection table ---------------------------------------------


def test_infection_matrix_matches_scalar_rows():
    p = make_params(num_zones=3, a_max=2)
    rng = np.random.default_rng(7)
    gam = rng.dirichlet(np.ones(3), size=3)  # rows: (no_partner, asym, sym) per zone
    probs = EncounterProbs(
        no_partner=gam[:, 0], asymptomatic=gam[:, 1], symptomatic=gam[:, 2]
    )
    table = infection_matrix(probs, p)
    assert table.shape == (NUM_STATES, 3, p.num_actions, NUM_STATES)
    for s in range(NUM_STATES):
        for z in range(3):
            for j in range(p.num_actions):
                a, _ = unflatten_action(j, p.a_max, 3)
                expected = infection_transition(s, z, a, probs, p)
                assert np.array_equal(table[s, z, j], expected)
    assert table.sum(axis=-1) == pytest.approx(np.ones((NUM_STATES, 3, p.num_actions)))


# --- single-agent joint transition ----------------------------------------------


def test_state_transition_moves_all_mass_to_target():
    p = make_params(num_zones=3, a_max=2)
    social = random_social(np.random.default_rng(3), p)
    out = state_transition(InfectionState.S, 0, 2, 1, social, p)
    assert out.shape == (NUM_STATES, 3)
    assert out[:, [0, 2]].tolist() == [[0.0, 0.0]] * NUM_STATES
    assert out[:, 1].sum() == pytest.approx(1.0)
    probs = encounter_probs(activity_masses(social, p), p)
    assert np.array_equal(out[:, 1], infection_transition(InfectionState.S, 0, 2, probs, p))


def test_state_transition_rejects_bad_target():
    p = make_params(num_zones=2)
    social = random_social(np.random.default_rng(4), p)
    with pytest.raises(ValidationError):
        state_transition(InfectionState.S, 0, 1, 2, social, p)


# --- population kernel ------------------------------------------------------------


def brute_force_kernel(social, p):
    """Re-sum the kernel from per-agent rows with explicit loops."""
    probs = encounter_probs(activity_masses(social, p), p)
    n = p.num_flat_states
    out = np.zeros((n, n))
    rows = social.policy.state_rows()
    for z in range(p.num_zones):
        for s in range(NUM_STATES):
            src = flatten_state(s, z, p.num_zones)
            for j in range(p.num_actions):
                a, target = unflatten_action(j, p.a_max, p.num_zones)
                weight = rows[s, z, j]
                law = infection_transition(s, z, a, probs, p)
                for s_next in range(NUM_STATES):
                    dst = flatten_state(s_next, target, p.num_zones)
                    out[src, dst] += weight * law[s_next]
    return out


def test_transition_matrix_matches_brute_force():
    rng = np.random.default_rng(5)
    for num_zones, a_max in ((1, 4), (2, 3), (3, 2), (4, 2)):
        p = make_params(num_zones=num_zones, a_max=a_max)
        social = random_social(rng, p)
        kernel = transition_matrix(social, p)
        expected = brute_force_kernel(social, p)
        assert np.max(np.abs(kernel.matrix - expected)) < 1e-12


def test_transition_matrix_rows_are_stochastic():
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = make_params(num_zones=int(rng.integers(1, 4)), a_max=int(rng.integers(1, 5)))
        kernel = transition_matrix(random_social(rng, p), p)
        assert np.max(np.abs(kernel.matrix.sum(axis=1) - 1.0)) < 1e-12
        assert kernel.matrix.min() >= 0.0


def test_recovered_rows_of_kernel_are_absorbing():
    p = make_params(num_zones=2, a_max=2)
    rng = np.random.default_rng(8)
    social = random_social(rng, p)
    kernel = transition_matrix(social, p)
    for z in range(2):
        row = kernel.matrix[flatten_state(InfectionState.R, z, 2)]
        mass_on_r = sum(row[flatten_state(InfectionState.R, w, 2)] for w in range(2))
        assert mass_on_r == pytest.approx(1.0)
        for s in (0, 1, 2, 4):
            for w in range(2):
                assert row[flatten_state(s, w, 2)] == 0.0


def test_kernel_keeps_uninfected_population_clean():
    p = make_params(num_zones=2, a_max=3, delta_U_R=0.05)
    d = np.zeros((NUM_STATES, 2))
    d[InfectionState.S] = [0.3, 0.2]
    d[InfectionState.R] = [0.1, 0.1]
    d[InfectionState.U] = [0.2, 0.1]
    rng = np.random.default_rng(9)
    social = SocialState(random_social(rng, p).policy, StateDistribution(d))
    nxt = transition_matrix(social, p).propagate(social.dist)
    assert np.all(nxt[InfectionState.A] == 0.0)
    assert np.all(nxt[InfectionState.I] == 0.0)
    assert nxt.sum() == pytest.approx(1.0, abs=1e-12)


def test_kernel_rejects_non_stochastic_matrix():
    bad = np.eye(10)
    bad[3, 3] = 0.5
    with pytest.raises(NumericsError):
        TransitionKernel(bad, 2)


def test_propagate_conserves_mass_and_positivity():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = make_params(num_zones=int(rng.integers(1, 4)), a_max=3)
        social = random_social(rng, p)
        nxt = transition_matrix(social, p).propagate(social.dist)
        assert abs(nxt.sum() - 1.0) < 1e-12
        assert nxt.min() >= 0.0
