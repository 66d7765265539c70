from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, chisquare

from epidemictrl.epidemic import (
    DEFAULT_AGE_BANDS,
    AgeBandRates,
    Compartment,
    DiseaseParams,
    agent_transmissibility,
)
from epidemictrl.env import ExperimentConfig, run_episode
from epidemictrl.interventions import (
    InterventionSchedule,
    VaccinationPolicyConfig,
    VaccineSpec,
    apply_vaccine_effects,
    decode_action,
    lockdown_active,
    vaccination_day_step,
    window_active,
)
from epidemictrl.world import WorldConfig

from conftest import empty_schedule, make_world, rng
from reference_draws import vaccination_day_step_by_mask


def test_decode_all_low_means_no_interventions():
    sched = decode_action(np.full(8, -1.0))
    assert sched.lockdown == (0.0, 0.0)
    assert all(w == (0.0, 0.0) for w in sched.vax_windows)


def test_decode_full_window():
    sched = decode_action(np.array([-1, 1, -1, 1, -1, 1, -1, 1.0]))
    assert sched.lockdown == (0.0, 100.0)
    assert all(w == (0.0, 100.0) for w in sched.vax_windows)


def test_decode_midpoint():
    sched = decode_action(np.zeros(8))
    assert sched.lockdown == (50.0, 100.0)  # start 50, duration 50, clipped end


def test_decode_clamps_out_of_range():
    sched = decode_action(np.array([-5, 5, 0, 0, 0, 0, 0, 0.0]))
    assert sched.lockdown == (0.0, 100.0)


def test_decode_rejects_non_finite():
    with pytest.raises(ValueError):
        decode_action(np.array([np.nan, 0, 0, 0, 0, 0, 0, 0]))


@given(st.lists(st.floats(min_value=-3, max_value=3), min_size=8, max_size=8))
@settings(max_examples=200, deadline=None)
def test_decode_always_valid_and_idempotent(raw):
    sched = decode_action(np.array(raw))
    for start, end in (sched.lockdown, *sched.vax_windows):
        assert 0.0 <= start <= end <= 100.0
    # re-encoding the clamped raw vector decodes identically
    again = decode_action(np.clip(np.array(raw), -1, 1))
    assert again == sched


def test_lockdown_window_boundaries():
    sched = InterventionSchedule((10.0, 40.0), ((0, 0), (0, 0), (0, 0)))
    assert not lockdown_active(sched, 9)
    assert lockdown_active(sched, 10)
    assert lockdown_active(sched, 39)
    assert not lockdown_active(sched, 40)


def test_empty_window_never_active():
    sched = empty_schedule()
    assert not any(lockdown_active(sched, d) for d in range(101))


def test_experiment_dose_arithmetic_consistent_with_cap():
    # 450 + 450 doses/day over 100 days equals the 90% cap at 100k agents
    policy = VaccinationPolicyConfig()
    total = sum(s.daily_doses for s in policy.specs) * 100
    assert total == 90_000 == int(0.9 * 100_000)


def _world_for_vax(population=40, seed=0):
    world = make_world(population=population, seed=seed, with_ledgers=False)
    return world


def _unvaccinated(world):
    """Each agent's transmissibility before any dose, as `make_world`
    derives it."""
    return agent_transmissibility(world, DiseaseParams())


def _full_windows():
    return InterventionSchedule((0.0, 0.0), ((0.0, 100.0), (0.0, 100.0), (0.0, 100.0)))


def test_no_active_window_no_doses_no_rng():
    world = _world_for_vax()
    policy = VaccinationPolicyConfig()
    g = rng(0)
    before = g.bit_generator.state["state"]["state"]
    given = vaccination_day_step(world, empty_schedule(), policy, day=0, rng=g)
    assert given == 0
    assert g.bit_generator.state["state"]["state"] == before
    assert not world.vaccinated.any()


def test_small_pool_gets_vaccine_one_first():
    world = _world_for_vax(population=10)
    policy = VaccinationPolicyConfig(
        specs=(VaccineSpec(0.8, 450), VaccineSpec(0.6, 450)), coverage_cap=1.0
    )
    given = vaccination_day_step(world, _full_windows(), policy, day=0, rng=rng(1))
    assert given == 10
    assert world.vaccinated.all()
    unvaccinated = _unvaccinated(world)
    assert (world.transmissibility == unvaccinated * (1.0 - policy.specs[0].effectiveness)).all()
    assert np.allclose(world.transmissibility, unvaccinated * 0.2)


def test_vaccine_two_used_after_vaccine_one():
    world = _world_for_vax(population=30)
    policy = VaccinationPolicyConfig(specs=(VaccineSpec(0.8, 10), VaccineSpec(0.6, 10)))
    given = vaccination_day_step(world, _full_windows(), policy, day=0, rng=rng(2))
    assert given == 20
    # the vaccines' distinct effectiveness tells their recipients apart
    kept = world.transmissibility[world.vaccinated]
    unvaccinated = _unvaccinated(world)[world.vaccinated]
    assert np.count_nonzero(kept == unvaccinated * (1.0 - policy.specs[0].effectiveness)) == 10
    assert np.count_nonzero(np.isclose(kept, unvaccinated * 0.4)) == 10


def mask_vaccination_day_step(world, schedule, policy, day, rng):
    """Reference: one population-wide mask per open stratum, as first
    written, drawing the day's recipients as the engine does."""

    def sample(ids, budget):
        return rng.choice(ids, size=min(budget, ids.size), replace=False)

    return vaccination_day_step_by_mask(world, schedule, policy, day, sample)


@pytest.mark.parametrize("open_strata", range(8))
def test_vaccination_matches_mask_oracle_for_every_open_subset(open_strata):
    windows = tuple((0.0, 100.0) if open_strata >> k & 1 else (0.0, 0.0) for k in range(3))
    schedule = InterventionSchedule((0.0, 0.0), windows)
    policy = VaccinationPolicyConfig(specs=(VaccineSpec(0.8, 40), VaccineSpec(0.6, 30)))
    worlds = []
    for _ in range(2):
        world = _world_for_vax(population=300, seed=5)
        world.compartment[:20] = Compartment.HOSPITALIZED
        world.compartment[20:40] = Compartment.DECEASED
        world.compartment[40:60] = Compartment.INFECTED_MILD
        apply_vaccine_effects(world, np.arange(60, 80), policy.specs[1].effectiveness)
        worlds.append(world)
    fast, slow = worlds
    g_fast, g_slow = rng(9), rng(9)
    for day in range(4):
        assert vaccination_day_step(fast, schedule, policy, day, g_fast) == (
            mask_vaccination_day_step(slow, schedule, policy, day, g_slow)
        )
        assert np.array_equal(fast.vaccinated, slow.vaccinated)
        assert np.array_equal(fast.transmissibility, slow.transmissibility)
        assert g_fast.bit_generator.state == g_slow.bit_generator.state
    assert fast.vaccinated[80:].any() == (open_strata != 0)


def _sampler_world():
    # 60 agents, 44 of them eligible: the first 16 are hospitalized,
    # deceased or already vaccinated.
    world = _world_for_vax(population=60, seed=2)
    world.compartment[:6] = Compartment.HOSPITALIZED
    world.compartment[6:12] = Compartment.DECEASED
    apply_vaccine_effects(world, np.arange(12, 16), 0.6)
    return world


def test_day_sample_includes_each_eligible_id_uniformly_with_vaccine_one_first():
    policy = VaccinationPolicyConfig(
        specs=(VaccineSpec(0.8, 7), VaccineSpec(0.6, 5)), coverage_cap=1.0
    )
    world = _sampler_world()
    start = (world.vaccinated.copy(), world.transmissibility.copy())
    unvaccinated = _unvaccinated(world)
    eligible = np.arange(16, 60)
    budget, seeds = 12, 3000
    counts = np.zeros((2, world.population), dtype=np.int64)  # per vaccine
    for seed in range(seeds):
        world.vaccinated[:], world.transmissibility[:] = start
        assert vaccination_day_step(world, _full_windows(), policy, 0, rng(seed)) == budget
        for k, spec in enumerate(policy.specs):
            counts[k] += world.transmissibility == unvaccinated * (1.0 - spec.effectiveness)
    counts[1, 12:16] -= seeds  # the four vaccinated beforehand
    assert counts[:, :16].sum() == 0

    included = counts[:, eligible].sum(axis=0)
    assert included.sum() == seeds * budget
    # each eligible id is sampled at rate budget / pool
    assert chisquare(included).pvalue > 0.01
    # and given vaccine 1 at the same rate 7 / 12 whatever its id
    assert counts[0].sum() == seeds * 7
    assert chi2_contingency(counts[:, eligible]).pvalue > 0.01


def test_days_without_doses_leave_the_stream_untouched():
    policy = VaccinationPolicyConfig(specs=(VaccineSpec(0.8, 7), VaccineSpec(0.6, 5)))
    later = InterventionSchedule((0.0, 0.0), ((10.0, 20.0), (10.0, 20.0), (0.0, 0.0)))
    none_eligible = _sampler_world()
    none_eligible.compartment[16:] = Compartment.HOSPITALIZED
    capped = _sampler_world()
    # 42 = 0.7 * 60
    apply_vaccine_effects(capped, np.arange(16, 54), policy.specs[0].effectiveness)
    cases = [
        (_sampler_world(), later, policy, 9),  # before the window opens
        (_sampler_world(), later, policy, 20),  # the day it closes
        (none_eligible, _full_windows(), policy, 0),
        (capped, _full_windows(), VaccinationPolicyConfig(policy.specs, coverage_cap=0.7), 0),
        (_sampler_world(), _full_windows(), VaccinationPolicyConfig(
            (VaccineSpec(0.8, 0), VaccineSpec(0.6, 0))), 0),
    ]
    for world, schedule, case_policy, day in cases:
        g = rng(11)
        before = g.bit_generator.state
        vaccinated = world.vaccinated.copy()
        assert vaccination_day_step(world, schedule, case_policy, day, g) == 0
        assert g.bit_generator.state == before
        assert np.array_equal(world.vaccinated, vaccinated)


def test_stratum_window_limits_eligibility():
    world = _world_for_vax(population=60)
    sched = InterventionSchedule(
        (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0), (0.0, 100.0))
    )
    policy = VaccinationPolicyConfig(specs=(VaccineSpec(0.8, 500), VaccineSpec(0.6, 500)))
    vaccination_day_step(world, sched, policy, day=0, rng=rng(3))
    assert world.vaccinated[world.age >= 60].all()
    assert not world.vaccinated[world.age < 60].any()


def test_hospitalized_and_deceased_never_vaccinated():
    world = _world_for_vax(population=20)
    world.compartment[0] = Compartment.HOSPITALIZED
    world.compartment[1] = Compartment.DECEASED
    policy = VaccinationPolicyConfig(specs=(VaccineSpec(0.8, 100), VaccineSpec(0.6, 100)))
    given = vaccination_day_step(world, _full_windows(), policy, day=0, rng=rng(4))
    assert given == 18
    assert not world.vaccinated[0]
    assert not world.vaccinated[1]


def test_coverage_cap_is_hard():
    world = _world_for_vax(population=100)
    policy = VaccinationPolicyConfig(
        specs=(VaccineSpec(0.8, 60), VaccineSpec(0.6, 60)), coverage_cap=0.90
    )
    g = rng(5)
    total = 0
    for day in range(5):
        total += vaccination_day_step(world, _full_windows(), policy, day, g)
    assert total == 90
    assert world.vaccinated.sum() == 90


def test_double_vaccination_rejected():
    world = _world_for_vax(population=10)
    apply_vaccine_effects(world, np.array([0]), 0.8)
    with pytest.raises(ValueError):
        apply_vaccine_effects(world, np.array([0]), 0.6)
    with pytest.raises(ValueError):  # one already vaccinated among others
        apply_vaccine_effects(world, np.array([1, 0]), np.array([0.8, 0.6]))
    assert not world.vaccinated[1]


def test_per_recipient_effectiveness():
    world = _world_for_vax(population=10)
    apply_vaccine_effects(world, np.array([3, 1, 7]), np.array([0.8, 0.6, 0.6]))
    assert np.array_equal(world.vaccinated.nonzero()[0], [1, 3, 7])
    factor = [1.0, 1.0 - 0.6, 1.0, 1.0 - 0.8, 1.0, 1.0, 1.0, 1.0 - 0.6, 1.0, 1.0]
    assert world.transmissibility.tolist() == (_unvaccinated(world) * factor).tolist()


def test_gamma_boost_cap():
    # synthetic asymptomatic shares 0.9 and 0.4 boosted by 1.8: the first
    # saturates at 1.0, in the vaccinated half of the Exposed branch row
    bands = (
        AgeBandRates(1.0, 0.1, 0.1, 0.0),
        AgeBandRates(1.0, 0.6, 0.1, 0.0),
        *DEFAULT_AGE_BANDS[2:],
    )
    table = DiseaseParams(age_bands=bands).branch_prob[Compartment.EXPOSED]
    assert table[109] == 1.0
    assert table[110] == pytest.approx(0.72)
    assert table[9] == pytest.approx(0.9)


def test_daily_dose_budget_respected():
    world = _world_for_vax(population=1000)
    policy = VaccinationPolicyConfig(specs=(VaccineSpec(0.8, 7), VaccineSpec(0.6, 5)))
    given = vaccination_day_step(world, _full_windows(), policy, day=0, rng=rng(6))
    assert given == 12


def test_empty_schedule_bit_identical_to_no_interventions():
    config = ExperimentConfig(
        world=WorldConfig(population_size=800), initial_infection_fraction=0.10
    )
    a = run_episode(config, empty_schedule(), seed=11)
    b = run_episode(config, decode_action(np.full(8, -1.0)), seed=11)
    assert np.array_equal(a.compartments, b.compartments)
    assert np.array_equal(a.below_poverty, b.below_poverty)
    assert np.array_equal(a.doses, b.doses)


def test_total_vaccinated_bounded_by_doses_and_cap():
    config = ExperimentConfig(
        world=WorldConfig(population_size=500),
        vaccination=VaccinationPolicyConfig(
            specs=(VaccineSpec(1.0, 3), VaccineSpec(0.5, 2)), coverage_cap=0.9
        ),
        initial_infection_fraction=0.0,
    )
    trace = run_episode(config, _full_windows(), seed=0)
    dosed = int(trace.doses.sum())
    # 5 doses/day for 100 days would reach 500, but the 90% cap binds first
    assert dosed == min(int(0.9 * 500), 5 * 100) == 450


def test_window_active_requires_nonempty():
    assert not window_active((5.0, 5.0), 5)
    assert window_active((5.0, 6.0), 5)
