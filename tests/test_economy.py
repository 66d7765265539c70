from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epidemictrl.economy import below_poverty_count, economy_day_step
from epidemictrl.epidemic import Compartment
from epidemictrl.world import EMPLOYMENT_AGE

from conftest import house_id, make_world, move_to, redrawn_commuters


def _fix_house(world, house, savings, income):
    world.savings_cents[house] = round(savings * 100)
    world.income_cents[house] = round(income * 100)


def test_healthy_head_income_minus_expenses():
    world = make_world(population=4, household_size=4)
    _fix_house(world, 0, savings=500.0, income=100.0)
    economy_day_step(world, lockdown_active=False)
    assert world.savings_cents[0] == 56_000  # 500 + 100 - 4*10


def test_hospitalized_head_loses_income():
    world = make_world(population=4, household_size=4)
    _fix_house(world, 0, savings=500.0, income=100.0)
    move_to(world, world.house_head[0], Compartment.HOSPITALIZED)
    economy_day_step(world, lockdown_active=False)
    assert world.savings_cents[0] == 46_000  # 500 - 40


def _lockdown_day_by_house(essential, violator):
    """Each house's change in savings over one lockdown day, in a 40-agent
    world of one-agent houses (so about a third of the heads are students)
    with the given role fractions and every house at savings 500 and
    income 100, and whether its head is employed."""
    world = make_world(
        population=40,
        household_size=1,
        essential_worker_fraction=essential,
        violator_fraction=violator,
    )
    for house in range(world.n_houses):
        _fix_house(world, house, savings=500.0, income=100.0)
    economy_day_step(world, lockdown_active=True)
    return world.savings_cents - 50_000, world.age[world.house_head] > EMPLOYMENT_AGE


def test_essential_head_earns_under_lockdown():
    # everyone employed is essential: employed heads earn, student heads
    # do not
    change, employed = _lockdown_day_by_house(essential=1.0, violator=0.0)
    assert employed.any() and not employed.all()
    assert np.array_equal(change, np.where(employed, 9_000, -1_000))


def test_ordinary_head_stops_earning_under_lockdown():
    change, _ = _lockdown_day_by_house(essential=0.0, violator=0.0)
    assert (change == -1_000).all()


def test_violator_head_earns_under_lockdown():
    # students can violate too
    change, employed = _lockdown_day_by_house(essential=0.0, violator=1.0)
    assert not employed.all() and (change == 9_000).all()


def test_deceased_members_stop_expenses():
    world = make_world(population=4, household_size=4)
    _fix_house(world, 0, savings=500.0, income=0.0)
    dead = [i for i in range(4) if i != world.house_head[0]][0]
    move_to(world, dead, Compartment.DECEASED)
    economy_day_step(world, lockdown_active=False)
    assert world.savings_cents[0] == 47_000  # 500 - 3*10


def test_below_poverty_boundaries():
    world = make_world(population=12, household_size=4)
    _fix_house(world, 0, savings=500.0, income=100.0)
    _fix_house(world, 1, savings=99.0, income=100.0)
    _fix_house(world, 2, savings=100.0, income=100.0)
    assert below_poverty_count(world) == 4  # house 1 only, strict <


def test_below_poverty_all_above():
    world = make_world(population=12, household_size=4)
    for h in range(3):
        _fix_house(world, h, savings=500.0, income=100.0)
    assert below_poverty_count(world) == 0


def test_below_poverty_excludes_deceased_members():
    world = make_world(population=4, household_size=4)
    _fix_house(world, 0, savings=0.0, income=0.0)
    move_to(world, 0, Compartment.DECEASED)
    assert below_poverty_count(world) == 3


def test_savings_may_go_negative():
    world = make_world(population=4, household_size=4)
    _fix_house(world, 0, savings=10.0, income=0.0)
    move_to(world, world.house_head[0], Compartment.INFECTED_MILD)
    economy_day_step(world, lockdown_active=False)
    assert world.savings_cents[0] == -3_000


def test_initial_draws_clamped_nonnegative():
    world = make_world(population=40_000, seed=3)
    assert world.savings_cents.min() >= 0
    assert world.income_cents.min() >= 0


@given(
    savings=st.integers(min_value=0, max_value=2_000),
    income=st.integers(min_value=41, max_value=500),
    days=st.integers(min_value=1, max_value=120),
)
@settings(max_examples=25, deadline=None)
def test_no_poverty_without_epidemic_or_lockdown(savings, income, days):
    # income > expenses and starting above the line: never dips below
    world = make_world(population=4, household_size=4)
    start = max(float(savings), 100.0)
    _fix_house(world, 0, savings=start, income=float(income))
    for day in range(days):
        economy_day_step(world, lockdown_active=False)
        assert world.savings_cents[0] >= 10_000


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    days=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=20, deadline=None)
def test_accounting_identity_exact(seed, days):
    world = make_world(population=24, household_size=4, seed=seed)
    commuters = redrawn_commuters(world.config, seed)
    start = world.savings_cents.copy()
    earned = np.zeros(world.n_houses, dtype=np.int64)
    spent = np.zeros(world.n_houses, dtype=np.int64)
    for day in range(days):
        lock = day % 3 == 0
        head = world.house_head
        head_comp = world.compartment[head]
        blocked = np.isin(
            head_comp,
            (
                Compartment.INFECTED_MILD,
                Compartment.INFECTED_SEVERE,
                Compartment.HOSPITALIZED,
                Compartment.DECEASED,
            ),
        )
        works = ~blocked
        if lock:
            works &= commuters[head]
        alive = world.compartment != Compartment.DECEASED
        live = np.bincount(house_id(world)[alive], minlength=world.n_houses)
        earned += np.where(works, world.income_cents, 0)
        spent += 1000 * live
        economy_day_step(world, lockdown_active=lock)
    assert np.array_equal(world.savings_cents, start + earned - spent)


@given(
    population=st.integers(min_value=1, max_value=60),
    household_size=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=10_000),
    death_share=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_live_members_match_a_count_of_the_living(population, household_size, seed, death_share):
    # a ragged last house and deaths anywhere, the head included
    world = make_world(population=population, household_size=household_size, seed=seed)
    dead = np.random.default_rng(seed).random(population) < death_share
    move_to(world, dead.nonzero()[0], Compartment.DECEASED)
    alive = world.compartment != Compartment.DECEASED
    live = np.bincount(house_id(world)[alive], minlength=world.n_houses)
    assert np.array_equal(world.live_members, live)
    line_cents = round(world.economy_config.poverty_line * 100)
    assert below_poverty_count(world) == live[world.savings_cents < line_cents].sum()

    head_alive = alive[world.house_head]
    expected = world.savings_cents + np.where(head_alive, world.income_cents, 0) - 1000 * live
    economy_day_step(world, lockdown_active=False)
    assert np.array_equal(world.savings_cents, expected)


def test_requires_initialized_ledgers():
    world = make_world(population=4, with_ledgers=False)
    with pytest.raises(RuntimeError):
        below_poverty_count(world)
