from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from spinvdw.combinatorics import b_table
from spinvdw.entanglement import entropy_grid, entropy_rate_m1
from spinvdw.evolution import amplitudes_at
from spinvdw.model import InputError, ModelSpec
from spinvdw.oracle import build_sector_hamiltonian, krylov_evolution, propagate, verify_closed_form


def test_numpy_integers_accepted_as_plain_ints():
    spec = ModelSpec(np.int64(6), np.int32(2))
    assert spec == ModelSpec(6, 2)
    assert type(spec.n_total) is int and type(spec.m_excited) is int


@pytest.mark.parametrize("n,m", [(5.5, 2), (6, 2.0), (6.0, 2), (7, True), (7, np.True_)])
def test_non_integer_site_counts_rejected(n, m):
    with pytest.raises(TypeError):
        ModelSpec(n, m)


def test_fields_are_the_two_site_counts():
    assert [f.name for f in dataclasses.fields(ModelSpec)] == ["n_total", "m_excited"]


@pytest.mark.parametrize(
    "make", [lambda: ModelSpec(6, 2, 2.0), lambda: ModelSpec(6, 2, coupling=2.0)],
    ids=["positional", "keyword"],
)
def test_coupling_is_not_settable(make):
    with pytest.raises(TypeError):
        make()


def test_coupling_is_the_unit():
    assert ModelSpec(7, 1).coupling == 1.0


def test_table_serves_an_equal_spec():
    table = b_table(ModelSpec(7, 1))
    amplitudes = amplitudes_at(ModelSpec(7, 1), table, 0.1).amplitudes
    assert amplitudes.shape == (2,) and np.isfinite(amplitudes).all()


@pytest.mark.parametrize("n,m", [(1, 0), (4, 5), (4, -1)])
def test_out_of_range_site_counts_rejected(n, m):
    with pytest.raises(ValueError) as raised:
        ModelSpec(n, m)
    assert raised.type is InputError


# every entry point that takes times, each called at (4, 1)
TIME_ENTRY_POINTS = {
    "entropy_grid": lambda tau: entropy_grid(ModelSpec(4, 1), tau),
    "amplitudes_at": lambda tau: amplitudes_at(ModelSpec(4, 1), b_table(ModelSpec(4, 1)), tau),
    "propagate": lambda tau: propagate(krylov_evolution(build_sector_hamiltonian(4, 1)), tau),
    "verify_closed_form": lambda tau: verify_closed_form(ModelSpec(4, 1), tau),
    "entropy_rate_m1": lambda tau: entropy_rate_m1(ModelSpec(4, 1), tau),
}


@pytest.mark.parametrize(
    "tau", [np.array([0.5 + 3j]), 0.5 + 3j, 1 + 0j, np.array([[0.1, 0.2]]), "0.5"],
    ids=["complex array", "complex scalar", "complex zero imaginary", "2-d", "string"],
)
@pytest.mark.parametrize("entry", TIME_ENTRY_POINTS)
def test_time_entry_points_reject_complex_and_2d_times(entry, tau):
    # numpy would cast a complex time to its real part with only a
    # ComplexWarning, and read a string as a number
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="tau must be finite and real, a scalar or 1-d array"):
            TIME_ENTRY_POINTS[entry](tau)
