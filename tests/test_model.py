from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from spinvdw.combinatorics import b_table
from spinvdw.evolution import amplitudes_at
from spinvdw.model import ModelSpec


def test_numpy_integers_accepted_as_plain_ints():
    spec = ModelSpec(np.int64(6), np.int32(2))
    assert spec == ModelSpec(6, 2)
    assert type(spec.n_total) is int and type(spec.m_excited) is int


@pytest.mark.parametrize("n,m", [(5.5, 2), (6, 2.0), (6.0, 2)])
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
    with pytest.raises(ValueError):
        ModelSpec(n, m)
