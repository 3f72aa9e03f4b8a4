from __future__ import annotations

import math

import numpy as np
import pytest

from spinvdw.model import ModelSpec


def test_numpy_integers_accepted_as_plain_ints():
    spec = ModelSpec(np.int64(6), np.int32(2))
    assert spec == ModelSpec(6, 2)
    assert type(spec.n_total) is int and type(spec.m_excited) is int


@pytest.mark.parametrize("n,m", [(5.5, 2), (6, 2.0), (6.0, 2)])
def test_non_integer_site_counts_rejected(n, m):
    with pytest.raises(TypeError):
        ModelSpec(n, m)


@pytest.mark.parametrize("coupling", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_bad_coupling_rejected(coupling):
    with pytest.raises(ValueError):
        ModelSpec(6, 2, coupling)


@pytest.mark.parametrize("n,m", [(1, 0), (4, 5), (4, -1)])
def test_out_of_range_site_counts_rejected(n, m):
    with pytest.raises(ValueError):
        ModelSpec(n, m)
