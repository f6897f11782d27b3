import math

import numpy as np
import pytest

import msgdt as mg


def test_system_is_consistent():
    system = mg.gen_synthetic(mg.Dims(20, 4, 3, 2), 0)
    residual = mg.tprod(system.a, system.x_star) - system.b
    assert mg.frob_norm(residual) == 0.0


def test_gaussian_moments():
    # 10^6 draws: mean within 3 standard errors, variance within 1%
    system = mg.gen_synthetic(mg.Dims(10_000, 10, 1, 10), 42)
    entries = system.a.data.ravel()
    assert entries.size == 10**6
    assert abs(entries.mean()) <= 3 / math.sqrt(10**6)
    assert abs(entries.var() - 1.0) <= 0.01


def test_seed_reproducible():
    s1 = mg.gen_synthetic(mg.Dims(8, 3, 2, 2), 7)
    s2 = mg.gen_synthetic(mg.Dims(8, 3, 2, 2), 7)
    assert np.array_equal(s1.a.data, s2.a.data)
    assert np.array_equal(s1.x_star.data, s2.x_star.data)
    assert np.array_equal(s1.b.data, s2.b.data)
    s3 = mg.gen_synthetic(mg.Dims(8, 3, 2, 2), 8)
    assert not np.array_equal(s1.a.data, s3.a.data)


def test_dims_validation_and_parse():
    with pytest.raises(ValueError):
        mg.Dims(0, 1, 1, 1)
    assert mg.Dims.parse("4,3,2,1") == mg.Dims(4, 3, 2, 1)
    for text in ("4,3,2", "10,2,2,x"):
        with pytest.raises(ValueError, match=f"expected dims as m,l,q,n, got '{text}'"):
            mg.Dims.parse(text)
