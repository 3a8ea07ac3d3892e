import math

import numpy as np
import pytest

from bicavity import SystemParams, reference_baseline


def test_defaults_and_replace():
    p = SystemParams(kappa=40.0)
    assert p.delta == 0.0 and p.g_a == 0.0 and p.gamma_p == 0.0
    q = p.replace(delta=3.0, g_a=5.0)
    assert q.delta == 3.0 and q.g_a == 5.0 and q.kappa == 40.0
    assert p.delta == 0.0  # frozen original untouched


def test_validation():
    with pytest.raises(ValueError):
        SystemParams(kappa=0.0)
    with pytest.raises(ValueError):
        SystemParams(kappa=-1.0)
    with pytest.raises(ValueError):
        SystemParams(kappa=1.0, gamma_a=-0.5)
    with pytest.raises(ValueError):
        SystemParams(kappa=1.0, gamma_p=-0.1)

    for name in ("kappa", "delta", "delta_a", "j_coupling", "g_a", "g_b",
                 "drive", "gamma_a", "gamma_p"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=name):
                SystemParams(**{"kappa": 1.0, name: value})


def test_fields_are_stored_as_float():
    p = SystemParams(kappa=40, delta=np.float64(-2.0), g_a=20)
    assert all(type(getattr(p, name)) is float for name in p.__dataclass_fields__)
    assert (p.kappa, p.delta, p.g_a) == (40.0, -2.0, 20.0)
    with pytest.raises(TypeError):
        SystemParams(kappa="40")


def test_reference_baseline():
    p = reference_baseline()
    assert (p.kappa, p.g_a, p.g_b, p.drive, p.gamma_a) == (40.0, 20.0, 20.0, 1.0, 1.0)
    assert p.j_coupling == 0.0
    assert reference_baseline(j_coupling=800.0).j_coupling == 800.0
