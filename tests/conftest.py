"""Fixtures shared by every tier-1 test.

``linalg.mul_mod`` does not reduce its factors: by contract every entry of
both lies in (-m, m), which keeps each product exact under its int64
bound.  A factor outside that range would be reduced by nothing, so the
autouse fixture below wraps ``mul_mod`` for every test and fails, naming
the caller, on the first factor entry outside (-m, m).  The wrapper is
installed on the module, where every caller in the package looks the
product up (``la.mul_mod``, or ``mul_mod`` inside ``linalg`` itself).
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from derived_heights import linalg as la

_mul_mod = la.mul_mod


def _checked_mul_mod(a, b, m):
    for which, factor in (("first", a), ("second", b)):
        factor = np.asarray(factor)
        if factor.size and not (-m < factor.min() and factor.max() < m):
            caller = sys._getframe(1)
            pytest.fail(f"mul_mod {which} factor outside (-{m}, {m}), from "
                        f"{caller.f_code.co_qualname} "
                        f"({caller.f_code.co_filename}:{caller.f_lineno})", pytrace=False)
    return _mul_mod(a, b, m)


@pytest.fixture(autouse=True)
def mul_mod_contract(monkeypatch):
    """Every ``mul_mod`` call of the test checks that its factors are reduced."""
    monkeypatch.setattr(la, "mul_mod", _checked_mul_mod)
