"""Fixtures shared by every tier-1 test.

``linalg.mul_mod`` does not reduce its factors: by contract every entry of
both lies in (-m, m), which keeps each product exact under its int64
bound.  A factor outside that range would be reduced by nothing, so the
autouse fixture below wraps ``mul_mod`` for every test and fails, naming
the caller, on the first factor entry outside (-m, m).  The wrapper is
installed on the module, where every caller in the package looks the
product up (``la.mul_mod``, or ``mul_mod`` inside ``linalg`` itself).

``linalg.howell_form`` does not reduce its rows by a base: by contract its
caller has already reduced them (``linalg._on_base``) and returned early if
every row vanished.  Rows that the base did not reduce would give a wrong
form, so a second autouse fixture wraps ``howell_form`` the same way and
fails on a base over another ring, a base wider than the rows, or a row
whose entries on the base's columns are not their own reduction by it.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from derived_heights import linalg as la

_mul_mod, _howell_form = la.mul_mod, la.howell_form


def _fail_from_caller(message: str) -> None:
    caller = sys._getframe(2)
    pytest.fail(f"{message}, from {caller.f_code.co_qualname} "
                f"({caller.f_code.co_filename}:{caller.f_lineno})", pytrace=False)


def _checked_mul_mod(a, b, m):
    for which, factor in (("first", a), ("second", b)):
        factor = np.asarray(factor)
        if factor.size and not (-m < factor.min() and factor.max() < m):
            _fail_from_caller(f"mul_mod {which} factor outside (-{m}, {m})")
    return _mul_mod(a, b, m)


def _checked_howell_form(a, p, n, base=None):
    if base is not None:
        rows = np.atleast_2d(np.asarray(a, dtype=np.int64)) % p ** n
        cols = base.h.shape[1]
        if ((base.p, base.n) != (p, n) or cols > rows.shape[1]
                or (base.reduce(rows[:, :cols]) != rows[:, :cols]).any()):
            _fail_from_caller(f"howell_form rows over Z/{p}^{n} not reduced by their base")
    return _howell_form(a, p, n, base)


@pytest.fixture(autouse=True)
def mul_mod_contract(monkeypatch):
    """Every ``mul_mod`` call of the test checks that its factors are reduced."""
    monkeypatch.setattr(la, "mul_mod", _checked_mul_mod)


@pytest.fixture(autouse=True)
def howell_base_contract(monkeypatch):
    """Every ``howell_form`` call of the test on a base checks that its rows are reduced by it."""
    monkeypatch.setattr(la, "howell_form", _checked_howell_form)
