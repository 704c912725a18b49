"""Negative controls for the selftest catalogue.

The acceptance criteria trust each suite's ``passed`` flag, so every suite
must notice a planted fault in the code it certifies.  Each case runs the
suite at ``quick`` size, first as is (it passes) and then with one library
function's result corrupted (it must fail).
"""

from dataclasses import replace

import numpy as np
import pytest

from gtokit import cooling, selftest
from gtokit.channels import GaussianChannel
from gtokit.symplectic import random_unitary, unitary_to_passive

SEED = 20


@pytest.mark.parametrize(
    "suite, module, name, fault",
    [
        pytest.param(
            selftest.suite_oracle_equivalence, selftest, "gto_to_channel",
            lambda ch: GaussianChannel(ch.X.T, ch.Y, ch.d), id="oracle-transposed-X",
        ),
        pytest.param(
            selftest.suite_williamson_roundtrip, selftest, "williamson",
            lambda form: replace(form, S=1.01 * form.S), id="williamson-scaled-S",
        ),
        pytest.param(
            selftest.suite_cs_roundtrip, selftest, "cosine_sine_decompose",
            lambda form: replace(form, thetas=np.r_[0.0, form.thetas[1:]]), id="cs-dropped-angle",
        ),
        pytest.param(
            selftest.suite_isotropy, selftest, "build_isotropy_element",
            lambda K: unitary_to_passive(random_unitary(len(K) // 2, 5)), id="isotropy-sector-mixing",
        ),
        pytest.param(
            selftest.suite_feasibility_soundness, selftest, "single_mode_feasible",
            lambda res: res if res.p is None else replace(res, p=res.p + 1e-6), id="feasibility-offset-p",
        ),
        pytest.param(
            selftest.suite_cooling_bound, cooling, "_single_mode_xy",
            lambda xy: (xy[0], np.zeros_like(xy[1])), id="cooling-no-bath",
        ),
        pytest.param(
            selftest.suite_thermo_agreement, selftest, "cross_check",
            lambda v: (not v[0], v[1], (not v[0]) == v[1]), id="thermo-flipped-verdict",
        ),
    ],
)
def test_planted_fault_fails_the_suite(monkeypatch, suite, module, name, fault):
    assert suite(SEED, quick=True).passed
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: fault(original(*args, **kwargs)))
    result = suite(SEED, quick=True)
    assert not result.passed, result.detail
