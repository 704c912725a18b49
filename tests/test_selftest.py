"""Negative controls for the selftest catalogue.

The acceptance criteria trust each suite's ``passed`` flag, so every suite
must notice a planted fault in the code it certifies.  Each case runs the
suite at ``quick`` size, first as is (it passes) and then with one library
function replaced by a faulty version of itself (it must fail).
"""

from dataclasses import replace

import numpy as np
import pytest

from gtokit import channels, cooling, scalar, selftest, states
from gtokit.channels import GaussianChannel
from gtokit.symplectic import random_unitary, unitary_to_passive

SEED = 20


def on_result(fault):
    """Plant ``fault`` on a function's result."""
    return lambda original: lambda *args, **kwargs: fault(original(*args, **kwargs))


@pytest.mark.parametrize(
    "suite, module, name, fault",
    [
        pytest.param(
            selftest.suite_oracle_equivalence, selftest, "gto_to_channel",
            on_result(lambda ch: GaussianChannel(ch.X.T, ch.Y, ch.d)), id="oracle-transposed-X",
        ),
        pytest.param(
            selftest.suite_williamson_roundtrip, selftest, "williamson",
            on_result(lambda form: replace(form, S=1.01 * form.S)), id="williamson-scaled-S",
        ),
        pytest.param(
            selftest.suite_cs_roundtrip, selftest, "cosine_sine_decompose",
            on_result(lambda form: replace(form, thetas=np.r_[0.0, form.thetas[1:]])), id="cs-dropped-angle",
        ),
        pytest.param(
            selftest.suite_isotropy, selftest, "build_isotropy_element",
            on_result(lambda K: unitary_to_passive(random_unitary(len(K) // 2, 5))), id="isotropy-sector-mixing",
        ),
        pytest.param(
            selftest.suite_feasibility_soundness, selftest, "single_mode_feasible",
            on_result(lambda res: res if res.p is None else replace(res, p=res.p + 1e-6)), id="feasibility-offset-p",
        ),
        pytest.param(
            selftest.suite_cooling_bound, cooling, "_gto_step",
            # the step kernel's last argument is the bath term q = (1 - p) nu_b
            lambda step: lambda *args: step(*args[:-1], 0.0), id="cooling-no-bath",
        ),
        pytest.param(
            # the same fault in the protocol loop, which calls the kernel in its own module
            selftest.suite_cooling_bound, scalar, "_gto_step",
            lambda step: lambda *args: step(*args[:-1], 0.0), id="cooling-protocol-no-bath",
        ),
        pytest.param(
            selftest.suite_thermo_agreement, selftest, "cross_check",
            on_result(lambda v: (not v[0], v[1], (not v[0]) == v[1])), id="thermo-flipped-verdict",
        ),
    ],
)
def test_planted_fault_fails_the_suite(monkeypatch, suite, module, name, fault):
    assert suite(SEED, quick=True).passed
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    result = suite(SEED, quick=True)
    assert not result.passed, result.detail


@pytest.mark.parametrize(
    "modules", [(states,), (channels,), (states, channels)], ids=["thermal_state", "channels", "everywhere"]
)
def test_old_frame_fails_the_oracle_suite(monkeypatch, modules):
    # The frame helper returning S instead of S^-T: the frame every site
    # used before, which puts the Gibbs state and the channels in the wrong
    # frame while the normal form and the oracle still agree.
    suite = selftest.suite_oracle_equivalence
    assert suite(SEED, quick=True).passed
    for module in modules:
        monkeypatch.setattr(module, "_lab_frame", lambda S: S)
    result = suite(SEED, quick=True)
    assert not result.passed, result.detail
