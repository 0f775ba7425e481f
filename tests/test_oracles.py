"""Accuracy of the event layer against closed-form oracles.

Golden digests pin bytes, not accuracy.  These cases pin, per jump- and
hit-time route, how far the computed times lie from an exact value evaluated
in 30-digit arithmetic (mpmath), so that a change that moves the bytes of a
route shows whether it kept its accuracy.  Each bound is about twice the error
measured when the case was written (given beside it), on x86-64 Linux with
numpy 2.4.6 and scipy 1.17.1; a change may tighten a bound it improves, and
never loosens one.

- Cell cycle with g = phi = x: the hazard accumulated from x0 is
  x0 (e^t - 1), so the jump time of level xi is log1p(xi / x0).  With the
  closed-form flow x0 e^t the jump time comes from the Chebyshev-panel
  inverse; without it, from the augmented-ODE inverse.
- Rubinow with g = r x: a cell born at size m reaches 2m at ln 2 / r, by
  root finding on the closed-form flow or on the Dormand-Prince flow.
"""

import math
import statistics

import mpmath
import pytest

from pdmpkit import GrowthDivision, make_cell_cycle, make_rubinow, next_event, path_rng
from pdmpkit.flows import sample_jump_time

mpmath.mp.dps = 30
X0 = (0.2, 1.0, 3.2)


def _jump_time_errors(closed_form: bool, n: int) -> list:
    """|tau - log1p(xi / x0)| over n fixed draws at each start size of X0."""
    model = make_cell_cycle(GrowthDivision(
        g=lambda x: x, phi=lambda x: x,
        g_closed_form=(lambda t, x: x * math.exp(t)) if closed_form else None))
    reg = model.regimes[0]
    hz = reg.hazards[0].hazard
    assert (reg.flow.tuple_closed is not None) == closed_form and hz.upper_bound is None
    errors = []
    for k, x0 in enumerate(X0):
        rng, replay = path_rng(2024, k), path_rng(2024, k)
        for _ in range(n):
            tau = sample_jump_time(reg.flow, hz, [x0], rng)
            exact = mpmath.log1p(mpmath.mpf(replay.exponential()) / x0)
            errors.append(abs(float(tau - exact)))
    return errors


@pytest.mark.parametrize("closed_form, n, max_bound, median_bound", [
    # measured: max 9.96e-11, median 2.94e-14 (402 draws)
    (True, 134, 2e-10, 6e-14),
    # measured: max 3.69e-11, median 3.32e-12 (120 draws)
    (False, 40, 7.5e-11, 7e-12),
])
def test_jump_time_inverse(closed_form, n, max_bound, median_bound):
    errors = _jump_time_errors(closed_form, n)
    # the median catches a drift that the max, set by the route's tolerance, misses
    assert max(errors) < max_bound
    assert statistics.median(errors) < median_bound


@pytest.mark.parametrize("closed_form, max_bound", [
    # measured over the nine (r, m): max 1.51e-11 on the closed-form flow,
    # 2.81e-11 on the Dormand-Prince flow
    (True, 3e-11),
    (False, 6e-11),
])
def test_rubinow_boundary_hit(closed_form, max_bound):
    errors = []
    for r in (0.5, 0.9, 2.0):
        for m in (0.1, 1.0, 10.0):
            model = make_rubinow(lambda x, r=r: r * x, m, g_closed_form=(
                (lambda t, x, r=r: x * math.exp(r * t)) if closed_form else None))
            ev = next_event(model, [m], 0, path_rng(1, 0), t_max=math.inf)
            assert ev.kind == "division" and ev.state_post[0] == m
            errors.append(abs(float(ev.dt - mpmath.log(2) / r)))
    assert max(errors) < max_bound
