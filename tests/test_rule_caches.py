"""Per-process caches of the Gauss-Legendre rules, the double-exponential
levels, the spectral path, and verify's and ellipticity's checks on fixed
samples.

The cached arrays are shared by every caller, so they must be read-only;
a result must not depend on whether a cache was cold or warm, nor on which
spec filled it; and the public functions stay plain functions, so that a
tracer that wraps them keeps seeing every call.
"""

import inspect

import numpy as np
import pytest

from bagdet import cli, determinant, quadrature, seeley
from bagdet.determinant import (ContourSpec, boundary_contour_oracle,
                                boundary_term, gamma_log_contour,
                                ln_det_ratio, log_branch)
from bagdet.greens import DiskProblem
from bagdet.profiles import gaussian, poly2


def _clear_caches():
    quadrature._gauss_legendre_rule.cache_clear()
    quadrature._de_level.cache_clear()
    quadrature._circle_angles.cache_clear()
    determinant._spectral_path.cache_clear()
    cli._verify_samples.cache_clear()
    cli._fixed_sample_values.cache_clear()
    cli._chiral_obstruction.cache_clear()


def test_cached_arrays_are_read_only():
    rule = quadrature._gauss_legendre_rule(24)
    path = determinant._spectral_path(ContourSpec(), 1)
    angles = quadrature._circle_angles(64)
    for arr in rule + path + (angles,):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    nodes, weights = np.polynomial.legendre.leggauss(24)
    assert np.array_equal(rule[0], nodes) and np.array_equal(rule[1], weights)
    for finite in (True, False):
        for arr in quadrature._de_level(3, finite):
            with pytest.raises(ValueError):
                arr[0] = 0.0


# g has poles at 0 (always inside the detour) and at A_POLE, which sits
# outside the detour of WIDE_OF_POLE and inside that of AROUND_POLE.  The
# path with a big circle at infinity encloses everything outside the
# detour and the cut, so the integral is 2 pi i Res[log(lambda) g, A_POLE]
# for the first spec and zero for the second.
A_POLE = -0.45j
WIDE_OF_POLE = ContourSpec()
AROUND_POLE = ContourSpec(eps=0.35, mu0=0.6)


def _g(lam):
    return 1.0 / (lam * lam * (lam - A_POLE))


def _expected(spec):
    if spec.detour_radius > abs(A_POLE):
        return 0.0
    return 2j * np.pi * complex(log_branch(A_POLE)) / A_POLE ** 2


@pytest.mark.parametrize("order", [(WIDE_OF_POLE, AROUND_POLE),
                                   (AROUND_POLE, WIDE_OF_POLE)])
def test_each_spec_gets_its_own_path(order):
    assert WIDE_OF_POLE.detour_radius < abs(A_POLE) < AROUND_POLE.detour_radius
    _clear_caches()
    for _ in range(2):                       # cold, then warm
        for spec in order:
            res = gamma_log_contour(_g, spec)
            assert abs(res.value - _expected(spec)) < 1e-10, spec


@pytest.mark.parametrize("p", [
    DiskProblem(R=1.0, w=0.8, alpha=1.0, gauge=poly2(0.7, 1.0)),
    DiskProblem(R=1.3, w=0.9 + 0.4j, alpha=0.5, gauge=gaussian(1.1, 0.6, 1.3)),
    DiskProblem(R=0.8, w=-0.5, alpha=1.0, gauge=poly2(-1.2, 0.8)),
])
def test_cold_and_warm_calls_agree_exactly(p):
    _clear_caches()
    cold = ln_det_ratio(p)
    warm = ln_det_ratio(p)
    assert cold.diagnostics == warm.diagnostics
    assert cold.to_json_dict() == warm.to_json_dict()


def test_spectral_path_cache_stays_bounded():
    cache = determinant._spectral_path
    bound = cache.cache_info().maxsize
    _clear_caches()
    # |u| > 1 for these w, so each sizes its own contour (two entries each)
    for w in np.linspace(2.5, 12.0, bound):
        oracle = boundary_contour_oracle(w, 4.0 * np.pi, route="contour")
        target = boundary_term(w, 4.0 * np.pi)
        assert abs(oracle - target) < 1e-8 * abs(target), w
        assert cache.cache_info().currsize <= bound
    assert cache.cache_info().misses == 2 * bound


@pytest.mark.parametrize("module", [quadrature, determinant, seeley])
def test_public_functions_stay_plain_functions(module):
    public = [getattr(module, name) for name in module.__all__]
    functions = [f for f in public if callable(f) and not inspect.isclass(f)]
    assert functions
    for fn in functions:
        assert inspect.isfunction(fn), fn
