"""The seeded workload inputs: reproducible, in their bands, and self-consistent."""

import json

import numpy as np
import pytest
from numpy.polynomial import Chebyshev
from numpy.polynomial import polynomial as P
from scipy import integrate

import oracle
import workloads


def _kernel(power, x, t):
    return P.polyval2d(x, t, np.asarray(power))


@pytest.mark.parametrize("family", ["ChebyshevT", "LegendreP"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_manufactured_rhs_matches_the_equation(seed, family):
    doc, u = workloads.manufactured_problem(np.random.default_rng(seed), family, 64)
    (eq,) = doc["equations"]
    y2, y1, y0, volterra, fredholm = eq["terms"]
    assert (y2["deriv"], y1["deriv"]) == (2, 1)
    p1 = y1["coeff"]["coeffs"]
    p0 = y0["coeff"]["coeffs"]
    kv = volterra["volterra"]["kernel"]
    kf = fredholm["fredholm"]["kernel"]
    rhs = eq["rhs"]["coeffs"]
    length = doc["basis"]["domain"][1]

    def exact(t):
        return P.polyval(t, u)

    points = np.random.default_rng(100 + seed).uniform(0.0, length, 6)
    for x in points:
        lhs = (P.polyval(x, P.polyder(u, 2))
               + P.polyval(x, p1) * P.polyval(x, P.polyder(u))
               + P.polyval(x, p0) * exact(x))
        lhs += integrate.quad(lambda t: _kernel(kv, x, t) * exact(t), 0.0, x,
                              epsabs=0.0, epsrel=1e-13)[0]
        lhs += integrate.quad(lambda t: _kernel(kf, x, t) * exact(t), 0.0, length,
                              epsabs=0.0, epsrel=1e-13)[0]
        assert P.polyval(x, rhs) == pytest.approx(lhs, rel=1e-10, abs=1e-10)
    y_at_0, dy_at_0 = doc["conditions"]
    assert y_at_0["value"] == exact(0.0)
    assert dy_at_0["terms"][0]["deriv"] == 1
    assert dy_at_0["value"] == P.polyval(0.0, P.polyder(u))


@pytest.mark.parametrize("workload", ["newton-cheb", "linear-manufactured"])
def test_same_seed_gives_byte_identical_documents(workload):
    first = json.dumps(workloads.inproc_operations(workload, 7), sort_keys=True)
    again = json.dumps(workloads.inproc_operations(workload, 7), sort_keys=True)
    assert first == again
    others = {json.dumps(workloads.inproc_operations(workload, s), sort_keys=True)
              for s in range(8, 14)}
    assert len(others - {first}) >= 2


def test_cli_argument_lists_are_reproducible():
    assert workloads.cli_operations(3) == workloads.cli_operations(3)


def test_sizes_stay_in_their_bands():
    bands = {"example1": workloads.NEWTON_EXAMPLE1, "example2": workloads.NEWTON_EXAMPLE2,
             "manufactured": workloads.LINEAR_SIZE}
    for seed in range(30):
        for workload in ("newton-cheb", "linear-manufactured"):
            for op in workloads.inproc_operations(workload, seed):
                centre, offset = bands[op["doc"]["name"]]
                assert centre - offset <= op["doc"]["solve"]["n"] <= centre + offset
        for op in workloads.cli_operations(seed)[len(workloads.CLI_BUILTINS):]:
            centre, offset = workloads.CLI_LEGENDRE
            assert centre - offset <= int(op["argv"][-1]) <= centre + offset


def test_oracle_accepts_an_accurate_series_and_rejects_a_perturbed_one():
    series = Chebyshev.interpolate(lambda x: np.exp(-x), 16, domain=[0.0, 1.0])
    coeffs = {"y": series.coef}
    assert oracle.relative_error("ChebyshevT", [0.0, 1.0], coeffs, "example1") < 1e-13
    coeffs["y"] = series.coef + np.eye(series.coef.size)[5] * 1e-8
    assert oracle.relative_error("ChebyshevT", [0.0, 1.0], coeffs, "example1") > oracle.TOLERANCE
