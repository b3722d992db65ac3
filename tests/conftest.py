import numpy as np
import pytest


RAW_Z = {"class": "Z", "A": [["2", "0"], ["3", "0"]], "alpha": ["-1/2", "-1/2"]}

# A = -1.6 +- 0.8i, 1.8 +- 0.8i: p = 2, a compact of two arcs
RAW_P2 = {
    "class": "Z",
    "A": [["-1.6", "0.8"], ["-1.6", "-0.8"], ["1.8", "0.8"], ["1.8", "-0.8"]],
    "alpha": ["-1/2", "-1/2", "1/2", "1/2"],
}

RAW_Z2 = {
    "class": "Z2",
    "A": [["1.2", "0.8"], ["1.2", "-0.8"]],
    "alpha": ["1/2", "1/2"],
    "B": [["1.1", "1.1"], ["1.1", "-1.1"]],
    "beta": ["-1/2", "-1/2"],
    "intervals": [["-3", "-2"], ["2", "3"]],
}


def polyline_hausdorff(path_a, path_b) -> float:
    """Hausdorff distance between two polylines (as point sequences),
    measured vertex-to-edge in both directions."""
    from hplab.scurve import _point_to_polyline

    a = np.asarray(list(path_a), dtype=complex).reshape(-1)
    b = np.asarray(list(path_b), dtype=complex).reshape(-1)
    return float(max(_point_to_polyline(a, b).max(), _point_to_polyline(b, a).max()))


def segment_samples(a: complex, b: complex, n: int = 2001) -> np.ndarray:
    t = np.linspace(0.0, 1.0, n)
    return complex(a) + (complex(b) - complex(a)) * t


@pytest.fixture(scope="session")
def spec_z():
    from hplab.funcspec import validate_spec

    return validate_spec(RAW_Z)


@pytest.fixture(scope="session")
def spec_z2():
    from hplab.funcspec import validate_spec

    return validate_spec(RAW_Z2)


@pytest.fixture(scope="session")
def qd_p1():
    """Extremal quadratic differential for the p=1 real case (images 1/2, 1/3)."""
    from hplab.scurve import chebotarev_solve

    return chebotarev_solve([1 / 3, 1 / 2])


@pytest.fixture(scope="session")
def compact_p1(qd_p1):
    from hplab.scurve import trace_compact

    return trace_compact(qd_p1)


@pytest.fixture(scope="session")
def qd_p2():
    # pairs horizontally well separated relative to their height, so the
    # extremal compact is of disjoint conjugate-pair type
    from hplab.scurve import chebotarev_solve

    pts = [-0.5 + 0.25j, -0.5 - 0.25j, 0.45 + 0.2j, 0.45 - 0.2j]
    return chebotarev_solve(pts)


@pytest.fixture(scope="session")
def qd_sheets_p2():
    """The p=2 quadratic differential of RAW_P2's branch-point images."""
    from hplab.funcspec import derived_points, validate_spec
    from hplab.scurve import chebotarev_solve

    return chebotarev_solve(derived_points(validate_spec(RAW_P2)).zeta_images)
