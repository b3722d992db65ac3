"""The four pipeline workloads.

A workload has three parts:

* ``__init__(seed)``: set-up, timed as ``setup_s``.  It validates the spec
  document and makes the inputs (grids, far points) from the seed.
* ``run(rec)``: one round, the public ``hplab`` calls only, each made
  through the recorder so that it counts as one operation.  Its wall time is
  ``wall_s``.
* ``check(out)``: checks of a round's outputs against computations made
  apart from the program (see ``checks.py``), and the measured errors that
  become per-layer metrics.  Not timed.

The sizes below were chosen so that one round takes a few seconds on a
2-core machine; README.md gives the figures.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from hplab import equilibrium as eq
from hplab import green as gr
from hplab import hermite_pade as hp
from hplab import nuttall as nt
from hplab import scurve as sc
from hplab import series as se
from hplab.funcspec import derived_points, validate_spec

import checks as ck

# spec documents (decimal strings, so validation is exact)
RAW_Z = {"class": "Z", "A": [["2", "0"], ["3", "0"]], "alpha": ["-1/2", "-1/2"]}
RAW_Z2 = {
    "class": "Z2",
    "A": [["1.2", "0.8"], ["1.2", "-0.8"]],
    "alpha": ["1/2", "1/2"],
    "B": [["1.1", "1.1"], ["1.1", "-1.1"]],
    "beta": ["-1/2", "-1/2"],
    "intervals": [["-3", "-2"], ["2", "3"]],
}
RAW_P2 = {
    "class": "Z",
    "A": [["-1.6", "0.8"], ["-1.6", "-0.8"], ["1.8", "0.8"], ["1.8", "-0.8"]],
    "alpha": ["-1/2", "-1/2", "1/2", "1/2"],
}

ROOT_TOL = 1e-10       # tol passed to polyroots_and_measure, as `hplab hp` does
ORACLE_BITS = 512      # precision of the contour-quadrature germ oracle
ROOT_BITS = 512        # working precision of polyroots_and_measure at its default
GERM_TOL = 1e-80       # germ vs oracle, relative to the largest coefficient
CONJ_ROOT_TOL = 1e-8   # 100 * ROOT_TOL
NEAR_TOL = 5e-9        # Green values against closed forms / harmonicity
FAR_TOL = 1e-8         # Green values at |z| >= 1e3 against the closed form
ON_ARC_TOL = 1e-6      # Green function on the traced arcs
ROBIN_TOL = 1e-8       # Robin constant of [1/3, 1/2] against log 24
SLOPE_TOL = 1e-3       # slope of u1 against -3 on |z| in [1e3, 1e4]
EQ_RESIDUAL_TOL = 1e-3
SLOPE_RADII = (1e3, 1e4)
MV_RADIUS = 0.05       # circles for the mean-value check
MV_CENTERS = 8

def germ_length(k: int, n: int) -> int:
    """Coefficients needed to solve and certify (as `hplab hp` sizes them)."""
    return n + ck.contract(k, n) + 25


def _conjugate_closed_box(rng, count: int, box: float, avoid) -> list:
    """``count`` points uniform in [-box, box]^2, then their conjugates;
    points within 1e-3 of ``avoid`` are redrawn."""
    pts = []
    while len(pts) < count // 2:
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if min(abs(z - a) for a in avoid) > 1e-3:
            pts.append(z)
    return pts + [z.conjugate() for z in pts]


def _arc_samples(comp, per_arc: int = 41) -> list:
    out = []
    for arc in comp.arcs:
        arc = np.asarray(arc)
        idx = np.linspace(0, len(arc) - 1, per_arc).astype(int)
        out.extend(complex(z) for z in arc[idx])
    return out


def _scurve_metrics(qd, comp) -> dict:
    return {"scurve.period_residual": qd.residual,
            "scurve.arc_points": sum(len(a) for a in comp.arcs)}


def _nuttall_metrics(rep, comp) -> dict:
    return {
        "nuttall.slope_err": abs(rep.slope_u1 + 3.0),
        "nuttall.min_gap_12": rep.min_gaps[0],
        "nuttall.min_gap_23": rep.min_gaps[1],
        "nuttall.min_gap_34": rep.min_gaps[2],
        "nuttall.boundary_separation": ck.boundary_separation(comp.arcs),
    }


# ---------------------------------------------------------------------------
# high-precision chain


class _HermitePade:
    raw: dict
    k: int
    n: int
    bits: int
    roots: bool

    def __init__(self, seed: int):
        # the spec is fixed: these workloads take no random input from the seed
        self.spec = validate_spec(self.raw)
        self.need = germ_length(self.k, self.n)

    def run(self, rec) -> dict:
        germs = rec.call("series.germ_s", se.germ_of_family, self.spec, self.need, self.bits)
        fam = list(germs[: self.k - 1])
        sol = rec.call("hermite_pade.hp_type1_s", hp.hp_type1, fam, self.n, self.bits)
        order = rec.call("hermite_pade.residual_order_s", hp.residual_order, sol, fam)
        zeros = ()
        if self.roots:
            zeros = tuple(
                rec.call("hermite_pade.polyroots_s", hp.polyroots_and_measure, q, tol=ROOT_TOL)[0]
                for q in sol.polys
            )
        return {"germ": germs[0].coeffs, "polys": sol.polys, "order": order,
                "zeros": zeros}

    def check(self, out):
        oracle = se.oracle_coeffs(self.spec, self.need, precision_bits=ORACLE_BITS)
        germ_err = ck.germ_error(out["germ"], oracle.coeffs, ORACLE_BITS)
        checks = [
            ck.at_most("germ_vs_contour_oracle", germ_err, GERM_TOL),
            ck.at_least("certified_order", out["order"], ck.contract(self.k, self.n)),
        ]
        errors = {"series.oracle_max_rel_err": germ_err,
                  "hermite_pade.certified_order": out["order"]}
        if self.roots:
            bound = 0.0
            for j, (q, zs) in enumerate(zip(out["polys"], out["zeros"])):
                deg = ck.trimmed_degree(q, self.bits)
                checks += [
                    ck.Check(f"Q{j}_root_count", len(zs.roots), deg, len(zs.roots) == deg),
                    ck.at_most(f"Q{j}_roots_conjugate_closed",
                               ck.conjugate_mismatch(zs.roots), CONJ_ROOT_TOL),
                    ck.at_most(f"Q{j}_rebuilt_from_roots",
                               ck.rebuild_error(q, zs.roots, ROOT_BITS), deg * ROOT_TOL),
                ]
                bound = max(bound, zs.residual_bound)
            errors["hermite_pade.root_residual_bound"] = bound
        return checks, errors

    def layer_metrics(self, out, seconds) -> dict:
        m = {}
        if self.roots:
            n_roots = sum(len(zs.roots) for zs in out["zeros"])
            m["hermite_pade.roots_per_s"] = n_roots / seconds["hermite_pade.polyroots_s"]
        return m


class HpZeros(_HermitePade):
    """`hplab hp` on RAW_Z: germ, [1, f, f^2] solve, certificate, all roots."""
    raw, k, n, bits, roots = RAW_Z, 3, 10, 2048, True


class HpSolveZ2(_HermitePade):
    """Two-interval RAW_Z2: germ, [1, f, f^2, f^3] solve, certificate; no roots."""
    raw, k, n, bits, roots = RAW_Z2, 4, 20, 2048, False


# ---------------------------------------------------------------------------
# double-precision chain


class SheetsP2:
    """The paper's non-trivial p = 2 case: compact, Green grid, Nuttall grid,
    Robin comparison against vertical segments."""

    GREEN_POINTS = 400
    NUTTALL_POINTS = 250

    def __init__(self, seed: int):
        self.seed = seed
        spec = validate_spec(RAW_P2)
        self.points = list(derived_points(spec).zeta_images)
        rng = np.random.default_rng(seed)
        self.grid = _conjugate_closed_box(rng, self.GREEN_POINTS, 2.0, self.points)
        uppers = [u for u in self.points if u.imag > 0]
        self.curves = [lambda x, u=u: complex(u.real, u.imag * x) for u in uppers]
        self.dcurves = [lambda x, u=u: complex(0.0, u.imag) for u in uppers]

    def run(self, rec) -> dict:
        qd = rec.call("scurve.chebotarev_solve_s", sc.chebotarev_solve, self.points)
        comp = rec.call("scurve.trace_compact_s", sc.trace_compact, qd)
        adm = rec.call(None, sc.admissibility_check, comp)
        ev = rec.call("green.near_eval_s", gr.green_eval, qd, self.grid)
        grid = rec.call("nuttall.report_s", nt.default_grid, qd, self.NUTTALL_POINTS,
                        seed=self.seed)
        rep = rec.call("nuttall.report_s", nt.nuttall_report, qd, grid,
                       slope_radii=SLOPE_RADII, slope_rays=1, slope_samples=3)
        _, gamma_seg = rec.call("green.bie_s", gr.capacity_robin_multi,
                                self.curves, self.dcurves, n=128)
        return {"qd": qd, "comp": comp, "adm": adm, "near": ev, "nuttall": rep,
                "gamma_seg": gamma_seg}

    def check(self, out):
        qd, comp, ev = out["qd"], out["comp"], out["near"]
        on_arc = max(gr.green_eval(qd, _arc_samples(comp)).values)
        centers = [i for i, z in enumerate(self.grid)
                   if ck.distance_to_polylines(z, comp.arcs) > 5 * MV_RADIUS][:MV_CENTERS]
        rings = gr.green_eval(qd, ck.circle_points([self.grid[i] for i in centers],
                                                   MV_RADIUS)).values
        mean_value = ck.mean_value_residual([ev.values[i] for i in centers], rings)
        asym = ck.conjugate_asymmetry(ev.values)
        rep = out["nuttall"]
        nm = _nuttall_metrics(rep, comp)
        checks = [
            ck.Check("admissibility", float(out["adm"].all_ok()), 1.0, out["adm"].all_ok()),
            ck.at_most("green_zero_on_traced_arcs", on_arc, ON_ARC_TOL),
            ck.at_most("green_conjugation_symmetry", asym, NEAR_TOL),
            ck.at_most("green_mean_value_property", mean_value, NEAR_TOL),
            ck.at_least("mean_value_centers", len(centers), MV_CENTERS),
            ck.at_most("u1_slope_minus_3", nm["nuttall.slope_err"], SLOPE_TOL),
            ck.Check("boundary_separation_positive", nm["nuttall.boundary_separation"], 0.0,
                     nm["nuttall.boundary_separation"] > 0),
            ck.Check("robin_extremal_above_segments", ev.robin - out["gamma_seg"], 0.0,
                     ev.robin > out["gamma_seg"]),
        ]
        errors = {"green.near_err": max(asym, mean_value), "green.on_arc_max": on_arc,
                  **_scurve_metrics(qd, comp), **nm}
        return checks, errors

    def layer_metrics(self, out, seconds) -> dict:
        return {"green.near_evals_per_s": len(self.grid) / seconds["green.near_eval_s"]}


class GreenP1Far:
    """p = 1 real case of RAW_Z, compact [1/3, 1/2]: long paths to far
    points, Robin constant by both routes, Nuttall slope rays, equilibrium."""

    NEAR_POINTS = 100
    FAR_RADII = (1e3, 1e4, 1e5, 1e6, 1e7)
    NUTTALL_POINTS = 40
    SLOPE_RAYS = 2

    def __init__(self, seed: int):
        self.seed = seed
        spec = validate_spec(RAW_Z)
        self.points = list(derived_points(spec).zeta_images)
        self.a, self.b = sorted(z.real for z in self.points)
        rng = np.random.default_rng(seed)
        self.near = _conjugate_closed_box(rng, self.NEAR_POINTS, 2.0, self.points)
        # far-path cost depends on the ray angle; a band around +-pi/4 keeps
        # it the same within a few percent whatever the seed
        angles = rng.uniform(math.pi / 4 - 0.2, math.pi / 4 + 0.2, len(self.FAR_RADII))
        signs = rng.choice((-1.0, 1.0), len(self.FAR_RADII))
        self.far = [r * cmath.exp(1j * s * t) for r, s, t in zip(self.FAR_RADII, signs, angles)]
        chord = self.b - self.a
        self.candidates = [gr.CircularArc(self.a, self.b, s * chord) for s in (0.2, -0.3, 0.45)]

    def run(self, rec) -> dict:
        qd = rec.call("scurve.chebotarev_solve_s", sc.chebotarev_solve, self.points)
        comp = rec.call("scurve.trace_compact_s", sc.trace_compact, qd)
        near = rec.call("green.near_eval_s", gr.green_eval, qd, self.near)
        far = rec.call("green.far_eval_s", gr.green_eval, qd, self.far)
        gamma = rec.call("green.robin_gamma_s", gr.robin_gamma, qd)
        _, gamma_bie = rec.call("green.bie_s", gr.segment_capacity_robin, self.a, self.b)
        cmp = rec.call("green.bie_s", gr.robin_compare, qd, self.candidates, n=256)
        grid = rec.call("nuttall.report_s", nt.default_grid, qd, self.NUTTALL_POINTS,
                        seed=self.seed)
        rep = rec.call("nuttall.report_s", nt.nuttall_report, qd, grid,
                       slope_radii=SLOPE_RADII, slope_rays=self.SLOPE_RAYS, slope_samples=3)
        arc = np.asarray(comp.arcs[0])
        arc_z = (arc + 1 / arc) / 2
        eq400 = rec.call("equilibrium.solve_s", eq.solve_equilibrium, arc_z, 400)
        eq200 = rec.call("equilibrium.solve_s", eq.solve_equilibrium, arc_z, 200)
        return {"qd": qd, "comp": comp, "near": near, "far": far, "gamma": gamma,
                "gamma_bie": gamma_bie, "compare": cmp, "nuttall": rep,
                "eq400": eq400, "eq200": eq200}

    def check(self, out):
        qd, comp = out["qd"], out["comp"]
        near_err = ck.closed_form_error(self.near, out["near"].values, self.a, self.b)
        far_err = ck.closed_form_error(self.far, out["far"].values, self.a, self.b)
        on_arc = max(gr.green_eval(qd, _arc_samples(comp)).values)
        log24 = math.log(4.0 / (self.b - self.a))
        robin_err = max(abs(out["gamma"] - log24), abs(out["gamma_bie"] - log24))
        cmp = out["compare"]
        ext = cmp.robins[cmp.labels.index("extremal")]
        rival = max(r for lab, r in zip(cmp.labels, cmp.robins) if lab != "extremal")
        nm = _nuttall_metrics(out["nuttall"], comp)
        r400, r200 = out["eq400"].residual_sup, out["eq200"].residual_sup
        checks = [
            ck.at_most("green_near_vs_segment_closed_form", near_err, NEAR_TOL),
            ck.at_most("green_far_vs_segment_closed_form", far_err, FAR_TOL),
            ck.at_most("green_zero_on_traced_arc", on_arc, ON_ARC_TOL),
            ck.at_most("robin_path_and_bie_vs_log24", robin_err, ROBIN_TOL),
            ck.Check("robin_compare_ranks_extremal_first", ext - rival, 0.0,
                     cmp.labels[0] == "extremal" and ext > rival),
            ck.at_most("u1_slope_minus_3", nm["nuttall.slope_err"], SLOPE_TOL),
            ck.Check("boundary_separation_positive", nm["nuttall.boundary_separation"], 0.0,
                     nm["nuttall.boundary_separation"] > 0),
            ck.at_most("equilibrium_residual_400", r400, EQ_RESIDUAL_TOL),
            ck.at_least("equilibrium_residual_halves", r200 / r400, 2.0),
        ]
        errors = {"green.near_err": near_err, "green.far_err": far_err,
                  "green.robin_err": robin_err, "green.on_arc_max": on_arc,
                  "equilibrium.residual_sup": r400, **_scurve_metrics(qd, comp), **nm}
        return checks, errors

    def layer_metrics(self, out, seconds) -> dict:
        return {"green.near_evals_per_s": len(self.near) / seconds["green.near_eval_s"],
                "green.far_evals_per_s": len(self.far) / seconds["green.far_eval_s"]}


WORKLOADS = {
    "hp-zeros": HpZeros,
    "hp-solve-z2": HpSolveZ2,
    "sheets-p2": SheetsP2,
    "green-p1-far": GreenP1Far,
}
