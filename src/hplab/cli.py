"""Batch front end: validate a spec document, run a pipeline, emit artifacts.

Subcommands
-----------
germ         series expansion + independent contour-quadrature cross-check
hp           type-I Hermite-Pade solve + order certificate + polynomial roots
stahl        extremal-compact solve + trajectory trace + admissibility
green        Green-function grid + Robin constants by both routes + ranking
nuttall      sheet-function grid report + ``boundary_separation`` (distance
             of the 2|3 boundary pi(F) from the cut [-1, 1]) + ``disk_margin``
             (1 - max |zeta| over F)
equilibrium  equilibrium measure + residual + distance to Hermite-Pade zeros
             (compacts of one arc only)
figure-data  zero clouds (Pade + Hermite-Pade) and the traced compact

stahl, green, nuttall and equilibrium trace the compact on the chart of one
interval, and refuse a two-interval spec as an input error.

Options, besides ``--spec`` and ``--out`` which every subcommand takes
----------------------------------------------------------------------
germ, equilibrium, figure-data   --n, --precision-bits, --tol
hp                               --k, --n, --precision-bits, --tol
stahl                            --tol
green, nuttall                   --tol, --grid COUNT[:BOX]

``--tol`` bounds the oracle error in germ, the period conditions in stahl,
green and nuttall, and the roots (backward error and relative inclusion
radii) in the other three.

Exit status: 0 success, 1 usage or input/spec error, 2 numeric-contract
failure.  All outputs are deterministic for a fixed config; CSV files carry
``#command`` and ``#config-hash`` provenance lines, JSON files a
``_provenance`` object.  The config hash covers the command, the options
given and the spec document's bytes, not where the files sit.  Files are
written atomically (temp + rename).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile

import mpmath as mp
import numpy as np

from . import equilibrium as eq
from . import green as gr
from . import nuttall as nt
from . import scurve as sc
from . import series as se
from . import hermite_pade as hp_mod
from .funcspec import SpecError, derived_points, validate_spec
from .hermite_pade import HermitePadeError
from .nuttall import NuttallError
from .scurve import SCurveError
from .green import GreenError
from .equilibrium import EquilibriumError


class NumericFailure(RuntimeError):
    pass


_NUMERIC_ERRORS = (HermitePadeError, SCurveError, GreenError, NuttallError,
                   EquilibriumError, se.SeriesError, NumericFailure)


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(args, name: str, header, rows):
    def fmt(v):
        return str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))

    lines = [f"#command: {args.command}", f"#config-hash: {args.config_hash}", ",".join(header)]
    lines += (",".join(fmt(v) for v in row) for row in rows)
    _atomic_write(os.path.join(args.out, name), "\n".join(lines) + "\n")


def _write_roots(args, name: str, zs):
    _write_csv(args, name, ("re", "im", "multiplicity"),
               [(r.real, r.imag, m) for r, m in zip(zs.roots, zs.multiplicities)])


def _write_json(args, name: str, doc: dict):
    doc = {"_provenance": {"command": args.command, "config_hash": args.config_hash}, **doc}
    _atomic_write(os.path.join(args.out, name), json.dumps(doc, indent=2, default=str) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_germ(args, spec):
    n = args.n or 64
    prec = args.precision_bits or se.default_precision_bits(n)
    tol = args.tol or 1e-30
    (f,) = se.germ_of_family(spec, n, prec, powers=1)
    oracle = se.oracle_coeffs(spec, n, precision_bits=prec)
    with mp.workprec(prec):
        scale = f.max_abs()
        rel = max(float(abs(a - b) / scale) for a, b in zip(f.coeffs, oracle.coeffs))
    _write_json(args, "germ.json", f.to_json())
    _write_json(args, "germ_report.json",
                {"n": n, "precision_bits": prec, "oracle_max_rel_err": rel, "tol": tol})
    if rel > tol:
        raise NumericFailure(f"series: germ disagrees with contour oracle ({rel:.3e} > {tol:.3e})")
    return 0


def _solve_hp(spec, k, n, prec):
    germs = se.germ_of_family(spec, n + hp_mod.contract_order(k, n) + 25, prec, powers=k - 1)
    sol = hp_mod.hp_type1(list(germs), n, prec)
    return sol, hp_mod.residual_order(sol, list(germs))


def _zeros(args, poly, prec):
    """Roots and zero-counting measure of ``poly``, to ``--tol``, at the
    precision ``prec`` of the solve that gave ``poly``."""
    return hp_mod.polyroots_and_measure(poly, tol=args.tol or 1e-10, precision_bits=prec)


def _cmd_hp(args, spec):
    k = args.k or 3
    n = args.n or 20
    prec = args.precision_bits or 2048
    sol, order = _solve_hp(spec, k, n, prec)
    for j, poly in enumerate(sol.polys):
        with mp.workprec(prec):
            coeffs = [mp.nstr(c, int(prec * 0.30103) + 10) for c in poly]
        _write_json(args, f"Q_{n}_{j}.json", {"degree_bound": n, "coeffs": coeffs})
        zs, _ = _zeros(args, poly, prec)
        _write_roots(args, f"Q_{n}_{j}_roots.csv", zs)
    _write_json(args, "hp_report.json", {
        "k": k, "n": n, "precision_bits": prec, "achieved_order": order,
        "contract_order": hp_mod.contract_order(k, n), "degenerate_kernel": sol.degenerate_kernel,
    })
    return 0


def _solve_compact(spec, tol=None):
    """Extremal compact through the branch-point images; ``tol=None``
    keeps the period tolerance of :func:`scurve.chebotarev_solve`.

    The compact is traced on the zeta sphere of w^2 = z^2 - 1, the chart of
    one interval; the two-interval class (a surface of genus 1) is refused.
    """
    if spec.class_tag == "two-interval":
        raise SpecError("the extremal compact is computed for the single-interval class only")
    pts = list(derived_points(spec).zeta_images)
    qd = sc.chebotarev_solve(pts) if tol is None else sc.chebotarev_solve(pts, tol=tol)
    return qd, sc.trace_compact(qd)


def _projected(arc) -> np.ndarray:
    arc = np.asarray(arc)
    return (arc + 1 / arc) / 2


def _cmd_stahl(args, spec):
    qd, comp = _solve_compact(spec, args.tol)
    report = sc.admissibility_check(comp)
    for i, arc in enumerate(comp.arcs):
        s = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(arc)))])
        _write_csv(args, f"arc_{i}.csv", ("s", "re_zeta", "im_zeta"),
                   [(si, z.real, z.imag) for si, z in zip(s, arc)])
        _write_csv(args, f"arc_{i}_projection.csv", ("re_z", "im_z"),
                   [(z.real, z.imag) for z in _projected(arc)])
    _write_json(args, "stahl_report.json", {
        "double_zeros": [str(v) for v in qd.double_zeros],
        "period_residual": qd.residual,
        "pairing": [[str(a), str(b)] for a, b in comp.pairing],
        "on_second_sheet": report.on_second_sheet,
        "complement_connected": report.complement_connected,
        "single_valued": report.single_valued,
    })
    if not report.all_ok():
        raise NumericFailure("scurve: traced compact failed admissibility")
    return 0


def _cmd_green(args, spec):
    qd, _ = _solve_compact(spec, args.tol)
    n_grid, box = args.grid or (2500, None)
    box = box or 2.0
    rng = np.random.default_rng(11)
    pts = []
    while len(pts) < n_grid:
        z = complex((rng.random() * 2 - 1) * box, (rng.random() * 2 - 1) * box)
        if min(abs(z - complex(r)) for r in qd.denominator_roots) > 1e-3:
            pts.append(z)
    ev = gr.green_eval(qd, pts)
    _write_csv(args, "green_grid.csv", ("re_zeta", "im_zeta", "g"),
               [(z.real, z.imag, v) for z, v in zip(ev.points, ev.values)])
    doc = {"robin_path_integral": ev.robin, "capacity": ev.capacity, "seed": 11}
    if len(qd.denominator_roots) == 2:
        a, b = (complex(r) for r in qd.denominator_roots)
        _, doc["robin_boundary_integral"] = gr.segment_capacity_robin(a, b)
        L = abs(b - a)
        arcs = [gr.CircularArc(a, b, s) for s in (0.2 * L, -0.3 * L, 0.45 * L)]
        cmp = gr.robin_compare(qd, arcs)
        doc["comparison"] = {
            "labels": list(cmp.labels),
            "robins": list(cmp.robins),
            "extremal_label": cmp.extremal_label,
        }
        if cmp.extremal_label != "extremal":
            raise NumericFailure("green: extremal compact did not maximize the Robin constant")
    _write_json(args, "green_report.json", doc)
    return 0


def _cmd_nuttall(args, spec):
    qd, comp = _solve_compact(spec, args.tol)
    n_grid, box = args.grid or (10_000, None)
    rep = nt.nuttall_report(qd, nt.default_grid(qd, n_grid, box=box or 4.0))
    _write_csv(args, "nuttall_grid.csv", ("re_z", "im_z", "u1", "u2", "u3", "u4"),
               [(z.real, z.imag, *row) for z, row in zip(rep.grid, rep.u)])
    # the theorem: pi(F), the 2|3 boundary, stays off the cut [-1, 1] (the
    # 1|2 and 3|4 boundary), and F stays inside the unit disk
    zeta = comp.all_points()
    z = _projected(zeta)
    separation = float(np.min(np.hypot(np.maximum(np.abs(z.real) - 1, 0), z.imag)))
    margin = 1 - float(np.max(np.abs(zeta)))
    _write_json(args, "nuttall_report.json", {
        "grid_points": len(rep.grid),
        "grid_seed": 7,
        "min_gaps": list(rep.min_gaps),
        "max_abs_sum": rep.max_abs_sum,
        "slope_u1": rep.slope_u1,
        "slope_stderr": rep.slope_stderr,
        "boundary_separation": separation,
        "disk_margin": margin,
    })
    if min(rep.min_gaps) <= 0:
        raise NumericFailure("nuttall: sheet ordering violated on the grid")
    if separation <= 0 or margin <= 0:
        raise NumericFailure("nuttall: pi(F) meets the cut or F leaves the unit disk")
    return 0


def _cmd_equilibrium(args, spec):
    _, comp = _solve_compact(spec)
    if len(comp.arcs) > 1:
        raise SpecError(
            f"equilibrium solves on one arc; this spec's compact has {len(comp.arcs)}"
        )
    n_cells = args.n or 400
    rep = eq.solve_equilibrium(_projected(comp.arcs[0]), n_cells)
    _write_csv(args, "equilibrium_measure.csv", ("re_z", "im_z", "weight"),
               [(z.real, z.imag, w) for z, w in zip(rep.nodes, rep.weights)])
    n_hp = 40
    prec = args.precision_bits or max(2048, 64 * n_hp + 512)
    sol, _ = _solve_hp(spec, 3, n_hp, prec)
    _, mu = _zeros(args, sol.polys[2], prec)
    _write_json(args, "equilibrium_report.json", {
        "cells": n_cells,
        "residual_sup": rep.residual_sup,
        "modified_robin": rep.modified_robin,
        "energy": rep.energy,
        "hp_zero_measure_distance": eq.measure_distance(mu, rep.as_measure()),
    })
    return 0


def _cmd_figure_data(args, spec):
    single_interval = spec.class_tag == "single-interval"
    n = args.n or (40 if single_interval else 20)
    prec = args.precision_bits or max(2048, 64 * n + 512)

    # Pade denominator zeros (accumulate on the base interval system)
    n_pade = min(n, 30)
    sol2, _ = _solve_hp(spec, 2, n_pade, prec)
    zs, _ = _zeros(args, sol2.polys[1], prec)
    _write_roots(args, "pade_zeros.csv", zs)

    # Hermite-Pade zero clouds for the [1, f, f^2] system
    sol3, order3 = _solve_hp(spec, 3, n, prec)
    for j, poly in enumerate(sol3.polys):
        zs, _ = _zeros(args, poly, prec)
        _write_roots(args, f"hp_zeros_q{j}.csv", zs)

    # the uniformizing chart of the two-interval class is not a single
    # inverse-Zhukovskii disk; there only the zero clouds are emitted
    if single_interval:
        _, comp = _solve_compact(spec)
        _write_csv(args, "scurve_projection.csv", ("arc", "re_z", "im_z"),
                   [(i, z.real, z.imag)
                    for i, arc in enumerate(comp.arcs) for z in _projected(arc)])
    _write_json(args, "figure_data_report.json", {
        "n": n, "pade_n": n_pade, "precision_bits": prec, "hp_order": order3,
        "compact_traced": single_interval,
    })
    return 0


# ---------------------------------------------------------------------------
# options


def _checked(convert, ok, what):
    """argparse ``type=`` that converts a value and rejects it unless ``ok``."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return parse


_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_positive = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number")


def _grid(text):
    """COUNT[:BOX] as (COUNT, BOX or None)."""
    count, _, box = text.partition(":")
    return _count(count), _positive(box) if box else None


_OPTIONS = {
    "--k": dict(type=int, choices=(2, 3, 4), help="family size for Hermite-Pade systems"),
    "--n": dict(type=_count, help="degree / germ length / cell count"),
    "--precision-bits": dict(type=_checked(int, lambda v: v >= 64, "an integer >= 64")),
    "--tol": dict(type=_positive, help="tolerance of the command's numeric contract"),
    "--grid": dict(type=_grid, metavar="COUNT[:BOX]", help="grid size and half-width"),
}

# subcommand -> (handler, the options it reads)
_COMMANDS = {
    "germ": (_cmd_germ, ("--n", "--precision-bits", "--tol")),
    "hp": (_cmd_hp, ("--k", "--n", "--precision-bits", "--tol")),
    "stahl": (_cmd_stahl, ("--tol",)),
    "green": (_cmd_green, ("--tol", "--grid")),
    "nuttall": (_cmd_nuttall, ("--tol", "--grid")),
    "equilibrium": (_cmd_equilibrium, ("--n", "--precision-bits", "--tol")),
    "figure-data": (_cmd_figure_data, ("--n", "--precision-bits", "--tol")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hplab", description="Hermite-Pade / extremal-compact laboratory"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="JSON spec document")
        p.add_argument("--out", default="out", help="output directory")
        for flag in options:
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; here 2 means a numeric failure
        if exc.code:
            raise SystemExit(1) from None
        raise
    handler, _ = _COMMANDS[args.command]
    try:
        try:
            with open(args.spec, "rb") as fh:
                raw = fh.read()
            doc = json.loads(raw)
        except OSError as exc:
            raise SpecError(f"cannot read spec document: {exc}") from exc
        except ValueError as exc:
            raise SpecError(f"spec document is not valid JSON: {exc}") from exc
        cfg = {k: v for k, v in vars(args).items() if k not in ("spec", "out") and v is not None}
        cfg["spec_sha256"] = hashlib.sha256(raw).hexdigest()[:16]
        args.config_hash = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]
        return handler(args, validate_spec(doc))
    except SpecError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
