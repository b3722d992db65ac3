"""Batch front end: validate a spec document, run a pipeline, emit artifacts.

Subcommands
-----------
germ         series expansion + independent contour-quadrature cross-check
hp           type-I Hermite-Pade solve + order certificate + polynomial roots
stahl        extremal-compact solve + trajectory trace + admissibility
green        Green-function grid + Robin constants by both routes + ranking
nuttall      sheet-function grid report
equilibrium  equilibrium measure + residual + distance to Hermite-Pade zeros
             (compacts of one arc only)
figure-data  zero clouds (Pade + Hermite-Pade) and the traced compact

Exit status: 0 success, 1 input/spec error, 2 numeric-contract failure.
All outputs are deterministic for a fixed config; CSV files carry
``#command`` and ``#config-hash`` provenance lines, JSON files a
``_provenance`` object.  Files are written atomically (temp + rename).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from . import equilibrium as eq
from . import green as gr
from . import nuttall as nt
from . import scurve as sc
from . import series as se
from . import hermite_pade as hp_mod
from .funcspec import FunctionSpec, SpecError, derived_points, validate_spec
from .hermite_pade import HermitePadeError
from .nuttall import NuttallError
from .scurve import SCurveError
from .green import GreenError
from .equilibrium import EquilibriumError


class NumericFailure(RuntimeError):
    pass


_NUMERIC_ERRORS = (
    HermitePadeError,
    SCurveError,
    GreenError,
    NuttallError,
    EquilibriumError,
    se.SeriesError,
    NumericFailure,
)


def _config_hash(command: str, cfg: dict) -> str:
    payload = json.dumps({"command": command, **cfg}, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


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


def _write_csv(path: str, command: str, cfg_hash: str, header, rows):
    lines = [f"#command: {command}", f"#config-hash: {cfg_hash}", ",".join(header)]
    def fmt(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return repr(float(v))

    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_roots(path: str, command: str, cfg_hash: str, zs):
    _write_csv(
        path,
        command,
        cfg_hash,
        ("re", "im", "multiplicity"),
        [(float(r.real), float(r.imag), m) for r, m in zip(zs.roots, zs.multiplicities)],
    )


def _write_json(path: str, command: str, cfg_hash: str, doc: dict):
    doc = {"_provenance": {"command": command, "config_hash": cfg_hash}, **doc}
    _atomic_write(path, json.dumps(doc, indent=2, default=str) + "\n")


def _load_spec(path: str) -> FunctionSpec:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec document: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec document is not valid JSON: {exc}") from exc
    return validate_spec(raw)


def _tilde_points(spec: FunctionSpec):
    """Branch-point images in the uniformizing coordinate (the points the
    extremal compact must join)."""
    return list(derived_points(spec).zeta_images)


def _germ_lengths(k: int, n: int) -> int:
    return n + hp_mod.contract_order(k, n) + 25


# ---------------------------------------------------------------------------
# subcommands


def _cmd_germ(args, cfg_hash):
    spec = _load_spec(args.spec)
    n = args.n or 64
    prec = args.precision_bits or se.default_precision_bits(n)
    tol = args.tol or 1e-30
    f, f2, f3 = se.germ_of_family(spec, n, prec)
    oracle = se.oracle_coeffs(spec, n, precision_bits=prec)
    import mpmath as mp

    with mp.workprec(prec):
        rel = 0.0
        scale = f.max_abs()
        for a, b in zip(f.coeffs, oracle.coeffs):
            rel = max(rel, float(abs(a - b) / scale))
    _write_json(os.path.join(args.out, "germ.json"), "germ", cfg_hash, f.to_json())
    _write_json(
        os.path.join(args.out, "germ_report.json"),
        "germ",
        cfg_hash,
        {"n": n, "precision_bits": prec, "oracle_max_rel_err": rel, "tol": tol},
    )
    if rel > tol:
        raise NumericFailure(
            f"series: germ disagrees with contour oracle ({rel:.3e} > {tol:.3e})"
        )
    return 0


def _solve_hp(spec, k, n, prec):
    germs = se.germ_of_family(spec, _germ_lengths(k, n), prec)
    sol = hp_mod.hp_type1(list(germs[: k - 1]), n, prec)
    order = hp_mod.residual_order(sol, list(germs[: k - 1]))
    return sol, order


def _cmd_hp(args, cfg_hash):
    spec = _load_spec(args.spec)
    k = args.k or 3
    n = args.n or 20
    prec = args.precision_bits or 2048
    sol, order = _solve_hp(spec, k, n, prec)
    import mpmath as mp

    for j, poly in enumerate(sol.polys):
        with mp.workprec(prec):
            doc = {
                "degree_bound": n,
                "coeffs": [mp.nstr(c, int(prec * 0.30103) + 10) for c in poly],
            }
        _write_json(os.path.join(args.out, f"Q_{n}_{j}.json"), "hp", cfg_hash, doc)
        zs, _ = hp_mod.polyroots_and_measure(poly, tol=args.tol or 1e-10)
        _write_roots(os.path.join(args.out, f"Q_{n}_{j}_roots.csv"), "hp", cfg_hash, zs)
    _write_json(
        os.path.join(args.out, "hp_report.json"),
        "hp",
        cfg_hash,
        {
            "k": k,
            "n": n,
            "precision_bits": prec,
            "achieved_order": order,
            "contract_order": hp_mod.contract_order(k, n),
            "degenerate_kernel": sol.degenerate_kernel,
        },
    )
    return 0


def _solve_compact(spec, tol):
    pts = _tilde_points(spec)
    qd = sc.chebotarev_solve(pts, tol=tol or 1e-11)
    comp = sc.trace_compact(qd)
    return qd, comp


def _projected(arc) -> np.ndarray:
    arc = np.asarray(arc)
    return (arc + 1 / arc) / 2


def _cmd_stahl(args, cfg_hash):
    spec = _load_spec(args.spec)
    qd, comp = _solve_compact(spec, args.tol)
    report = sc.admissibility_check(comp)
    for i, arc in enumerate(comp.arcs):
        s = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(arc)))])
        _write_csv(
            os.path.join(args.out, f"arc_{i}.csv"),
            "stahl",
            cfg_hash,
            ("s", "re_zeta", "im_zeta"),
            [(float(si), float(z.real), float(z.imag)) for si, z in zip(s, arc)],
        )
        _write_csv(
            os.path.join(args.out, f"arc_{i}_projection.csv"),
            "stahl",
            cfg_hash,
            ("re_z", "im_z"),
            [(float(z.real), float(z.imag)) for z in _projected(arc)],
        )
    _write_json(
        os.path.join(args.out, "stahl_report.json"),
        "stahl",
        cfg_hash,
        {
            "double_zeros": [str(v) for v in qd.double_zeros],
            "period_residual": qd.residual,
            "pairing": [[str(a), str(b)] for a, b in comp.pairing],
            "on_second_sheet": report.on_second_sheet,
            "complement_connected": report.complement_connected,
            "single_valued": report.single_valued,
        },
    )
    if not report.all_ok():
        raise NumericFailure("scurve: traced compact failed admissibility")
    return 0


def _parse_grid(text, default_n=2500, default_box=2.0):
    if not text:
        return default_n, default_box
    parts = text.split(":")
    n = int(parts[0])
    box = float(parts[1]) if len(parts) > 1 else default_box
    return n, box


def _cmd_green(args, cfg_hash):
    spec = _load_spec(args.spec)
    qd, comp = _solve_compact(spec, args.tol)
    n_grid, box = _parse_grid(args.grid)
    rng = np.random.default_rng(11)
    pts = []
    while len(pts) < n_grid:
        z = complex((rng.random() * 2 - 1) * box, (rng.random() * 2 - 1) * box)
        if min(abs(z - complex(r)) for r in qd.denominator_roots) > 1e-3:
            pts.append(z)
    ev = gr.green_eval(qd, pts)
    _write_csv(
        os.path.join(args.out, "green_grid.csv"),
        "green",
        cfg_hash,
        ("re_zeta", "im_zeta", "g"),
        [(z.real, z.imag, v) for z, v in zip(ev.points, ev.values)],
    )
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
    _write_json(os.path.join(args.out, "green_report.json"), "green", cfg_hash, doc)
    return 0


def _cmd_nuttall(args, cfg_hash):
    spec = _load_spec(args.spec)
    qd, _ = _solve_compact(spec, args.tol)
    n_grid, box = _parse_grid(args.grid, default_n=10_000, default_box=4.0)
    grid = nt.default_grid(qd, n_grid, box=box)
    rep = nt.nuttall_report(qd, grid)
    _write_csv(
        os.path.join(args.out, "nuttall_grid.csv"),
        "nuttall",
        cfg_hash,
        ("re_z", "im_z", "u1", "u2", "u3", "u4"),
        [
            (z.real, z.imag, *[float(u) for u in row])
            for z, row in zip(rep.grid, rep.u)
        ],
    )
    _write_json(
        os.path.join(args.out, "nuttall_report.json"),
        "nuttall",
        cfg_hash,
        {
            "grid_points": len(rep.grid),
            "grid_seed": 7,
            "min_gaps": list(rep.min_gaps),
            "max_abs_sum": rep.max_abs_sum,
            "slope_u1": rep.slope_u1,
            "slope_stderr": rep.slope_stderr,
        },
    )
    if min(rep.min_gaps) <= 0:
        raise NumericFailure("nuttall: sheet ordering violated on the grid")
    return 0


def _cmd_equilibrium(args, cfg_hash):
    spec = _load_spec(args.spec)
    _, comp = _solve_compact(spec, args.tol)
    if len(comp.arcs) > 1:
        raise SpecError(
            f"equilibrium solves on one arc; this spec's compact has {len(comp.arcs)}"
        )
    n_cells = args.n or 400
    arc_z = _projected(comp.arcs[0])
    rep = eq.solve_equilibrium(arc_z, n_cells)
    _write_csv(
        os.path.join(args.out, "equilibrium_measure.csv"),
        "equilibrium",
        cfg_hash,
        ("re_z", "im_z", "weight"),
        [(z.real, z.imag, float(w)) for z, w in zip(rep.nodes, rep.weights)],
    )
    doc = {
        "cells": n_cells,
        "residual_sup": rep.residual_sup,
        "modified_robin": rep.modified_robin,
        "energy": rep.energy,
    }
    n_hp = 40
    prec = args.precision_bits or max(2048, 64 * n_hp + 512)
    sol, _ = _solve_hp(spec, 3, n_hp, prec)
    _, mu = hp_mod.polyroots_and_measure(sol.polys[2], tol=args.tol or 1e-10)
    doc["hp_zero_measure_distance"] = eq.measure_distance(mu, rep.as_measure())
    _write_json(os.path.join(args.out, "equilibrium_report.json"), "equilibrium", cfg_hash, doc)
    return 0


def _cmd_figure_data(args, cfg_hash):
    spec = _load_spec(args.spec)
    n = args.n or (40 if spec.class_tag == "single-interval" else 20)
    prec = args.precision_bits or max(2048, 64 * n + 512)

    # Pade denominator zeros (accumulate on the base interval system)
    n_pade = min(n, 30)
    sol2, _ = _solve_hp(spec, 2, n_pade, prec)
    zs2, _ = hp_mod.polyroots_and_measure(sol2.polys[1], tol=args.tol or 1e-10)
    _write_roots(os.path.join(args.out, "pade_zeros.csv"), "figure-data", cfg_hash, zs2)

    # Hermite-Pade zero clouds for the [1, f, f^2] system
    sol3, order3 = _solve_hp(spec, 3, n, prec)
    for j, poly in enumerate(sol3.polys):
        zs, _ = hp_mod.polyroots_and_measure(poly, tol=args.tol or 1e-10)
        _write_roots(os.path.join(args.out, f"hp_zeros_q{j}.csv"), "figure-data", cfg_hash, zs)

    doc = {"n": n, "pade_n": n_pade, "precision_bits": prec, "hp_order": order3}
    if spec.class_tag == "single-interval":
        _, comp = _solve_compact(spec, args.tol)
        _write_csv(
            os.path.join(args.out, "scurve_projection.csv"),
            "figure-data",
            cfg_hash,
            ("arc", "re_z", "im_z"),
            [
                (i, float(z.real), float(z.imag))
                for i, arc in enumerate(comp.arcs)
                for z in _projected(arc)
            ],
        )
        doc["compact_traced"] = True
    else:
        # the uniformizing chart of the two-interval class is not a single
        # inverse-Zhukovskii disk; only the zero clouds are emitted
        doc["compact_traced"] = False
    _write_json(os.path.join(args.out, "figure_data_report.json"), "figure-data", cfg_hash, doc)
    return 0


_COMMANDS = {
    "germ": _cmd_germ,
    "hp": _cmd_hp,
    "stahl": _cmd_stahl,
    "green": _cmd_green,
    "nuttall": _cmd_nuttall,
    "equilibrium": _cmd_equilibrium,
    "figure-data": _cmd_figure_data,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hplab", description="Hermite-Pade / extremal-compact laboratory"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="JSON spec document")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--n", type=int, default=None, help="degree / cell count")
        p.add_argument("--k", type=int, choices=(2, 3, 4), default=None,
                       help="family size for Hermite-Pade systems")
        p.add_argument("--precision-bits", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--grid", default=None, help="grid as COUNT[:BOX]")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command",) and v is not None
    }
    try:
        with open(args.spec, "rb") as fh:
            cfg["spec_sha256"] = hashlib.sha256(fh.read()).hexdigest()[:16]
    except OSError:
        pass
    cfg_hash = _config_hash(args.command, cfg)
    try:
        return _COMMANDS[args.command](args, cfg_hash)
    except SpecError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
