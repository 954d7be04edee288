"""Command-line surface of the workbench.

Subcommands: exset (build an exceptional set), constants (effective
constant profiles), nev (Nevanlinna functionals as CSV), morphism (the
plane-morphism toolkit), verify (run one scenario), suite (run a scenario
directory and summarize).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from .algebra import serialize
from .constants import MonomialFamily, full_profile
from .errors import WorkbenchError
from .exset import build_W, exceptional_set_to_doc
from .harness import (
    load_scenario,
    run_scenario,
    run_suite,
    shipped_scenario_dir,
    summary_table,
)
from .morphisms import (
    PowerMorphism,
    euler_identity_check,
    general_position_check,
    jacobian_det,
    pushforward_curve,
)
from .nevanlinna import (
    RadiusGrid,
    characteristic_T,
    counting_N,
    gcd_counting,
    mero_from_doc,
    proximity_m,
)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_mero(path: str):
    return mero_from_doc(serialize.read_doc(path, "class-function"))


def _cmd_exset(args) -> int:
    G = serialize.load_poly(args.poly)
    W = build_W(G, ell2=args.bound, eps=args.eps)
    doc = exceptional_set_to_doc(W)
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        _atomic_write(args.out, text)
        print(f"{len(W)} curves -> {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_constants(args) -> int:
    fam = None
    if args.family:
        doc = serialize.read_doc(args.family, "family")
        with serialize.refuse_malformed("family"):
            fam = MonomialFamily(tuple(tuple(v) for v in doc["vectors"]))
    prof = full_profile(args.eps, args.n, args.d, fam, args.c3)
    print(json.dumps(prof.as_dict(), indent=2))
    return 0


def _cmd_nev(args) -> int:
    f = _load_mero(args.fn)
    grid = RadiusGrid.log_spaced(*args.grid)
    fns = [f]
    other = _load_mero(args.other) if args.other else None
    if other is not None:
        fns.append(other)
    grid = grid.perturbed_for(fns)
    rows = ["r,value"]
    for r in grid.points:
        if args.functional == "T":
            v = characteristic_T(f, r)
        elif args.functional == "N":
            v = counting_N(f, "zero", r)
        elif args.functional == "N1":
            v = counting_N(f, "zero", r, trunc=1)
        elif args.functional == "m":
            v = proximity_m(f, r)
        else:  # Ngcd, the last of the parser's choices
            if other is None:
                raise WorkbenchError("Ngcd needs --other")
            v = gcd_counting(f, other, r)
        rows.append(f"{r!r},{v!r}")
    text = "\n".join(rows) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        print(text, end="")
    return 0


def _cmd_morphism(args) -> int:
    F1 = serialize.load_poly(args.f1)
    F2 = serialize.load_poly(args.f2)
    F3 = serialize.load_poly(args.f3)
    if args.op == "genpos":
        curves = [F1, F2, F3]
        if args.z:
            curves.append(serialize.load_poly(args.z))
        shared = general_position_check(curves)
        print("\n".join(f"curves {i}, {j}, {k} share a point" for i, j, k in shared)
              or "in general position")
        return 1 if shared else 0
    m = PowerMorphism.build(F1, F2, F3)
    if args.op == "jacobian":
        print("reduced:", jacobian_det(m, reduced=True))
        print("full:   ", jacobian_det(m, reduced=False))
        return 0
    if args.op == "euler":
        ok = euler_identity_check(m)
        print("euler identities:", "exact" if ok else "FAILED")
        return 0 if ok else 1
    # pushforward, the last of the parser's choices
    if not args.z:
        raise WorkbenchError("pushforward needs --z")
    A = pushforward_curve(m, serialize.load_poly(args.z))
    print(json.dumps(serialize.poly_to_doc(A), indent=2))
    return 0


def _cmd_verify(args) -> int:
    rep = run_scenario(load_scenario(args.scenario))
    text = "\n".join(rep.csv_rows()) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        print(text, end="")
    print(f"# verdict: {rep.verdict}", file=sys.stderr)
    for note in rep.notes:
        print(f"# note: {note}", file=sys.stderr)
    return 0 if rep.passed() else 1


def _cmd_suite(args) -> int:
    directory = Path(args.dir) if args.dir else shipped_scenario_dir()
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise WorkbenchError(f"no scenarios in {directory}")
    reports, ok = run_suite(paths)
    print(summary_table(reports))
    return 0 if ok else 1


def rational(text: str) -> Fraction:
    """A rational flag value such as 1/2."""
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(text) from exc


def radius_grid(text: str) -> tuple[float, float, int]:
    """A ``rmin,rmax,count`` flag value; the count must be an integer."""
    rmin, rmax, count = text.split(",")
    return float(rmin), float(rmax), int(count)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="workbench",
        description="exact-algebra and Nevanlinna-functional workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exset", help="build the exceptional curve set of a plane curve")
    p.add_argument("--poly", required=True, help="polynomial document (JSON)")
    p.add_argument("--bound", type=int, default=None, help="enumeration bound on |n1|+|n2|")
    p.add_argument("--eps", type=rational, default=None,
                   help="epsilon (derives the bound when given)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_exset)

    p = sub.add_parser("constants", help="exact effective constants")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", type=rational, required=True, help="rational, e.g. 1/2")
    p.add_argument("--family", default=None, help="monomial family JSON {vectors: [...]}")
    p.add_argument("--c3", type=rational, default="0", help="supplied constant (rational)")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("nev", help="evaluate a Nevanlinna functional on a grid")
    p.add_argument("--fn", required=True, help="function document (JSON)")
    p.add_argument("--grid", type=radius_grid, required=True, help="rmin,rmax,count")
    p.add_argument("--functional", required=True,
                   choices=["T", "N", "N1", "m", "Ngcd"])
    p.add_argument("--other", default=None, help="second function (for Ngcd)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_nev)

    p = sub.add_parser("morphism", help="plane power-morphism toolkit")
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    p.add_argument("--f3", required=True)
    p.add_argument("--op", required=True,
                   choices=["jacobian", "euler", "genpos", "pushforward"])
    p.add_argument("--z", default=None, help="curve to push forward / extra curve")
    p.set_defaults(func=_cmd_morphism)

    p = sub.add_parser("verify", help="run one scenario, emit CSV margins")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("suite", help="run a scenario directory and summarize")
    p.add_argument("--dir", default=None, help="defaults to the shipped scenarios")
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
