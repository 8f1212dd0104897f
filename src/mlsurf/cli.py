"""Command-line interface: mlsurf <verify|sample|curve-info|theta> [flags]."""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

import numpy as np

from .report import GridSpec, curve_info_text, sample_rows, verify, write_csv
from .spectral_curve import derive_constants
from .surface_families import Family, cone_family, spectral_family
from .theta import (LatticeTruncation, parse_complex, quasi_periodicity_defect,
                    read_period_matrix, riemann_theta)


def _parse_grid(text: str) -> GridSpec:
    try:
        nx, ny = text.lower().split("x")
        return GridSpec(nx=int(nx), ny=int(ny))
    except (ValueError, TypeError):
        raise argparse.ArgumentTypeError(f"grid must look like 64x64, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlsurf",
        description="Construct minimal Lagrangian surfaces in CP^2 from spectral "
                    "data and verify the geometric identities on a grid.")
    subs = parser.add_subparsers(dest="command", required=True)
    # flags shared between subcommands, each declared once in a parent parser
    family, spectral, spectral_family = (argparse.ArgumentParser(add_help=False)
                                         for _ in range(3))
    family.add_argument("--family", choices=["spectral", "cone"], required=True)
    spectral_family.add_argument("--family", choices=["spectral"], default="spectral")
    spectral.add_argument("--a", type=float)
    spectral.add_argument("--b", type=float)
    spectral.add_argument("--q1", type=float)
    spectral.add_argument("--gamma-im", type=float, dest="gamma_im")
    spectral.add_argument("--scenario", help="key = value file with a, b, q1, gamma_im")
    surface = argparse.ArgumentParser(add_help=False, parents=[family, spectral])
    surface.add_argument("--m", type=int)
    surface.add_argument("--n", type=int)
    surface.add_argument("--grid", type=_parse_grid, default=GridSpec(64, 64))
    surface.add_argument("--h", type=float, default=1e-4, help="finite-difference step")
    surface.add_argument("--tol-profile", choices=["strict", "fd"], default="strict",
                         dest="tol_profile")

    verify = subs.add_parser("verify", help="run the verification suite", parents=[surface])
    verify.add_argument("--json-out", dest="json_out", help="write machine-readable report")
    sample = subs.add_parser("sample", help="sample the surface to CSV", parents=[surface])
    sample.add_argument("--out", required=True, help="CSV output path")
    subs.add_parser("curve-info", help="dump derived curve constants",
                    parents=[spectral_family, spectral])

    theta = subs.add_parser("theta", help="evaluate the Riemann theta function")
    theta.add_argument("--period-file", required=True, dest="period_file",
                       help="text file: genus line, then g rows of g complex entries")
    theta.add_argument("--z", required=True,
                       help="comma-separated complex entries, e.g. 0.1+0.2j,0.3j")
    theta.add_argument("--radius", type=int, help="lattice truncation |m|_inf <= R")
    theta.add_argument("--shift-m", dest="shift_m",
                       help="integer vector: also print the quasi-periodicity defect")
    return parser


def _read_scenario(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            ln = raw.split("#")[0].strip()
            if not ln:
                continue
            if "=" not in ln:
                raise ValueError(f"{path}: expected 'key = value', got {ln!r}")
            key, _, val = (s.strip() for s in ln.partition("="))
            try:
                out[key] = float(val)
            except ValueError:
                raise ValueError(f"{path}: {key} = {val!r} is not a number") from None
    return out


def _spectral_curve_from_args(args):
    params = {"a": args.a, "b": args.b, "q1": args.q1, "gamma_im": args.gamma_im}
    if args.scenario:
        scen = _read_scenario(args.scenario)
        unknown = set(scen) - {"a", "b", "q1", "gamma_im"}
        if unknown:
            raise ValueError(f"scenario has unknown keys: {sorted(unknown)}")
        for key, val in scen.items():
            if params[key] is None:
                params[key] = val
    missing = [k for k, v in params.items() if v is None]
    if missing:
        raise ValueError(f"missing spectral parameters: {', '.join(missing)}")
    return derive_constants(params["a"], params["b"], params["q1"], params["gamma_im"])


def _family_from_args(args) -> Family:
    if args.family == "spectral":
        return spectral_family(_spectral_curve_from_args(args))
    if args.m is None or args.n is None:
        raise ValueError("cone family needs --m and --n")
    return cone_family(args.m, args.n)


def _step(h: float) -> float:
    # above 1e-2, h^2 pi^2 / 6 >> TOL_FRAME; from 1e5 the frame checks compare 0 with 0
    if not (math.isfinite(h) and 0 < h <= 1e-2):
        raise ValueError(f"--h must be finite, positive and at most 0.01, got {h}")
    return h


def _cmd_verify(args) -> int:
    family, h = _family_from_args(args), _step(args.h)
    # opened before the sweep, as sample opens its CSV: a bad path prints no report
    with open(args.json_out, "w") if args.json_out else contextlib.nullcontext() as fh:
        report = verify(family, args.grid, h, args.tol_profile)
        print(report.format_text())
        if fh:
            report.write_json(fh)
    return 0 if report.overall else 1


def _cmd_sample(args) -> int:
    rows = sample_rows(_family_from_args(args), args.grid, _step(args.h), args.tol_profile)
    try:
        write_csv(args.out, rows)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc}") from None
    return 0


def _cmd_curve_info(args) -> int:
    curve = _spectral_curve_from_args(args)
    print(curve_info_text(curve))
    return 0


def _parse_complex_vector(text: str) -> np.ndarray:
    return np.array([parse_complex(tok, "--z") for tok in text.split(",") if tok.strip()])


def _parse_shift(text: str, genus: int) -> np.ndarray:
    try:
        m = np.array([int(tok) for tok in text.split(",") if tok.strip()], dtype=np.int64)
        if m.shape == (genus,):
            return m
    except (ValueError, OverflowError):
        pass
    raise ValueError(f"--shift-m must be {genus} comma-separated integers, got {text!r}")


def _cmd_theta(args) -> int:
    B = read_period_matrix(args.period_file)
    z = _parse_complex_vector(args.z)
    m = _parse_shift(args.shift_m, B.genus) if args.shift_m else None
    trunc = LatticeTruncation(args.radius) if args.radius is not None else None
    val = riemann_theta(z, B, trunc)
    print(f"theta = {val.real:.17g}{val.imag:+.17g}j")
    if m is not None:
        defect = quasi_periodicity_defect(z, m, B, trunc, val)
        print(f"quasi_periodicity_defect = {defect:.17g}")
    return 0


def _join_dash_values(argv: list) -> list:
    """`--flag -0.3+0.1j` as `--flag=-0.3+0.1j`.  argparse takes a token that
    starts with "-" for a flag unless it is a plain negative number, so exponent
    and complex forms would be refused; every mlsurf option but -h takes a value."""
    out = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1] and out[-1] != "--help"
                and tok.startswith("-") and not tok.startswith("--") and tok != "-h"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse already printed the diagnostic
        return exc.code if isinstance(exc.code, int) else 2
    commands = {"verify": _cmd_verify, "sample": _cmd_sample,
                "curve-info": _cmd_curve_info, "theta": _cmd_theta}
    try:
        return commands[args.command](args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
