"""Command-line interface: mlsurf <verify|sample|theta> [flags]."""

import argparse
import sys

import numpy as np

from .report import GridSpec, sample_rows, verify, write_csv
from .spectral_curve import derive_constants
from .surface_families import Family, cone_family, spectral_family
from .theta import parse_complex, quasi_periodicity_defect, read_period_matrix, riemann_theta


def _parse_grid(text: str) -> GridSpec:
    try:
        nx, ny = map(int, text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like 64x64, got {text!r}") from None
    try:
        return GridSpec(nx=nx, ny=ny)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None


def _family_from_args(args) -> Family:
    for key in ("m", "n") if args.family == "spectral" else ("a", "b", "q1", "gamma_im"):
        if getattr(args, key) is not None:
            raise ValueError(f"--{key.replace('_', '-')} does not apply to --family {args.family}")
    if args.family == "cone":
        if args.m is None or args.n is None:
            raise ValueError("cone family needs --m and --n")
        return cone_family(args.m, args.n)
    params = {"a": args.a, "b": args.b, "q1": args.q1, "gamma_im": args.gamma_im}
    missing = [k for k, v in params.items() if v is None]
    if missing:
        raise ValueError(f"missing spectral parameters: {', '.join(missing)}")
    return spectral_family(derive_constants(*params.values()))


def _cmd_verify(args) -> int:
    report = verify(_family_from_args(args), args.grid)
    # opened once the sweep has run, so a refused sweep leaves the path as it was,
    # and before the report prints, so a bad path prints no report
    if args.json_out is not None:
        try:
            with open(args.json_out, "w") as fh:
                report.write_json(fh)
        except OSError as exc:
            raise ValueError(f"cannot write {args.json_out}: {exc}") from None
    print(report.format_text())
    return 0 if report.overall else 1


def _cmd_sample(args) -> int:
    rows = sample_rows(_family_from_args(args), args.grid)
    try:
        write_csv(args.out, rows)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc}") from None
    return 0


def _parse_complex_vector(text: str, genus: int) -> np.ndarray:
    z = np.array([parse_complex(tok, "--z") for tok in text.split(",") if tok.strip()])
    if z.shape != (genus,):
        raise ValueError(f"--z must be {genus} comma-separated complex numbers, got {text!r}")
    if not np.isfinite(z).all():
        raise ValueError(f"--z entries must be finite, got {text!r}")
    return z


def _parse_shift(text: str, genus: int) -> np.ndarray:
    try:
        m = np.array([int(tok) for tok in text.split(",") if tok.strip()], dtype=np.int64)
        if m.shape == (genus,):
            return m
    except ValueError:
        pass
    except OverflowError:
        raise ValueError(f"--shift-m entries must be signed 64-bit integers, got {text!r}")
    raise ValueError(f"--shift-m must be {genus} comma-separated integers, got {text!r}")


def _cmd_theta(args) -> int:
    B = read_period_matrix(args.period_file)
    m = _parse_shift(args.shift_m, B.genus) if args.shift_m is not None else None
    z = _parse_complex_vector(args.z, B.genus)
    val = riemann_theta(z, B)
    print(f"theta = {val.real:.17g}{val.imag:+.17g}j")
    if m is not None:
        defect = quasi_periodicity_defect(z, m, B, theta_z=val)
        print(f"quasi_periodicity_defect = {defect:.17g}")
    return 0


_FLOAT = dict(type=float)
_SURFACE = [("--family", dict(choices=["spectral", "cone"], required=True)),
            ("--a", _FLOAT), ("--b", _FLOAT), ("--q1", _FLOAT), ("--gamma-im", _FLOAT),
            ("--m", dict(type=int)), ("--n", dict(type=int)),
            ("--grid", dict(type=_parse_grid, default="64x64"))]
# name: (help, the command's flags in help order, its handler)
COMMANDS = {
    "verify": ("run the verification suite", [   # --tol-profile: for argv naming it
        *_SURFACE, ("--tol-profile", dict(choices=["strict"], default="strict")),
        ("--json-out", dict(help="write machine-readable report"))], _cmd_verify),
    "sample": ("sample the surface to CSV", [
        *_SURFACE, ("--out", dict(required=True, help="CSV output path"))], _cmd_sample),
    "theta": ("evaluate the Riemann theta function", [
        ("--period-file", dict(
            required=True, help="text file: genus line, then g rows of g complex entries")),
        ("--z", dict(required=True, help="comma-separated complex entries, e.g. 0.1+0.2j,0.3j")),
        ("--shift-m", dict(help="integer vector: also print the quasi-periodicity defect"))],
        _cmd_theta),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of `command` alone, or with no command the root parser of their names."""
    if command:
        parser = argparse.ArgumentParser(prog=f"mlsurf {command}", allow_abbrev=False)
        for flag, kwargs in COMMANDS[command][1]:
            parser.add_argument(flag, **kwargs)
        return parser
    parser = argparse.ArgumentParser(
        prog="mlsurf", allow_abbrev=False,
        description="Construct minimal Lagrangian surfaces in CP^2 from spectral "
                    "data and verify the geometric identities on a grid.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        subs.add_parser(name, help=help_text, add_help=False)
    return parser


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
    argv = _join_dash_values(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv[1:] if command else argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return COMMANDS[command][2](args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
