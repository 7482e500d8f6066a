"""Command line interface.

Subcommands:
    theta         evaluate one lattice theta function at a point
    expect        expectation values in a coherent state (JSON line)
    scan          CSV scan of an expectation value over a range of l
    evolve        evolve a coherent state and report invariants
    distribution  energy distribution table for a coherent state
    verify        run the full identity check suite (JSON report)

Exit codes: 0 success, 1 verify ran but at least one check failed,
2 bad arguments / domain / config errors, 3 I/O errors.

All numeric output is rounded to a fixed number of significant digits
(--digits, default 9) so repeated runs are byte identical.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .coherent import (
    FreeRotor,
    Linear,
    PhasePoint,
    approx_expect_J,
    coherent_state,
    energy_distribution,
    evolve,
    expect_J,
    expect_U,
    gaussian_energy_profile,
    relative_expect_U,
    uncertainty_QP,
)
from .errors import CircleError, ConfigError
from .hilbert import Sector, Truncation, apply_operator, state_to_json
from .theta import ThetaArg, _integer, _number, theta

__all__ = ["main"]

CONFIG_ENV = "CIRCLE_CS_CONFIG"
MAX_DIGITS = 17
# Largest scan --n.  A scan holds its table as arrays, Python floats and
# text at once, about 300 bytes a point: some 0.3 GB at this cap.
MAX_SCAN_POINTS = 1_000_000


def _fmt(x: float, digits: int) -> str:
    return f"{x:.{digits}g}"


def _sig(x: float, digits: int) -> float:
    return float(f"{x:.{digits}g}")


def _print_complex(value: complex, digits: int) -> None:
    if value.imag == 0.0:
        print(_fmt(value.real, digits))
    else:
        sign = "+" if value.imag >= 0 else "-"
        print(f"{_fmt(value.real, digits)}{sign}{_fmt(abs(value.imag), digits)}j")


def _csv(header: str, columns, digits: int) -> str:
    """The header, then one line per row of the columns: equal-length arrays, or floats.

    One % formats the whole table: the row template, one %.Ng per
    array column, repeated once per row and applied to the values
    flattened row by row.  A float column is one value for every row,
    formatted once into the template (the text of a double holds no %).
    %.Ng and format(x, ".Ng") give the same string for every double.
    The header holds no %.
    """
    spec = f"%.{digits}g"
    arrays = [column for column in columns if not isinstance(column, float)]
    values = tuple(np.column_stack(arrays).ravel().tolist())
    row = ",".join(spec % column if isinstance(column, float) else spec for column in columns)
    return "\n".join([header, *[row] * len(arrays[0])]) % values + "\n"


def _json_line(payload: dict, digits: int) -> str:
    rounded = {
        key: _sig(val, digits) if isinstance(val, float) else val
        for key, val in payload.items()
    }
    return json.dumps(rounded, sort_keys=True)


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {path}")


# --------------------------------------------------------------------------


def _cmd_theta(args: argparse.Namespace) -> int:
    arg = ThetaArg(complex(args.v, args.v_im), complex(0.0, args.tau_im))
    value = theta(args.kind, arg)
    _print_complex(value, args.digits)
    return 0


def _cmd_expect(args: argparse.Namespace) -> int:
    sector = Sector.from_name(args.sector)
    p = PhasePoint(args.l, args.phi)
    payload: dict = {"l": args.l, "obs": args.obs, "phi": args.phi, "sector": args.sector}
    if args.obs == "J":
        exact = expect_J(p, sector)
        payload.update(
            approx=approx_expect_J(args.l, sector),
            deviation=abs(exact - args.l),
            exact=exact,
        )
    elif args.obs == "U":
        value = expect_U(p, sector)
        payload.update(abs=abs(value), arg=cmath.phase(value), im=value.imag, re=value.real)
    elif args.obs == "relU":
        value = relative_expect_U(p, PhasePoint(args.ref_l, args.ref_phi), sector)
        payload.update(abs=abs(value), arg=cmath.phase(value), im=value.imag, re=value.real)
        payload.update(ref_l=args.ref_l, ref_phi=args.ref_phi)
    else:  # QP
        result = uncertainty_QP(p, sector)
        product = result["dQ"] * result["dP"]
        # relative, as both are of size e^(-2l); absolute where they are subnormal
        tiny = sys.float_info.min
        saturated = math.isclose(product, result["bound"], rel_tol=1e-12, abs_tol=tiny)
        payload.update(result, product=product, saturated=saturated)
    print(_json_line(payload, args.digits))
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    _integer(args.n, 2, MAX_SCAN_POINTS, "--n must lie in {low}..{high}, got {value!r}")
    message = "--l-min and --l-max must be finite"
    _number(args.l_min, float, message, arrays=False)
    _number(args.l_max, float, message, arrays=False)
    if not args.l_max > args.l_min:
        raise ConfigError("--l-max must exceed --l-min")
    if not math.isfinite(args.l_max - args.l_min):
        raise ConfigError("--l-max - --l-min overflows the floating-point range")
    sector = Sector.from_name(args.sector)
    l = np.linspace(args.l_min, args.l_max, args.n)
    p = PhasePoint(l, 0.0)
    if args.obs == "J":
        exact = expect_J(p, sector)
        approx = approx_expect_J(l, sector)
        deviation = np.abs(exact - l)
    else:  # U
        exact = np.abs(expect_U(p, sector))
        approx = math.exp(-0.25)  # one value, formatted once
        deviation = np.abs(exact - approx)
    columns = (l, exact, approx, deviation)
    _write_text(args.out, _csv("l,exact,approx,deviation", columns, args.digits))
    return 0


def _mean_j(state) -> tuple[float, float]:
    """(<J>, <state|state>) over the window."""
    weights = np.abs(state.coeffs) ** 2
    norm_sq = float(np.sum(weights))
    return float(np.sum(state.j_values() * weights) / norm_sq), norm_sq


def _cmd_evolve(args: argparse.Namespace) -> int:
    sector = Sector.from_name(args.sector)
    trunc = Truncation(args.two_jmax)
    p = PhasePoint(args.l, args.phi)
    state = coherent_state(p, sector, trunc)
    hamiltonian = FreeRotor() if args.hamiltonian == "free" else Linear(args.omega)
    evolved = evolve(state, hamiltonian, args.t)
    j_after, norm_sq = _mean_j(evolved)
    u_after = complex(np.vdot(evolved.coeffs, apply_operator("U", evolved).coeffs) / norm_sq)
    if args.hamiltonian == "linear":
        target = coherent_state(PhasePoint(args.l, args.phi + args.omega * args.t), sector, trunc)
        residual = float(np.max(np.abs(evolved.coeffs - target.coeffs)))
    else:
        residual = abs(j_after - _mean_j(state)[0])
    payload = {
        "expect_J": j_after,
        "expect_U_im": u_after.imag,
        "expect_U_re": u_after.real,
        "hamiltonian": args.hamiltonian,
        "l": args.l,
        "leakage": evolved.leakage,
        "norm": evolved.norm(),
        "phi": args.phi,
        "residual": residual,
        "sector": args.sector,
        "t": args.t,
        "two_jmax": args.two_jmax,
    }
    if args.hamiltonian == "linear":
        payload["omega"] = args.omega
    print(_json_line(payload, args.digits))
    if args.out == "-":  # after the summary line, as the second line of stdout
        sys.stdout.write(state_to_json(evolved) + "\n")
    elif args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(state_to_json(evolved) + "\n")
    return 0


def _cmd_distribution(args: argparse.Namespace) -> int:
    sector = Sector.from_name(args.sector)
    p = PhasePoint(args.l, 0.0)
    dist = energy_distribution(p, sector, jmax=args.jmax)
    j, prob = dist.T
    approx = gaussian_energy_profile(j, args.l)
    deviation = np.abs(prob - approx)
    columns = (j, prob, approx, deviation)
    _write_text(args.out, _csv("j,prob,approx,deviation", columns, args.digits))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import load_config, run_verify  # here, so no other command compiles the battery

    path = args.config or os.environ.get(CONFIG_ENV) or None
    config = load_config(path)
    report = run_verify(config)
    text = report.to_json()
    sys.stdout.write(text)
    if args.out not in (None, "-"):  # - is stdout, which has the report already
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0 if report.all_passed else 1


# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads -1e-05 as a number, not as an option.

    argparse only recognizes plain negative decimals such as -1 or -0.5
    as values; an exponent makes it take the token for an unknown flag.
    Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="circle-cs",
        description="Coherent states on the circle: evaluation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subparser, for main's dispatch

    def add_digits(sp):
        sp.add_argument(
            "--digits", type=int, default=9, help=f"significant digits in output (1..{MAX_DIGITS})"
        )

    sp = sub.add_parser("theta", help="evaluate a lattice theta function")
    sp.add_argument("--kind", type=int, choices=(2, 3, 4), required=True)
    sp.add_argument("--v", type=float, default=0.0, help="real part of the argument")
    sp.add_argument("--v-im", type=float, default=0.0, help="imaginary part of the argument")
    sp.add_argument("--tau-im", type=float, default=math.pi, help="Im(tau), must be positive")
    add_digits(sp)
    sp.set_defaults(func=_cmd_theta)

    sp = sub.add_parser("expect", help="coherent state expectation values")
    sp.add_argument("--l", type=float, required=True)
    sp.add_argument("--phi", type=float, default=0.0)
    sp.add_argument("--sector", choices=("boson", "fermion"), default="boson")
    sp.add_argument("--obs", choices=("J", "U", "relU", "QP"), required=True)
    sp.add_argument("--ref-l", type=float, default=0.0, help="reference point for relU")
    sp.add_argument("--ref-phi", type=float, default=0.0, help="reference point for relU")
    add_digits(sp)
    sp.set_defaults(func=_cmd_expect)

    sp = sub.add_parser("scan", help="CSV scan over a range of l at phi = 0")
    sp.add_argument("--obs", choices=("J", "U"), required=True)
    sp.add_argument("--l-min", type=float, required=True)
    sp.add_argument("--l-max", type=float, required=True)
    sp.add_argument("--n", type=int, required=True, help="number of grid points (>= 2)")
    sp.add_argument("--sector", choices=("boson", "fermion"), default="boson")
    sp.add_argument("--out", required=True, help="output path, or - for stdout")
    add_digits(sp)
    sp.set_defaults(func=_cmd_scan)

    sp = sub.add_parser("evolve", help="evolve a coherent state")
    sp.add_argument("--l", type=float, required=True)
    sp.add_argument("--phi", type=float, default=0.0)
    sp.add_argument("--sector", choices=("boson", "fermion"), default="boson")
    sp.add_argument("--hamiltonian", choices=("free", "linear"), default="free")
    sp.add_argument("--omega", type=float, default=1.0, help="frequency for --hamiltonian linear")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--two-jmax", type=int, default=40, help="window half-width in units of 1/2")
    sp.add_argument("--out", help="write the evolved state as JSON to this path, or - for stdout")
    add_digits(sp)
    sp.set_defaults(func=_cmd_evolve)

    sp = sub.add_parser("distribution", help="energy distribution of a coherent state")
    sp.add_argument("--l", type=float, required=True)
    sp.add_argument("--sector", choices=("boson", "fermion"), default="boson")
    sp.add_argument("--jmax", type=int, default=12)
    sp.add_argument("--out", default="-", help="output path, or - for stdout")
    add_digits(sp)
    sp.set_defaults(func=_cmd_distribution)

    sp = sub.add_parser("verify", help="run the identity check suite")
    sp.add_argument("--config", help=f"JSON config path (default: ${CONFIG_ENV} or built-ins)")
    sp.add_argument("--out", help="also write the report to this path")
    sp.set_defaults(func=_cmd_verify)

    return parser


# Built on the first main() call, then reused: parse_args keeps no state
# between calls and returns a fresh Namespace with the defaults filled in.
_shared_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one command line (sys.argv[1:] by default); returns the exit code.

    A command line that starts with a command's name is parsed by that
    command's subparser alone, in about half the time of the full
    parser, which would hand it the same arguments.  Extra arguments go
    to the full parser's error, as the full parser sends them, with the
    usage line of circle-cs.  Any other line (none, -h, an unknown
    command, an option first) goes through the full parser.  Either
    way a line gives the same output and exit code.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _shared_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        digits = getattr(args, "digits", None)
        if digits is not None and not 1 <= digits <= MAX_DIGITS:
            raise ConfigError(f"--digits must lie in 1..{MAX_DIGITS}, got {digits}")
        return args.func(args)
    except CircleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
