"""Seeded inputs, unit runners and output oracles for the three workloads.

Each workload turns (seed, index) into the input of one unit of work,
runs that unit through the public circle_cs API, and checks its output
with an oracle that never shares a code path with the routine under
test.  Inputs depend only on (seed, index), so one seed always yields
the same sequence of units.

The library is reached through module attributes at call time
(``cli.main``, ``hilbert.apply_operator``...), so the traced run can
swap those attributes for span-recording wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

# The default battery as it stands: check name and n_cases, in report order.
VERIFY_CASES = (
    ("theta3-inversion", 81),
    ("theta2-inversion", 81),
    ("theta2-half-period-shift", 200),
    ("theta3-general-inversion", 41),
    ("theta-evenness", 200),
    ("theta-logderiv-fd", 76),
    ("algebra-JU-commutator", 79),
    ("X-factorization", 79),
    ("XXdag-ratio", 77),
    ("deformed-algebra", 231),
    ("q-boson-relation", 77),
    ("time-reversal-conjugation", 77),
    ("U-unitarity-interior", 10),
    ("expectJ-lattice-exact", 9),
    ("expectJ-series-agreement", 50),
    ("expectJ-approx-residual", 202),
    ("expectJ-amplitude-window", 202),
    ("expectU-phase", 168),
    ("expectU-modulus-approx", 162),
    ("expectU-series-agreement", 40),
    ("relative-expectU-modulus", 6),
    ("uncertainty-equality", 50),
    ("uncertainty-basis-gap", 77),
    ("momentgen-s-minus-2", 82),
    ("momentgen-ratio", 882),
    ("energy-distribution-gaussian", 525),
    ("energy-distribution-normalization", 21),
    ("linear-evolution-stability", 20),
    ("free-evolution-X", 18),
    ("heisenberg-approx-U", 882),
    ("heisenberg-approx-X", 882),
    ("heisenberg-relative-phase", 882),
    ("coherent-eigenstate-residual", 6),
    ("time-reversal-coherent", 20),
    ("freerotor-conservation", 10),
    ("quadrature-orthonormality", 85),
    ("bargmann-eval-vs-inner", 20),
    ("bargmann-intertwining", 60),
    ("bargmann-functional-actions", 100),
    ("kernel-identity-fixed", 2),
    ("kernel-identity-random", 20),
    ("kernel-reproducing", 26),
    ("kernel-cross-sector", 22),
    ("kernel-idempotency", 5120),
    ("kernel-parity-projection", 2560),
    ("kernel-symmetry", 20),
    ("covariant-symbol", 5),
    ("quadrature-refinement", 4),
)

# The four documented approximation gaps: the only checks allowed to fail.
VERIFY_GAPS = frozenset(
    {
        "expectJ-approx-residual",
        "heisenberg-approx-U",
        "heisenberg-approx-X",
        "heisenberg-relative-phase",
    }
)

# The point count of the one scan command the README documents
# (`circle-cs scan --obs J --l-min 0 --l-max 1 --n 101`).
SCAN_POINTS = 101
# Every block of eight scan commands holds each (obs, sector, width)
# combination once, so the mix is the same for every seed.  No record of
# real scan traffic exists; narrow and wide ranges get equal counts so
# that item-5-style gains (wide ranges only) and item-4-style gains (all
# ranges) both move units_per_s by a visible share.  The measuring run
# reports the share of scan time spent in wide commands.
SCAN_MIX = tuple(
    (obs, sector, width)
    for obs in ("J", "U")
    for sector in ("boson", "fermion")
    for width in ("narrow", "wide")
)
# Window half-width of the oracle's direct series; terms beyond it are
# below exp(-30^2).
_SERIES_HALF_WIDTH = 30
_J_AMPLITUDE = 2.0 * math.pi * math.exp(-math.pi * math.pi)
_U_FLAT = math.exp(-0.25)

STATE_KINDS = ("J", "U", "Udag", "X", "Xdag", "N")
# A single pipeline takes about 0.3 ms on an idle core and twice that
# while the core is shared, and the machine switches between the two
# every few milliseconds.  The median of single pipelines jumped between
# those two modes from run to run; a batch of 16 averages over them.
STATES_PER_UNIT = 16
_EPS = float(np.finfo(float).eps)


def unit_rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, index, stream])


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """cli.main(argv) with stdout captured; returns (exit code, stdout)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


# --------------------------------------------------------------------------
# verify


class Verify:
    """One unit is the full default battery through ``circle-cs verify``.

    The default battery has no free inputs, so the seed does not change
    them; the oracle pins the check table and requires every report of
    a run to equal the first byte for byte.
    """

    def __init__(self, seed: int, outdir: str):
        from circle_cs import cli

        self.cli = cli
        self.report_path = os.path.join(outdir, "verify-report.json")
        self.first_report: str | None = None

    def make_input(self, index: int) -> list[str]:
        # a battery that does not write --out must fail its check, not
        # pass against the report an earlier battery left behind
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.report_path)
        return ["verify", "--out", self.report_path]

    def run(self, argv: list[str]) -> tuple[int, str]:
        return run_cli(self.cli, argv)

    def check(self, argv: list[str], output: tuple[int, str]) -> list[str]:
        code, stdout = output
        with open(argv[-1], "r", encoding="utf-8") as handle:
            written = handle.read()
        problems = check_verify_report(code, stdout, written)
        if self.first_report is None:
            self.first_report = stdout
        elif stdout != self.first_report:
            problems.append("report differs from the first report of the run")
        return problems


def check_verify_report(code: int, stdout: str, written: str) -> list[str]:
    """Problems with one verify report; an empty list means correct."""
    problems = []
    if code != 1:
        problems.append(f"exit code {code}, expected 1 (the documented gaps fail)")
    if written != stdout:
        problems.append("--out file differs from stdout")
    try:
        checks = json.loads(stdout)["checks"]
        table = tuple((c["name"], c["n_cases"]) for c in checks)
        failing = {c["name"] for c in checks if not c["passed"]}
        verdicts_ok = all(
            c["passed"] == (c["max_abs_error"] <= c["tolerance"]) for c in checks
        )
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"report is not a verify report: {exc!r}"]
    if table != VERIFY_CASES:
        problems.append("check names or n_cases differ from the default battery")
    if failing != VERIFY_GAPS:
        problems.append(f"failing set {sorted(failing)} is not the documented gaps")
    if not verdicts_ok:
        problems.append("a verdict disagrees with max_abs_error <= tolerance")
    return problems


# --------------------------------------------------------------------------
# scan


class Scan:
    """One unit is one ``circle-cs scan`` command of SCAN_POINTS points."""

    def __init__(self, seed: int, outdir: str):
        from circle_cs import cli

        self.cli = cli
        self.seed = seed

    def make_input(self, index: int) -> list[str]:
        return scan_argv(self.seed, index)

    def run(self, argv: list[str]) -> tuple[int, str]:
        return run_cli(self.cli, argv)

    def check(self, argv: list[str], output: tuple[int, str]) -> list[str]:
        return check_scan_csv(argv, *output)

    def label(self, argv: list[str]) -> str:
        """Return "narrow" or "wide": narrow ranges span at most 1, wide ones at least 10."""
        args = scan_options(argv)
        return "wide" if float(args["--l-max"]) - float(args["--l-min"]) > 4.0 else "narrow"


def scan_argv(seed: int, index: int) -> list[str]:
    order = unit_rng(seed, index // len(SCAN_MIX), stream=1).permutation(len(SCAN_MIX))
    obs, sector, width = SCAN_MIX[order[index % len(SCAN_MIX)]]
    rng = unit_rng(seed, index)
    if width == "narrow":
        centre = rng.uniform(-1.5, 1.5)
        half = rng.uniform(0.05, 0.5)
        lo, hi = centre - half, centre + half
    else:
        lo, hi = rng.uniform(-20.0, -5.0), rng.uniform(5.0, 20.0)
    # "--l-min=VALUE": argparse takes a separate "-1e-05" for an option
    return [
        "scan", "--obs", obs, f"--l-min={float(lo)!r}", f"--l-max={float(hi)!r}",
        "--n", str(SCAN_POINTS), "--sector", sector, "--out", "-",
    ]


def scan_options(argv: list[str]) -> dict[str, str]:
    """{"--name": value} for the options of a scan command line."""
    options, tokens = {}, iter(argv[1:])
    for token in tokens:
        name, equals, value = token.partition("=")
        options[name] = value if equals else next(tokens)
    return options


def _lattice_weights(l: np.ndarray, half: bool) -> tuple[np.ndarray, np.ndarray]:
    """Lattice points m near each l and weights e^(-(m-l)^2), shape (n, width).

    e^(2lm - m^2) = e^(l^2) e^(-(m-l)^2); the common factor e^(l^2)
    cancels from every ratio the oracle forms.
    """
    offsets = np.arange(-_SERIES_HALF_WIDTH, _SERIES_HALF_WIDTH + 1)
    m = np.round(l)[:, None] + offsets[None, :] + (0.5 if half else 0.0)
    return m, np.exp(-((m - l[:, None]) ** 2))


def scan_reference(obs: str, sector: str, l: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(exact, approx, deviation) columns from direct windowed series in numpy.

    <J> = sum j |c_j|^2 / sum |c_j|^2 and
    |<U>| = e^(-1/4) sum_{opposite lattice} e^(2lm - m^2) / sum e^(2lj - j^2)
    are summed term by term over the coherent-state coefficients, never
    through circle_cs.theta.
    """
    half = sector == "fermion"
    m, w = _lattice_weights(l, half)
    if obs == "J":
        shift = np.sum((m - l[:, None]) * w, axis=1) / np.sum(w, axis=1)
        sign = -1.0 if sector == "boson" else 1.0
        return l + shift, l + sign * _J_AMPLITUDE * np.sin(2.0 * math.pi * l), np.abs(shift)
    _, w_opp = _lattice_weights(l, not half)
    exact = _U_FLAT * np.sum(w_opp, axis=1) / np.sum(w, axis=1)
    return exact, np.full_like(l, _U_FLAT), np.abs(exact - _U_FLAT)


def matches_printed(text: str, reference: float, floor: float) -> bool:
    """True when `text` is `reference` rounded to 9 significant digits.

    A value printed with %.9g lies within half a unit of its ninth digit
    of the value it rounds; `floor` is an absolute slack for the rounding
    error between that value and the reference.
    """
    value = float(text)
    if reference == 0.0:
        return abs(value) <= floor
    unit = 10.0 ** (math.floor(math.log10(abs(reference))) - 8)
    return abs(value - reference) <= 0.5 * unit + floor


def check_scan_csv(argv: list[str], code: int, text: str) -> list[str]:
    """Problems with one scan CSV; an empty list means correct."""
    args = scan_options(argv)
    obs, sector, n = args["--obs"], args["--sector"], int(args["--n"])
    if code != 0:
        return [f"exit code {code}"]
    lines = text.splitlines()
    if not lines or lines[0] != "l,exact,approx,deviation" or len(lines) != n + 1:
        return [f"expected a header and {n} rows, got {len(lines)} lines"]
    l = np.linspace(float(args["--l-min"]), float(args["--l-max"]), n)
    exact, approx, deviation = scan_reference(obs, sector, l)
    problems = []
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        floor = 1e-13 * (1.0 + abs(l[i]))
        if len(fields) != 4 or fields[0] != f"{l[i]:.9g}":
            problems.append(f"row {i}: malformed or wrong l: {line!r}")
        elif not matches_printed(fields[1], exact[i], floor):
            problems.append(f"row {i}: exact {fields[1]} vs reference {exact[i]!r}")
        elif not matches_printed(fields[2], approx[i], floor):
            problems.append(f"row {i}: approx {fields[2]} vs reference {approx[i]!r}")
        elif not matches_printed(fields[3], deviation[i], floor):
            problems.append(f"row {i}: deviation {fields[3]} vs reference {deviation[i]!r}")
    return problems


# --------------------------------------------------------------------------
# states


class States:
    """One unit is a batch of STATES_PER_UNIT coherent-state pipelines."""

    def __init__(self, seed: int, outdir: str):
        from circle_cs import coherent, hilbert

        self.coherent = coherent
        self.hilbert = hilbert
        self.seed = seed

    def make_input(self, index: int) -> list[dict]:
        first = index * STATES_PER_UNIT
        return [states_input(self.seed, i) for i in range(first, first + STATES_PER_UNIT)]

    def run(self, specs: list[dict]) -> list[dict]:
        return [self.pipeline(spec) for spec in specs]

    def check(self, specs: list[dict], outs: list[dict]) -> list[str]:
        return [f"pipeline {k}: {p}" for k, out in enumerate(outs) for p in check_states(out)]

    def pipeline(self, spec: dict) -> dict:
        co, hi = self.coherent, self.hilbert
        p = co.PhasePoint(spec["l"], spec["phi"])
        sector = hi.Sector(spec["sector"])
        trunc = hi.Truncation(co.required_two_jmax(spec["l"]))
        psi = co.coherent_state(p, sector, trunc)
        x_psi = hi.apply_operator("X", psi)
        state = psi
        for kind in spec["kinds"]:
            state = hi.apply_operator(kind, state)
        state = hi.apply_exp_j(state, spec["eta"])
        omega = spec["omega"]
        hamiltonian = co.FreeRotor() if omega is None else co.Linear(omega)
        evolved = co.evolve(state, hamiltonian, spec["t"])
        final = hi.apply_time_reversal(evolved)
        overlaps = (hi.inner(psi, final), hi.inner(final, final), hi.inner(psi, x_psi))
        text = hi.state_to_json(final)
        return {
            "xi": p.xi,
            "psi": psi.coeffs,
            "x_psi": x_psi.coeffs,
            "before": state,
            "evolved": evolved,
            "final": final,
            "overlaps": overlaps,
            "text": text,
            "back": hi.state_from_json(text),
        }


def states_input(seed: int, index: int) -> dict:
    rng = unit_rng(seed, index)
    return {
        "l": float(rng.uniform(-3.0, 3.0)),
        "phi": float(rng.uniform(0.0, 2.0 * math.pi)),
        "sector": ("boson", "fermion")[int(rng.integers(2))],
        "kinds": [STATE_KINDS[int(k)] for k in rng.integers(len(STATE_KINDS), size=4)],
        "eta": complex(rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0)),
        "omega": None if rng.random() < 0.5 else float(rng.uniform(-2.0, 2.0)),
        "t": float(rng.uniform(-5.0, 5.0)),
    }


def check_states(out: dict) -> list[str]:
    """Problems with one pipeline's outputs; an empty list means correct."""
    problems = []
    psi, x_psi = out["psi"], out["x_psi"]
    residual = np.max(np.abs(x_psi[1:-1] - out["xi"] * psi[1:-1])) / np.max(np.abs(psi))
    if not residual <= 1e-12:
        problems.append(f"X eigen-residual {residual:.3g} on the window interior")
    before, evolved = out["before"], out["evolved"]
    moduli = np.abs(before.coeffs)
    # a unit-modulus phase may move |c_j| by rounding only
    if not np.all(np.abs(np.abs(evolved.coeffs) - moduli) <= 8.0 * _EPS * moduli):
        problems.append("evolve changed some |c_j|")
    if evolved.leakage != before.leakage:
        problems.append("evolve changed the leakage")
    final, back = out["final"], out["back"]
    if (
        back.sector is not final.sector
        or back.trunc != final.trunc
        or back.coeffs.tobytes() != final.coeffs.tobytes()
        or repr(back.leakage) != repr(final.leakage)
    ):
        problems.append("JSON round trip is not bit-exact")
    if not all(np.isfinite(complex(v)) for v in out["overlaps"]):
        problems.append("non-finite inner product")
    return problems


def make(name: str, seed: int, outdir: str):
    return {"verify": Verify, "scan": Scan, "states": States}[name](seed, outdir)
