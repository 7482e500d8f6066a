"""The package namespace is the union of the five layers' __all__ lists,
and the one overflow limit, the one window cap, the one number gate and
the one series policy are each named in one layer; every module stays
below the parser's token step, every cache has a bound, and every
private module-level name is read somewhere."""

from __future__ import annotations

import ast
import importlib
import inspect
import io
import pathlib
import tokenize

import numpy as np
import pytest

import circle_cs

LAYERS = ("errors", "theta", "hilbert", "coherent", "bargmann")


def test_package_exports_each_layer_list_once():
    # import_module, because the package binds the name `theta` to the function
    layers = [importlib.import_module(f"circle_cs.{name}") for name in LAYERS]
    names = ["__version__"] + [name for layer in layers for name in layer.__all__]
    assert len(set(names)) == len(names)
    assert len(set(circle_cs.__all__)) == len(circle_cs.__all__)
    assert sorted(circle_cs.__all__) == sorted(names)
    for layer in layers:
        for name in layer.__all__:
            assert getattr(circle_cs, name) is getattr(layer, name), name
    assert circle_cs.theta is layers[1].theta


def test_the_public_surface_is_pinned():
    # a new public name is a reviewed edit of this list
    assert sorted(circle_cs.__all__) == [
        "CircleError",
        "ConfigError",
        "ConvergenceError",
        "DomainError",
        "FreeRotor",
        "J_DEVIATION_AMPLITUDE",
        "Linear",
        "N_CONST",
        "OPERATOR_KINDS",
        "ParityError",
        "PhasePoint",
        "Quadrature",
        "RangeOverflowError",
        "Sector",
        "SingularityError",
        "StateVector",
        "ThetaArg",
        "Truncation",
        "TruncationError",
        "WindowError",
        "__version__",
        "apply_exp_j",
        "apply_operator",
        "apply_time_reversal",
        "approx_expect_J",
        "basis_state",
        "coherent_state",
        "covariant_symbol",
        "energy_distribution",
        "evaluate",
        "evolve",
        "expect_J",
        "expect_U",
        "expect_expJ",
        "gaussian_energy_profile",
        "gaussian_lattice_sum",
        "heisenberg_approximation",
        "heisenberg_expectations",
        "inner",
        "inner_quadrature",
        "norm_sq",
        "operator_matrix",
        "overlap_closed",
        "relative_expect_U",
        "reproducing_apply",
        "required_two_jmax",
        "state_from_json",
        "state_to_json",
        "theta",
        "theta_log_derivative",
        "uncertainty_QP",
    ]


def test_quadrature_exposes_its_rule_alone():
    # node values are a private route of the verify battery
    public = sorted(name for name in dir(circle_cs.Quadrature) if not name.startswith("_"))
    assert public == ["n_l", "n_phi", "nodes"]


def test_no_library_layer_calls_an_fft():
    # every library quadrature sum is a^H G b over coefficients, with no node grid
    source = pathlib.Path(circle_cs.__file__).parent
    for layer in ("theta", "hilbert", "coherent", "bargmann"):
        tree = ast.parse((source / f"{layer}.py").read_text("utf-8"))
        # attributes (np.fft), imported modules and imported names
        names = [
            getattr(node, field) or ""
            for node in ast.walk(tree)
            for field in ("attr", "module", "name")
            if hasattr(node, field)
        ]
        assert not [name for name in names if "fft" in name], layer


# CPython 3.11's parser doubles its token buffer past this many tokens
PARSER_TOKEN_STEP = 8192


def _parser_tokens(text: str) -> int:
    """Tokens the parser reads: every tokenize token but comments and blank-line NLs."""
    skipped = (tokenize.COMMENT, tokenize.NL)
    lines = io.StringIO(text).readline
    return sum(1 for token in tokenize.generate_tokens(lines) if token.type not in skipped)


def test_every_module_compiles_below_the_parser_token_step():
    """Each module of the package has at most 8192 parser tokens.

    Every process that imports the package without cached bytecode
    compiles each module, and the compile peak jumps once a module passes
    the step: under tracemalloc, "x = 1\\n" * 2047 (8189 tokens) peaks at
    2945 KiB and * 2048 (8193 tokens) at 3393 KiB.  verify.py at 8651
    tokens peaked at 3326 KiB, and at 7814 tokens, with its reference
    routes moved to _reference.py, at 2645 KiB; the perfbench workers'
    peak RSS fell with it (BENCH_29.json).  The failure names each module
    over the step and its count; a passing module's margin is the step
    minus its count.
    """
    source = pathlib.Path(circle_cs.__file__).parent
    counts = {path.name: _parser_tokens(path.read_text("utf-8")) for path in source.glob("*.py")}
    assert "verify.py" in counts
    over = {name: count for name, count in counts.items() if count > PARSER_TOKEN_STEP}
    assert not over, f"modules past the {PARSER_TOKEN_STEP}-token parser step: {over}"


# each functools cache in the package and the most entries it can hold: the
# package keeps no unbounded memory, so a new cache is a reviewed edit here
CACHE_BOUNDS = {
    "bargmann._factors": 16,
    "bargmann._gram": 16,
    "bargmann._rule": 16,
    "cli._shared_parser": 1,
    "hilbert._window": 32,
    "theta._ladder": 32,
}


def _is_cache(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "functools"
        and node.attr in ("cache", "lru_cache")
    )


def _callee(node: ast.AST) -> ast.AST:
    """What a chain of calls starts from: functools.lru_cache of functools.lru_cache(maxsize=16)(f)."""
    while isinstance(node, ast.Call):
        node = node.func
    return node


def _library_caches() -> dict:
    """{"module.name": the cached callable} for every functools cache in the package's source.

    A cache is a decorator of a function or the value of an assignment;
    any other use of functools.cache or functools.lru_cache, or importing
    either by name, fails.
    """
    source = pathlib.Path(circle_cs.__file__).parent
    caches = {}
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert not {"cache", "lru_cache"} & {alias.name for alias in node.names}, path.name
            if isinstance(node, ast.FunctionDef):
                found += [node.name for head in node.decorator_list if _is_cache(_callee(head))]
            elif isinstance(node, ast.Assign) and _is_cache(_callee(node.value)):
                found += [target.id for target in node.targets]
        uses = sum(_is_cache(node) for node in ast.walk(tree))
        assert uses == len(found), f"{path.name}: a functools cache outside a decorator or assignment"
        if found:  # only then import: __main__ runs the command line
            module = importlib.import_module(f"circle_cs.{path.stem}")
            caches.update({f"{path.stem}.{name}": getattr(module, name) for name in found})
    return caches


def test_every_library_cache_is_bounded():
    bounds = {}
    for name, cached in _library_caches().items():
        maxsize = cached.cache_parameters()["maxsize"]
        # an unbounded cache of a function without arguments holds one entry
        if maxsize is None and not inspect.signature(cached.__wrapped__).parameters:
            maxsize = 1
        bounds[name] = maxsize
    assert bounds == CACHE_BOUNDS


def _private_definitions(tree: ast.Module) -> list[str]:
    """The private (_name, not __dunder__) functions, classes and constants a module defines."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_name_is_read_somewhere():
    # a merge that leaves a helper behind fails here: a definition, an
    # import or a docstring mention is no use, only a load or an attribute
    source = pathlib.Path(circle_cs.__file__).parent
    defined, read = [], set()
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        defined += [f"{path.stem}.{name}" for name in _private_definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert "hilbert._window" in defined
    assert [name for name in defined if name.split(".")[1] not in read] == []


def _readers(name: str) -> list[str]:
    source = pathlib.Path(circle_cs.__file__).parent
    return sorted(path.name for path in source.glob("*.py") if name in path.read_text("utf-8"))


def test_the_overflow_limit_is_named_in_theta_alone():
    # every other layer goes through theta._exp, so the e^700 decision cannot split again
    assert _readers("_EXP_LIMIT") == ["theta.py"]


def test_the_window_cap_is_named_in_hilbert_alone():
    # Truncation checks it, so no caller re-checks a window it builds
    assert _readers("MAX_TWO_JMAX") == ["hilbert.py"]


def test_the_number_gate_is_named_in_theta_alone():
    # every layer takes numbers from outside through theta._number and theta._integer
    assert _readers("_SCALARS") == ["theta.py"]


def test_the_series_control_is_named_in_theta_alone():
    # one tolerance and one pair cap for every lattice sum: the paper fixes
    # the moduli (i/pi and i pi), and no caller passes a policy of its own
    assert _readers("_SERIES_TOL") == _readers("_MAX_PAIRS") == ["theta.py"]
    takers = sorted(
        name
        for name in circle_cs.__all__
        if callable(value := getattr(circle_cs, name))
        and not inspect.isclass(value)
        and "ctl" in inspect.signature(value).parameters
    )
    assert takers == []
    assert _readers("SeriesControl") == []


# uncertainty_QP's spreads and bound are the same in both sectors, so it never reads its sector
SECTOR_BLIND = {"uncertainty_QP"}

SECTOR_TAKERS = sorted(
    name
    for name in circle_cs.__all__
    if callable(value := getattr(circle_cs, name))
    and not (inspect.isclass(value) and issubclass(value, BaseException))
    and "sector" in inspect.signature(value).parameters
)


def _arguments(function, sector) -> dict:
    """Arguments for every parameter without a default, by name or annotation, and the sector."""
    trunc = circle_cs.Truncation(40)  # 41 boson slots, enough for a coherent state at l = 0.3
    values = {
        "coeffs": np.ones(41),
        "PhasePoint": circle_cs.PhasePoint(0.3, 0.7),
        "Truncation": trunc,
        "float": 0.0,
        "float | np.ndarray": 0.3,
        "str": "J",
        "np.ndarray": circle_cs.operator_matrix("U", circle_cs.Sector.BOSON, trunc),
        "StateVector": circle_cs.basis_state(circle_cs.Sector.BOSON, 1.0, trunc),
        "Quadrature": circle_cs.Quadrature(8, 8),
    }
    arguments = {}
    for x in inspect.signature(function).parameters.values():
        if x.name == "sector":
            arguments[x.name] = sector
        elif x.default is inspect.Parameter.empty:
            arguments[x.name] = values.get(x.name, values.get(x.annotation))
    return arguments


@pytest.mark.parametrize("name", SECTOR_TAKERS)
def test_a_sector_parameter_takes_a_sector_alone(name):
    # a sector's name, a parity or None is not a Sector: each call reads
    # sector.parity, so a stand-in raises at once and never picks a lattice
    function = getattr(circle_cs, name)
    value = function(**_arguments(function, circle_cs.Sector.BOSON))
    for standin in ("boson", "fermion", 0, 1, None):
        if name in SECTOR_BLIND:
            assert repr(function(**_arguments(function, standin))) == repr(value)
            continue
        with pytest.raises(AttributeError, match="parity"):
            function(**_arguments(function, standin))


def test_every_sector_taker_is_found():
    assert len(SECTOR_TAKERS) == 16 and SECTOR_BLIND < set(SECTOR_TAKERS)
