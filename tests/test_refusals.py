"""One refusal table for every public parameter, checked by one generated test.

ROWS maps a parameter name, or a (function, parameter) pair where one name means two
things, to its rows: bad values and the one message that refuses them, a regex in which
{name} is the parameter and {value} the bad value (each prints as plain regex text). The
walk covers every function and class in lazylab.__all__ and every public method of those
classes. Each bad value goes into the function's valid call in VALID, alone and, for
parameters that share one tuple of rows (ds and de), into all of them at once. Each must
raise a ValueError with its row's message, with no warning and before any np.linalg
factorization; only a phase overflow may follow the one eigh that gives the energies it
is read against.
"""

import inspect
import re
import warnings
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import lazylab
from lazylab import (
    BipartiteState, decompose_hamiltonian, ginibre_mixed, haar_random_pure, linalg, random_hermitian,
)

from .conftest import FACTORIZATIONS


class Row(NamedTuple):
    values: tuple
    message: str
    eighs: int = 0  # the eigh calls allowed before the refusal


H, H6, RHO = random_hermitian(4, 87), random_hermitian(6, 88), np.eye(4) / 4
OVERFLOW = r"^times up to \|t\| = 1e\+308 overflow the phases exp\(-i E t\), \|E\| up to "
DIMS = (Row((0, -2), "^subsystem dimensions must be positive$"),)
TOLERANCE = (Row((np.nan, np.inf, -1.0), "^{name} must be finite and >= 0, got {value}$"),)
POSITIVE = Row((np.nan, np.inf, -1.0, 0.0), "^{name} must be finite and positive, got {value}$")
HERMITIAN = Row((np.triu(np.ones((4, 4))),), r"is not Hermitian: \|\|m - m†\|\|_F = \S+ exceeds tolerance$")
WEIGHT = Row((0.0, 1.0, 2.0, np.nan, "0.5"), r"^regularization weight must be in \(0, 1\), got {value!r}$")
COUNT = Row((0, -1), "^{name} must be >= 1, got {value}$")

ROWS = {
    **dict.fromkeys(("ds", "de", "d_system", "d_env"), DIMS),
    "d": (Row((0, -1), "^dimension must be >= 1$"),),
    ("maximally_entangled", "d"): (Row((1, 0), "^maximally entangled states need dimension >= 2$"),),
    **dict.fromkeys(("tol", "cluster_tol", "lazy_tol", "threshold", "cutoff"), TOLERANCE),
    **dict.fromkeys(("floor", "fd_step"), (POSITIVE,)),
    ("finite_difference_rate", "h"): (
        Row(POSITIVE.values, "^step must be finite and positive, got {value}$"),
        Row((1e308,), OVERFLOW, eighs=1),
    ),
    "regularize": (WEIGHT,),
    "delta": (WEIGHT._replace(values=(*WEIGHT.values, None)),),
    "n": (Row((0, 2.5, np.inf, np.nan), "^moment order must be an integer >= 1, got {value}$"),),
    "ns": (Row(((0,), (2.5, 2)), "^moment order must be an integer >= 1, got {value[0]}$"),),
    "t": (
        Row((np.nan, np.inf, -np.inf), "^t must be finite, got {value}$"),
        Row((1e308, -1e308), OVERFLOW, eighs=1),
    ),
    "times": (
        Row(([0.0, np.nan], [-np.inf, 0.0]), "^times must be finite$"),
        Row(([0.3, 0.1],), "^times must be sorted ascending$"),
        Row(([], [[0.0, 1.0]]), "^times must be a non-empty 1-D sequence$"),
        Row(([0.0, 1e308], [-1e308, 0.0]), OVERFLOW, eighs=1),
    ),
    **dict.fromkeys(
        ("h_int", "h_tot"), (HERMITIAN, Row((H6,), r"^{name} shape \(6, 6\) does not match dims \(2, 2\)$"))
    ),
    "h": (HERMITIAN,),
    ("BipartiteState", "matrix"): (
        Row((np.eye(6) / 6,), r"^bipartite state shape \(6, 6\) does not match dims \(2, 2\)$"),
        Row((np.stack([RHO, RHO]),), r"^bipartite state must be one matrix, got shape \(2, 4, 4\)$"),
    ),
    "samples": (COUNT,),
    "bins": (COUNT,),
    "rank": (Row((0, 9), r"^rank must be in \[1, 4\], got {value}$"),),
    "observable": (Row(("energy",), "^observable must be 'entropy' or 'moment', got 'energy'$"),),
    "keep": (Row(("both",), "^keep must be 'system' or 'environment', got 'both'$"),),
    "kind": (Row(("nuclear",), "^kind must be 'trace', 'operator' or 'frobenius', got 'nuclear'$"),),
}

# parameters with no row: the states, operators and vectors a call works on, whose checks
# depend on the other arguments (their modules' tests pin them), seeds, flags and names
OPERANDS = {
    "self", "rho", "rho0", "matrix", "chi", "m", "a", "b", "f", "rho_s", "rho_e", "probs", "basis",
    "env_states", "schmidt", "proj", "ancilla_basis", "include", "seed", "path", "use_fd",
    "richardson", "name",
}
# report and record classes and the two error types: built by the package, not checked
RECORDS = {
    "CommutatorReport", "CorrelationReport", "HamiltonianTriple", "HermitianSpectrum",
    "ProtocolVerdict", "PureStateAnalytics", "RankDeficientStateError", "RateReport",
    "SchmidtDecomposition", "SparsitySummary", "SpectralProjection", "StateFile",
    "StateFileError", "SweepRow", "Trajectory", "TrajectoryRecord",
}

H_INT, CHI = decompose_hamiltonian(H, 2, 2).h_int, haar_random_pure(4, 86)


def _state():
    """A mixed 2x2 state whose evaluator is not built yet, so its factorizations would count."""
    return BipartiteState(ds=2, de=2, matrix=ginibre_mixed(4, 4, 86))


VALID = {
    "BipartiteState": lambda: {"ds": 2, "de": 2, "matrix": RHO},
    "BipartiteState.is_pure": lambda: {"self": _state()},
    "HermitianSpectrum.unitary": lambda: {"self": linalg.hermitian_eig(H), "t": 1.0},
    "bound_sweep": lambda: {"ds": 2, "de": 2, "samples": 2, "seed": 1},
    "decompose_hamiltonian": lambda: {"h_tot": H, "ds": 2, "de": 2},
    "detect_discord": lambda: {"rho": _state(), "samples": 2, "seed": 1},
    "entropy_rate": lambda: {"rho": _state(), "h_int": H_INT},
    "evolve_exact": lambda: {"rho": _state(), "h_tot": H, "t": 1.0},
    "finite_difference_rate": lambda: {"rho": _state(), "h_tot": H, "observable": "moment"},
    "ginibre_mixed": lambda: {"d": 4, "rank": 2, "seed": 1},
    "haar_random_pure": lambda: {"d": 4, "seed": 1},
    "haar_random_unitary": lambda: {"d": 4, "seed": 1},
    "hermitian_eig": lambda: {"h": H},
    "laziness_commutator": lambda: {"rho": _state()},
    "matrix_function": lambda: {"h": H, "f": np.exp},
    "matrix_log": lambda: {"h": RHO},
    "maximally_entangled": lambda: {"d": 2},
    "moment_rate": lambda: {"rho": _state(), "h_int": H_INT, "n": 2},
    "moments": lambda: {"rho": RHO, "ns": (2,)},
    "norm": lambda: {"m": H},
    "partial_trace": lambda: {"m": H, "d_system": 2, "d_env": 2},
    "partial_transpose_system": lambda: {"m": H, "d_system": 2, "d_env": 2},
    "pinching_residual": lambda: {"rho": _state()},
    "pure_state": lambda: {"chi": CHI, "ds": 2, "de": 2},
    "purity_rate": lambda: {"rho": _state(), "h_int": H_INT},
    "random_hermitian": lambda: {"d": 4, "seed": 1},
    "rate_bounds": lambda: {"rho": _state(), "h_int": H_INT},
    "record_trajectory": lambda: {"rho0": _state(), "h_tot": H, "times": [0.0, 1.0]},
    "regularize_state": lambda: {"rho": _state(), "delta": 0.5},
    "schmidt_decompose": lambda: {"chi": CHI, "ds": 2, "de": 2},
    "sparsity_scan": lambda: {"ds": 2, "de": 2, "samples": 2, "rank": 4, "seed": 1},
    "spectral_projection": lambda: {"rho": RHO},
    "unitary_from_hamiltonian": lambda: {"h": H, "t": 1.0},
    "validate_density_matrix": lambda: {"rho": RHO},
    "witness_hamiltonian": lambda: {"rho": _state()},
}


def _callables():
    """(name, callable) for each public function and non-record class, and each public method."""
    for name in lazylab.__all__:
        obj = getattr(lazylab, name)
        if name not in RECORDS:
            yield name, obj
        if inspect.isclass(obj):
            methods = vars(obj).items()
            yield from ((f"{name}.{a}", m) for a, m in methods if inspect.isfunction(m) and a[0] != "_")


def _rows(name, param):
    return ROWS.get((name, param), ROWS.get(param))


def _cases():
    for name, call in _callables():
        groups = {}  # the parameters of each shared rows tuple, in signature order
        for param in inspect.signature(call).parameters:
            if _rows(name, param) is not None:
                groups.setdefault(id(_rows(name, param)), []).append(param)
        for params in groups.values():
            for names in [[p] for p in params] + ([params] if len(params) > 1 else []):
                for row in _rows(name, names[0]):
                    for v in row.values:
                        label = "x".join(map(str, v.shape)) if isinstance(v, np.ndarray) else repr(v)
                        yield pytest.param(call, name, names, row, v, id=f"{name}-{'+'.join(names)}-{label}")


@pytest.mark.parametrize("call, name, names, row, value", list(_cases()))
def test_refusal(call, name, names, row, value, checks):
    kwargs = VALID[name]() | dict.fromkeys(names, value)
    checks.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=row.message.format(name=names[0], value=value)):
            call(**kwargs)
    assert Counter({f: checks[f] for f in FACTORIZATIONS}) <= Counter(eigh=row.eighs)


def test_every_parameter_has_a_row_or_is_an_operand_and_every_valid_call_is_accepted():
    checked, taken = set(), set()
    for name, call in _callables():
        params = set(inspect.signature(call).parameters)
        rowed = {p for p in params if _rows(name, p) is not None}
        assert not params - rowed - OPERANDS, f"{name} takes {params - rowed - OPERANDS}, which have no row"
        if rowed:
            checked.add(name)
            taken |= rowed | {(name, p) for p in rowed}
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                call(**VALID[name]())
    assert set(VALID) == checked
    assert set(ROWS) <= taken


@pytest.mark.parametrize(
    "param, quote",
    [
        ("t", "t must be finite, got inf"),
        ("times", "times up to |t| = 1e+308 overflow the phases exp(-i E t), |E| up to ..."),
        ("h_tot", "h_tot shape (6, 6) does not match dims (2, 2)"),
        ("ds", "subsystem dimensions must be positive"),
        ("d", "dimension must be >= 1"),
    ],
)
def test_readme_quotes_each_message_as_its_row_words_it(param, quote):
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    assert f"`{quote}`" in readme
    messages = [row.message.format(name=param, value=v) for row in ROWS[param] for v in row.values]
    assert any(re.search(message, quote) for message in messages)
