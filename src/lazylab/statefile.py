"""JSON file format for bipartite states, pure vectors and Hamiltonians.

Schema: {"dims": [ds, de], "kind": "density" | "purevector" | "hermitian",
"data": [[re, im], ...]} with entries row-major. Serialization is
canonical (sorted keys, fixed separators, shortest float repr), so
parse -> serialize -> parse is the identity byte for byte.

Reading parses with orjson, which is several times faster than the
standard library's json on these number arrays and yields the same
floats bit for bit. orjson refuses some text that json accepts: the
NaN and Infinity literals, numbers beyond float range, lone surrogate
escapes, nesting deeper than 1024 levels. Every text orjson refuses is
therefore parsed again by json, which decides and words the refusal as
it always did, so the schema checks see json's values (NaN, inf, an
int too large for a float) and refuse them as non-finite or
out-of-range entries. One difference remains: orjson reads an integer
outside [-2^63, 2^64) as a float, so such a dims entry is refused as
not an integer. A state file has exactly the three keys and nests three
levels deep, so text nested near json's recursion limit is refused by
either reading.

Writing goes through orjson too, byte for byte as json.dumps wrote the
same values: _json_text writes state files and the CLI's JSON answers.
Both libraries write each float's shortest round-trip digits, and they
spell them alike for 0 and every |x| in [1e-4, 1e16). Outside that
range orjson writes 1e16, 1e-7 and 0.00003 where repr writes 1e+16,
1e-07 and 3e-05, and it writes NaN and the infinities as null where
json writes NaN, Infinity and -Infinity. _json_text therefore hands
orjson those floats as NaN, splits the text on null and fills the gaps
in order with json's spelling of each, or null for a None.

A read runs with the cyclic garbage collector paused. A 64-dim file parses
into 4,096 two-entry lists, which cannot form a cycle, yet their allocation
alone would set off several young-generation collections per file, and the
older-generation sweeps those feed, each walking every tracked object in the
process. The caller's collector state is restored however the read ends.
"""

from __future__ import annotations

import gc
import json
import os
import stat
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import linalg
from .states import BipartiteState, _unit_vector, pure_state

KINDS = ("density", "purevector", "hermitian")
_KEYS = ("dims", "kind", "data")

# repr's format switch, not tolerances: repr writes a nonzero |x| below the
# first or from the second in scientific notation, which orjson spells otherwise
_REPR_FIXED_FROM = 0.0001
_REPR_FIXED_BELOW = 10_000_000_000_000_000.0
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's, not repr's


class StateFileError(ValueError):
    """Malformed or inconsistent state/Hamiltonian file."""


@dataclass(frozen=True)
class StateFile:
    ds: int
    de: int
    kind: str
    data: np.ndarray  # (dim, dim) matrix, or (dim,) vector for purevector

    @property
    def dim(self) -> int:
        return self.ds * self.de


def from_bipartite(rho: BipartiteState) -> StateFile:
    return StateFile(ds=rho.ds, de=rho.de, kind="density", data=rho.matrix)


def from_vector(chi, ds: int, de: int) -> StateFile:
    return StateFile(ds=ds, de=de, kind="purevector", data=_unit_vector(chi, ds, de).copy())


def from_hermitian(h, ds: int, de: int) -> StateFile:
    mat = linalg._require_dims(linalg.as_complex_matrix(h), ds, de, "matrix")
    return StateFile(ds=ds, de=de, kind="hermitian", data=mat)


def to_bipartite(sf: StateFile) -> BipartiteState:
    """Materialize a density or purevector file as a BipartiteState."""
    try:
        if sf.kind == "density":
            return BipartiteState(ds=sf.ds, de=sf.de, matrix=sf.data)
        if sf.kind == "purevector":
            return pure_state(sf.data, sf.ds, sf.de)
    except ValueError as exc:
        raise StateFileError(f"invalid state payload: {exc}") from exc
    raise StateFileError(f"kind {sf.kind!r} is not a state")


def to_hamiltonian(sf: StateFile) -> np.ndarray:
    if sf.kind != "hermitian":
        raise StateFileError(f"kind {sf.kind!r} is not a Hamiltonian")
    try:
        return linalg.require_hermitian(sf.data, name="hamiltonian")
    except ValueError as exc:
        raise StateFileError(f"invalid Hamiltonian payload: {exc}") from exc


def dumps(sf: StateFile) -> str:
    """Canonical JSON text for a state file (trailing newline included).

    Raises StateFileError, as loads does, for a file loads would refuse.
    """
    flat = np.asarray(sf.data, dtype=complex).reshape(-1)
    _checked([sf.ds, sf.de], sf.kind, flat)
    pairs = np.column_stack((flat.real, flat.imag))
    return _json_text({"data": pairs, "dims": [sf.ds, sf.de], "kind": sf.kind}, indent=False) + "\n"


def _json_text(obj, *, indent: bool) -> str:
    """json.dumps(obj, sort_keys=True) with indent=2, or else separators=(",", ":"), through
    orjson (see the module docstring). obj nests str-keyed dicts, lists, tuples and finite
    float arrays over floats, 64-bit ints, bools, None and printable-ASCII strings (json
    escapes DEL and non-ASCII, orjson does not); an explicit stack walks it, leaving no cycle."""
    import orjson

    root = [obj]
    stack = [(root, 0)]  # (container, key) of each value still to walk, the next one last
    spelled = []  # json's text for each null orjson will write, in writing order
    while stack:
        node, key = stack.pop()
        value = node[key]
        if isinstance(value, float):  # np.float64 too, which orjson writes as a float
            # orjson spells a float as repr does iff it is 0 or in [FIXED_FROM, FIXED_BELOW)
            if not (value == 0 or _REPR_FIXED_FROM <= abs(value) < _REPR_FIXED_BELOW):
                text = repr(float(value))
                spelled.append(_JSON_SPELLING.get(text, text))
                node[key] = np.nan
        elif isinstance(value, dict):
            node[key] = value = dict(value)
            stack += zip(repeat(value), sorted(value, reverse=True))
        elif isinstance(value, (list, tuple)):
            node[key] = value = list(value)
            stack += zip(repeat(value), range(len(value) - 1, -1, -1))
        elif value is None:
            spelled.append("null")
        elif isinstance(value, np.ndarray):  # finite: the same rule elementwise, row-major
            mag = np.abs(value)
            splice = (mag < _REPR_FIXED_FROM) & (mag != 0) | (mag >= _REPR_FIXED_BELOW)
            spelled += map(repr, value[splice].tolist())
            node[key] = np.where(splice, np.nan, value)
    option = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
    text = orjson.dumps(root[0], option=option | orjson.OPT_INDENT_2 if indent else option).decode()
    parts = text.split("null")
    if len(parts) != len(spelled) + 1:  # a string holds "null": json writes the text
        seps = None if indent else (",", ":")
        return json.dumps(obj, sort_keys=True, indent=2 if indent else None, separators=seps)
    spelled.append("")
    return "".join(chain.from_iterable(zip(parts, spelled)))


def loads(text: str) -> StateFile:
    # imported on first read: about 9 ms and 0.8 MB that `import lazylab`
    # and in-memory use, which never read a file, need not pay
    import orjson

    enabled = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        try:
            payload = orjson.loads(text)
        except orjson.JSONDecodeError:
            payload = json.loads(text)
        return _from_payload(payload)
    # json gives up on nesting deeper than the interpreter's recursion
    # limit, and so does repr of a dims or kind value orjson accepted that deep
    except (json.JSONDecodeError, RecursionError) as exc:
        raise StateFileError(f"not valid JSON: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


def _from_payload(payload) -> StateFile:
    if not isinstance(payload, dict):
        raise StateFileError("top-level JSON value must be an object")
    for key in _KEYS:
        if key not in payload:
            raise StateFileError(f"missing required key {key!r}")
    for key in payload:
        if key not in _KEYS:
            raise StateFileError(f"unexpected key {key!r}")

    raw = payload["data"]
    if type(raw) is not list:
        raise _data_error(raw)
    # one pass: only [re, im] lists of JSON numbers (int or float; bool is its own
    # type here) give two equal columns of numbers, since a JSON string or object
    # in place of a pair yields strings; _data_error words any refusal
    try:
        real, imag = zip(*raw, strict=True) if raw else ((), ())
    except (TypeError, ValueError):
        raise _data_error(raw) from None
    if not set(map(type, chain(real, imag))) <= {int, float}:
        raise _data_error(raw)
    flat = np.empty(len(real), complex)
    try:
        flat.real = np.fromiter(real, float, len(real))
        flat.imag = np.fromiter(imag, float, len(imag))
    except OverflowError as exc:
        raise StateFileError(f"data entry out of floating-point range: {exc}") from exc
    return _checked(payload["dims"], payload["kind"], flat)


def _data_error(raw) -> StateFileError:
    """The refusal of a data value that is not a list of [re, im] pairs of JSON numbers."""
    if type(raw) is not list or not (set(map(type, raw)) <= {list} and set(map(len, raw)) <= {2}):
        return StateFileError("data must be a list of [re, im] pairs")
    return StateFileError("data entries must be JSON numbers")


def _checked(dims, kind, flat: np.ndarray) -> StateFile:
    """The state file of dims, kind and the flat complex entries, under the
    rules every file read or written meets."""
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(type(d) is int and d >= 1 for d in dims)
    ):
        raise StateFileError(f"dims must be two positive integers, got {dims!r}")
    ds, de = dims

    if kind not in KINDS:
        raise StateFileError(f"kind must be one of {KINDS}, got {kind!r}")

    dim = ds * de
    if kind == "purevector":
        if flat.size != dim:
            raise StateFileError(
                f"purevector needs {dim} entries for dims {dims}, got {flat.size}"
            )
        data = flat
    else:
        if flat.size != dim * dim:
            raise StateFileError(
                f"{kind} needs {dim * dim} entries for dims {dims}, got {flat.size}"
            )
        data = flat.reshape(dim, dim)
    if not np.isfinite(data).all():
        raise StateFileError("data contains non-finite entries")
    return StateFile(ds=ds, de=de, kind=kind, data=data)


def _write_text(path, text: str) -> None:
    """open(path, "w").write(text), but over the file in place: truncating on open frees
    its blocks before the text is written back, so a regular file is cut after it instead."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # not a pipe or a device
            fh.truncate()


def save(path, sf: StateFile) -> None:
    """Write dumps(sf) over the file at path in place, as _write_text does."""
    _write_text(path, dumps(sf))


def load(path) -> StateFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise StateFileError(f"cannot read {path}: {exc}") from exc
    return loads(text)


def load_state(path) -> BipartiteState:
    return to_bipartite(load(path))


def load_hamiltonian(path) -> np.ndarray:
    return to_hamiltonian(load(path))
