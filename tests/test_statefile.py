import gc
import json
import math
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from lazylab import StateFileError, ginibre_mixed, maximally_entangled, random_hermitian
from lazylab import cli, statefile

from .conftest import schmidt_pure_vector


def test_density_round_trip(tmp_path):
    bell = maximally_entangled(2)
    sf = statefile.from_bipartite(bell)
    path = tmp_path / "bell.json"
    statefile.save(path, sf)
    back = statefile.load(path)
    assert back.kind == "density"
    assert (back.ds, back.de) == (2, 2)
    assert_allclose(back.data, bell.matrix)
    assert_allclose(statefile.to_bipartite(back).matrix, bell.matrix)


def test_purevector_round_trip(tmp_path):
    chi = schmidt_pure_vector([0.8, 0.2])
    sf = statefile.from_vector(chi, 2, 2)
    path = tmp_path / "chi.json"
    statefile.save(path, sf)
    state = statefile.load_state(path)
    assert_allclose(state.matrix, np.outer(chi, chi.conj()), atol=1e-12)


def test_from_vector_keeps_its_own_copy(tmp_path):
    # the file written is the vector given at the call, not what the caller's array holds later
    chi = schmidt_pure_vector([0.8, 0.2]).astype(complex)
    sf = statefile.from_vector(chi, 2, 2)
    text = statefile.dumps(sf)
    chi[:] = 0.0
    assert statefile.dumps(sf) == text
    path = tmp_path / "chi.json"
    statefile.save(path, sf)
    assert path.read_text() == text


def test_hermitian_round_trip(tmp_path):
    h = random_hermitian(6, 4)
    path = tmp_path / "h.json"
    statefile.save(path, statefile.from_hermitian(h, 2, 3))
    assert_allclose(statefile.load_hamiltonian(path), h, atol=1e-12)


BELL = statefile.dumps(statefile.from_bipartite(maximally_entangled(2)))



def _save_bell(path):
    statefile.save(path, statefile.loads(BELL))


def _out_bell(path):
    assert cli.main(["gen", "bell", "--out", str(path)]) == 0


# each writes BELL's text to a path
WRITERS = {"save": _save_bell, "out": _out_bell}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writers_overwrite_a_longer_file_in_place(writer, tmp_path):
    # through a symlink, which stays one, into a 0o600 file that keeps its inode and mode
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("#" * 4096)
    target.chmod(0o600)
    inode = target.stat().st_ino
    link.symlink_to(target)
    WRITERS[writer](link)
    assert link.is_symlink()
    assert target.read_text() == BELL
    assert target.stat().st_ino == inode
    assert target.stat().st_mode & 0o777 == 0o600


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writers_open_without_truncating(writer, tmp_path, monkeypatch):
    # truncating on open frees the file's blocks before the same bytes go back
    path = tmp_path / "x.json"
    path.write_text(BELL)
    flags = []
    os_open = os.open

    def recording(file, flag, *args, **kwargs):
        if os.fspath(file) == os.fspath(path):
            flags.append(flag)
        return os_open(file, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    WRITERS[writer](path)
    assert path.read_text() == BELL
    assert len(flags) == 1
    assert not flags[0] & os.O_TRUNC


def test_canonical_serialization_is_idempotent():
    sf = statefile.from_bipartite(maximally_entangled(3))
    text = statefile.dumps(sf)
    again = statefile.dumps(statefile.loads(text))
    assert text == again  # byte-for-byte


def test_loads_rejects_malformed_json():
    with pytest.raises(StateFileError, match="JSON"):
        statefile.loads("{not json")


PAIRS = "data must be a list of [re, im] pairs"
NUMBERS = "data entries must be JSON numbers"
# 15 valid pairs ahead of a malformed last one: the refusal does not depend on where it is
MANY = ",".join(["[1.0,0.0]"] * 15)


def _density_2x2(data: str) -> str:
    return '{"dims":[2,2],"kind":"density","data":' + data + "}"


# each bad file and the one message it is refused with
BAD_SCHEMAS = {
    '{"kind": "density", "data": []}': "missing required key 'dims'",
    '{"dims": [2], "kind": "density", "data": []}': "dims must be two positive integers, got [2]",
    '{"dims": [2, 0], "kind": "density", "data": []}': "dims must be two positive integers, got [2, 0]",
    '{"dims": [2, 2], "kind": "wavefn", "data": []}': (
        "kind must be one of ('density', 'purevector', 'hermitian'), got 'wavefn'"
    ),
    '{"dims": [2, 2], "kind": "density", "data": [[1.0]]}': PAIRS,
    '{"dims": [2, 2], "kind": "density", "data": 7}': PAIRS,
    "[1, 2]": "top-level JSON value must be an object",
    # each malformed shape of data keeps its one message
    _density_2x2('["ab"]'): PAIRS,  # a 2-character string in place of a pair
    _density_2x2('[{"re":1,"im":0}]'): PAIRS,  # a 2-key object in place of a pair
    _density_2x2("[1.0]"): PAIRS,
    _density_2x2("[null]"): PAIRS,
    _density_2x2("[[1.0,0.0],[1.0,0.0,0.0]]"): PAIRS,  # pairs of unequal length
    _density_2x2("[[1.0,0.0,0.0],[1.0,0.0,0.0]]"): PAIRS,  # every pair of length 3
    _density_2x2("[[],[]]"): PAIRS,
    _density_2x2("[]"): "density needs 16 entries for dims [2, 2], got 0",
    _density_2x2('{"a":[1.0,0.0],"b":[0.0,0.0]}'): PAIRS,
    _density_2x2('"ab"'): PAIRS,
    _density_2x2(f'[{MANY},"ab"]'): PAIRS,
    _density_2x2(f'[{MANY},{{"re":1,"im":0}}]'): PAIRS,
    _density_2x2(f"[{MANY},null]"): PAIRS,
    _density_2x2(f"[{MANY},[0.0,0.0,0.0]]"): PAIRS,
    # a pair that is not a pair outranks an entry that is not a number
    _density_2x2(f'[["x",0.0],{MANY},"ab"]'): PAIRS,
    _density_2x2(f"[[true,0.0],{MANY},3]"): PAIRS,
    _density_2x2(f"[[null,0.0],{MANY},[0.0,0.0,0.0]]"): PAIRS,
}


@pytest.mark.parametrize("payload", list(BAD_SCHEMAS))
def test_loads_rejects_bad_schemas(payload):
    with pytest.raises(StateFileError) as info:
        statefile.loads(payload)
    assert str(info.value) == BAD_SCHEMAS[payload]


@pytest.mark.parametrize(
    "entry", ['["1.0",0.0]', "[false,0.0]", "[1.0,true]", "[null,0.0]", "[[1.0],0.0]", '[{"re":1},0]']
)
def test_loads_accepts_only_json_numbers(entry):
    with pytest.raises(StateFileError, match="JSON numbers"):
        statefile.loads('{"dims":[1,1],"kind":"density","data":[' + entry + "]}")
    # last among well-formed pairs, and ahead of an integer beyond float range,
    # which is refused only once every entry is a number
    for data in (f"[{MANY},{entry}]", f'[[{"9" * 401},0],{MANY[:-10]},{entry}]'):
        with pytest.raises(StateFileError) as info:
            statefile.loads(_density_2x2(data))
        assert str(info.value) == NUMBERS


@pytest.mark.parametrize("enabled", [True, False])
def test_loads_leaves_the_collector_as_it_found_it(enabled):
    good = statefile.dumps(statefile.from_bipartite(maximally_entangled(2)))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        statefile.loads(good)
        assert gc.isenabled() is enabled
        for bad in ("{not json", _density_2x2('["ab"]'), "[" * 200000):
            with pytest.raises(StateFileError):
                statefile.loads(bad)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_loads_integer_entries():
    sf = statefile.loads('{"dims":[1,1],"kind":"density","data":[[1,0]]}')
    assert sf.data.dtype == complex and sf.data.tolist() == [[1 + 0j]]
    with pytest.raises(StateFileError, match="range"):
        statefile.loads('{"dims":[1,1],"kind":"density","data":[[' + "9" * 401 + ",0]]}")


def test_loads_rejects_wrong_entry_count():
    text = statefile.dumps(statefile.from_vector(schmidt_pure_vector([0.5, 0.5]), 2, 2))
    broken = text.replace('"dims":[2,2]', '"dims":[2,3]')
    with pytest.raises(StateFileError, match="entries"):
        statefile.loads(broken)


def test_to_bipartite_validates_payload():
    # unit trace violated: parse must fail with a StateFileError
    bad = statefile.StateFile(ds=2, de=1, kind="density", data=np.eye(2, dtype=complex))
    with pytest.raises(StateFileError, match="invalid state"):
        statefile.to_bipartite(bad)


def test_kind_mismatch_errors():
    sf = statefile.from_bipartite(maximally_entangled(2))
    with pytest.raises(StateFileError, match="not a Hamiltonian"):
        statefile.to_hamiltonian(sf)
    h = statefile.from_hermitian(random_hermitian(4, 1), 2, 2)
    with pytest.raises(StateFileError, match="not a state"):
        statefile.to_bipartite(h)


def test_to_hamiltonian_requires_hermitian():
    bad = statefile.StateFile(
        ds=2, de=1, kind="hermitian", data=np.triu(np.ones((2, 2), dtype=complex))
    )
    with pytest.raises(StateFileError, match="Hermitian"):
        statefile.to_hamiltonian(bad)


def test_writers_apply_the_shared_input_rules():
    with pytest.raises(ValueError, match=r"vector length 3 does not match dims \(2, 2\)"):
        statefile.from_vector(np.ones(3) / np.sqrt(3), 2, 2)
    with pytest.raises(ValueError, match="norm"):
        statefile.from_vector(np.ones(4), 2, 2)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="state vector contains NaN or Inf"):
            statefile.from_vector([bad, 0.0, 0.0, 1.0], 2, 2)
    with pytest.raises(ValueError, match=r"shape \(4, 4\) does not match dims \(2, 3\)"):
        statefile.from_hermitian(random_hermitian(4, 1), 2, 3)


def test_load_missing_file():
    with pytest.raises(StateFileError, match="cannot read"):
        statefile.load("/nonexistent/state.json")


@pytest.mark.parametrize("reader", [statefile.load, statefile.load_state, statefile.load_hamiltonian])
def test_load_refuses_a_file_that_is_not_utf8_as_unreadable(reader, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dims":[1,1],"kind":"density","data":[[1.0,0.0]]}\xff\n')
    with pytest.raises(StateFileError, match=f"^cannot read {re.escape(str(path))}: 'utf-8' codec can't decode byte 0xff"):
        reader(str(path))


def test_round_trip_preserves_exact_floats(tmp_path):
    rho = ginibre_mixed(4, 4, 123)
    # signed zeros, the smallest subnormal and a huge value survive bit for bit
    rho[0, 1], rho[1, 2], rho[2, 3] = complex(-0.0, 5e-324), complex(1e308, -0.0), -5e-324
    sf = statefile.StateFile(ds=2, de=2, kind="density", data=rho)
    text = statefile.dumps(sf)
    assert "[-0.0,5e-324]" in text and "[1e+308,-0.0]" in text
    back = statefile.loads(text)
    assert back.data.tobytes() == rho.tobytes()  # repr round-trip is exact
    assert statefile.dumps(back) == text


def test_loads_refuses_nesting_too_deep_to_decode():
    # json's decoder and repr give up at the recursion limit; neither may escape as RecursionError
    with pytest.raises(StateFileError, match="not valid JSON"):
        statefile.loads("[" * 200000)
    deep = "[" * 1000 + "]" * 1000  # within orjson's 1024 levels, beyond the repr limit
    with pytest.raises(StateFileError, match="not valid JSON"):
        statefile.loads('{"dims":' + deep + ',"kind":"density","data":[[1,0]]}')


def test_loads_refuses_keys_beyond_the_three(tmp_path, capsys):
    # the deep extra key is decoded by orjson but not by json, so only the key
    # rule makes both readings refuse the file
    deep = "[" * 1000 + "]" * 1000
    for extra in ('"note":"x"', '"note":' + deep):
        text = '{"dims":[1,1],"kind":"density","data":[[1,0]],' + extra + "}"
        with pytest.raises(StateFileError, match="unexpected key 'note'"):
            statefile.loads(text)
        with pytest.raises(StateFileError):
            _json_reference(text)
    path = tmp_path / "extra.json"
    path.write_text('{"dims":[1,1],"kind":"density","data":[[1,0]],"note":"x"}')
    assert cli.main(["analyze", str(path)]) == 2
    assert "unexpected key 'note'" in capsys.readouterr().err


@pytest.mark.parametrize("big", [2**64, -(2**63) - 1])
def test_loads_dims_beyond_64_bit_integers(big):
    """orjson reads an integer outside [-2^63, 2^64) as a float, so such a dims
    entry is refused as not an integer, where json's int met the entry count."""
    text = '{"dims":[1,%d],"kind":"purevector","data":[[1,0]]}' % big
    with pytest.raises(StateFileError, match=r"dims must be two positive integers, got \[1, "):
        statefile.loads(text)
    with pytest.raises(StateFileError, match="entries" if big > 0 else r"got \[1, -"):
        _json_reference(text)


def _json_reference(text: str) -> statefile.StateFile:
    """statefile.loads as it reads when json.loads alone parses: the same checks after it."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise StateFileError(f"not valid JSON: {exc}") from exc
    return statefile._from_payload(payload)


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _float_token(bits: int) -> str:
    x = _bits_to_float(bits)
    if x != x:
        return "NaN"
    return {float("inf"): "Infinity", float("-inf"): "-Infinity"}.get(x, repr(x))


_DIGITS = hst.integers(10**16, 10**25 - 1).map(str)  # 17-25 digits, no leading zero
_NUMBERS = hst.one_of(
    hst.integers(0, 2**64 - 1).map(_float_token),  # every bit pattern: subnormals, -0.0, NaN, inf
    hst.integers(-(2**70), 2**70).map(str),  # on both sides of orjson's 64-bit integers
    hst.sampled_from(["1E+2", "1e-5", "-0", "-0.0", "1e-400", "2.4703282292062328e-324"]),
    hst.tuples(hst.sampled_from(["", "-"]), _DIGITS, hst.integers(-340, 320)).map(
        lambda t: f"{t[0]}{t[1][0]}.{t[1][1:]}e{t[2]}"  # not the shortest form
    ),
    hst.tuples(_DIGITS, hst.integers(1, 16)).map(lambda t: t[0][: t[1]] + "." + t[0][t[1]:]),
)
# json reads these as NaN, inf or an int no float holds; orjson refuses them
_JSON_ONLY = hst.sampled_from(["NaN", "Infinity", "-Infinity", "9" * 401, "-" + "9" * 309, "1E400"])
_SPACE = hst.text(" \t\n\r", max_size=2)


@hst.composite
def _state_texts(draw):
    """A state file's text: dims, kind and entry count mostly right, numbers in
    every JSON spelling, in some files also the ones only json reads,
    whitespace between tokens, and in some files one character deleted,
    replaced or inserted."""
    ds, de = draw(hst.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3)]))
    rare = lambda: draw(hst.integers(0, 3)) == 3  # noqa: E731
    # below 2^60 in size, so that one inserted digit stays within orjson's integers
    dims = [draw(hst.integers(-(2**59), 2**60)) for _ in "sd"] if rare() else [ds, de]
    kind = draw(hst.sampled_from(["wavefn", "hermitian"])) if rare() else "density"
    if kind == "density" and rare():
        kind = "purevector"
    n = (ds * de) ** (1 if kind == "purevector" else 2) + rare()
    number = hst.one_of(_NUMBERS, _JSON_ONLY) if rare() else _NUMBERS
    sp = lambda: draw(_SPACE)  # noqa: E731
    pairs = [f"[{sp()}{draw(number)}{sp()},{sp()}{draw(number)}{sp()}]" for _ in range(n)]
    text = (
        f'{sp()}{{{sp()}"dims"{sp()}:{sp()}[{dims[0]},{sp()}{dims[1]}],{sp()}"kind":{sp()}"{kind}",'
        f'{sp()}"data"{sp()}:{sp()}[{f",{sp()}".join(pairs)}]{sp()}}}{sp()}'
    )
    if rare():
        edit = draw(hst.sampled_from(["delete", "replace", "insert"]))
        i = draw(hst.integers(0, len(text) - 1))
        c = draw(hst.sampled_from(list('[]{},:"-.eE+019 ') + ["\ud800", "\x00", "\ufeff"]))
        text = text[:i] + ("" if edit == "delete" else c) + text[i + (edit != "insert"):]
    return text


@settings(derandomize=True, deadline=None, max_examples=600, database=None)
@given(_state_texts())
@example("[" * 200000)
@example('{"dims":[1,1],"kind":"density","data":[[1,0]]}\x0c')
@example('{"dims":[1,1],"kind":"\\ud800","data":[[1,0]]}')
def test_loads_matches_json_reference(text):
    """statefile.loads and the json-only reference accept the same texts with the
    same data bit for bit, and refuse the rest with the same message."""
    try:
        want = _json_reference(text)
    except StateFileError as exc:
        with pytest.raises(StateFileError) as got:
            statefile.loads(text)
        assert str(got.value) == str(exc)
        return
    got = statefile.loads(text)
    assert (got.ds, got.de, got.kind) == (want.ds, want.de, want.kind)
    assert got.data.shape == want.data.shape and got.data.dtype == want.data.dtype
    assert got.data.tobytes() == want.data.tobytes()


def _json_dumps_reference(sf: statefile.StateFile) -> str:
    """statefile.dumps as it wrote when json.dumps alone encoded the file."""
    flat = np.asarray(sf.data, dtype=complex).reshape(-1)
    payload = {
        "dims": [int(sf.ds), int(sf.de)],
        "kind": sf.kind,
        "data": np.column_stack((flat.real, flat.imag)).tolist(),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _steps_from(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else -math.inf)
    return x


_MAGNITUDES = hst.one_of(
    hst.integers(0, 2**64 - 1).map(_bits_to_float).filter(math.isfinite),  # every finite bit pattern
    hst.tuples(hst.sampled_from([1e-5, 1e-4, 1e16]), hst.integers(-3, 3)).map(
        lambda t: _steps_from(*t)  # repr's format switch and the 1e-5 exponent, on both sides
    ),
    hst.integers(1, 2**52 - 1).map(_bits_to_float),  # subnormals
    hst.sampled_from([0.0, 5e-324, 2.0**53]),
    hst.integers(2**53, 2**80).map(float),  # integer-valued, beyond exact integers
    hst.floats(-30, 30).map(lambda e: 10.0**e),
    hst.floats(1e-5, 1e-4),
    # a non-zero integer part, then 0.0000 in the digits: 10.00001, 30.00005
    hst.tuples(hst.integers(1, 10**6), hst.integers(1, 9999)).map(lambda t: float(f"{t[0]}.0000{t[1]}")),
)
_FLOATS = hst.tuples(_MAGNITUDES, hst.booleans()).map(lambda t: -t[0] if t[1] else t[0])


@hst.composite
def _state_files(draw):
    """A file of any kind at 1x1, 1xn or 2x2 dims, its entries drawn from _FLOATS."""
    ds, de = draw(hst.sampled_from([(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]))
    kind = draw(hst.sampled_from(statefile.KINDS))
    dim = ds * de
    shape = (dim,) if kind == "purevector" else (dim, dim)
    parts = draw(hst.lists(_FLOATS, min_size=2 * math.prod(shape), max_size=2 * math.prod(shape)))
    data = np.array(parts).view(complex).reshape(shape)
    return statefile.StateFile(ds=ds, de=de, kind=kind, data=data)


_EDGES = [
    x
    for base in (1e-5, 1e-4, 1e16)
    for x in (math.nextafter(base, 0.0), base, math.nextafter(base, math.inf))
] + [0.0, 5e-324, 2.0**53, 10.00001, 30.00005]


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(_state_files())
@example(statefile.StateFile(1, 2 * len(_EDGES), "purevector", np.array(_EDGES + [-x for x in _EDGES]) + 0j))
@example(statefile.StateFile(1, len(_EDGES), "purevector", np.array(_EDGES) * 1j))
def test_dumps_matches_json_reference(sf):
    """statefile.dumps writes the bytes json.dumps wrote, and loads reads them back bit for bit."""
    text = statefile.dumps(sf)
    assert text == _json_dumps_reference(sf)
    assert statefile.loads(text).data.tobytes() == np.asarray(sf.data, dtype=complex).tobytes()


_TEXT = hst.one_of(
    hst.text(hst.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=6),  # printable ASCII
    hst.sampled_from(["null", "a null", 'x": null']),  # the token the writer splits on
)
_LEAVES = hst.one_of(
    _FLOATS,
    hst.sampled_from(_EDGES + [-x for x in _EDGES] + [-0.0, math.nan, math.inf, -math.inf]),
    _FLOATS.map(np.float64),
    hst.integers(-(2**63), 2**63 - 1),
    hst.booleans(),
    hst.none(),
    _TEXT,
)
_PAYLOADS = hst.recursive(
    _LEAVES,
    lambda inner: hst.one_of(
        hst.lists(inner, max_size=4),
        hst.lists(inner, max_size=4).map(tuple),
        hst.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(_PAYLOADS)
@example({"b": [], "a": {}, "c": (np.float64(1e-7), None, -math.inf, 1e16, -0.0, 0)})
@example({"null": [None, "a null", math.nan]})
@example({"z": 1e-7, "y": None, "x": [-math.inf, 5e-324]})  # spliced in the order keys are written
def test_json_text_matches_json_dumps(obj):
    """The writer of state files and CLI answers writes json.dumps's bytes, indented and compact."""
    assert statefile._json_text(obj, indent=True) == json.dumps(obj, sort_keys=True, indent=2)
    compact = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert statefile._json_text(obj, indent=False) == compact


@pytest.mark.parametrize(
    "kind, d",
    [("bell", 2)]
    + [(k, d) for k in ("maxent", "product", "zerodiscord", "haarpure", "ginibre") for d in (2, 4, 8)],
)
def test_generated_states_match_json_reference(tmp_path, kind, d):
    """Every gen kind at dxd (bell is 2x2 only) writes the bytes json.dumps wrote for the same floats."""
    path = str(tmp_path / "state.json")
    argv = {
        "bell": ["gen", "bell"],
        "maxent": ["gen", "maxent", "--d", str(d)],
        "zerodiscord": ["gen", "zerodiscord", "--probs", ",".join(["%r" % (1 / d)] * d), "--de", str(d)],
    }.get(kind, ["gen", kind, "--ds", str(d), "--de", str(d)])
    assert cli.main(argv + ["--seed", "7", "--out", path]) == 0
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text == _json_dumps_reference(statefile.loads(text))


def _refused_by_loads(sf: statefile.StateFile) -> str:
    with pytest.raises(StateFileError) as exc:
        statefile.loads(_json_dumps_reference(sf))
    return str(exc.value)


@pytest.mark.parametrize(
    "ds, de, kind, data, match",
    [
        (1, 2, "hermitian", [[math.nan, 0], [0, 1]], "non-finite"),
        (1, 2, "density", [[1, 0], [0, complex(0, math.inf)]], "non-finite"),
        (1, 1, "purevector", [-math.inf], "non-finite"),
        (1, 1, "nullable", [[1]], "kind must be one of"),
        (0, 2, "density", [[1]], "dims must be two positive integers"),
        (2, -1, "density", [[1]], "dims must be two positive integers"),
        (1, 2, "density", [1, 0, 0], "needs 4 entries"),
        (1, 2, "purevector", np.eye(2), "needs 2 entries"),
    ],
)
def test_dumps_refuses_what_loads_refuses(ds, de, kind, data, match):
    sf = statefile.StateFile(ds=ds, de=de, kind=kind, data=np.array(data, dtype=complex))
    with pytest.raises(StateFileError, match=match) as got:
        statefile.dumps(sf)
    assert str(got.value) == _refused_by_loads(sf)
