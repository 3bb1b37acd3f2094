import numpy as np
import pytest
from numpy.testing import assert_allclose

from lazylab import StateFileError, ginibre_mixed, maximally_entangled, random_hermitian
from lazylab import statefile

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


def test_hermitian_round_trip(tmp_path):
    h = random_hermitian(6, 4)
    path = tmp_path / "h.json"
    statefile.save(path, statefile.from_hermitian(h, 2, 3))
    assert_allclose(statefile.load_hamiltonian(path), h, atol=1e-12)


def test_canonical_serialization_is_idempotent():
    sf = statefile.from_bipartite(maximally_entangled(3))
    text = statefile.dumps(sf)
    again = statefile.dumps(statefile.loads(text))
    assert text == again  # byte-for-byte


def test_loads_rejects_malformed_json():
    with pytest.raises(StateFileError, match="JSON"):
        statefile.loads("{not json")


@pytest.mark.parametrize(
    "payload",
    [
        '{"kind": "density", "data": []}',
        '{"dims": [2], "kind": "density", "data": []}',
        '{"dims": [2, 0], "kind": "density", "data": []}',
        '{"dims": [2, 2], "kind": "wavefn", "data": []}',
        '{"dims": [2, 2], "kind": "density", "data": [[1.0]]}',
        '{"dims": [2, 2], "kind": "density", "data": 7}',
        '[1, 2]',
    ],
)
def test_loads_rejects_bad_schemas(payload):
    with pytest.raises(StateFileError):
        statefile.loads(payload)


@pytest.mark.parametrize(
    "entry", ['["1.0",0.0]', "[false,0.0]", "[1.0,true]", "[null,0.0]", "[[1.0],0.0]", '[{"re":1},0]']
)
def test_loads_accepts_only_json_numbers(entry):
    with pytest.raises(StateFileError, match="JSON numbers"):
        statefile.loads('{"dims":[1,1],"kind":"density","data":[' + entry + "]}")


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
    with pytest.raises(ValueError, match=r"shape \(4, 4\) does not match dims \(2, 3\)"):
        statefile.from_hermitian(random_hermitian(4, 1), 2, 3)


def test_load_missing_file():
    with pytest.raises(StateFileError, match="cannot read"):
        statefile.load("/nonexistent/state.json")


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
