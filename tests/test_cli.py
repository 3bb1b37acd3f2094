import gc
import json
import os
import pathlib

import numpy as np
import pytest

from lazylab import (
    BipartiteState,
    decompose_hamiltonian,
    ginibre_mixed,
    haar_random_pure,
    laziness,
    linalg,
    random_hermitian,
    rate_bounds,
    record_trajectory,
    statefile,
)
from lazylab.cli import main

from .cli_runner import run_lazylab

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(*args, check=True):
    proc = run_lazylab(*args)
    if check and proc.returncode != 0:
        raise AssertionError(f"CLI failed ({proc.returncode}): {proc.stderr.decode()}")
    return proc


# ------------------------------------------------------------------- gen


def test_gen_bell_dims_and_reloadability(tmp_path):
    out = tmp_path / "bell.json"
    proc = run_cli("gen", "bell", "--out", str(out))
    assert proc.returncode == 0
    sf = statefile.load(out)
    assert (sf.ds, sf.de) == (2, 2)
    statefile.to_bipartite(sf)  # reloadable as a valid state


def test_gen_ginibre_deterministic():
    a = run_cli("gen", "ginibre", "--ds", "3", "--de", "3", "--rank", "9", "--seed", "7")
    b = run_cli("gen", "ginibre", "--ds", "3", "--de", "3", "--rank", "9", "--seed", "7")
    assert a.stdout == b.stdout
    sf = statefile.loads(a.stdout.decode())
    assert (sf.ds, sf.de) == (3, 3)


def test_gen_zerodiscord_is_lazy(tmp_path):
    state_path = tmp_path / "zd.json"
    run_cli("gen", "zerodiscord", "--probs", "0.7,0.3", "--de", "3", "--seed", "1",
            "--out", str(state_path))
    proc = run_cli("analyze", str(state_path), "--json")
    payload = json.loads(proc.stdout)
    assert payload["commutator"]["lazy"] is True


def test_gen_haarpure_writes_purevector():
    proc = run_cli("gen", "haarpure", "--ds", "2", "--de", "3", "--seed", "2")
    sf = statefile.loads(proc.stdout.decode())
    assert sf.kind == "purevector"
    assert abs(np.linalg.norm(sf.data) - 1.0) < 1e-10


def test_gen_invalid_params_exit_2():
    proc = run_cli("gen", "ginibre", "--ds", "2", "--de", "2", "--rank", "99", check=False)
    assert proc.returncode == 2
    assert proc.stderr  # message on standard error
    proc = run_cli("gen", "maxent", "--d", "1", check=False)
    assert proc.returncode == 2
    proc = run_cli("gen", "zerodiscord", "--probs", "0.7,0.7", check=False)
    assert proc.returncode == 2


def test_gen_unknown_kind_exit_2():
    proc = run_cli("gen", "thermal", check=False)
    assert proc.returncode == 2


# --------------------------------------------------------------- analyze


def test_analyze_bell_values():
    proc = run_cli("analyze", str(GOLDEN / "bell.json"), "--json")
    payload = json.loads(proc.stdout)
    assert payload["commutator"]["lazy"] is True
    assert payload["correlations"]["negativity"] == pytest.approx(0.5, abs=1e-9)
    assert payload["correlations"]["mutual_information"] == pytest.approx(
        1.3862943611198906, abs=1e-9
    )


def test_analyze_product_with_hamiltonian_rates_vanish():
    proc = run_cli(
        "analyze", str(GOLDEN / "product.json"), str(GOLDEN / "hamiltonian_2x2.json"), "--json"
    )
    payload = json.loads(proc.stdout)
    rates = payload["rates"]
    assert abs(rates["entropy_rate"]) < 1e-9
    assert rates["entropy_bound"] < 1e-9
    assert rates["h_int_norm_kind"] == "operator"


def test_analyze_nonlazy_rate_within_bound():
    proc = run_cli(
        "analyze",
        str(GOLDEN / "schmidt_08_02.json"),
        str(GOLDEN / "hamiltonian_2x2.json"),
        "--json",
        "--moments",
        "3,4",
    )
    payload = json.loads(proc.stdout)
    rates = payload["rates"]
    assert abs(rates["entropy_rate"]) <= rates["entropy_bound"] + 1e-9
    assert rates["entropy_bound"] > 1e-3
    assert set(rates["moment_rates"]) == {"3", "4"}
    assert payload["rates"]["mi_purity_bound"] is not None  # pure input


def test_analyze_parse_failure_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    proc = run_cli("analyze", str(bad), check=False)
    assert proc.returncode == 2
    proc = run_cli("analyze", str(tmp_path / "missing.json"), check=False)
    assert proc.returncode == 2
    # an integer entry too large for a float is a parse error, not a crash, and so is
    # nesting too deep to decode
    for text in ('{"dims":[1,1],"kind":"density","data":[[' + "9" * 401 + ",0]]}", "[" * 200000):
        bad.write_text(text)
        proc = run_cli("analyze", str(bad), check=False)
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr


def test_analyze_refuses_a_file_that_is_not_utf8_with_exit_2(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["analyze", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: 'utf-8' codec")
    proc = run_cli("analyze", str(bad), check=False)
    assert proc.returncode == 2
    assert proc.stderr.decode().startswith(f"error: cannot read {bad}:")


def test_analyze_rank_deficiency_exit_3(tmp_path):
    # pure product state: rho_S is rank one, ln(rho_S) undefined
    chi = np.zeros(4, dtype=complex)
    chi[0] = 1.0
    path = tmp_path / "prod_pure.json"
    statefile.save(path, statefile.from_vector(chi, 2, 2))
    proc = run_cli("analyze", str(path), str(GOLDEN / "hamiltonian_2x2.json"), check=False)
    assert proc.returncode == 3
    assert b"regularize" in proc.stderr
    proc = run_cli(
        "analyze", str(path), str(GOLDEN / "hamiltonian_2x2.json"), "--regularize", "1e-6"
    )
    assert proc.returncode == 0


def test_analyze_json_round_trip():
    proc = run_cli("analyze", str(GOLDEN / "bell.json"), "--json")
    payload = json.loads(proc.stdout)
    assert json.loads(json.dumps(payload)) == payload


def test_analyze_csv_format():
    proc = run_cli("analyze", str(GOLDEN / "bell.json"), "--csv")
    lines = proc.stdout.decode().strip().split("\n")
    assert lines[0] == "key,value"
    keys = [ln.split(",", 1)[0] for ln in lines[1:]]
    assert "commutator.lazy" in keys
    assert "correlations.negativity" in keys


def test_analyze_multi_digit_moment_orders_sort_as_strings():
    # moment orders are string keys: "10" sorts before "3" in JSON and CSV alike
    args = ("analyze", str(GOLDEN / "schmidt_08_02.json"), str(GOLDEN / "hamiltonian_2x2.json"),
            "--moments", "3,10")
    text = run_cli(*args, "--json").stdout.decode()
    assert list(json.loads(text)["rates"]["moment_rates"]) == ["10", "3"]
    assert text.index('"10"') < text.index('"3"')
    keys = [ln.split(",", 1)[0] for ln in run_cli(*args, "--csv").stdout.decode().split("\n")]
    assert keys.index("rates.moment_rates.10") < keys.index("rates.moment_rates.3")


def test_analyze_tol_override():
    proc = run_cli("analyze", str(GOLDEN / "schmidt_08_02.json"), "--tol", "1.0", "--json")
    payload = json.loads(proc.stdout)
    assert payload["commutator"]["lazy"] is True
    assert payload["commutator"]["tolerance"] == 1.0


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "args, name",
    [
        (["analyze", str(GOLDEN / "bell.json"), "--json", "--tol"], "tol"),
        (["sparsity", "--ds", "2", "--de", "2", "--samples", "5", "--lazy-tol"], "lazy_tol"),
        (["detect-discord", str(GOLDEN / "schmidt_08_02.json"), "--threshold"], "threshold"),
        (["detect-discord", str(GOLDEN / "schmidt_08_02.json"), "--fd", "--fd-step"], "step"),
        (["detect-discord", str(GOLDEN / "schmidt_08_02.json"), "--fd-step"], "step"),
    ],
    ids=["tol", "lazy-tol", "threshold", "fd-step", "fd-step-without-fd"],
)
def test_tolerances_and_steps_must_be_finite_and_non_negative(args, name, value, capsys):
    assert main([*args, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{name} must be finite" in captured.err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--regularize", "-5", "regularization weight must be in (0, 1), got -5.0"),
        ("--regularize", "1", "regularization weight must be in (0, 1), got 1.0"),
        ("--moments", "0", "moment order must be an integer >= 1, got 0"),
        ("--moments", "3,-2", "moment order must be an integer >= 1, got -2"),
        *(
            ("--moments", value, f"--moments must be comma-separated integers >= 1, got {value!r}")
            for value in ("2.5", "3,,4", "abc", "1e3")
        ),
    ],
    ids=["regularize-negative", "regularize-one", "moments-zero", "moments-negative",
         "moments-fraction", "moments-empty-item", "moments-word", "moments-exponent"],
)
def test_analyze_checks_rate_flags_with_or_without_a_hamiltonian(flag, value, message, capsys):
    for h in ([], [str(GOLDEN / "hamiltonian_2x2.json")]):
        assert main(["analyze", str(GOLDEN / "bell.json"), *h, flag, value, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_a_zero_tolerance_is_valid(capsys):
    assert main(["analyze", str(GOLDEN / "bell.json"), "--json", "--tol", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["commutator"]["tolerance"] == 0.0


# ---------------------------------------------------------------- evolve


def test_evolve_header_and_rows(tmp_path):
    out = tmp_path / "traj.csv"
    run_cli(
        "evolve", str(GOLDEN / "bell.json"), str(GOLDEN / "hamiltonian_2x2.json"),
        "--t-max", "1.0", "--steps", "6", "--out", str(out),
    )
    lines = out.read_text().strip().split("\n")
    assert lines[0] == (
        "time,entropy,purity,comm_trace_norm,entropy_rate,entropy_bound,"
        "purity_rate,purity_bound"
    )
    assert len(lines) == 7  # header + steps
    first = [float(x) for x in lines[1].split(",")]
    assert abs(first[4]) < 1e-9  # lazy at t = 0


def test_evolve_rows_satisfy_bound():
    proc = run_cli(
        "evolve", str(GOLDEN / "product.json"), str(GOLDEN / "hamiltonian_2x2.json"),
        "--t-max", "2.0", "--steps", "9",
    )
    lines = proc.stdout.decode().strip().split("\n")[1:]
    for line in lines:
        vals = [float(x) for x in line.split(",")]
        _, _, _, _, s_rate, s_bound, p_rate, p_bound = vals
        assert abs(s_rate) <= s_bound + 1e-9
        assert abs(p_rate) <= p_bound + 1e-9


def test_evolve_constant_entropy_without_interaction(tmp_path):
    # purely local Hamiltonian: h_int = 0, entropy column constant
    from lazylab import kron, random_hermitian

    h_local = kron(random_hermitian(2, 5), np.eye(2)) + kron(np.eye(2), random_hermitian(2, 6))
    hpath = tmp_path / "hlocal.json"
    statefile.save(hpath, statefile.from_hermitian(h_local, 2, 2))
    proc = run_cli(
        "evolve", str(GOLDEN / "product.json"), str(hpath), "--t-max", "2.0", "--steps", "5"
    )
    lines = proc.stdout.decode().strip().split("\n")[1:]
    entropies = [float(ln.split(",")[1]) for ln in lines]
    assert max(entropies) - min(entropies) < 1e-10


def test_evolve_moment_columns():
    proc = run_cli(
        "evolve", str(GOLDEN / "bell.json"), str(GOLDEN / "hamiltonian_2x2.json"),
        "--t-max", "0.5", "--steps", "3", "--moments", "3,4",
    )
    lines = proc.stdout.decode().strip().split("\n")
    assert lines[0].endswith("purity_bound,moment_3,moment_4")


def test_evolve_validates_grid():
    proc = run_cli(
        "evolve", str(GOLDEN / "bell.json"), str(GOLDEN / "hamiltonian_2x2.json"),
        "--t-max", "-1", "--steps", "5", check=False,
    )
    assert proc.returncode == 2
    proc = run_cli(
        "evolve", str(GOLDEN / "bell.json"), str(GOLDEN / "hamiltonian_2x2.json"),
        "--t-max", "1", "--steps", "1", check=False,
    )
    assert proc.returncode == 2


def test_evolve_regularize_end_to_end(tmp_path):
    # a pure product has rank-one rho_S: its entropy rate needs --regularize
    chi = np.kron(haar_random_pure(2, 11), haar_random_pure(2, 12))
    path = tmp_path / "prod_pure.json"
    statefile.save(path, statefile.from_vector(chi, 2, 2))
    h = GOLDEN / "hamiltonian_2x2.json"
    args = ("evolve", str(path), str(h), "--t-max", "1.5", "--steps", "6")
    assert run_cli(*args, check=False).returncode == 3

    lines = run_cli(*args, "--regularize", "1e-6").stdout.decode().strip().split("\n")
    header = lines[0].split(",")
    traj = record_trajectory(
        statefile.load_state(path),
        statefile.load_hamiltonian(h),
        np.linspace(0.0, 1.5, 6),
        regularize=1e-6,
    )
    assert len(lines) == 1 + len(traj.records)
    for line, t, rec in zip(lines[1:], traj.times, traj.records):
        want = [t, *(getattr(rec, name) for name in header[1:])]
        for got, v in zip(map(float, line.split(",")), want):
            assert abs(got - v) <= 1e-12 * (1.0 + abs(v)), (header, line, want)

    # refused as a flag, with one error line and no numpy warning before it
    for t_max in ("nan", "inf"):
        proc = run_cli(*args[:3], "--t-max", t_max, "--steps", "3", check=False)
        assert proc.returncode == 2
        assert proc.stderr == f"error: --t-max must be finite and positive, got {t_max}\n".encode()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--t-max", "nan"], "--t-max must be finite and positive, got nan"),
        (["--t-max", "inf"], "--t-max must be finite and positive, got inf"),
        (["--t-max=-inf"], "--t-max must be finite and positive, got -inf"),
        (["--t-max", "0"], "--t-max must be finite and positive, got 0.0"),
        (["--steps", "1"], "--steps must be >= 2, got 1"),
        (["--moments", "0"], "moment order must be an integer >= 1, got 0"),
        (["--moments", "2.5"], "--moments must be comma-separated integers >= 1, got '2.5'"),
        (["--moments", "3,,4"], "--moments must be comma-separated integers >= 1, got '3,,4'"),
        (["--regularize", "1"], "regularization weight must be in (0, 1), got 1.0"),
    ],
    ids=["t-max-nan", "t-max-inf", "t-max-minus-inf", "t-max-zero", "steps", "moments",
         "moments-fraction", "moments-empty-item", "regularize"],
)
def test_evolve_checks_every_rate_flag_before_it_reads_a_file(flags, message, tmp_path, capsys):
    # in process, under the RuntimeWarning-as-error filter: a t_max that is not finite
    # never reaches np.linspace, and neither file (here missing) is opened
    argv = ["evolve", str(tmp_path / "no-state.json"), str(tmp_path / "no-h.json"),
            "--t-max", "1", "--steps", "3", *flags]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_evolve_refuses_a_t_max_whose_phases_overflow(capsys):
    # finite, so accepted as a flag, but E t overflows: one error line, no numpy
    # warning (under the RuntimeWarning-as-error filter); 1e17 is still evolved
    argv = ["evolve", str(GOLDEN / "product.json"), str(GOLDEN / "hamiltonian_2x2.json"),
            "--steps", "3", "--t-max"]
    assert main([*argv, "1e308"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: times up to |t| = 1e+308 overflow the phases")
    assert err.count("\n") == 1
    assert main([*argv, "1e17"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


def _ginibre_file(path, ds, de, seed):
    state = BipartiteState(ds=ds, de=de, matrix=ginibre_mixed(ds * de, ds * de, seed))
    statefile.save(path, statefile.from_bipartite(state))
    return state


@pytest.mark.parametrize("dims", [(4, 2), (1, 8)])
@pytest.mark.parametrize("command", ["analyze", "evolve"])
def test_a_hamiltonian_file_of_other_dims_is_refused(command, dims, tmp_path, capsys):
    # one 8x8 operator fits a 2x4 state only as dims (2, 4): another split of the
    # same matrix would rate another h_int
    state, h = tmp_path / "state.json", tmp_path / "h.json"
    _ginibre_file(state, 2, 4, 2401)
    h_tot = random_hermitian(8, 2402)
    rest = ["--t-max", "1", "--steps", "3"] if command == "evolve" else ["--json"]
    statefile.save(h, statefile.from_hermitian(h_tot, 2, 4))
    assert main([command, str(state), str(h), *rest]) == 0
    capsys.readouterr()
    statefile.save(h, statefile.from_hermitian(h_tot, *dims))
    assert main([command, str(state), str(h), *rest]) == 2
    assert capsys.readouterr() == (
        "", f"error: Hamiltonian has dims ({dims[0]}, {dims[1]}), the state has (2, 4)\n"
    )


def test_a_2x3_hamiltonian_file_rates_as_the_public_functions_do(tmp_path, capsys):
    # ds != de: a reader that swapped the system and environment dims would split
    # the 6x6 operator as 3x2 and rate another h_int
    path, hpath = tmp_path / "state.json", tmp_path / "h.json"
    state = _ginibre_file(path, 2, 3, 2403)
    h_tot = random_hermitian(6, 2404)
    statefile.save(hpath, statefile.from_hermitian(h_tot, 2, 3))

    def close(got, want):
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (got, want)

    assert main(["analyze", str(path), str(hpath), "--moments", "3", "--json"]) == 0
    rates = json.loads(capsys.readouterr().out)["rates"]
    report = rate_bounds(state, decompose_hamiltonian(h_tot, 2, 3).h_int, ns=(3,))
    assert rates.pop("mi_purity_bound") is report.mi_purity_bound is None
    assert rates.pop("h_int_norm_kind") == report.h_int_norm_kind
    close(rates.pop("moment_rates")["3"], report.moment_rates[3])
    for name, got in rates.items():
        close(got, getattr(report, name))

    assert main(["evolve", str(path), str(hpath), "--t-max", "1.5", "--steps", "6"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    header = lines[0].split(",")
    traj = record_trajectory(state, h_tot, np.linspace(0.0, 1.5, 6))
    assert len(lines) == 1 + len(traj.records)
    for line, t, rec in zip(lines[1:], traj.times, traj.records):
        want = [t, *(getattr(rec, name) for name in header[1:])]
        for got, v in zip(map(float, line.split(",")), want):
            close(got, v)


def test_evolve_wrong_kind_exit_2():
    proc = run_cli(
        "evolve", str(GOLDEN / "bell.json"), str(GOLDEN / "bell.json"),
        "--t-max", "1", "--steps", "3", check=False,
    )
    assert proc.returncode == 2


# -------------------------------------------------------- detect-discord


def test_detect_discord_cli_verdicts():
    for fixture, expected in [
        ("zerodiscord.json", False),
        ("maxent3.json", False),
        ("schmidt_08_02.json", True),
    ]:
        proc = run_cli(
            "detect-discord", str(GOLDEN / fixture), "--samples", "20", "--seed", "3", "--json"
        )
        payload = json.loads(proc.stdout)
        assert payload["discord_detected"] is expected
        assert len(payload["per_sample_rates"]) == 20


def test_detect_discord_fd_flag():
    proc = run_cli(
        "detect-discord", str(GOLDEN / "schmidt_08_02.json"),
        "--samples", "5", "--seed", "3", "--fd", "--json",
    )
    payload = json.loads(proc.stdout)
    assert payload["discord_detected"] is True


# -------------------------------------------------------------- sparsity


def test_sparsity_scan_cli(tmp_path):
    proc = run_cli(
        "sparsity", "--ds", "2", "--de", "2", "--samples", "100", "--seed", "4",
        "--lazy-tol", "1e-3", "--json",
    )
    payload = json.loads(proc.stdout)
    assert payload["samples"] == 100
    assert payload["count_below_tol"] == 0
    assert sum(payload["histogram_counts"]) == 100


def test_sparsity_include_file(capsys):
    proc = run_cli(
        "sparsity", "--ds", "2", "--de", "2", "--samples", "1", "--seed", "4",
        "--lazy-tol", "1e-3", "--include-file", str(GOLDEN / "bell.json"), "--json",
    )
    payload = json.loads(proc.stdout)
    assert payload["count_below_tol"] == 1

    # a purevector file is read as analyze reads it: 2 sqrt(0.8 * 0.2 (0.8 - 0.2)^2) = 0.48
    path = str(GOLDEN / "schmidt_08_02.json")
    assert main(["analyze", path, "--json"]) == 0
    trace_norm = json.loads(capsys.readouterr().out)["commutator"]["trace_norm"]
    argv = ["sparsity", "--ds", "2", "--de", "2", "--samples", "1", "--include-file", path, "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["max_trace_norm"] == trace_norm == 0.48

    # a sample count below 1 is refused before the included state is read
    for samples in ("0", "-1"):
        assert main([*argv[:6], samples, *argv[7:]]) == 2
        assert capsys.readouterr() == ("", f"error: samples must be >= 1, got {samples}\n")


def test_sparsity_deterministic():
    args = ("sparsity", "--ds", "2", "--de", "2", "--samples", "60", "--seed", "9", "--json")
    assert run_cli(*args).stdout == run_cli(*args).stdout


# ----------------------------------------------------------------- sweep


def test_sweep_no_negative_slack():
    proc = run_cli("sweep", "--ds", "2", "--de", "2", "--samples", "30", "--seed", "5")
    lines = proc.stdout.decode().strip().split("\n")
    header = lines[0].split(",")
    i_es = header.index("entropy_slack")
    i_ps = header.index("purity_slack")
    i_pure = header.index("pure")
    i_mi = header.index("mi_purity_bound")
    assert len(lines) == 31
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[i_es]) >= -1e-9
        assert float(cells[i_ps]) >= -1e-9
        if cells[i_pure] == "1":
            assert cells[i_mi] != ""
        else:
            assert cells[i_mi] == ""


def test_sweep_refuses_a_one_dimensional_factor():
    proc = run_cli("sweep", "--ds", "1", "--de", "4", "--samples", "3", "--seed", "0", check=False)
    assert proc.returncode == 2
    assert b"random couplings need ds, de >= 2, got dims (1, 4)" in proc.stderr
    assert proc.stdout == b""


# ------------------------------------------------------------- in-process


def test_main_returns_exit_codes(tmp_path, capsys):
    assert main(["gen", "bell", "--out", str(tmp_path / "b.json")]) == 0
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2
    for bins in ("-1", "0"):
        assert main(["sparsity", "--ds", "2", "--de", "2", "--samples", "5", "--bins", bins]) == 2
        assert f"bins must be >= 1, got {bins}" in capsys.readouterr().err


OUT_COMMANDS = {
    "gen": ["gen", "zerodiscord", "--probs", "0.6,0.4", "--seed", "5"],
    "analyze": ["analyze", str(GOLDEN / "product.json"), str(GOLDEN / "hamiltonian_2x2.json")],
    "evolve": ["evolve", str(GOLDEN / "bell.json"), str(GOLDEN / "hamiltonian_2x2.json"),
               "--t-max", "1.0", "--steps", "3"],
    "detect-discord": ["detect-discord", str(GOLDEN / "schmidt_08_02.json"), "--samples", "4"],
    "sparsity": ["sparsity", "--ds", "2", "--de", "2", "--samples", "20", "--bins", "3"],
    "sweep": ["sweep", "--ds", "2", "--de", "2", "--samples", "4"],
}


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_every_subcommand_writes_out_or_fails_cleanly(command, tmp_path, capsys):
    argv = OUT_COMMANDS[command]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert stdout

    # written over a longer file, which keeps its inode and is cut to the output
    out = tmp_path / "x.out"
    out.write_text("#" * (len(stdout) + 4096))
    inode = out.stat().st_ino
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()
    assert out.stat().st_ino == inode

    # the command runs before the file is opened, so nothing is written anywhere
    assert main([*argv, "--out", str(tmp_path / "missing" / "x.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "missing").exists()


def test_out_to_a_device_or_a_pipe_is_not_cut(capsys):
    # neither can be truncated; a pipe is the child's stdout here
    assert main(["gen", "bell", "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")
    proc = run_cli("gen", "bell", "--out", "/dev/stdout")
    assert proc.stdout == (GOLDEN / "bell.json").read_bytes()


@pytest.mark.parametrize("command", ["analyze", "evolve"])
def test_a_non_hermitian_hamiltonian_file_is_refused_as_it_is_read(command, tmp_path, capsys):
    path = tmp_path / "h.json"
    statefile.save(path, statefile.from_hermitian(np.triu(np.ones((4, 4), dtype=complex)), 2, 2))
    argv = OUT_COMMANDS[command].copy()
    argv[2] = str(path)
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "",
        "error: invalid Hamiltonian payload: hamiltonian is not Hermitian: "
        "||m - m\u2020||_F = 3.464e+00 exceeds tolerance\n",
    )


def test_main_can_be_reused_in_process(tmp_path, capsys):
    # one parser serves every call; nothing a call parses carries over to the next
    h = str(GOLDEN / "hamiltonian_2x2.json")
    argv = ["analyze", str(GOLDEN / "schmidt_08_02.json"), h, "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(GOLDEN / "bell.json"), "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert first == (GOLDEN / "analyze_schmidt_h.json").read_text()

    chi = np.zeros(4, dtype=complex)
    chi[0] = 1.0  # pure product state: rank-one rho_S needs --regularize
    path = str(tmp_path / "prod_pure.json")
    statefile.save(path, statefile.from_vector(chi, 2, 2))
    assert main(["analyze", path, h, "--regularize", "1e-6", "--json"]) == 0
    assert main(["analyze", path, h, "--json"]) == 3
    assert "regularize" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", str(GOLDEN / "schmidt_08_02.json"), str(GOLDEN / "hamiltonian_2x2.json"), "--json"],
        ["detect-discord", str(GOLDEN / "schmidt_08_02.json"), "--samples", "20", "--seed", "3", "--json"],
        ["sparsity", "--ds", "2", "--de", "2", "--samples", "50", "--seed", "0", "--bins", "4", "--json"],
    ],
)
def test_json_answers_leave_no_cyclic_garbage(argv, capsys):
    # json.dumps's indenting encoder left 33 objects per answer that only the cyclic collector frees
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert main(argv) == 0  # the first answer may fill caches
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(scope="module")
def analyze_8x8_files(tmp_path_factory):
    """gen haarpure|ginibre --ds 8 --de 8 state files and a 64 x 64 Hamiltonian file."""
    root = tmp_path_factory.mktemp("analyze_8x8")
    paths = {"H": str(root / "h.json")}
    statefile.save(paths["H"], statefile.from_hermitian(random_hermitian(64, 4), 8, 8))
    for kind in ("haarpure", "ginibre"):
        paths[kind] = str(root / f"{kind}.json")
        assert main(["gen", kind, "--ds", "8", "--de", "8", "--seed", "3", "--out", paths[kind]]) == 0
    return paths


@pytest.mark.parametrize(
    "kind, args, expected",
    [
        ("haarpure", ["--json"], 0),
        ("haarpure", ["H", "--json"], 1),
        ("haarpure", ["H", "--regularize", "1e-3"], 1),
        ("ginibre", ["--json"], 3),
        ("ginibre", ["H", "--json"], 5),
        ("ginibre", ["H", "--regularize", "1e-3"], 5),
    ],
)
def test_analyze_factorizes_rho_s_once(analyze_8x8_files, monkeypatch, capsys, kind, args, expected):
    # 64 x 64 eigvalsh per answer: ||H_int|| once; on a pure state nothing else
    # (commutator norms, entropies, negativity and the regularized ||K||_1 are
    # closed forms of the Schmidt weights); on a mixed one ||C||_1, S(rho_SE)
    # and the partial transpose, plus ||K||_1 with H, regularized or not
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *a_args, **kwargs):
        if np.shape(a)[-2:] == (64, 64):
            calls.append(np.shape(a))
        return eigvalsh(a, *a_args, **kwargs)

    argv = ["analyze", analyze_8x8_files[kind], *(analyze_8x8_files.get(a, a) for a in args)]
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == expected


@pytest.mark.parametrize(
    "args, expected",
    [(["--json"], 1), (["H", "--json"], 2), (["H", "--regularize", "1e-3"], 2)],
)
def test_analyze_builds_each_dense_commutator_once(monkeypatch, capsys, args, expected):
    # C = [rho_S (x) I, rho_SE] serves both of its norms; a Hamiltonian adds the
    # log commutator K, whose regularized norm is the unregularized one scaled
    calls = []
    weigh_blocks = laziness._Eigenbasis.weigh_blocks

    def counting(self, w):
        calls.append(w.shape)
        return weigh_blocks(self, w)

    h = str(GOLDEN / "hamiltonian_2x2.json")
    argv = ["analyze", str(GOLDEN / "product.json"), *(h if a == "H" else a for a in args)]
    monkeypatch.setattr(laziness._Eigenbasis, "weigh_blocks", counting)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == expected


@pytest.mark.parametrize(
    "args, expected",
    [
        (["analyze", "product.json", "--json"], 1),
        (["analyze", "product.json", "hamiltonian_2x2.json", "--json"], 2),
        (["evolve", "bell.json", "hamiltonian_2x2.json", "--t-max", "1", "--steps", "5"], 2),
    ],
)
def test_derived_matrices_are_not_checked_hermitian_again(monkeypatch, capsys, args, expected):
    # the state once, as it is built, and a Hamiltonian file once, as it is read;
    # neither its split nor the h_int rated from it is checked again
    calls = []
    require_hermitian = linalg.require_hermitian

    def counting(m, **kwargs):
        calls.append(kwargs.get("name"))
        return require_hermitian(m, **kwargs)

    monkeypatch.setattr(linalg, "require_hermitian", counting)
    assert main([str(GOLDEN / a) if a.endswith(".json") else a for a in args]) == 0
    capsys.readouterr()
    assert len(calls) == expected, calls
