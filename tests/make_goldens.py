"""Regenerate the committed golden fixtures and outputs.

Run from the repository root:

    python3 -m tests.make_goldens

Inputs (state/Hamiltonian files) are produced first, then every golden
output is captured from the CLI exactly as the tests invoke it. Outputs
are deterministic given the fixed seeds, so regeneration is only needed
when the file formats or report layouts change intentionally. For each
file it rewrites, the script prints the largest absolute and relative
change of any number against the file's previous bytes.
"""

from __future__ import annotations

import pathlib
import re
import sys

import numpy as np

from .cli_runner import SRC, run_lazylab

sys.path.insert(0, str(SRC))  # the checkout's lazylab, installed or not

from lazylab import random_hermitian, statefile  # noqa: E402
from lazylab.statefile import from_hermitian, from_vector  # noqa: E402

GOLDEN = pathlib.Path(__file__).parent / "golden"

# A number not glued to a name (so the 3 of "moment_3" is not one).
NUMBER = re.compile(rb"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?![\w.])")


def numeric_change(old: bytes, new: bytes) -> str:
    """The largest absolute and relative change between two outputs' numbers.

    Both must have the same text around their numbers; the relative
    change is taken over the numbers that were nonzero before. Each
    figure names its old -> new pair, so a relative change of a
    roundoff-sized value reads as such.
    """
    if old == new:
        return "unchanged"
    if NUMBER.sub(b"#", old) != NUMBER.sub(b"#", new):
        return "layout changed, numbers not compared"
    pairs = [
        (a.decode(), b.decode())
        for a, b in zip(NUMBER.findall(old), NUMBER.findall(new))
        if a != b
    ]

    def delta(pair):
        return abs(float(pair[1]) - float(pair[0]))

    def rel(pair):
        return delta(pair) / abs(float(pair[0]))

    widest = max(pairs, key=delta)
    report = (
        f"{len(pairs)} numbers changed; largest absolute change {delta(widest):.2g} "
        f"({widest[0]} -> {widest[1]})"
    )
    nonzero = [p for p in pairs if float(p[0]) != 0.0]
    if nonzero:
        top = max(nonzero, key=rel)
        report += f", largest relative change {rel(top):.2g} ({top[0]} -> {top[1]})"
    return report


def write_golden(name: str, data: bytes) -> None:
    """Write golden file ``name`` and report how its numbers moved."""
    path = GOLDEN / name
    old = path.read_bytes() if path.exists() else None
    path.write_bytes(data)
    print(f"{name}: {'new file' if old is None else numeric_change(old, data)}")


def run_cli(*args: str) -> bytes:
    proc = run_lazylab(*args)
    proc.check_returncode()
    return proc.stdout


def make_inputs() -> None:
    GOLDEN.mkdir(exist_ok=True)

    write_golden("bell.json", run_cli("gen", "bell"))
    write_golden(
        "product.json",
        run_cli("gen", "product", "--ds", "2", "--de", "2", "--seed", "11"),
    )
    write_golden(
        "zerodiscord.json",
        run_cli("gen", "zerodiscord", "--probs", "0.6,0.4", "--de", "2", "--seed", "5"),
    )
    write_golden("maxent3.json", run_cli("gen", "maxent", "--d", "3"))

    chi = np.zeros(4, dtype=complex)
    chi[0] = np.sqrt(0.8)
    chi[3] = np.sqrt(0.2)
    write_golden("schmidt_08_02.json", statefile.dumps(from_vector(chi, 2, 2)).encode())

    h = random_hermitian(4, 123)
    write_golden("hamiltonian_2x2.json", statefile.dumps(from_hermitian(h, 2, 2)).encode())


def make_outputs() -> None:
    bell = str(GOLDEN / "bell.json")
    product = str(GOLDEN / "product.json")
    schmidt = str(GOLDEN / "schmidt_08_02.json")
    zerodiscord = str(GOLDEN / "zerodiscord.json")
    maxent3 = str(GOLDEN / "maxent3.json")
    ham = str(GOLDEN / "hamiltonian_2x2.json")

    write_golden("analyze_bell.json", run_cli("analyze", bell, "--json"))
    write_golden("analyze_product_h.json", run_cli("analyze", product, ham, "--json"))
    write_golden("analyze_schmidt_h.json", run_cli("analyze", schmidt, ham, "--json"))
    write_golden(
        "evolve_bell.csv",
        run_cli("evolve", bell, ham, "--t-max", "1.0", "--steps", "5"),
    )
    write_golden(
        "detect_schmidt.json",
        run_cli("detect-discord", schmidt, "--samples", "20", "--seed", "3", "--json"),
    )
    write_golden(
        "detect_zerodiscord.json",
        run_cli("detect-discord", zerodiscord, "--samples", "20", "--seed", "3", "--json"),
    )
    write_golden(
        "detect_maxent.json",
        run_cli("detect-discord", maxent3, "--samples", "20", "--seed", "3", "--json"),
    )


def main() -> None:
    make_inputs()
    make_outputs()
    print(f"golden files written to {GOLDEN}")


if __name__ == "__main__":
    main()
