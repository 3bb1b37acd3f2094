"""Regenerate the committed golden fixtures and outputs.

Run from the repository root:

    python3 -m tests.make_goldens

The two library-written inputs are produced first, then every golden in
``CLI_GOLDENS`` is captured from the CLI; the acceptance test C10 runs
the same table. Outputs are deterministic given the fixed seeds, so
regeneration is only needed when the file formats or report layouts
change intentionally. For each
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


def _golden(name: str) -> str:
    return str(GOLDEN / name)


BELL, PRODUCT, ZERODISCORD, MAXENT3 = map(
    _golden, ("bell.json", "product.json", "zerodiscord.json", "maxent3.json")
)
SCHMIDT, HAMILTONIAN = map(_golden, ("schmidt_08_02.json", "hamiltonian_2x2.json"))

# (argv, golden): every golden the CLI writes, in an order that makes each
# input before a later row reads it. SCHMIDT and HAMILTONIAN are written by
# the library (make_library_inputs), not by the CLI.
CLI_GOLDENS = (
    (("gen", "bell"), "bell.json"),
    (("gen", "product", "--ds", "2", "--de", "2", "--seed", "11"), "product.json"),
    (("gen", "zerodiscord", "--probs", "0.6,0.4", "--de", "2", "--seed", "5"), "zerodiscord.json"),
    (("gen", "maxent", "--d", "3"), "maxent3.json"),
    (("analyze", BELL, "--json"), "analyze_bell.json"),
    (("analyze", PRODUCT, HAMILTONIAN, "--json"), "analyze_product_h.json"),
    (("analyze", SCHMIDT, HAMILTONIAN, "--json"), "analyze_schmidt_h.json"),
    (("evolve", BELL, HAMILTONIAN, "--t-max", "1.0", "--steps", "5"), "evolve_bell.csv"),
    (
        ("detect-discord", SCHMIDT, "--samples", "20", "--seed", "3", "--json"),
        "detect_schmidt.json",
    ),
    (("detect-discord", SCHMIDT, "--samples", "20", "--seed", "3"), "detect_schmidt.txt"),
    (
        ("detect-discord", ZERODISCORD, "--samples", "20", "--seed", "3", "--json"),
        "detect_zerodiscord.json",
    ),
    (("detect-discord", MAXENT3, "--samples", "20", "--seed", "3", "--json"), "detect_maxent.json"),
    (
        ("sparsity", "--ds", "2", "--de", "2", "--samples", "50", "--seed", "0", "--bins", "4"),
        "sparsity_2x2.txt",
    ),
    (
        ("sparsity", "--ds", "2", "--de", "2", "--samples", "50", "--seed", "0", "--bins", "4", "--json"),
        "sparsity_2x2.json",
    ),
    (("analyze", SCHMIDT, HAMILTONIAN, "--moments", "3,10", "--csv"), "analyze_schmidt_h.csv"),
)


def make_library_inputs() -> None:
    GOLDEN.mkdir(exist_ok=True)

    chi = np.zeros(4, dtype=complex)
    chi[0] = np.sqrt(0.8)
    chi[3] = np.sqrt(0.2)
    write_golden("schmidt_08_02.json", statefile.dumps(from_vector(chi, 2, 2)).encode())

    h = random_hermitian(4, 123)
    write_golden("hamiltonian_2x2.json", statefile.dumps(from_hermitian(h, 2, 2)).encode())


def main() -> None:
    make_library_inputs()
    for argv, golden in CLI_GOLDENS:
        write_golden(golden, run_cli(*argv))
    print(f"golden files written to {GOLDEN}")


if __name__ == "__main__":
    main()
