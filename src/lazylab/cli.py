"""Command-line front end: lazy-lab <gen|analyze|evolve|detect-discord|sparsity|sweep>.

All subcommands are deterministic given their full flag set (including
--seed) and use exit codes 0 (success), 2 (input/parse error) and 3
(numerical-domain error, i.e. rank deficiency without --regularize).
Each handler returns its text and main writes it: to stdout, or to the
file every subcommand's --out names, only once the command has succeeded.
--json text is json.dumps(payload, sort_keys=True, indent=2) byte for byte,
written by statefile's orjson writer from the reports' shallow field dicts.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import operator
import sys

import numpy as np

from . import statefile
from .dynamics import HamiltonianTriple, TrajectoryRecord, _decompose, _record_trajectory
from .laziness import (
    RankDeficientStateError,
    _commutator_norms,
    _moment_order,
    _optional_weight,
    _rate_bounds,
    correlation_measures,
)
from .linalg import DEFAULT_DETECT_THRESHOLD, FD_STEP, _require_positive_dims
from .protocol import SweepRow, bound_sweep, detect_discord, sparsity_scan
from .states import (
    BipartiteState,
    derive_rng,
    ginibre_mixed,
    haar_random_pure,
    maximally_entangled,
    product_state,
    zero_discord_state,
)

GEN_KINDS = ("product", "bell", "maxent", "zerodiscord", "haarpure", "ginibre")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(text: str, out_path: str | None) -> None:
    """Write text to stdout, or over the file out_path names, as statefile.save writes."""
    if out_path is None:
        sys.stdout.write(text)
    else:
        statefile._write_text(out_path, text)


def _fields_text(report, *names: str) -> str:
    """One `name = value` line for each named field of a report dataclass."""

    def text(value) -> str:
        if isinstance(value, bool):  # before int: a bool is an int
            return str(value).lower()
        return _fmt(value) if isinstance(value, float) else str(value)

    return "".join(f"{name} = {text(getattr(report, name))}\n" for name in names)


def _json_text(payload) -> str:
    return statefile._json_text(payload, indent=True) + "\n"


def _csv_quote(field: str) -> str:
    if "," in field or '"' in field:
        return '"' + field.replace('"', '""') + '"'
    return field


def _csv_text(header: list[str], rows: list[list]) -> str:
    cells = [header] + [[_fmt(v) if isinstance(v, float) else str(v) for v in row] for row in rows]
    return "".join(",".join(map(_csv_quote, line)) + "\n" for line in cells)


def _parse_probs(text: str) -> list[float]:
    try:
        probs = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"cannot parse probabilities {text!r}: {exc}") from exc
    if not probs:
        raise ValueError("at least one probability is required")
    return probs


def _rate_inputs(args) -> tuple[tuple[int, ...], BipartiteState, HamiltonianTriple | None]:
    """The --moments orders, the state and the split of the Hamiltonian file, if one is given:
    the rate flags are checked before a file is read, the Hamiltonian once, as it is read."""
    try:
        orders = [int(n) for n in args.moments.split(",")] if args.moments else []
    except ValueError:
        raise ValueError(
            f"--moments must be comma-separated integers >= 1, got {args.moments!r}"
        ) from None
    ns = tuple(map(_moment_order, orders))
    _optional_weight(args.regularize)
    state = statefile.load_state(args.state)
    if args.hamiltonian is None:
        return ns, state, None
    sf = statefile.load(args.hamiltonian)
    if (sf.ds, sf.de) != (state.ds, state.de):
        raise statefile.StateFileError(
            f"Hamiltonian has dims ({sf.ds}, {sf.de}), the state has ({state.ds}, {state.de})"
        )
    return ns, state, _decompose(statefile.to_hamiltonian(sf), state.ds, state.de)


def cmd_gen(args) -> str:
    _require_positive_dims(args.ds, args.de)
    kind = args.kind
    if kind == "bell":
        sf = statefile.from_bipartite(maximally_entangled(2))
    elif kind == "maxent":
        sf = statefile.from_bipartite(maximally_entangled(args.d))
    elif kind == "ginibre":
        rank = args.rank if args.rank is not None else args.ds * args.de
        rho = ginibre_mixed(args.ds * args.de, rank, derive_rng(args.seed, 0))
        sf = statefile.from_bipartite(BipartiteState(ds=args.ds, de=args.de, matrix=rho))
    elif kind == "haarpure":
        chi = haar_random_pure(args.ds * args.de, derive_rng(args.seed, 0))
        sf = statefile.from_vector(chi, args.ds, args.de)
    elif kind == "product":
        rank_s = args.rank_s if args.rank_s is not None else args.ds
        rank_e = args.rank_e if args.rank_e is not None else args.de
        s = ginibre_mixed(args.ds, rank_s, derive_rng(args.seed, 0))
        e = ginibre_mixed(args.de, rank_e, derive_rng(args.seed, 1))
        sf = statefile.from_bipartite(product_state(s, e))
    elif kind == "zerodiscord":
        probs = _parse_probs(args.probs)
        ds = len(probs)
        rank = args.rank if args.rank is not None else args.de
        basis = [np.eye(ds, dtype=complex)[:, j] for j in range(ds)]
        envs = [ginibre_mixed(args.de, rank, derive_rng(args.seed, j)) for j in range(ds)]
        sf = statefile.from_bipartite(zero_discord_state(probs, basis, envs))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown kind {kind!r}")
    return statefile.dumps(sf)


def _flatten(payload: dict, prefix: str = "") -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = []
    for key in sorted(payload):
        value = payload[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            items.extend(_flatten(value, prefix=f"{name}."))
        else:
            items.append((name, value))
    return items


def cmd_analyze(args) -> str:
    ns, state, triple = _rate_inputs(args)
    # every field below reads the state's one evaluator; the dense commutator is not printed
    payload = {
        "dims": [state.ds, state.de],
        "commutator": _commutator_norms(state, args.tol),
        "correlations": vars(correlation_measures(state)),
    }
    if triple is not None:
        report = _rate_bounds(state, triple.h_int, ns, args.regularize)
        # string keys so that the writer and _flatten both order "10" before "3"
        moments = {str(n): v for n, v in report.moment_rates.items()}
        payload["rates"] = dict(vars(report), moment_rates=moments)

    if args.json:
        return _json_text(payload)
    if args.csv:
        rows = [
            [k, v if isinstance(v, float) else statefile._json_text(v, indent=False)]
            for k, v in _flatten(payload)
        ]
        return _csv_text(["key", "value"], rows)
    return "".join(f"{k} = {v!r}\n" for k, v in _flatten(payload))


def cmd_evolve(args) -> str:
    if not 0.0 < args.t_max < np.inf:  # NaN too
        raise ValueError(f"--t-max must be finite and positive, got {args.t_max}")
    if args.steps < 2:
        raise ValueError(f"--steps must be >= 2, got {args.steps}")
    ns, state, triple = _rate_inputs(args)
    times = np.linspace(0.0, args.t_max, args.steps)  # finite and ascending: no check again
    traj = _record_trajectory(state, triple, times, ns, args.regularize)

    # columns follow TrajectoryRecord's field order, moment values last
    cols = [f.name for f in dataclasses.fields(TrajectoryRecord) if f.name != "moment_values"]
    rows = [
        [float(t), *(getattr(rec, c) for c in cols), *(rec.moment_values[n] for n in ns)]
        for t, rec in zip(traj.times, traj.records)
    ]
    return _csv_text(["time", *cols, *(f"moment_{n}" for n in ns)], rows)


def cmd_detect_discord(args) -> str:
    state = statefile.load_state(args.state)
    verdict = detect_discord(
        state,
        samples=args.samples,
        seed=args.seed,
        threshold=args.threshold,
        use_fd=args.fd,
        fd_step=args.fd_step,
    )
    if args.json:
        return _json_text(vars(verdict))
    names = ("samples", "max_abs_purity_rate", "threshold", "discord_detected")
    return _fields_text(verdict, *names)


def cmd_sparsity(args) -> str:
    include = statefile.load_state(args.include_file) if args.include_file else None
    rank = args.rank if args.rank is not None else args.ds * args.de
    summary = sparsity_scan(
        ds=args.ds,
        de=args.de,
        samples=args.samples,
        rank=rank,
        seed=args.seed,
        lazy_tol=args.lazy_tol,
        include=include,
        bins=args.bins,
    )
    if args.json:
        return _json_text(vars(summary))
    edges = summary.histogram_edges
    bins = zip(edges[:-1], edges[1:], summary.histogram_counts)
    return (
        _fields_text(summary, "samples", "lazy_tol", "count_below_tol", "median_trace_norm")
        + "histogram (edge_lo, edge_hi, count):\n"
        + "".join(f"  {_fmt(lo)} {_fmt(hi)} {c}\n" for lo, hi, c in bins)
    )


def cmd_sweep(args) -> str:
    rows = bound_sweep(ds=args.ds, de=args.de, samples=args.samples, seed=args.seed)
    header = [f.name for f in dataclasses.fields(SweepRow)]
    fields = operator.attrgetter(*header)
    table = [
        ["" if v is None else int(v) if isinstance(v, bool) else v for v in fields(r)]
        for r in rows
    ]
    return _csv_text(header, table)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The lazy-lab argument parser, built on first use and then shared.

    Parsing leaves the parser unchanged, so every main() call in a
    process reuses this one.
    """
    parser = argparse.ArgumentParser(
        prog="lazy-lab",
        description="Entropy/purity rates, lazy-state analysis and decoherence bounds "
        "for bipartite density matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a state file")
    p.add_argument("kind", choices=GEN_KINDS)
    p.add_argument("--ds", type=int, default=2, help="system dimension")
    p.add_argument("--de", type=int, default=2, help="environment dimension")
    p.add_argument("--d", type=int, default=2, help="local dimension (maxent)")
    p.add_argument("--rank", type=int, default=None, help="rank (ginibre/zerodiscord env)")
    p.add_argument("--rank-s", type=int, default=None, help="system factor rank (product)")
    p.add_argument("--rank-e", type=int, default=None, help="environment factor rank (product)")
    p.add_argument("--probs", type=str, default="0.5,0.5", help="comma list (zerodiscord)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="commutator/correlation (and rate) report")
    p.add_argument("state")
    p.add_argument("hamiltonian", nargs="?", default=None)
    p.add_argument("--tol", type=float, default=None, help="lazy trace-norm tolerance")
    p.add_argument("--moments", type=str, default=None, help="extra moment orders, e.g. 3,4")
    p.add_argument("--regularize", type=float, default=None)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("evolve", help="trajectory CSV under a total Hamiltonian")
    p.add_argument("state")
    p.add_argument("hamiltonian")
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--moments", type=str, default=None, help="extra moment orders, e.g. 3,4")
    p.add_argument("--regularize", type=float, default=None)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("detect-discord", help="purity-monitoring discord test")
    p.add_argument("state")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=DEFAULT_DETECT_THRESHOLD)
    p.add_argument("--fd", action="store_true", help="estimate rates by finite differences")
    p.add_argument("--fd-step", type=float, default=FD_STEP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_detect_discord)

    p = sub.add_parser("sparsity", help="Monte Carlo scan of the commutator trace norm")
    p.add_argument("--ds", type=int, required=True)
    p.add_argument("--de", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--rank", type=int, default=None, help="Ginibre rank (default full)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lazy-tol", type=float, default=None, help="default: analyze's lazy tolerance")
    p.add_argument("--include-file", type=str, default=None, help="inject a state as sample 0")
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sparsity)

    p = sub.add_parser("sweep", help="bound-tightness CSV over random pairs")
    p.add_argument("--ds", type=int, required=True)
    p.add_argument("--de", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sweep)

    # last on every subcommand, so each --help lists it last
    for p in sub.choices.values():
        p.add_argument("--out", type=str, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # inside the try: an unwritable --out exits 2 like any other input error
        _emit(args.func(args), args.out)
        return 0
    except (ValueError, OSError) as exc:  # StateFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, RankDeficientStateError) else 2


def entry() -> None:
    sys.exit(main())
