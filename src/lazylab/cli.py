"""Command-line front end: lazy-lab <gen|analyze|evolve|detect-discord|sparsity|sweep>.

All subcommands are deterministic given their full flag set (including
--seed), write to stdout unless an output path is given, and use exit
codes 0 (success), 2 (input/parse error) and 3 (numerical-domain error,
i.e. rank deficiency without --regularize).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import statefile
from .dynamics import TrajectoryRecord, decompose_hamiltonian, record_trajectory
from .laziness import (
    RankDeficientStateError,
    _commutator_norms,
    _moment_order,
    _require_weight,
    correlation_measures,
    rate_bounds,
)
from .linalg import DEFAULT_DETECT_THRESHOLD, FD_STEP
from .protocol import (
    SweepRow,
    bound_sweep,
    detect_discord,
    sparsity_scan,
)
from .states import (
    BipartiteState,
    derive_rng,
    ginibre_mixed,
    haar_random_pure,
    maximally_entangled,
    product_state,
    zero_discord_state,
)
from .statefile import StateFileError

GEN_KINDS = ("product", "bell", "maxent", "zerodiscord", "haarpure", "ginibre")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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


def _parse_moments(text: str | None) -> tuple[int, ...]:
    return tuple(_moment_order(int(n)) for n in text.split(",")) if text else ()


def cmd_gen(args) -> int:
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
    _emit(statefile.dumps(sf), args.out)
    return 0


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


def cmd_analyze(args) -> int:
    # the rate flags are checked also when no Hamiltonian puts them to use
    ns = _parse_moments(args.moments)
    if args.regularize is not None:
        _require_weight(args.regularize)
    state = statefile.load_state(args.state)
    # every field below reads the state's one evaluator; the dense commutator is not printed
    payload = {
        "dims": [state.ds, state.de],
        "commutator": _commutator_norms(state, args.tol),
        "correlations": dataclasses.asdict(correlation_measures(state)),
    }
    if args.hamiltonian is not None:
        h_tot = statefile.load_hamiltonian(args.hamiltonian)
        triple = decompose_hamiltonian(h_tot, state.ds, state.de)
        report = rate_bounds(state, triple.h_int, ns=ns, regularize=args.regularize)
        payload["rates"] = dataclasses.asdict(report)
        # string keys so that json and _flatten both order "10" before "3"
        payload["rates"]["moment_rates"] = {str(n): v for n, v in report.moment_rates.items()}

    if args.json:
        _emit(_json_text(payload), args.out)
    elif args.csv:
        rows = [
            [k, v if isinstance(v, float) else json.dumps(v, separators=(",", ":"))]
            for k, v in _flatten(payload)
        ]
        _emit(_csv_text(["key", "value"], rows), args.out)
    else:
        lines = [f"{k} = {v!r}" for k, v in _flatten(payload)]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_evolve(args) -> int:
    state = statefile.load_state(args.state)
    h_tot = statefile.load_hamiltonian(args.hamiltonian)
    if args.t_max <= 0:
        raise ValueError(f"--t-max must be positive, got {args.t_max}")
    if args.steps < 2:
        raise ValueError(f"--steps must be >= 2, got {args.steps}")
    ns = _parse_moments(args.moments)
    times = np.linspace(0.0, args.t_max, args.steps)
    traj = record_trajectory(state, h_tot, times, ns=ns, regularize=args.regularize)

    # columns follow TrajectoryRecord's field order, moment values last
    cols = [f.name for f in dataclasses.fields(TrajectoryRecord) if f.name != "moment_values"]
    rows = [
        [float(t), *(getattr(rec, c) for c in cols), *(rec.moment_values[n] for n in ns)]
        for t, rec in zip(traj.times, traj.records)
    ]
    _emit(_csv_text(["time", *cols, *(f"moment_{n}" for n in ns)], rows), args.out)
    return 0


def cmd_detect_discord(args) -> int:
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
        _emit(_json_text(dataclasses.asdict(verdict)), args.out)
    else:
        lines = [
            f"samples = {verdict.samples}",
            f"max_abs_purity_rate = {_fmt(verdict.max_abs_purity_rate)}",
            f"threshold = {_fmt(verdict.threshold)}",
            f"discord_detected = {str(verdict.discord_detected).lower()}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sparsity(args) -> int:
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
        _emit(_json_text(dataclasses.asdict(summary)), args.out)
    else:
        lines = [
            f"samples = {summary.samples}",
            f"lazy_tol = {_fmt(summary.lazy_tol)}",
            f"count_below_tol = {summary.count_below_tol}",
            f"median_trace_norm = {_fmt(summary.median_trace_norm)}",
            "histogram (edge_lo, edge_hi, count):",
        ]
        for lo, hi, c in zip(
            summary.histogram_edges[:-1], summary.histogram_edges[1:], summary.histogram_counts
        ):
            lines.append(f"  {_fmt(lo)} {_fmt(hi)} {c}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sweep(args) -> int:
    rows = bound_sweep(ds=args.ds, de=args.de, samples=args.samples, seed=args.seed)
    header = [f.name for f in dataclasses.fields(SweepRow)]
    table = [
        ["" if v is None else int(v) if isinstance(v, bool) else v for v in dataclasses.astuple(r)]
        for r in rows
    ]
    _emit(_csv_text(header, table), args.out)
    return 0


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
    p.add_argument("--out", type=str, default=None)
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
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("evolve", help="trajectory CSV under a total Hamiltonian")
    p.add_argument("state")
    p.add_argument("hamiltonian")
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--moments", type=str, default=None, help="extra moment orders, e.g. 3,4")
    p.add_argument("--regularize", type=float, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("detect-discord", help="purity-monitoring discord test")
    p.add_argument("state")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=DEFAULT_DETECT_THRESHOLD)
    p.add_argument("--fd", action="store_true", help="estimate rates by finite differences")
    p.add_argument("--fd-step", type=float, default=FD_STEP)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", type=str, default=None)
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
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_sparsity)

    p = sub.add_parser("sweep", help="bound-tightness CSV over random pairs")
    p.add_argument("--ds", type=int, required=True)
    p.add_argument("--de", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RankDeficientStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (StateFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
