"""Command line for seeded, reproducible transport experiments.

Subcommands: ``coot`` (two-matrix coupling pair), ``gw`` (similarity-matrix
coupling), ``cocluster``, ``hda`` (cross-domain label propagation),
``election`` (rank-disagreement distance) and ``gen`` (simulated block
data). Every run writes CSV artifacts plus a ``report.json`` into ``--out``;
identical command lines with the same seed produce byte-identical CSVs.

Exit codes: 0 ok, 1 usage, 2 I/O, 3 numeric/domain, 4 did not converge
(suppressed by ``--allow-maxiter``).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

import numpy as np

from . import apps, fileio
from .coot import CootProblem, solve_coot
from .core import CooptError, DomainError, LOSSES, as_histogram
from .fileio import RunReport
from .gw import solve_gw_dc, sqeuclid_matrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3
EXIT_NOT_CONVERGED = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _seed(text: str) -> int:
    """``--seed``: decimal digits, an integer >= 0 as numpy's generators take."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _add_common(p, jobs=True, restarts=True, stochastic=False):
    # seed is mandatory wherever randomness is involved: always for commands
    # with random initializations, otherwise only once restarts kick in
    p.add_argument("--seed", type=_seed, required=stochastic, default=None,
                   help="RNG seed (mandatory for stochastic runs)")
    p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    if restarts:
        p.add_argument("--restarts", type=int, default=1)
    if jobs:
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel restart workers; result independent of this")
    p.add_argument("--heatmaps", action="store_true", help="also write PGM heatmaps")
    p.add_argument("--allow-maxiter", action="store_true",
                   help="exit 0 even when the iteration cap was hit")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coopt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coot", help="couple samples and features of two matrices")
    p.add_argument("--x", type=Path, required=True)
    p.add_argument("--y", type=Path, required=True)
    p.add_argument("--loss", choices=sorted(LOSSES), default="sq")
    p.add_argument("--eps1", type=float, default=0.0, help="entropic strength, sample coupling")
    p.add_argument("--eps2", type=float, default=0.0, help="entropic strength, feature coupling")
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--wx", type=Path, default=None, help="sample weights for --x (CSV)")
    p.add_argument("--wy", type=Path, default=None, help="sample weights for --y (CSV)")
    p.add_argument("--vx", default=None,
                   help="feature weights for --x: CSV path or 'mean' (column-mean weighting)")
    p.add_argument("--vy", default=None, help="feature weights for --y: CSV path or 'mean'")
    _add_common(p)
    p.set_defaults(run=cmd_coot)

    p = sub.add_parser("gw", help="couple two similarity matrices with one plan")
    p.add_argument("--x", type=Path, required=True)
    p.add_argument("--y", type=Path, required=True)
    p.add_argument("--points", action="store_true",
                   help="inputs are point clouds; build squared-Euclidean matrices")
    p.add_argument("--loss", choices=sorted(LOSSES), default="sq")
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_common(p, jobs=False)
    p.set_defaults(run=cmd_gw)

    p = sub.add_parser("cocluster", help="joint row/column clustering")
    p.add_argument("--x", type=Path, required=True)
    p.add_argument("-g", type=int, required=True, help="row clusters")
    p.add_argument("-m", type=int, required=True, help="column clusters")
    p.add_argument("--eps1", type=float, default=0.1)
    p.add_argument("--eps2", type=float, default=0.1)
    p.add_argument("--outer-iter", type=int, default=30)
    p.add_argument("--inner-iter", type=int, default=20)
    p.add_argument("--truth", type=Path, default=None,
                   help="directory holding rows.csv/cols.csv ground truth")
    _add_common(p, jobs=False, restarts=False, stochastic=True)
    p.set_defaults(run=cmd_cocluster)

    p = sub.add_parser("hda", help="propagate labels across heterogeneous domains")
    p.add_argument("--xs", type=Path, required=True, help="source data matrix")
    p.add_argument("--xt", type=Path, required=True, help="target data matrix")
    p.add_argument("--ys", type=Path, required=True, help="source labels (one int per line)")
    p.add_argument("--yt-partial", type=Path, default=None,
                   help="partial target labels; -1 marks unlabeled")
    p.add_argument("--penalty", default="auto",
                   help="class-mismatch penalty: 'auto' or a positive number")
    p.add_argument("--loss", choices=sorted(LOSSES), default="sq")
    p.add_argument("--eps1", type=float, default=0.0)
    p.add_argument("--eps2", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(run=cmd_hda)

    p = sub.add_parser("election", help="rank-disagreement distance between elections")
    p.add_argument("--x", type=Path, required=True, help="voter-by-candidate rank matrix")
    p.add_argument("--y", type=Path, required=True)
    _add_common(p)
    p.set_defaults(run=cmd_election)

    p = sub.add_parser("gen", help="generate simulated block data")
    p.add_argument("--preset", choices=sorted(apps.BLOCK_PRESETS), default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("-g", type=int, default=None)
    p.add_argument("-m", type=int, default=None)
    p.add_argument("--separation", type=float, default=None, help="default 4.0")
    p.add_argument("--unequal", action="store_true", help="ramped cluster proportions")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", type=Path, default=Path("."))
    p.set_defaults(run=cmd_gen)
    return parser


def _feature_weights(flag, X, name):
    """Resolve a feature-weight flag: None (uniform), 'mean', or a CSV path."""
    if flag is None:
        return None
    if flag == "mean":
        means = X.mean(axis=0)
        if np.any(means <= 0):
            raise DomainError(f"{name}: column-mean weighting needs positive column means")
        return as_histogram(means / means.sum(), name)
    return as_histogram(fileio.read_weights_csv(flag), name)


def _echo_config(args) -> dict:
    skip = {"command", "run"}
    return {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if k not in skip
    }


def _finish(args, started: float, cost, iterations: int, converged: bool,
            files=(), couplings=(), extra=None) -> int:
    """Write the artifacts and ``report.json`` into ``--out``; return the exit code.

    ``wallMillis`` runs from ``started``, :func:`main`'s ``perf_counter`` at
    dispatch. ``files`` and ``couplings`` are ``(stem, array)`` pairs written as
    ``<stem>.csv`` in that order: 1-D arrays as labels, 2-D as matrices.
    Each coupling also gets a ``<stem>.pgm`` under ``--heatmaps``.
    """
    args.out.mkdir(parents=True, exist_ok=True)
    outputs = []
    entries = [(stem, data, False) for stem, data in files]
    entries += [(stem, plan, getattr(args, "heatmaps", False)) for stem, plan in couplings]
    for stem, data, heatmap in entries:
        path = args.out / f"{stem}.csv"
        writer = fileio.write_labels_csv if np.ndim(data) == 1 else fileio.write_matrix_csv
        writer(path, data)
        outputs.append(str(path))
        if heatmap:
            pgm_path = args.out / f"{stem}.pgm"
            fileio.export_heatmap(data, pgm_path)
            outputs.append(str(pgm_path))
    millis = (time.perf_counter() - started) * 1000.0
    report = RunReport(args.command, args.seed, cost, iterations, converged, millis,
                       outputs, _echo_config(args), extra or {})
    print(report.write(args.out / "report.json"), end="")
    if converged or getattr(args, "allow_maxiter", False):
        return EXIT_OK
    return EXIT_NOT_CONVERGED


def _solved(sol, **fields) -> dict:
    """:func:`_finish`'s fields for a COOT solution, both couplings included;
    ``fields`` add to them or override them."""
    return {"cost": sol.cost, "iterations": sol.iterations, "converged": sol.converged,
            "couplings": [("pi_s", sol.sample_coupling.plan),
                          ("pi_v", sol.feature_coupling.plan)], **fields}


def cmd_coot(args) -> dict:
    X = fileio.read_matrix_csv(args.x)
    Y = fileio.read_matrix_csv(args.y)
    problem = CootProblem(
        X, Y,
        w=None if args.wx is None else as_histogram(fileio.read_weights_csv(args.wx), "wx"),
        wp=None if args.wy is None else as_histogram(fileio.read_weights_csv(args.wy), "wy"),
        v=_feature_weights(args.vx, X, "vx"),
        vp=_feature_weights(args.vy, Y, "vy"),
        loss=LOSSES[args.loss],
        eps_samples=args.eps1,
        eps_features=args.eps2,
        max_iter=args.max_iter,
        tol=args.tol,
    )
    sol = solve_coot(problem, restarts=args.restarts, seed=args.seed, jobs=args.jobs)
    return _solved(sol)


def cmd_gw(args) -> dict:
    X = fileio.read_matrix_csv(args.x)
    Y = fileio.read_matrix_csv(args.y)
    if args.points:
        C, C2 = sqeuclid_matrix(X), sqeuclid_matrix(Y)
    else:
        C, C2 = X, Y
    sol = solve_gw_dc(C, C2, loss=LOSSES[args.loss], eps=args.eps,
                      max_iter=args.max_iter, tol=args.tol,
                      restarts=args.restarts, seed=args.seed)
    return {"cost": sol.cost, "iterations": sol.iterations, "converged": sol.converged,
            "couplings": [("pi", sol.coupling.plan)]}


def cmd_cocluster(args) -> dict:
    X = fileio.read_matrix_csv(args.x)
    clustering = apps.cocluster(
        X, args.g, args.m, eps1=args.eps1, eps2=args.eps2,
        outer_iter=args.outer_iter, seed=args.seed, inner_iter=args.inner_iter,
    )
    extra = {}
    if args.truth is not None:
        true_rows = fileio.read_labels_csv(args.truth / "rows.csv")
        true_cols = fileio.read_labels_csv(args.truth / "cols.csv")
        extra["cce"] = apps.cce(clustering.row_labels, true_rows,
                                clustering.col_labels, true_cols)
    sol = clustering.solution
    return _solved(sol, iterations=len(clustering.objective_trace),
                   converged=clustering.converged,
                   files=[("row_labels", clustering.row_labels),
                          ("col_labels", clustering.col_labels),
                          ("xc", clustering.summary)], extra=extra)


def cmd_hda(args) -> dict:
    Xs = fileio.read_matrix_csv(args.xs)
    Xt = fileio.read_matrix_csv(args.xt)
    ys = fileio.read_labels_csv(args.ys)
    yt = None if args.yt_partial is None else fileio.read_labels_csv(args.yt_partial)
    if args.penalty == "auto":
        penalty = None
    else:
        try:
            penalty = float(args.penalty)
        except ValueError:
            raise DomainError(f"--penalty must be 'auto' or a number, got {args.penalty!r}")
    result = apps.hda_pipeline(
        Xs, Xt, ys, target_labels=yt, loss=LOSSES[args.loss],
        eps1=args.eps1, eps2=args.eps2, restarts=args.restarts,
        seed=args.seed, jobs=args.jobs, penalty=penalty,
    )
    sol = result.solution
    return _solved(sol, files=[("labels", result.labels), ("scores", result.scores)])


def cmd_election(args) -> dict:
    E = fileio.read_matrix_csv(args.x)
    E2 = fileio.read_matrix_csv(args.y)
    distance, sol = apps.election_solution(E, E2, restarts=args.restarts,
                                           seed=args.seed, jobs=args.jobs)
    return _solved(sol, cost=distance)


def cmd_gen(args) -> dict:
    required = {"--n": args.n, "--d": args.d, "-g": args.g, "-m": args.m}
    if args.preset is not None:
        sized = {**required, "--separation": args.separation, "--unequal": args.unequal or None}
        given = [k for k, val in sized.items() if val is not None]
        if given:
            raise DomainError(f"gen --preset {args.preset} sets the sizes, proportions and "
                              f"separation; drop {given}")
        config = apps.BLOCK_PRESETS[args.preset]
    else:
        missing = [k for k, val in required.items() if val is None]
        if missing:
            raise DomainError(f"gen needs --preset or all of {sorted(required)}; "
                              f"missing {missing}")
        make = apps.ramped_proportions if args.unequal else apps.equal_proportions
        config = apps.BlockConfig(args.n, args.d, args.g, args.m, make(args.g), make(args.m),
                                  4.0 if args.separation is None else args.separation)
    X, rows, cols = apps.generate_blocks(config, args.seed)
    return {"cost": None, "iterations": 0, "converged": True,
            "files": [("X", X), ("rows", rows), ("cols", cols)]}


# build_parser's parser, made on the first call of main and reused: parsing
# leaves it unchanged, and building it costs milliseconds per in-process call
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "seed", None) is None:
        if getattr(args, "restarts", 1) > 1:
            print(f"coopt {args.command}: error: --seed is required with --restarts > 1",
                  file=sys.stderr)
            return EXIT_USAGE
        args.seed = 0
    started = time.perf_counter()
    try:
        return _finish(args, started, **args.run(args))
    except (OSError, ValueError) as exc:
        print(f"coopt {args.command}: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CooptError as exc:
        print(f"coopt {args.command}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
