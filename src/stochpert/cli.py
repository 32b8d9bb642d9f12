"""Command-line interface.

Subcommands: ``spectrum | ergodicity | dobrushin | sep | sylvester |
continue | effective | verify``.  Every command reads its input from a JSON
config file, resolves all defaults, and emits a JSON report embedding the
resolved config, the library version, the seed and the wall-clock duration,
so runs are reproducible from the report alone.  Path-like results
(continuation paths, eps sweeps) are additionally written as CSV next to
the JSON output.

Exit codes: 0 success, 1 domain error, 2 numerical failure, 3 config error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__, dobrushin, model, perturb, projection, sylvester
from .acceptance import format_table, run_acceptance
from .errors import ConfigError, DomainError, NumericalError
from .numerics import centrosymmetric_eigvals

DEFAULT_SEED = 20240601

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argument errors are config errors (exit code 3), not usage exits."""

    def error(self, message):
        raise ConfigError(message)


def _load_config(path: str) -> dict:
    if path is None:
        raise ConfigError("--config PATH is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: malformed JSON at line {e.lineno}, "
                          f"column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def _matrix_from(doc: dict, key: str) -> np.ndarray:
    if key not in doc:
        raise ConfigError(f"$.{key}: missing matrix")
    try:
        arr = np.array(doc[key], dtype=float)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"$.{key}: not a numeric matrix: {e}") from e
    if arr.ndim != 2:
        raise ConfigError(f"$.{key}: expected a 2-d array")
    return arr


def _json_leaf(obj):
    """``json.dumps`` fallback for the leaves it cannot encode itself: numpy
    arrays and scalars, and complex numbers as ``{"re": .., "im": ..}``.
    ``np.float64`` is a ``float`` and never gets here."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_atomic(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".stochpert-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                         else v for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# commands: each takes (config dict, argparse args) and returns
# (result dict, optional (header, rows) CSV table)
# ---------------------------------------------------------------------------

def _resolve_eps(cfg: dict, args, many: bool = False) -> list[float]:
    """``--eps`` (a comma list only where ``many``), else the config's
    epsilon; each must be a finite number."""
    where = "$.epsilon" if args.eps is None else "--eps"
    raw = [cfg.get("epsilon", 0.0)] if args.eps is None else args.eps.split(",")
    if len(raw) > 1 and not many:
        raise ConfigError(f"--eps: {args.command} takes one value, got "
                          f"{args.eps!r}")
    try:
        values = [float(v) for v in raw]
    except (TypeError, ValueError):
        values = [np.nan]
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{where}: expected finite numbers, got {raw!r}")
    return values


def _resolve_steps(args, default: int) -> int:
    if args.steps is None:
        return default
    if args.steps < 1:
        raise ConfigError(f"--steps: expected a positive count, got "
                          f"{args.steps}")
    return args.steps


_MODEL_KEYS = ("graph", "alpha", "epsilon", "beta_override")


def _model_of(cfg: dict, eps: float | None = None,
              extra_allowed: tuple[str, ...] = ()) -> model.PcaModel:
    unknown = set(cfg) - set(_MODEL_KEYS) - set(extra_allowed)
    if unknown:
        raise ConfigError(f"$.{sorted(unknown)[0]}: unknown field")
    mdl = model.model_from_json({k: cfg[k] for k in _MODEL_KEYS if k in cfg})
    if eps is None or eps == mdl.epsilon:
        return mdl
    return model.PcaModel(mdl.graph, mdl.alpha, eps, mdl.beta_override)


def _cluster(eigs: np.ndarray, tol: float = 1e-8):
    """Greedy clusters of the eigenvalues taken in (re, im) order: each
    joins the first cluster whose running centre lies within ``tol``.

    A cluster whose centre lies more than ``tol`` left of an eigenvalue can
    match none of the later ones, so only the clusters still live are
    scanned.  Each centre is the running sum over the count, summed in
    arrival order.
    """
    clusters: list[list] = []       # [sum, count], in creation order
    live: list[list] = []
    for lam in sorted(eigs, key=lambda z: (z.real, z.imag)):
        live = [c for c in live if lam.real - (c[0] / c[1]).real <= tol]
        for c in live:
            if abs(lam - c[0] / c[1]) <= tol:
                c[0] += lam
                c[1] += 1
                break
        else:
            clusters.append([lam, 1])
            live.append(clusters[-1])
    out = []
    for total, count in clusters:
        center = total / count
        out.append({"center_re": center.real, "center_im": center.imag,
                    "count": count})
    out.sort(key=lambda c: (-c["count"], c["center_re"]))
    return out


#: most sites ``spectrum`` runs on a model without the +/- flip symmetry:
#: there one dense ``eigvals`` on all 3^N configurations makes the command
#: take about 7 s at N = 7, and it did not finish in 45 s at N = 8
_SPECTRUM_MAX_SITES_ASYMMETRIC = 7


def cmd_spectrum(cfg, args):
    """Eigenvalues of T(eps), their clusters (:func:`_cluster`) and the
    smallest distance between two cluster centres.

    When the model is flip-symmetric (``PcaModel.flip_symmetric``: the
    rates are count-driven or the fixed rates are equal), swapping + and -
    reverses the configuration index and T is exactly centrosymmetric.
    Its spectrum is then that of two blocks of half the order, by the
    classical reduction of centrosymmetric matrices (Good 1970; Cantoni &
    Butler 1976; :func:`numerics.centrosymmetric_eigvals`), about a
    quarter of the work of one dense ``eigvals``.  Other models take the
    dense ``eigvals`` and run up to ``_SPECTRUM_MAX_SITES_ASYMMETRIC``
    sites; more are refused before any operator is assembled.
    """
    eps = _resolve_eps(cfg, args)[0]
    mdl = _model_of(cfg, eps)
    if mdl.flip_symmetric:
        eigs = centrosymmetric_eigvals(mdl.operator())
    elif mdl.n_sites > _SPECTRUM_MAX_SITES_ASYMMETRIC:
        raise DomainError(f"spectrum runs up to "
                          f"{_SPECTRUM_MAX_SITES_ASYMMETRIC} sites when the "
                          f"fixed rates differ, got {mdl.n_sites}")
    else:
        eigs = np.linalg.eigvals(mdl.operator())
    clusters = _cluster(eigs)
    re, im = (np.array([c[key] for c in clusters])
              for key in ("center_re", "center_im"))
    # one row of the pairwise distances at a time: up to 3^8 centres would
    # make the full matrix 344 MB.  hypot is what abs(complex) computes;
    # np.abs may differ in the last bit
    gap = min((float(np.hypot(re[i] - re[i + 1:], im[i] - im[i + 1:]).min())
               for i in range(len(clusters) - 1)), default=np.inf)
    order = np.lexsort((eigs.imag, eigs.real))
    return {
        "epsilon": eps,
        "eigenvalues": [{"re": z.real, "im": z.imag} for z in eigs[order]],
        "clusters": clusters,
        "gap": gap if np.isfinite(gap) else None,
    }, None


def cmd_ergodicity(cfg, args):
    eps = _resolve_eps(cfg, args)[0]
    mdl = _model_of(cfg, eps)
    rep = dobrushin.dependency_matrix(mdl)
    m = mdl.graph.max_degree
    return {
        "epsilon": eps,
        "gamma": rep.gamma.tolist(),
        "linf_norm": rep.linf_norm,
        "closed_form_bound": 1.0 - (1.0 - m * mdl.alpha) * eps,
        "geometrically_ergodic": rep.geometrically_ergodic,
    }, None


def _point_masses(pair, n_sites: int) -> list:
    """The two configurations of ``$.measure.point_masses``, each a list of
    ``n_sites`` integer states 0, 1 or 2."""
    where = "$.measure.point_masses"
    if not isinstance(pair, list) or len(pair) != 2:
        raise ConfigError(f"{where}: expected two configurations")
    for i, cfg in enumerate(pair):
        if not isinstance(cfg, list) or len(cfg) != n_sites:
            raise ConfigError(f"{where}[{i}]: expected a list of {n_sites} "
                              f"states, got {cfg!r}")
        for s, x in enumerate(cfg):
            if type(x) is not int or not 0 <= x <= 2:
                raise ConfigError(f"{where}[{i}][{s}]: expected a state 0, "
                                  f"1 or 2, got {x!r}")
    return pair


def cmd_dobrushin(cfg, args):
    eps = _resolve_eps(cfg, args)[0]
    mdl = _model_of(cfg, eps, extra_allowed=("measure",))
    pm = dobrushin.ProductMetric.discrete(mdl.product_metric_sizes())
    measure = cfg.get("measure")
    if measure is not None:
        if not isinstance(measure, dict):
            raise ConfigError("$.measure: expected 'values' or 'point_masses'")
        if "values" in measure:
            try:
                mu = np.asarray(measure["values"], dtype=float)
            except (TypeError, ValueError) as e:
                raise ConfigError(f"$.measure.values: not a numeric vector: "
                                  f"{e}") from e
        elif "point_masses" in measure:
            x, y = _point_masses(measure["point_masses"], mdl.n_sites)
            mu = (model.delta_measure(x, mdl.n_sites)
                  - model.delta_measure(y, mdl.n_sites))
        else:
            raise ConfigError("$.measure: expected 'values' or 'point_masses'")
        zn = dobrushin.z_norm(mu, pm)
        return {"epsilon": eps, "z_norm_primal": zn.primal,
                "z_norm_dual": zn.dual}, None
    dobrushin.check_star_norm_size(pm.sizes)
    tp = mdl.family().derivative(eps)
    sn = dobrushin.star_norm(tp, pm)
    return {
        "epsilon": eps,
        "z_operator_norm": sn.z_operator,
        "simplex_image_norm": sn.simplex_image,
        "tangent_norm": sn.value,
    }, None


def cmd_sep(cfg, args):
    a = _matrix_from(cfg, "A")
    b = _matrix_from(cfg, "B")
    method = cfg.get("method", "brute")
    norm = cfg.get("norm", "frobenius")
    if method == "brute":
        rep = sylvester.sep_brute(a, b, norm=norm,
                                  seed=args.seed)
    elif method == "series":
        rep = sylvester.sep_bound_discrete(a, b, float(cfg.get("lam", 1.05)),
                                           norm=norm)
    elif method == "ct":
        rep = sylvester.sep_bound_ct(
            a, b, r=cfg.get("r"),
            eps_margin=float(cfg.get("eps_margin", 1e-6)), norm=norm)
    else:
        raise ConfigError(f"$.method: unknown sep method {method!r}")
    return {
        "sep": rep.value,
        "norm": rep.norm,
        "method": rep.method,
        "constants": rep.constants,
        "interval": list(rep.interval) if rep.interval else None,
    }, None


def cmd_sylvester(cfg, args):
    a = _matrix_from(cfg, "A")
    b = _matrix_from(cfg, "B")
    c = _matrix_from(cfg, "C")
    method = cfg.get("method", "kron")
    if method in ("kron", "schur"):
        x = sylvester.solve_dense(a, b, c, method=method)
    elif method == "series":
        x = sylvester.solve_series(a, b, c)
    elif method == "integral":
        if "r" not in cfg:
            raise ConfigError("$.r: required for the integral solver")
        x = sylvester.solve_integral(a, b, c, float(cfg["r"]))
    else:
        raise ConfigError(f"$.method: unknown solver {method!r}")
    resid = float(np.linalg.norm(a @ x - x @ b - c, "fro"))
    return {"X": x.tolist(), "residual_fro": resid, "method": method}, None


#: most sites ``continue`` runs: each reported node holds the brute-force
#: separation of the 2^N slow against the 3^N - 2^N fast states, a
#: Kronecker system of size 2^N (3^N - 2^N), capped at ``KRON_CAP``
_CONTINUE_MAX_SITES = max(n for n in range(1, model.MAX_SITES + 1)
                          if 2 ** n * (3 ** n - 2 ** n) <= sylvester.KRON_CAP)


def cmd_continue(cfg, args):
    eps = _resolve_eps(cfg, args)[0]
    if eps <= 0:
        raise ConfigError("a positive --eps (or config epsilon) is required")
    steps = _resolve_steps(args, 8)
    mdl = _model_of(cfg, eps)
    if mdl.n_sites > _CONTINUE_MAX_SITES:
        raise DomainError(f"continue runs up to {_CONTINUE_MAX_SITES} sites "
                          f"(the separation it reports is computed by brute "
                          f"force), got {mdl.n_sites}")
    fam = mdl.family()
    p0 = projection.Projection(fam.t0)
    res = projection.continue_projection(p0, fam, eps, steps)
    rows = []
    for pt, proj, t in zip(res.path, res.projections, res.operators):
        rep = projection.gap_report(t, proj)
        rows.append((pt.eps, pt.phi_residual, pt.comm_residual, pt.rank,
                     rep.gap, rep.sep))
    header = ("eps", "phi_residual", "comm_residual", "rank", "gap", "sep")
    result = {
        "epsilon": eps,
        "steps": steps,
        "rank": res.projection.rank,
        "projection": res.projection.matrix.tolist(),
        "path": [dict(zip(header, row)) for row in rows],
    }
    return result, (header, rows)


#: most sites the exact reduction runs on (``--order exact``, and every
#: sweep, which compares the expansions against it): it continues the
#: spectral projection on all 3^N configurations, 3.7-4.3 s at 5 sites on
#: one core of a 2-core VM; 6 sites took 78 s
_EXACT_MAX_SITES = 5


def cmd_effective(cfg, args):
    eps_values = _resolve_eps(cfg, args, many=True)
    order = args.order or "2"
    steps = _resolve_steps(args, 64)
    mdl = _model_of(cfg, eps_values[0])
    if ((order == "exact" or len(eps_values) > 1)
            and mdl.n_sites > _EXACT_MAX_SITES):
        raise DomainError(f"the exact reduction (--order exact, or a sweep "
                          f"of several eps) runs up to {_EXACT_MAX_SITES} "
                          f"sites (it follows the projection on all 3^N "
                          f"configurations), got {mdl.n_sites}")
    if len(eps_values) == 1:
        red = perturb.effective_operator(mdl, eps_values[0], order,
                                         n_steps=steps)
        return {
            "epsilon": eps_values[0],
            "order": order,
            "matrix": red.matrix.tolist(),
            "basis": red.basis.tolist(),
            "row_sum_defect": red.row_sum_defect,
            "offblock_residual": red.offblock_residual,
        }, None
    sweep = []
    rows = []
    for eps in eps_values:
        exact = perturb.effective_operator(mdl, eps, "exact", n_steps=steps)
        o1 = perturb.effective_operator(mdl, eps, "1")
        o2 = perturb.effective_operator(mdl, eps, "2")
        e1 = float(np.abs(o1.matrix - exact.matrix).max())
        e2 = float(np.abs(o2.matrix - exact.matrix).max())
        sweep.append({"eps": eps, "order1_error": e1, "order2_error": e2,
                      "exact": exact.matrix.tolist()})
        rows.append((eps, e1, e2,
                     *[float(v) for v in exact.matrix.ravel()]))
    k = int(np.sqrt(len(rows[0]) - 3))
    header = ("eps", "order1_error", "order2_error",
              *[f"exact_{i}{j}" for i in range(k) for j in range(k)])
    return {"order": order, "sweep": sweep}, (header, rows)


def cmd_verify(cfg, args):
    results = run_acceptance(seed=args.seed)
    print(format_table(results))
    ok = all(r.passed for r in results)
    return {
        "criteria": [{"id": r.cid, "title": r.title, "passed": r.passed,
                      "detail": r.detail} for r in results],
        "all_passed": ok,
    }, None


_COMMANDS = {
    "spectrum": (cmd_spectrum, True),
    "ergodicity": (cmd_ergodicity, True),
    "dobrushin": (cmd_dobrushin, True),
    "sep": (cmd_sep, True),
    "sylvester": (cmd_sylvester, True),
    "continue": (cmd_continue, True),
    "effective": (cmd_effective, True),
    "verify": (cmd_verify, False),
}


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and every call gets a fresh namespace."""
    parser = _Parser(prog="stochpert",
                     description="stochastic-operator perturbation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, needs_config) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config path",
                       required=False)
        p.add_argument("--out", help="write the JSON report here "
                                     "(atomically); table results also get "
                                     "a sibling .csv")
        p.add_argument("--eps", help="epsilon value, or comma list for "
                                     "sweeps", default=None)
        p.add_argument("--order", choices=["1", "2", "exact"], default=None)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--steps", type=int, default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        fn, needs_config = _COMMANDS[args.command]
        cfg = _load_config(args.config) if needs_config or args.config else {}
        start = time.perf_counter()
        result, table = fn(cfg, args)
        duration = time.perf_counter() - start
        report = {
            "command": args.command,
            "meta": {
                "config": cfg,
                "options": {
                    "eps": args.eps, "order": args.order, "seed": args.seed,
                    "steps": args.steps,
                },
                "version": __version__,
                "seed": args.seed,
                "duration_s": duration,
            },
            "result": result,
        }
        text = json.dumps(report, indent=2, sort_keys=True,
                          default=_json_leaf) + "\n"
        if args.out:
            _write_atomic(args.out, text)
            if table is not None:
                header, rows = table
                root, _ = os.path.splitext(args.out)
                _write_atomic(root + ".csv", _csv_text(header, rows))
        if args.command != "verify":
            sys.stdout.write(text)
        if args.command == "verify" and not result["all_passed"]:
            return 1
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
