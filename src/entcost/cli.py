"""Command-line front end.

Results go to stdout as JSON (default) or CSV for the curve commands.  Exit
codes: 0 success, 1 numerical failure (input violates an operator contract
beyond tolerance), 2 usage or schema error.  All randomized commands take
``--seed`` (default 0) and print byte-identical output for a fixed seed.
Floats are emitted with 12 significant digits, the same in JSON and CSV;
unbounded values serialize as the literal string "inf".
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Iterator

import numpy as np

from . import cost
from .channels import (
    QUBIT_FAMILIES,
    SchemaError,
    channel_from_json,
    choi,
    state_from_json,
    teleportation_covered,
)
from .entanglement import (
    Decomposition,
    concurrence_2q,
    eof_2q,
    eof_cq_conditional,
    eof_numeric,
    one_shot_cost_bounds,
)
from .entropy import (
    MAX_TABLE_CELLS,
    classical_h0_cond,
    classical_joint_from_csv,
    classical_smooth_h0_cond,
    cond_von_neumann,
    h0,
    von_neumann,
)
from .linalg import DensityMatrix, ValidationError


def _fmt_float(x: float):
    """12-significant-digit float, with infinities as strings; JSON and CSV print it."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    rounded = float(f"{x:.12g}")
    if rounded.is_integer() and abs(rounded) < 1e15:
        return int(rounded)
    return rounded


def _jsonable(obj):
    if isinstance(obj, bool) or isinstance(obj, (int, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit_json(obj) -> str:
    return json.dumps(_jsonable(obj))


def _parse_json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} is not valid JSON: {exc}") from exc


def parse_channel(text: str):
    """Channel from its JSON wire format; schema errors exit 2, numeric exit 1."""
    return channel_from_json(_parse_json_arg(text, "--channel"))


def parse_state(text: str) -> DensityMatrix:
    return state_from_json(_parse_json_arg(text, "--state"))


def _float_arg(text: str) -> float:
    """Float option value; NaN is refused because JSON output cannot carry it."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if math.isnan(x):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    return x


def _decomposition_json(d: Decomposition, value: float) -> dict:
    return {
        "value": value,
        "items": [{"p": p, "vec": psi.vec.view(float).reshape(-1, 2).tolist()}
                  for p, psi in d.items],
    }


def _grid(points: int, stop: float) -> np.ndarray:
    if not 2 <= points <= MAX_TABLE_CELLS:
        raise SchemaError(f"--points must lie in [2, {MAX_TABLE_CELLS}]")
    return np.linspace(0.0, stop, points)


# -- commands ----------------------------------------------------------------

def _cmd_choi(args) -> str:
    rho = choi(parse_channel(args.channel))
    return _emit_json({
        "dim_in": rho.dims[1],
        "dim_out": rho.dims[0],
        "dims": list(rho.dims),
        "re": rho.mat.real.tolist(),
        "im": rho.mat.imag.tolist(),
    })


def _cmd_concurrence(args) -> str:
    rho = parse_state(args.state)
    return _emit_json({"concurrence": concurrence_2q(rho)})


def _cmd_eof(args) -> str:
    rho = parse_state(args.state)
    if rho.dims == (2, 2) and not args.numeric:
        return _emit_json({"eof": eof_2q(rho), "method": "concurrence_closed_form"})
    res = eof_numeric(rho, restarts=args.restarts, seed=args.seed)
    return _emit_json({
        "eof": res.value,
        "method": "decomposition_search",
        "restarts_used": args.restarts,
        "converged": res.converged,
        "decomposition": _decomposition_json(res.decomposition, res.value),
    })


def _cmd_ec1(args) -> str:
    ch = parse_channel(args.channel)
    est = cost.ec1_general(ch, restarts=args.restarts, seed=args.seed)
    return _emit_json({"ec1": est.value, "certified": est.certified})


def _emit_curve(cols: dict[str, np.ndarray], fmt: str, **head) -> Iterator[str]:
    """Curve columns, the parameter first, as CSV (a header of the column
    names, then one line per row) or JSON ``{**head, "rows": [...]}``.

    Returns the pieces of the output text, one per ``cost._CHUNK`` rows,
    each formatted only when it is asked for, so :func:`run` writes a piece
    before the next exists.  A NaN cell is refused at once, before any piece,
    since JSON cannot carry it; infinities print as "inf"."""
    names = list(cols)
    for name, col in cols.items():
        nan = np.isnan(col)
        if nan.any():
            raise ValueError(f"curve value {name} is NaN at {names[0]} "
                             f"{cols[names[0]][nan.argmax()]}")

    def pieces():
        csv, n = fmt == "csv", cost._CHUNK
        yield ",".join(names) if csv else _emit_json({**head, "rows": []})[:-2]
        for i in range(0, len(cols[names[0]]), n):
            rows = zip(*(map(_fmt_float, col[i:i + n].tolist()) for col in cols.values()))
            if csv:
                yield "".join("\n" + ",".join(map(str, r)) for r in rows)
            else:
                yield (", " if i else "") + json.dumps([dict(zip(names, r)) for r in rows])[1:-1]
        yield "" if csv else "]}"

    return pieces()


def _cmd_security_region(args) -> Iterator[str]:
    cols, proven = cost.security_region(args.family, _grid(args.points, 1.0))
    return _emit_curve(cols, args.format, family=args.family, threshold_proven=proven)


def _cmd_dephasing_curves(args) -> Iterator[str]:
    return _emit_curve(cost.dephasing_curves(_grid(args.points, 0.5)), args.format)


_RATE_NOTE_COVERED = "rate = ec1 + delta2 >= true entanglement cost + delta2"
_RATE_NOTE_UNCOVERED = (
    "rate = ec1 + delta2 is not shown to bound the true entanglement cost + delta2:"
    " E_C(N) <= E_F(J) holds for d->d channels whose Choi state J is diagonal in the"
    " generalized Bell basis, and outside 2->2 a heuristic ec1 may also undershoot")


def _cmd_strong_converse(args) -> str:
    if args.identity:
        if args.rate is None:
            raise SchemaError("--identity needs --rate")
        return _emit_json({
            "mode": "identity",
            "rate": args.rate,
            "n": args.n,
            "error_lower_bound": cost.identity_error_bound(args.rate, args.n),
        })
    if args.rate is not None:
        raise SchemaError("--rate applies to --identity mode only; "
                          "--channel mode codes at rate ec1 + delta2")
    ch = parse_channel(args.channel)
    params = cost.ConverseParams(delta1=args.delta1, delta2=args.delta2,
                                 dim_in=ch.dim_in, dim_out=ch.dim_out, n=args.n)
    ec1, certified = cost.ec1_general(ch, restarts=args.restarts, seed=args.seed)
    raw = cost.strong_converse_error_bound(params, ec1)
    return _emit_json({
        "mode": "channel",
        "n": args.n,
        "delta1": args.delta1,
        "delta2": args.delta2,
        "ec1": ec1,
        "ec1_certified": certified,
        "rate": ec1 + args.delta2,
        "rate_note": (_RATE_NOTE_COVERED if teleportation_covered(choi(ch))
                      else _RATE_NOTE_UNCOVERED),
        "simulation_error": cost.simulation_error(args.n, args.delta1,
                                                  ch.dim_in, ch.dim_out),
        "error_lower_bound": max(0.0, raw),
        "error_lower_bound_raw": raw,
    })


def _cmd_entropy(args) -> str:
    rho = parse_state(args.state)
    if args.kind == "von-neumann":
        value = von_neumann(rho)
    elif args.kind == "conditional":
        value = cond_von_neumann(rho)
    else:
        value = h0(rho)
    return _emit_json({"kind": args.kind, "value": value})


def _cmd_smooth_h0(args) -> str:
    try:
        with open(args.table, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read table file: {exc}") from exc
    table = classical_joint_from_csv(text)
    return _emit_json({
        "eps": args.eps,
        "h0": classical_h0_cond(table),
        "smooth_h0": classical_smooth_h0_cond(table, args.eps),
    })


def _cmd_one_shot_cost(args) -> str:
    rho = parse_state(args.state)
    bounds = one_shot_cost_bounds(rho, args.eps, restarts=args.restarts, seed=args.seed)
    return _emit_json({
        "eps": args.eps,
        "lower_heuristic": bounds.lower,
        "upper": bounds.upper,
        "witness": _decomposition_json(bounds.witness, bounds.upper),
        "witness_eof": eof_cq_conditional(bounds.witness),
    })


def _cmd_constants(args) -> str:
    if args.postselection:
        return _emit_json(
            {"log2_factor": cost.postselection_factor_log2(args.n, args.dimA)})
    if args.definetti:
        if args.dimR is None:
            raise SchemaError("--definetti needs --dimR")
        return _emit_json(
            {"log2_count": cost.definetti_count_log2(args.n, args.dimA, args.dimR)})
    if args.chi is None or args.eps is None or args.dimB is None:
        raise SchemaError("--epsnet needs --chi, --eps and --dimB")
    return _emit_json(
        {"log2_size": cost.epsnet_size(args.chi, args.eps, args.dimA, args.dimB)})


class _Parser(argparse.ArgumentParser):
    """Reads every token that starts like a negative number (``-1e-9``,
    ``-.5``) as a value; argparse's own pattern (Python 3.11) takes only
    ``-N`` and ``-N.N``.  ``_negative_number_matcher`` is a private attribute
    of argparse; ``add_subparsers`` builds each subparser from ``type(self)``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="entcost",
        description="Entanglement-cost calculators for small channels and states.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seeded(p, restarts_default):
        p.add_argument("--restarts", type=int, default=restarts_default,
                       help=f"random restarts (default {restarts_default})")
        p.add_argument("--seed", type=int, default=0,
                       help="RNG seed, default 0; fixed seed gives identical output")

    p = sub.add_parser("choi", help="Choi state of a channel")
    p.add_argument("--channel", required=True, help="channel JSON description")
    p.set_defaults(func=_cmd_choi)

    p = sub.add_parser("concurrence", help="two-qubit concurrence of a state")
    p.add_argument("--state", required=True, help="density matrix JSON")
    p.set_defaults(func=_cmd_concurrence)

    p = sub.add_parser("eof", help="entanglement of formation of a state")
    p.add_argument("--state", required=True, help="density matrix JSON")
    p.add_argument("--numeric", action="store_true",
                   help="force the decomposition search even on two qubits")
    add_seeded(p, 20)
    p.set_defaults(func=_cmd_eof)

    p = sub.add_parser("ec1", help="single-letter entanglement-cost upper bound")
    p.add_argument("--channel", required=True, help="channel JSON description")
    add_seeded(p, 6)
    p.set_defaults(func=_cmd_ec1)

    p = sub.add_parser("security-region",
                       help="noisy-storage security boundary for a channel family")
    p.add_argument("--family", required=True,
                   choices=list(QUBIT_FAMILIES),
                   help="channel family to sweep")
    p.add_argument("--points", type=int, default=101,
                   help="grid points on [0, 1] (default 101)")
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="output format (default json)")
    p.set_defaults(func=_cmd_security_region)

    p = sub.add_parser("strong-converse",
                       help="strong-converse error lower bounds")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--identity", action="store_true",
                      help="evaluate the noiseless-qubit bound 1 - 2^(-n(R-1))")
    p.add_argument("--rate", type=_float_arg, default=None,
                   help="code rate R for --identity mode")
    mode.add_argument("--channel", default=None, help="channel JSON description")
    p.add_argument("--delta1", type=_float_arg, default=0.1,
                   help="simulation slack delta1 > 0 (default 0.1)")
    p.add_argument("--delta2", type=_float_arg, default=0.2,
                   help="rate slack delta2 > delta1 (default 0.2)")
    p.add_argument("--n", type=int, required=True, help="number of channel uses")
    add_seeded(p, 6)
    p.set_defaults(func=_cmd_strong_converse)

    p = sub.add_parser("dephasing-curves",
                       help="capacity comparison sweep for the dephasing channel")
    p.add_argument("--points", type=int, default=101,
                   help="grid points on [0, 1/2] (default 101)")
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="output format (default json)")
    p.set_defaults(func=_cmd_dephasing_curves)

    p = sub.add_parser("entropy", help="entropies of a density matrix")
    p.add_argument("--state", required=True, help="density matrix JSON")
    p.add_argument("--kind", choices=["von-neumann", "conditional", "h0"],
                   default="von-neumann", help="entropy to evaluate")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("smooth-h0",
                       help="classical smooth conditional max-entropy from a CSV table")
    p.add_argument("--table", required=True, help="CSV file with header x,y,p")
    p.add_argument("--eps", type=_float_arg, required=True, help="L1 smoothing budget")
    p.set_defaults(func=_cmd_smooth_h0)

    p = sub.add_parser("one-shot-cost",
                       help="one-shot dilution-cost bounds for a bipartite state")
    p.add_argument("--state", required=True, help="density matrix JSON")
    p.add_argument("--eps", type=_float_arg, required=True, help="dilution error in [0, 1]")
    add_seeded(p, 8)
    p.set_defaults(func=_cmd_one_shot_cost)

    p = sub.add_parser("constants", help="polynomial counting factors (log2 domain)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--postselection", action="store_true",
                      help="permutation-covariance factor (n+1)^(dimA^2-1)")
    mode.add_argument("--definetti", action="store_true",
                      help="product decomposition count (n+1)^(2 dimA dimR - 2)")
    mode.add_argument("--epsnet", action="store_true",
                      help="covering-net size (2 sqrt(dimB)/eps + 1)^(2 chi dimA dimB)")
    p.add_argument("--n", type=int, default=0, help="blocklength n (default 0)")
    p.add_argument("--dimA", type=int, default=2, help="input dimension (default 2)")
    p.add_argument("--dimR", type=int, default=None, help="reference dimension")
    p.add_argument("--dimB", type=int, default=None, help="output dimension")
    p.add_argument("--chi", type=int, default=None, help="operator count chi")
    p.add_argument("--eps", type=_float_arg, default=None, help="net resolution eps")
    p.set_defaults(func=_cmd_constants)

    return parser


def run(argv: list[str]) -> int:
    """Parse and dispatch; returns the process exit code.  A command's text,
    or each piece of a curve as it is formatted, goes to stdout."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        out = args.func(args)
    except ValidationError as exc:
        msg, code = str(exc), 1
    except ValueError as exc:
        msg, code = str(exc), 2
    except OverflowError as exc:
        # name the integer options beyond float range; the seed only keys an RNG
        huge = [f"--{name.replace('_', '-')}" for name, v in vars(args).items()
                if type(v) is int and name != "seed" and abs(v) > sys.float_info.max]
        msg = f"{', '.join(huge)}: integer too large for a float" if huge else str(exc)
        code = 2
    else:
        sys.stdout.writelines([out] if isinstance(out, str) else out)
        print()
        return 0
    print(f"error: {msg}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
