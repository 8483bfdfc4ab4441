"""Command-line surface.

Every subcommand prints a single JSON document (or an aligned table with
--format table) and uses the exit-code taxonomy: 0 success, 1 numeric
failure, 2 usage error, 3 dimension-guard violation.  Identical argv and
seed give byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import channels as ch
from . import cloner as cl
from . import omega_opt as oo
from . import rep_theory as rt
from . import serialize as se
from . import tensor_core as tc
from .errors import ChannelPropertyError, CloneOptError, DimensionGuardError

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


class UsageError(Exception):
    pass


def _parse_spin(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse spin {text!r}") from exc


def _parse_state(text: str, d: int) -> tc.PureState:
    """Pure-state amplitudes from inline JSON or a file path."""
    raw = text.strip()
    if not raw.startswith(("[", "{")):
        raw = Path(text).read_text()
    try:
        amps = se.vector_from_json(json.loads(raw))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot parse state {text!r}") from exc
    if amps.shape[0] != d:
        raise UsageError(f"state has {amps.shape[0]} amplitudes, expected {d}")
    norm = np.linalg.norm(amps)
    if not 0 < norm < np.inf:
        raise UsageError("state vector must be non-zero with finite amplitudes")
    return tc.PureState(amps / norm)


def _input_state(args) -> tc.PureState:
    """The --state amplitudes, or else the Haar state of --seed."""
    if args.state:
        return _parse_state(args.state, args.d)
    return tc.haar_state(args.d, args.seed)


def _check_ranges(args) -> None:
    # a weight has d components; counted before any of them is parsed
    weight = getattr(args, "weight", None)
    d = len(weight.split(",")) if weight is not None else getattr(args, "d", None)
    if d is not None and not 2 <= d <= 8:
        raise UsageError(f"d must be in [2, 8], got {d}")
    n = getattr(args, "n", None)
    if n is not None and not 0 <= n <= 64:
        raise UsageError(f"N must be in [0, 64], got {n}")
    samples = getattr(args, "samples", None)
    if samples is not None and samples < 1:
        raise UsageError(f"samples must be >= 1, got {samples}")
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    m = getattr(args, "m", None)
    if m is not None:
        if not 0 <= m <= 64:
            raise UsageError(f"M must be in [0, 64], got {m}")
        if n is not None and m < n:
            raise UsageError(f"M = {m} must be >= N = {n}")


def _emit(obj, fmt: str) -> None:
    if fmt == "table":
        if not isinstance(obj, dict):
            obj = {"value": obj}
        width = max(len(k) for k in obj)
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                v = json.dumps(v, separators=(",", ":"))
            print(f"{k:<{width}}  {v}")
    else:
        sys.stdout.write(se.dumps(obj))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_dims(args):
    return {"d": args.d, "n": args.n, "sym_dimension": tc.sym_dimension(args.d, args.n)}


def _cloner_spec(args) -> cl.ClonerSpec:
    return cl.ClonerSpec(args.d, args.n, args.m)


def _cmd_cloner_constants(args):
    spec = _cloner_spec(args)
    gamma = cl.shrinking_factor(spec)
    overlap = Fraction(
        tc.sym_dimension(args.d, args.n), tc.sym_dimension(args.d, args.m)
    )
    return {
        "gamma": se.fraction_pair(gamma),
        "delta_one": se.fraction_pair(cl.delta_one_closed_form(spec)),
        "overlap": se.fraction_pair(overlap),
    }


def _cmd_cloner_apply(args):
    spec = _cloner_spec(args)
    psi = _input_state(args)
    channel = cl.optimal_cloner(spec)  # refuses sizes past the guard before any state is built
    v = tc.product_power(psi, args.n)
    rho_out = channel.apply_fast(v)
    if args.guard is not None:
        # cross-check the fast path against the dense oracle; raises a
        # guard error (exit 3) when d^M exceeds the requested limit
        dense = cl.dense_cloner_output(spec, np.outer(v, v.conj()), guard=args.guard)
        if float(np.max(np.abs(rho_out - dense))) > 1e-10:
            raise ChannelPropertyError("fast path disagrees with the dense oracle")
    return {
        "d": args.d,
        "n": args.n,
        "m": args.m,
        "basis": tc.SYMMETRIC_BASIS,
        "output": se.matrix_to_json(rho_out),
    }


def _cmd_cloner_marginal(args):
    marg = cl.single_clone_marginal(_cloner_spec(args), _input_state(args))
    return {"d": args.d, "n": args.n, "m": args.m, "marginal": se.matrix_to_json(marg)}


def _cmd_cloner_overlap(args):
    return {
        "overlap": cl.all_clone_overlap(_cloner_spec(args), _input_state(args)),
        "expected": se.fraction_pair(
            Fraction(tc.sym_dimension(args.d, args.n), tc.sym_dimension(args.d, args.m))
        ),
    }


def _cmd_omega_max(args):
    report = oo.maximize_brute(args.d, args.n, args.m)
    return se.omega_report_to_json(report)


def _cmd_omega_point(args):
    m = rt.parse_weight(args.weight)
    try:
        mu = tuple(int(p.strip()) for p in args.mu.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse mu {args.mu!r}") from exc
    point = oo.CandidatePoint(m, mu)
    d, N, M = len(m), sum(mu), sum(m)
    omega = oo.omega_of_point(point, d, N, M)
    gamma = oo.gamma_from_omega(omega, N, M)
    return {
        "m": list(m),
        "mu": list(mu),
        "f2": oo.f2(point),
        "omega": se.fraction_pair(omega),
        "gamma": se.fraction_pair(gamma),
        "delta_one": se.fraction_pair(oo.delta_one_from_gamma(gamma, d)),
    }


def _cmd_omega_su2(args):
    omega = oo.omega_su2(
        _parse_spin(args.alpha), _parse_spin(args.beta), _parse_spin(args.gamma)
    )
    return {"omega": se.fraction_pair(omega)}


def _cmd_rep_casimir(args):
    m = rt.parse_weight(args.weight)
    c1, c2, c2_su = rt.casimirs(m)
    return {
        "weight": list(m),
        "c1": c1,
        "c2": c2,
        "c2_su": se.fraction_pair(c2_su),
        "dimension": rt.weyl_dimension(m),
    }


def _cmd_rep_branch(args):
    m = rt.parse_weight(args.weight)
    branches = rt.pieri_branch(args.n, m)
    return {
        "weight": list(m),
        "n": args.n,
        "count": len(branches),
        "branches": [list(w) for w in branches],
    }


def _cmd_rep_multiplicity(args):
    m = rt.parse_weight(args.weight)
    return {
        "weight": list(m),
        "m_power": args.m,
        "multiplicity": rt.fund_power_multiplicity(m, args.m),
    }


def _cmd_rep_adjoint(args):
    return {"d": args.d, "n": args.n, "multiplicity": rt.adjoint_multiplicity(args.d, args.n)}


def _cmd_channel_twirl(args):
    spec = _cloner_spec(args)
    channel = cl.optimal_cloner(spec)
    # T is a twirl fixed point iff the averaged Choi matrix matches
    averaged = ch.twirl_choi(channel, args.samples, args.seed, args.guard)
    diff = averaged - ch.choi(channel, args.guard)
    dist = float(np.max(np.abs(np.linalg.eigvalsh(diff))))
    return se.estimate_report(dist, args.samples, args.seed)


def _cmd_channel_defect(args):
    spec = _cloner_spec(args)
    channel = cl.optimal_cloner(spec)
    defect = ch.covariance_defect(
        channel, samples=args.samples, seed=args.seed, guard=args.guard
    )
    return se.estimate_report(defect, args.samples, args.seed)


def _cmd_channel_omega(args):
    spec = _cloner_spec(args)
    channel = cl.optimal_cloner(spec)
    return {
        "omega": ch.omega_measure(channel),
        "omega_max": se.fraction_pair(Fraction(args.m + args.d, args.n + args.d)),
    }


def _cmd_channel_delta_one(args):
    spec = _cloner_spec(args)
    channel = cl.optimal_cloner(spec)
    est = ch.delta_one_numeric(channel, samples=args.samples, seed=args.seed)
    return se.estimate_report(est, args.samples, args.seed)


def _cmd_verify_all(args):
    d, N, M = args.d, args.n, args.m
    spec = cl.ClonerSpec(d, N, M)
    failures: list[str] = []

    def check(name: str, ok: bool):
        if not ok:
            failures.append(name)

    # every guard this suite can hit, before any check runs
    channel = cl.optimal_cloner(spec)
    ch.check_choi_guard(channel, args.guard)
    oo.check_enumeration_guard(d, M)

    gamma = float(cl.shrinking_factor(spec))
    target = tc.sym_dimension(d, N) / tc.sym_dimension(d, M)
    for k in range(20):
        psi = tc.haar_state(d, seed=args.seed + k)
        marg = cl.single_clone_marginal(channel, psi)
        expected = gamma * psi.projector() + (1 - gamma) / d * np.eye(d)
        check(
            f"marginal-closed-form-seed-{args.seed + k}",
            float(np.max(np.abs(marg - expected))) <= 1e-10,
        )
        overlap = cl.all_clone_overlap(channel, psi)
        check(
            f"all-clone-overlap-seed-{args.seed + k}", abs(overlap - target) <= 1e-10
        )
    check("trace-preserving", channel.completeness_defect() <= 1e-10)
    check("completely-positive", ch.min_choi_eigenvalue(channel, args.guard) >= -1e-10)
    check(
        "covariance-defect",
        ch.covariance_defect(channel, samples=10, seed=args.seed, guard=args.guard)
        <= 1e-10,
    )
    report = oo.maximize_brute(d, N, M)
    check("omega-max-value", report.omega_max == Fraction(M + d, N + d))
    check("omega-max-unique", report.unique)
    top = (M,) + (0,) * (d - 1)
    mu_top = (N,) + (0,) * (d - 1)
    check("omega-maximizer", report.maximizers[0] == oo.CandidatePoint(top, mu_top))
    greedy = oo.maximize_greedy(d, N, M)
    check("greedy-agrees", greedy == report.maximizers[0])
    omega_meas = ch.omega_measure(channel)
    check("omega-measured", abs(omega_meas - float(report.omega_max)) <= 1e-8)
    check("adjoint-multiplicity", rt.adjoint_multiplicity(d, N) == 1)
    result = {"ok": not failures, "d": d, "n": N, "m": M, "failures": failures}
    return result, (EXIT_OK if not failures else EXIT_NUMERIC)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p, need_m=True, seed=False, samples_default=None, guard=False):
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    if need_m:
        p.add_argument("--m", type=int, required=True)
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if samples_default is not None:
        p.add_argument("--samples", type=int, default=samples_default)
    if guard:
        p.add_argument("--guard", type=int, default=None)
    p.add_argument("--format", choices=["json", "table"], default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloneopt",
        description="Optimal universal cloning channels and the omega functional",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="symmetric-subspace dimension")
    _add_common(p, need_m=False)
    p.set_defaults(handler=_cmd_dims)

    pc = sub.add_parser("cloner", help="optimal cloner construction and constants")
    subc = pc.add_subparsers(dest="subcommand", required=True)
    for name, handler, has_state, guard in [
        ("constants", _cmd_cloner_constants, False, False),
        ("apply", _cmd_cloner_apply, True, True),
        ("marginal", _cmd_cloner_marginal, True, False),
        ("overlap", _cmd_cloner_overlap, True, False),
    ]:
        p = subc.add_parser(name)
        # --seed draws the input state when --state is absent
        _add_common(p, seed=has_state, guard=guard)
        if has_state:
            p.add_argument("--state", type=str, default=None,
                           help="inline JSON amplitudes or a file path")
        p.set_defaults(handler=handler)

    po = sub.add_parser("omega", help="maximization of the omega functional")
    subo = po.add_subparsers(dest="subcommand", required=True)
    p = subo.add_parser("max")
    _add_common(p)
    p.set_defaults(handler=_cmd_omega_max)
    p = subo.add_parser("point")
    p.add_argument("--weight", type=str, required=True)
    p.add_argument("--mu", type=str, required=True)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(handler=_cmd_omega_point)
    p = subo.add_parser("su2")
    p.add_argument("--alpha", type=str, required=True)
    p.add_argument("--beta", type=str, required=True)
    p.add_argument("--gamma", type=str, required=True)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(handler=_cmd_omega_su2)

    pr = sub.add_parser("rep", help="highest-weight bookkeeping")
    subr = pr.add_subparsers(dest="subcommand", required=True)
    p = subr.add_parser("casimir")
    p.add_argument("--weight", type=str, required=True)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(handler=_cmd_rep_casimir)
    p = subr.add_parser("branch")
    p.add_argument("--weight", type=str, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(handler=_cmd_rep_branch)
    p = subr.add_parser("multiplicity")
    p.add_argument("--weight", type=str, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(handler=_cmd_rep_multiplicity)
    p = subr.add_parser("adjoint")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(handler=_cmd_rep_adjoint)

    pch = sub.add_parser("channel", help="channel-level diagnostics of the optimal cloner")
    subch = pch.add_subparsers(dest="subcommand", required=True)
    # channel omega reads no seed; it keeps --seed, which perfbench passes to every channel command
    for name, handler, samples, guard in [
        ("twirl", _cmd_channel_twirl, 200, True),
        ("defect", _cmd_channel_defect, 50, True),
        ("omega", _cmd_channel_omega, None, False),
        ("delta-one", _cmd_channel_delta_one, 2000, False),
    ]:
        p = subch.add_parser(name)
        _add_common(p, seed=True, samples_default=samples, guard=guard)
        p.set_defaults(handler=handler)

    pv = sub.add_parser("verify", help="run the invariant suite")
    subv = pv.add_subparsers(dest="subcommand", required=True)
    p = subv.add_parser("all")
    _add_common(p, seed=True, guard=True)
    p.set_defaults(handler=_cmd_verify_all)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    fmt = getattr(args, "format", "json")
    try:
        _check_ranges(args)
        out = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DimensionGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ChannelPropertyError, CloneOptError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(out, tuple):
        out, code = out
    else:
        code = EXIT_OK
    _emit(out, fmt)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
