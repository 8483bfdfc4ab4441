"""Command-line surface.

Every subcommand prints a single JSON document (or an aligned table with
--format table) and uses the exit-code taxonomy: 0 success, 1 numeric
failure, 2 usage error, 3 dimension-guard violation.  A usage error is
a ValueError, raised by the checks here or by the library.  Identical
argv and seed give byte-identical output.

A process loads what its command uses: omega_opt, numpy, tensor_core,
cloner and channels are imported by the handlers that need them.  So
dims and rep * load neither omega_opt nor numpy; omega max|point|su2
and cloner constants load omega_opt, whose closed forms they print, and
no numpy; the matrix commands (cloner apply|marginal|overlap, channel *,
verify all) load numpy and, through cloner, omega_opt.  run() parses
argv once, with the parser of the one command it names (the full parser
when it names none).  A --state is one format: a JSON list of [re, im]
pairs, inline or in a file of at most 1 MiB.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import rep_theory as rt
from . import serialize as se
from .errors import CloneOptError, DimensionGuardError
from .tolerances import MAX_D, MAX_SITES, STATE_TOL, STRUCTURAL_TOL

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

# the longest --state file read, in bytes
_STATE_FILE_BYTES = 2**20


def _parse_spin(text: str) -> Fraction:
    # Fraction expands an exponent to all its digits: "1e10000000" alone
    # takes seconds, so a spin has none
    try:
        if "e" in text.lower():
            raise ValueError("exponent notation")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse spin {text!r}") from exc


def _parse_state(text: str, d: int):
    """Pure-state amplitudes [[re, im], ...] from inline JSON or a file
    path; a file is read up to one byte past _STATE_FILE_BYTES, so an
    endless one (/dev/zero) is refused at once."""
    import numpy as np

    from . import tensor_core as tc

    raw = text.strip()
    if not raw.startswith("["):
        try:
            with open(text, "rb") as file:
                raw = file.read(_STATE_FILE_BYTES + 1)
        except OSError as exc:
            raise ValueError(f"cannot read state file {text!r}: {exc.strerror}") from exc
        if len(raw) > _STATE_FILE_BYTES:
            raise ValueError(f"state file {text!r} holds more than {_STATE_FILE_BYTES} bytes")
        raw = raw.decode()
    try:
        pairs = json.loads(raw)
        # complex() would take JSON's true and false as 1 and 0
        if any(isinstance(part, bool) for pair in pairs for part in pair):
            raise TypeError("boolean amplitude")
        amps = np.array([complex(re, im) for re, im in pairs])
    except (ValueError, OverflowError, TypeError, RecursionError) as exc:
        raise ValueError(f"cannot parse state {text!r}") from exc
    if amps.shape[0] != d:
        raise ValueError(f"state has {amps.shape[0]} amplitudes, expected {d}")
    if not (np.isfinite(amps).all() and amps.any()):
        raise ValueError("state vector must be non-zero with finite amplitudes")
    with np.errstate(all="ignore"):
        psi = amps / np.linalg.norm(amps)
        normalized = abs(np.linalg.norm(psi) - 1) <= STATE_TOL
    if not normalized:
        # the norm over- or underflowed: scale the largest real or
        # imaginary part to 1 first, so the norm lies in [1, sqrt(2d)];
        # the parts are scaled as reals, since a complex division by a
        # subnormal overflows
        parts = np.array([amps.real, amps.imag])
        parts /= np.abs(parts).max()
        psi = (parts[0] + 1j * parts[1]) / np.linalg.norm(parts)
    return tc.PureState(psi)


def _input_state(args):
    """The --state amplitudes, or else the Haar state of --seed."""
    if args.state:
        return _parse_state(args.state, args.d)
    from . import tensor_core as tc

    return tc.haar_state(args.d, args.seed)


def _check_sites(name: str, count: int) -> None:
    if not 0 <= count <= MAX_SITES:
        raise ValueError(f"{name} must be in [0, {MAX_SITES}], got {count}")


def _check_ranges(args) -> None:
    # a weight has d components; counted before any of them is parsed
    weight = getattr(args, "weight", None)
    d = len(weight.split(",")) if weight is not None else getattr(args, "d", None)
    if d is not None and not 2 <= d <= MAX_D:
        raise ValueError(f"d must be in [2, {MAX_D}], got {d}")
    n = getattr(args, "n", None)
    if n is not None:
        _check_sites("N", n)
    for name, least in (("samples", 1), ("seed", 0)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    m = getattr(args, "m", None)
    if m is not None:
        _check_sites("M", m)
        if n is not None and m < n:
            raise ValueError(f"M = {m} must be >= N = {n}")


def _render(obj, fmt: str) -> str:
    """The whole stdout text of an answer; raises ValueError for an int
    past Python's int-to-str digit limit."""
    if fmt == "table":
        width = max(len(k) for k in obj)
        lines = []
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                v = json.dumps(v, separators=(",", ":"))
            lines.append(f"{k:<{width}}  {v}\n")
        return "".join(lines)
    return se.dumps(obj)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_dims(args):
    return {"d": args.d, "n": args.n, "sym_dimension": rt.sym_dimension(args.d, args.n)}


def _cloner_spec(args):
    from . import omega_opt as oo

    return oo.ClonerSpec(args.d, args.n, args.m)


def _cloner(args):
    """The optimal cloner of --d, --n and --m."""
    from . import cloner as cl

    return cl.optimal_cloner(_cloner_spec(args))


def _overlap(args) -> Fraction:
    """d[N]/d[M], the optimal cloner's all-clone overlap on every state."""
    return Fraction(rt.sym_dimension(args.d, args.n), rt.sym_dimension(args.d, args.m))


def _cmd_cloner_constants(args):
    from . import omega_opt as oo

    spec = _cloner_spec(args)
    return {
        "gamma": se.fraction_pair(oo.shrinking_factor(spec)),
        "delta_one": se.fraction_pair(oo.delta_one_closed_form(spec)),
        "overlap": se.fraction_pair(_overlap(args)),
    }


def _cmd_cloner_apply(args):
    from . import tensor_core as tc

    psi = _input_state(args)
    channel = _cloner(args)  # refuses sizes past the guard before psi^N is built
    rho_out = channel.apply_fast(tc.product_power(psi, args.n))
    return {
        "d": args.d,
        "n": args.n,
        "m": args.m,
        "basis": tc.SYMMETRIC_BASIS,
        "output": se.matrix_to_json(rho_out),
    }


def _cmd_cloner_marginal(args):
    from . import cloner as cl

    marg = cl.single_clone_marginal(_cloner_spec(args), _input_state(args))
    return {"d": args.d, "n": args.n, "m": args.m, "marginal": se.matrix_to_json(marg)}


def _cmd_cloner_overlap(args):
    from . import cloner as cl

    return {
        "overlap": cl.all_clone_overlap(_cloner_spec(args), _input_state(args)),
        "expected": se.fraction_pair(_overlap(args)),
    }


def _cmd_omega_max(args):
    from . import omega_opt as oo

    report = oo.maximize_exact(args.d, args.n, args.m)
    return se.omega_report_to_json(report)


def _cmd_omega_point(args):
    from . import omega_opt as oo

    m = rt.parse_weight(args.weight)
    try:
        mu = tuple(int(p.strip()) for p in args.mu.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse mu {args.mu!r}") from exc
    d, N, M = len(m), sum(mu), sum(m)
    _check_sites("N", N)
    _check_sites("M", M)
    point = oo.CandidatePoint(m, mu)
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
    from . import omega_opt as oo

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
    import numpy as np

    from . import channels as ch

    channel = _cloner(args)
    # T is a twirl fixed point iff the averaged Choi matrix matches
    averaged = ch.twirl_choi(channel, args.samples, args.seed)
    averaged -= ch.choi(channel)
    dist = float(np.max(np.abs(np.linalg.eigvalsh(averaged))))
    return se.estimate_report(dist, args.samples, args.seed)


def _cmd_channel_defect(args):
    from . import channels as ch

    channel = _cloner(args)
    defect = ch.covariance_defect(channel, samples=args.samples, seed=args.seed)
    return se.estimate_report(defect, args.samples, args.seed)


def _cmd_channel_omega(args):
    from . import channels as ch

    channel = _cloner(args)
    return {
        "omega": ch.omega_measure(channel),
        "omega_max": se.fraction_pair(Fraction(args.m + args.d, args.n + args.d)),
    }


def _cmd_channel_delta_one(args):
    from . import channels as ch

    channel = _cloner(args)
    est = ch.delta_one_numeric(channel, samples=args.samples, seed=args.seed)
    return se.estimate_report(est, args.samples, args.seed)


def _cmd_verify_all(args):
    import numpy as np

    from . import channels as ch
    from . import cloner as cl
    from . import omega_opt as oo
    from . import tensor_core as tc

    d, N, M = args.d, args.n, args.m
    spec = _cloner_spec(args)
    failures: list[str] = []

    def check(name: str, value, tol=0):
        """A check passes when its measured value is at most tol; an exact
        check measures a count of mismatches, or a distance, against 0."""
        if not value <= tol:
            failures.append(name)

    # the Kraus entry guard is the one guard this suite can hit; it runs
    # here, before any check, and bounds the label listing too
    channel = cl.optimal_cloner(spec)

    gamma = float(oo.shrinking_factor(spec))
    target = float(_overlap(args))
    for k in range(20):
        psi = tc.haar_state(d, seed=args.seed + k)
        marg = cl.single_clone_marginal(channel, psi)
        expected = gamma * psi.projector() + (1 - gamma) / d * np.eye(d)
        check(
            f"marginal-closed-form-seed-{args.seed + k}",
            float(np.max(np.abs(marg - expected))), STRUCTURAL_TOL,
        )
        overlap = cl.all_clone_overlap(channel, psi)
        check(f"all-clone-overlap-seed-{args.seed + k}", abs(overlap - target), STRUCTURAL_TOL)
    check("trace-preserving", channel.completeness_defect(), STRUCTURAL_TOL)
    check("completely-positive", -ch.min_choi_eigenvalue(channel), STRUCTURAL_TOL)
    check(
        "covariance-defect",
        ch.covariance_defect(channel, samples=10, seed=args.seed), STRUCTURAL_TOL,
    )
    report = oo.maximize_brute(d, N, M)
    check("exact-maximizer", int(oo.maximize_exact(d, N, M) != report))
    check("omega-max-value", abs(report.omega_max - Fraction(M + d, N + d)))
    check("omega-max-unique", len(report.maximizers) - 1)
    top = (M,) + (0,) * (d - 1)
    mu_top = (N,) + (0,) * (d - 1)
    check("omega-maximizer", int(report.maximizers[0] != oo.CandidatePoint(top, mu_top)))
    greedy = oo.maximize_greedy(d, N, M)
    check("greedy-agrees", int(greedy != report.maximizers[0]))
    omega_meas = ch.omega_measure(channel)
    check("omega-measured", abs(omega_meas - float(report.omega_max)), 1e-8)
    check("adjoint-multiplicity", abs(rt.adjoint_multiplicity(d, N) - 1))
    result = {"ok": not failures, "d": d, "n": N, "m": M, "failures": failures}
    return result, (EXIT_OK if not failures else EXIT_NUMERIC)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# argparse keywords of every flag; each command row below names the flags
# it reads, in the order its --help lists them
_FLAGS = {
    "--d": dict(type=int, required=True),
    "--n": dict(type=int, required=True),
    "--m": dict(type=int, required=True),
    "--seed": dict(type=int, default=0),
    "--samples": dict(type=int),
    "--format": dict(choices=["json", "table"], default="json"),
    "--state": dict(type=str, help="inline JSON amplitudes or a file path"),
    "--weight": dict(type=str, required=True),
    "--mu": dict(type=str, required=True),
    "--alpha": dict(type=str, required=True),
    "--beta": dict(type=str, required=True),
    "--gamma": dict(type=str, required=True),
}

_GROUP_HELP = {
    "dims": "symmetric-subspace dimension",
    "cloner": "optimal cloner construction and constants",
    "omega": "maximization of the omega functional",
    "rep": "highest-weight bookkeeping",
    "channel": "channel-level diagnostics of the optimal cloner",
    "verify": "run the invariant suite",
}

# (group, subcommand, handler, flags, defaults); dims has no subcommand.
# In the cloner apply|marginal|overlap rows --seed draws the input state
# when --state is absent.
_COMMANDS = [
    ("dims", None, _cmd_dims, ("--d", "--n", "--format"), {}),
    ("cloner", "constants", _cmd_cloner_constants, ("--d", "--n", "--m", "--format"), {}),
    ("cloner", "apply", _cmd_cloner_apply,
     ("--d", "--n", "--m", "--seed", "--format", "--state"), {}),
    ("cloner", "marginal", _cmd_cloner_marginal,
     ("--d", "--n", "--m", "--seed", "--format", "--state"), {}),
    ("cloner", "overlap", _cmd_cloner_overlap,
     ("--d", "--n", "--m", "--seed", "--format", "--state"), {}),
    ("omega", "max", _cmd_omega_max, ("--d", "--n", "--m", "--format"), {}),
    ("omega", "point", _cmd_omega_point, ("--weight", "--mu", "--format"), {}),
    ("omega", "su2", _cmd_omega_su2, ("--alpha", "--beta", "--gamma", "--format"), {}),
    ("rep", "casimir", _cmd_rep_casimir, ("--weight", "--format"), {}),
    ("rep", "branch", _cmd_rep_branch, ("--weight", "--n", "--format"), {}),
    ("rep", "multiplicity", _cmd_rep_multiplicity, ("--weight", "--m", "--format"), {}),
    ("rep", "adjoint", _cmd_rep_adjoint, ("--d", "--n", "--format"), {}),
    ("channel", "twirl", _cmd_channel_twirl,
     ("--d", "--n", "--m", "--seed", "--samples", "--format"), {"samples": 200}),
    ("channel", "defect", _cmd_channel_defect,
     ("--d", "--n", "--m", "--seed", "--samples", "--format"), {"samples": 50}),
    # reads no seed; it keeps --seed, which perfbench passes to every channel command
    ("channel", "omega", _cmd_channel_omega, ("--d", "--n", "--m", "--seed", "--format"), {}),
    ("channel", "delta-one", _cmd_channel_delta_one,
     ("--d", "--n", "--m", "--seed", "--samples", "--format"), {"samples": 2000}),
    ("verify", "all", _cmd_verify_all, ("--d", "--n", "--m", "--seed", "--format"), {}),
]


def build_parser(rows=_COMMANDS) -> argparse.ArgumentParser:
    """The argparse tree of the given _COMMANDS rows, all by default."""
    parser = argparse.ArgumentParser(
        prog="cloneopt",
        description="Optimal universal cloning channels and the omega functional",
    )
    # a tree of fewer rows still lists every group in its usage line, which
    # an unrecognized argument's error prints; the full tree lists its own
    # choices, and names the missing command by its dest
    metavar = None if rows is _COMMANDS else "{" + ",".join(_GROUP_HELP) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    groups = {}
    for group, name, handler, flags, defaults in rows:
        if name is None:
            p = sub.add_parser(group, help=_GROUP_HELP[group])
        else:
            if group not in groups:
                groups[group] = sub.add_parser(group, help=_GROUP_HELP[group]).add_subparsers(
                    dest="subcommand", required=True
                )
            p = groups[group].add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(handler=handler, **defaults)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed once, by the tree of the one _COMMANDS row it names, or
    by the full tree when it names none; help and usage errors read the
    same from either."""
    row = [
        r for r in _COMMANDS
        if argv[:1] == [r[0]] and (r[1] is None or argv[1:2] == [r[1]])
    ]
    return build_parser(row or _COMMANDS).parse_args(argv)


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    fmt = getattr(args, "format", "json")
    try:
        _check_ranges(args)
        out = args.handler(args)
        out, code = out if isinstance(out, tuple) else (out, EXIT_OK)
        # rendered before anything is written, so a refusal leaves stdout empty
        text = _render(out, fmt)
    except DimensionGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except CloneOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
