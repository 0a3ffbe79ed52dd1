"""Command-line experiment runner.

Subcommands: psi, delta, bv-average, large-sieve, exceptional,
verify-identities.  Reports are written as CSV and/or JSON with the
resolved configuration embedded; fixed seeds give byte-identical reports
across runs and --threads (only bv-average and exceptional fan out).
Exit codes: 0 success, 1 computation/verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

import numpy as np

from . import multfn
from .characters import character_of_rank, family_A, trivial_character
from .discrepancy import (bv_average, discrepancy_record, u_kernel_chardef_row,
                          u_kernel_moebius_row, verify_transfer_identity)
from .errors import DomainError, OracleError, SizingError
from .large_sieve import context_bound, detect_exceptional, ls_primal, modulus_range_Q
from .multfn import dirichlet_inverse, values_array
from .reports import (DECAY_COLUMNS, DISCREPANCY_COLUMNS, EXCEPTIONAL_COLUMNS,
                      IDENTITY_COLUMNS, PSI_COLUMNS, SIEVE_COLUMNS,
                      atomic_files, discrepancy_row, emit_reports, fmt_number,
                      write_json)
from .sieve import _check_query, psi, psi_coprime, psi_progression, smooth_numbers


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"{what} must be an integer, got {text!r}") from None


def _parse_function(name: str, y: int, f_seed: int):
    if name == "smooth-indicator":
        return multfn.smooth_indicator(y)
    if name == "moebius-smooth":
        return multfn.moebius_smooth(y)
    if name == "random-unit":
        return multfn.random_unit_circle(f_seed, smooth_bound=y)
    if name.startswith("twist:"):
        fields = name.split(":")
        if len(fields) != 3:
            raise DomainError(f"expected twist:<conductor>:<rank>, got {name!r}")
        r = _int(fields[1], "twist conductor")
        rank = _int(fields[2], "twist rank")
        chi = character_of_rank(r, rank)
        if not chi.primitive:
            raise DomainError(f"no primitive character mod {r} with rank {rank}")
        return multfn.character_twist(chi, y)
    raise DomainError(f"unknown function spec {name!r}")


def _parse_xi(spec: str):
    """Xi, a list of primitive characters, from `--xi`."""
    if spec == "none":
        return []
    if spec == "trivial":
        return [trivial_character()]
    if spec.startswith("A:"):
        return family_A(_int(spec[2:], "Xi bound D")).members
    raise DomainError(f"unknown Xi spec {spec!r}")


def _config(args, **extra) -> dict:
    """The command and every argument of its subparser, as parsed (and derived)."""
    return {k: v for k, v in vars(args).items()
            if k not in ("out", "format", "threads", "fn")} | extra


def _emit(args, name: str, columns, rows, config, summary=None):
    for p in emit_reports(args.out, name, args.format, columns, rows, config, summary):
        print(f"wrote {p}")


def cmd_psi(args):
    if args.a is not None and args.q is None:
        raise DomainError("psi --a names a residue class, so it needs --q")
    _check_query(args.x, args.y, least=1)
    x, y, q, a = args.x, args.y, args.q, args.a
    if q is None:
        kind, count, q, a = "psi", psi(x, y), "", ""
    elif a is None:
        kind, count, a = "psi_coprime", psi_coprime(x, y, q), ""
    else:
        kind, count = "psi_progression", psi_progression(x, y, a, q)
    print(f"{kind} = {count}")
    _emit(args, "psi", PSI_COLUMNS,
          [{"kind": kind, "x": x, "y": y, "q": q, "a": a, "count": count}], _config(args))
    return 0


def cmd_delta(args):
    _check_query(args.x, args.y, least=1)
    f = _parse_function(args.f, args.y, args.f_seed)
    rec = discrepancy_record(f, args.x, args.q, args.a, 1)
    rec.a1 %= rec.q  # the report names the residue class of a
    print(f"delta = {fmt_number(rec.delta.real)} + {fmt_number(rec.delta.imag)}i")
    _emit(args, "delta", DISCREPANCY_COLUMNS, [discrepancy_row(rec)], _config(args))
    return 0


def cmd_bv_average(args):
    if args.x is not None and args.xs:
        raise DomainError("bv-average takes --x or --xs, not both")
    if args.y is not None and args.y_rule == "cuberoot":
        raise DomainError("--y-rule cuberoot derives y from x, so it takes no --y")
    if args.a1 * args.a2 == 0:
        raise DomainError("need a1*a2 != 0: gcd(0, q) = q leaves only q = 1")
    if not math.isfinite(args.Q_exp):  # even beside --Q: the report records it
        raise DomainError(f"need a finite --Q-exp, got {args.Q_exp}")
    xs = [_int(v, "--xs entry") for v in args.xs.split(",")] if args.xs else [args.x]
    if any(v is None for v in xs):
        raise DomainError("bv-average needs --x or --xs")
    runs = []  # (x, y, Q) for every x, each checked before anything is built
    for x in xs:
        y = args.y if args.y_rule == "fixed" else max(2, round(x ** (1.0 / 3)))
        if y is None:
            raise DomainError("bv-average needs --y, or --y-rule cuberoot")
        _check_query(x, y, least=1)
        try:
            Q = args.Q if args.Q is not None else int(x**args.Q_exp)
        except OverflowError:
            raise DomainError(f"x^Q-exp overflows a float at x={x}, "
                              f"Q-exp={args.Q_exp}") from None
        if not 1 <= Q <= x:
            raise DomainError(f"need 1 <= Q <= x, got Q={Q} at x={x}")
        runs.append((x, y, Q))
    xi = _parse_xi(args.xi)
    decay_rows = []
    for x, y, Q in runs:
        f = _parse_function(args.f, y, args.f_seed)
        total, records = bv_average(f, x, Q, args.a1, args.a2, xi,
                                    threads=args.threads)
        psi_x = psi(x, y)
        normalized = total / psi_x
        print(f"x={x} y={y} Q={Q} total={fmt_number(total)} "
              f"psi={psi_x} normalized={fmt_number(normalized)}")
        decay_rows.append({"x": x, "y": y, "Q": Q, "total": total,
                           "psi": psi_x, "normalized": normalized})
    if len(runs) == 1:
        _emit(args, "bv-average", DISCREPANCY_COLUMNS, map(discrepancy_row, records),
              _config(args), summary=decay_rows[0])
    else:
        _emit(args, "bv-average-decay", DECAY_COLUMNS, decay_rows, _config(args))
    return 0


def cmd_large_sieve(args):
    if args.trials < 1:
        raise DomainError(f"need --trials >= 1, got {args.trials}")
    if not math.isfinite(args.c):  # even beside --Q: the report records it
        raise DomainError(f"need a finite --c, got {args.c}")
    _check_query(args.x, args.y, least=1)  # before x^c or y^c is taken
    if args.Q is None:  # pick the range the inequality is stated for
        args.Q = modulus_range_Q(args.x, args.y, args.c,
                                 weighted=args.weight_mode == "sqrt")
    if args.Q < 1:  # checked here, so that the message names the flag, not family_A's D
        raise DomainError(f"need --Q >= 1, got {args.Q}")
    families = family_A(args.Q)
    smooth = smooth_numbers(args.x, args.y)  # built once: every trial reads it
    Psi = len(smooth.ns)
    rows = []
    best = 0.0
    for trial in range(args.trials):
        # a[i] is the coefficient at the i-th smooth n, as ls_primal reads it
        if args.coeffs == "ones":
            a = np.ones(Psi, dtype=np.complex128)
        else:  # pm1, the only other choice the parser takes
            rng = random.Random(args.seed * 100003 + trial)
            a = np.array([1.0 if rng.random() < 0.5 else -1.0 for _ in range(Psi)],
                         dtype=np.complex128)
        exp = ls_primal(smooth, args.Q, a, args.weight_mode, families)
        del a  # before the next trial builds its own
        best = max(best, exp.ratio)
        rows.append({"trial": trial, "x": exp.x, "y": exp.y, "Q": exp.Q,
                     "weight_mode": exp.weight_mode, "lhs": exp.lhs,
                     "rhs": exp.rhs, "ratio": exp.ratio})
    print(f"max ratio = {fmt_number(best)}")
    _emit(args, "large-sieve", SIEVE_COLUMNS, rows, _config(args),
          summary={"max_ratio": best})
    return 0


def cmd_exceptional(args):
    _check_query(args.x, args.y, least=1)
    bound = context_bound(args.x, args.B)
    if args.Q < 1:  # checked here, so that the message names the flag, not family_A's D
        raise DomainError(f"need --Q >= 1, got {args.Q}")
    families = family_A(args.Q)
    f = _parse_function(args.f, args.y, args.f_seed)
    found = detect_exceptional(f, args.x, args.y, args.Q, args.B, args.eps,
                               families=families, threads=args.threads)
    count, weighted = len(found.members), found.weighted_count
    rows = ({"conductor": w.character.q, "chi_rank": w.character.rank,
             "witness_X": w.X, "witness_value": w.value,
             "threshold": w.threshold, "kind": kind}
            for kind, wits in (("member", found.members), ("near_miss", found.near_misses))
            for w in wits)
    config = _config(args, f_record=f.to_record())
    print(f"|Xi(B)| = {count}, weighted = {fmt_number(weighted)}, "
          f"(log x)^(3B+13) = {fmt_number(bound)} [context only]")
    _emit(args, "exceptional", EXCEPTIONAL_COLUMNS, rows, config,
          summary={"count": count, "weighted": weighted, "context_bound": bound})
    if args.format in ("json", "both"):
        path = os.path.join(args.out, "exceptional-characters.json")
        with atomic_files([path]) as (fh,):
            write_json(fh, {"config": config}, "members",
                       (w.character.to_record() for w in found.members))
        print(f"wrote {path}")
    return 0


def _kernel_worst(q: int, D: int, fam) -> float:
    """max over n mod q of |u_kernel_chardef - u_kernel_moebius|, one row of each."""
    d = u_kernel_chardef_row(q, D, fam) - u_kernel_moebius_row(q, D)
    return float(np.max(np.hypot(d.real, d.imag)))  # rounds as Python's abs(complex)


_CONV_BLOCK = 2048  # (d, m) pairs per np.add.at call


def _dirichlet_convolution(fv: np.ndarray, gv: np.ndarray) -> np.ndarray:
    """(f*g)(n) for n = 0..N from the dense values fv = f(0..N), gv = g(0..N).

    Adds f(d)*g(m) at n = d*m over the pairs (d, m) in d-major order, about
    _CONV_BLOCK pairs per np.add.at call, so each (f*g)(n) is the sequential
    sum in ascending d that a loop of strided adds conv[d::d] would form.
    """
    N = len(fv) - 1
    conv = np.zeros(N + 1, dtype=np.complex128)
    ds = np.arange(1, N + 1)
    counts = N // ds  # the m <= N/d paired with d
    starts = np.cumsum(counts) - counts  # pairs before d
    lo = 0
    while lo < N:
        hi = max(lo + 1, int(np.searchsorted(starts, starts[lo] + _CONV_BLOCK)))
        d = np.repeat(ds[lo:hi], counts[lo:hi])
        m = np.arange(d.size) - np.repeat(starts[lo:hi] - starts[lo], counts[lo:hi]) + 1
        np.add.at(conv, d * m, fv[d] * gv[m])
        lo = hi
    return conv


def cmd_verify_identities(args):
    if args.qmax < 1:
        raise DomainError(f"need --qmax >= 1, got {args.qmax}")
    if args.tuples < 0:
        raise DomainError(f"need --tuples >= 0, got {args.tuples}")
    if args.tuples > 0 and args.xmax < 50:
        raise DomainError(f"the transfer tuples draw x from 50..xmax, so need --xmax >= 50, "
                          f"got {args.xmax}")
    if args.xmax < 2:
        raise DomainError(f"the Dirichlet-inverse check reads n = 2..xmax, got --xmax {args.xmax}")
    _check_query(args.xmax)
    rng = random.Random(args.seed)
    rows = []

    def add(check, params, residual, tol):
        rows.append({"check": check, "params": params, "residual": residual,
                     "tolerance": tol, "ok": residual <= tol})

    # kernel identity: definition vs divisor-sum route; no conductor > qmax divides a q
    fam = family_A(min(max(args.Dset), args.qmax))
    for D in args.Dset:
        worst = max(_kernel_worst(q, D, fam) for q in range(1, args.qmax + 1))
        add("kernel-identity", f"q<={args.qmax},D={D}", worst, 1e-10)

    # transfer identity on random tuples
    xi_triv = [trivial_character()]
    worst = 0.0
    for trial in range(args.tuples):
        q = rng.randrange(2, 31)
        x = rng.randrange(50, args.xmax + 1)
        D = rng.randrange(1, 11)
        f = multfn.random_unit_circle(seed=args.seed * 1009 + trial,
                                      smooth_bound=50)
        chk = verify_transfer_identity(f, x, q, 1, 1, xi_triv, D)
        worst = max(worst, chk.residual / (1 + abs(chk.lhs)))
    add("transfer-identity", f"tuples={args.tuples}", worst, 1e-8)

    # convolution inverse exactness
    worst = 0.0
    for trial in range(5):
        f = multfn.random_unit_circle(seed=1000 + trial)
        g = dirichlet_inverse(f, args.xmax)
        fv = values_array(f, args.xmax)
        gv = values_array(g, args.xmax)
        conv = _dirichlet_convolution(fv, gv)
        worst = max(worst, float(np.max(np.abs(conv[2:]))))
    add("dirichlet-inverse", f"n<={args.xmax}", worst, 1e-10)

    ok = all(r["ok"] for r in rows)
    for r in rows:
        status = "ok" if r["ok"] else "FAIL"
        print(f"{r['check']:20s} {r['params']:20s} residual={fmt_number(r['residual'])} "
              f"tol={fmt_number(r['tolerance'])} {status}")
    _emit(args, "verify-identities", IDENTITY_COLUMNS, rows, _config(args),
          summary={"all_ok": ok})
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="smoothap",
                                 description="Smooth-number / character-sum experiment runner")
    ap.add_argument("--out", default="reports", help="output directory")
    ap.add_argument("--format", choices=["csv", "json", "both"], default="both")
    ap.add_argument("--threads", type=int, default=1,
                    help="worker threads (>= 1) for bv-average and exceptional; "
                         "others run serially")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psi", help="smooth counting queries")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--a", type=int, default=None)
    p.set_defaults(fn=cmd_psi)

    p = sub.add_parser("delta", help="one progression discrepancy")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--f", default="smooth-indicator")
    p.add_argument("--f-seed", type=int, default=0)
    p.set_defaults(fn=cmd_delta)

    p = sub.add_parser("bv-average", help="sum of |Delta_Xi| over moduli")
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--xs", default=None, help="comma list of x for a decay curve")
    p.add_argument("--y", type=int, default=None)
    p.add_argument("--y-rule", choices=["fixed", "cuberoot"], default="fixed")
    p.add_argument("--Q", type=int, default=None)
    p.add_argument("--Q-exp", type=float, default=0.55)
    p.add_argument("--a1", type=int, default=1,
                   help="nonzero; a q sharing a factor with a1*a2 is skipped, since "
                        "the average runs over (q, a1*a2) = 1 only")
    p.add_argument("--a2", type=int, default=1, help="nonzero, as --a1")
    p.add_argument("--xi", default="trivial")
    p.add_argument("--f", default="smooth-indicator")
    p.add_argument("--f-seed", type=int, default=0)
    p.set_defaults(fn=cmd_bv_average)

    p = sub.add_parser("large-sieve", help="evaluate the smooth large-sieve ratio")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--Q", type=int, default=None,
                   help="modulus range; omit to derive it from --c")
    p.add_argument("--coeffs", choices=["ones", "pm1"], default="ones")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--weight-mode", choices=["unweighted", "sqrt"], default="unweighted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c", type=float, default=0.2,
                   help="inequality-range exponent c, recorded in reports")
    p.set_defaults(fn=cmd_large_sieve)

    p = sub.add_parser("exceptional", help="dyadic scan for exceptional characters")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--f", default="smooth-indicator")
    p.add_argument("--f-seed", type=int, default=0)
    p.set_defaults(fn=cmd_exceptional)

    p = sub.add_parser("verify-identities", help="exact-identity verification suite")
    p.add_argument("--qmax", type=int, default=60)
    p.add_argument("--tuples", type=int, default=25)
    p.add_argument("--xmax", type=int, default=2000)
    p.add_argument("--Dset", type=lambda s: tuple(int(v) for v in s.split(",")),
                   default=(1, 2, 3, 5, 10))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify_identities)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise DomainError(f"need --threads >= 1, got {args.threads}")
        return args.fn(args)
    except (DomainError, SizingError, OracleError) as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
