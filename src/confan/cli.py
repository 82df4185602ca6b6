"""Batch command line: matroid reports, configuration polynomials, fans with
structural verification, resolution fibre reports, invariant classes, and
positive-characteristic certificates.

Exit codes: 0 success, 1 computation error, 2 parse error, 3 a verification
check failed, 141 stdout closed before all the output was written.
CONFIG_RESOLVE_MAX_N caps the ground-set size (default 12).
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, combinations

from .errors import ConfanError, ParseError, VerificationFailure

# Each command imports only the layers it runs: with no bytecode cache,
# compiling is most of a short job's start-up.  `psi` and `charp` import
# arith first: compiled before its users, it needs less fresh memory (a
# lower peak RSS).  The fan commands never load it on graph or basis input.
# json is loaded only to read JSON input, and jsonwriter only after the
# command, for `--output json`; output is written as it is made (main).
# `fan --which K` builds with confan.fans.K_fan, "-" read as "_".
FAN_KINDS = ("bergman", "delta", "delta-tilde", "square-conormal")


def _ground_cap() -> int:
    raw = os.environ.get("CONFIG_RESOLVE_MAX_N", "12")
    if raw.isascii() and raw.isdigit() and int(raw) > 0:
        return int(raw)
    from .inputs import _cut

    raise ParseError(
        "CONFIG_RESOLVE_MAX_N must be a positive integer, got %s" % _cut(raw, repr)
    )


def cmd_matroid_info(args, cap):
    from .inputs import load_matroid
    from .matroid import (
        char_poly,
        dual,
        flats,
        is_connected,
        loops_of,
        roundness_witnesses,
        subset_label,
    )

    m = load_matroid(args.input, args.format, cap)
    lattice = flats(m)
    nonround = [subset_label(f, m.n) for f in roundness_witnesses(m)]
    lines = ["elements: %d" % m.n, "rank: %d" % m.r, "bases: %d" % len(m.bases)]
    flat_report = {}
    for k in range(m.r + 1):
        labels = [subset_label(f, m.n) for f, rk in lattice.items() if rk == k]
        flat_report[k] = labels
        lines.append("flats rank %d: %s" % (k, ", ".join(labels)))
    connected = is_connected(m)
    round_ = not nonround
    lines.append("connected: %s" % str(connected).lower())
    lines.append("round: %s" % str(round_).lower())
    lines.append(
        "non-round flats: %s" % (", ".join(nonround) if nonround else "none")
    )
    payload = {
        "n": m.n,
        "rank": m.r,
        "bases": len(m.bases),
        "flats": flat_report,
        "connected": connected,
        "round": round_,
        "nonround_flats": nonround,
    }
    if not loops_of(m):
        chi = char_poly(m)
        chib = chi.div_t_minus_1()
        lines.append("chi = %s" % chi)
        lines.append("chi reduced = %s" % chib)
        payload["chi"] = str(chi)
        payload["chi_reduced"] = str(chib)
    else:
        lines.append("chi: undefined (matroid has loops)")
    md = dual(m)
    lines.append("dual: rank %d, %d bases" % (md.r, len(md.bases)))
    payload["dual"] = {"rank": md.r, "bases": len(md.bases)}
    return lines, payload, []


def cmd_psi(args, cap):
    from . import arith  # noqa: F401 (first, see above)
    from .config import psi_basis_expansion, psi_det
    from .inputs import load_configuration

    c = load_configuration(args.input, args.format, cap)
    # psi_det returns the basis expansion it has checked
    psi = str(psi_det(c) if args.check_det else psi_basis_expansion(c))
    lines = ["psi = %s" % psi]
    payload = {"psi": psi}
    if args.check_det:
        lines.append("det check: pass")
        payload["det_check"] = "pass"
    return lines, payload, []


def cmd_fan(args, cap):
    from . import fans
    from .inputs import load_matroid

    m = load_matroid(args.input, args.format, cap)
    fan = getattr(fans, args.which.replace("-", "_") + "_fan")(m)
    maxes = fan.maximal_cones()
    # rank <= ray count, so cones no larger than the best rank cannot raise
    # it; a pure fan needs a single rank
    dim = 0
    for c in sorted(maxes, key=len, reverse=True):
        if len(c) <= dim:
            break
        dim = max(dim, fan.cone_dim(c))
    lines = ["fan: %s" % args.which, "rays: %d" % len(fan.rays)]
    lines += ["maximal cones: %d" % len(maxes), "dimension: %d" % dim]
    for i, (lab, v) in enumerate(zip(fan.labels, fan.rays)):
        lines.append("ray %d: %s e=%s f=%s" % (i, lab, list(v.e), list(v.f)))
    failures = []
    verify = {}

    def check(key, name, bad):
        verify[key] = "fail" if bad else "pass"
        if bad:
            names = "; ".join(fans.cone_label(fan, c) for c in bad[:5])
            failures.append("%s: FAIL on %d maximal cones: %s" % (name, len(bad), names))
        else:
            lines.append("%s: pass" % name)

    if args.verify_unimodular:
        # a face of a unimodular simplicial cone is unimodular: its
        # generators are part of a lattice basis
        check("unimodular", "unimodular", fans.non_unimodular_cones(fan))
    if args.verify_maps:
        off_pi1, off_minus_pi2 = fans.cones_off_coordinate_fans(fan)
        check("pi1", "π1", off_pi1)
        check("minus_pi2", "-π2", off_minus_pi2)
    if args.verify_refines:
        # Δ̃ → Δ whatever --which is, certified from Δ̃'s biflats; Δ̃ is the
        # square conormal fan's negative shear
        fine = (
            fan if args.which == "delta-tilde"
            else fans.minus_shear(fan) if args.which == "square-conormal"
            else fans.delta_tilde_fan(m)
        )
        witness = fans.refines(m, fine)
        verify["refines"] = "pass" if witness is None else "fail"
        if witness is None:
            lines.append("refines: pass")
        else:
            verify["refines_witness"] = witness
            failures.append("refines: FAIL: %s" % witness)
    # every face of the fan, sorted: built only when it is printed
    payload = fans.fan_to_json(fan) if args.output == "json" else {}
    payload["which"] = args.which
    if verify:
        payload["verify"] = verify
    return lines, payload, failures


def cmd_resolve_report(args, cap):
    from .fans import biflat_label, divisor_incidence, fibre_biflats
    from .inputs import load_matroid
    from .matroid import parse_subset_label

    m = load_matroid(args.input, args.format, cap)
    try:
        fmask = parse_subset_label(args.flat, m.n)
        smask = parse_subset_label(args.subset, m.n)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    # the fibre fan's rays are its biflats; the report needs no cone of it,
    # and only the output that is printed is built
    biflats = fibre_biflats(m, fmask, smask)
    labels = [biflat_label(p, m.n) for p in biflats]
    pairs = (
        (a, b, divisor_incidence([p, q], m.n))
        for (a, p), (b, q) in combinations(zip(labels, biflats), 2)
    )
    if args.output == "json":
        payload = {"flat": args.flat, "subset": args.subset, "rays": labels}
        payload["incidence"] = [{"a": a, "b": b, "incident": hit} for a, b, hit in pairs]
        return [], payload, []
    lines = ["fibre rays (%d): %s" % (len(labels), ", ".join(labels)), "divisors:"]
    lines += ["  " + lab for lab in labels] + ["incidence:"]
    for a, b, hit in pairs:
        lines.append("  %s | %s: %s" % (a, b, "incident" if hit else "disjoint"))
    return lines, {}, []


def cmd_classes(args, cap):
    from .classes import (
        a_invariant,
        chow_bidegree,
        cohomology_basis,
        is_truncation_boundary,
        motivic_class,
        resolution_betti,
    )
    from .inputs import load_matroid
    from .matroid import is_round

    m = load_matroid(args.input, args.format, cap)
    lam = motivic_class(m)
    bi = chow_bidegree(m.n, m.r)
    ainv = a_invariant(m.n, m.r)
    betti = resolution_betti(m.n, m.r)
    lines = [
        "[Λ] = %s" % lam,
        "bidegree = %s" % bi,
        "a-inv = %d" % ainv,
        "type = %d" % betti.type(),
    ]
    for row in str(betti).splitlines():
        lines.append("betti %s" % row)
    payload = {
        "lambda_class": str(lam),
        "bidegree": str(bi),
        "a_invariant": ainv,
        "type": betti.type(),
        "betti": betti.to_json(),
    }
    if m.r >= 2 and is_round(m):
        ranks = cohomology_basis(m)
        note = " (boundary case n=2r-1)" if is_truncation_boundary(m) else ""
        lines.append("cohomology ranks: %s%s" % (",".join(map(str, ranks)), note))
        payload["cohomology_ranks"] = list(ranks)
        payload["truncation_boundary"] = is_truncation_boundary(m)
    else:
        lines.append("cohomology: n/a (needs a round matroid of rank >= 2)")
    return lines, payload, []


def cmd_charp(args, cap):
    from . import arith  # noqa: F401 (first, see above)
    from .charp import certificates, spair_reduction_check
    from .inputs import load_configuration

    c = load_configuration(args.input, args.format, cap)
    try:
        std, perm, cert, fcert = certificates(c, args.p)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    # both verdicts are derived from the standard form (charp.certificates)
    lines = [
        "permutation: %s" % " ".join(str(j + 1) for j in perm),
        "initial ideal: %s (leads %s)" % (cert["verdict"], ", ".join(cert["leads"])),
        "fedder witness (p=%d): %s -> %s" % (args.p, fcert["witness"], fcert["verdict"]),
    ]
    failures = []
    payload = {"permutation": [j + 1 for j in perm], "initial": cert, "fpurity": fcert}
    if args.strict:
        ok = spair_reduction_check(std)
        payload["spairs"] = "pass" if ok else "fail"
        if ok:
            lines.append("s-pair reduction: pass")
        else:
            failures.append("s-pair reduction: FAIL")
    return lines, payload, failures


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="input file (.graph, .json, .bases.json)")
    common.add_argument(
        "--format", choices=("graph", "matrix", "bases"), help="override format detection"
    )
    common.add_argument("--seed", type=int, default=0, help="seed for sampled searches")
    common.add_argument("--output", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="confan",
        description="Exact matroid, configuration-polynomial, and fan computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("matroid-info", parents=[common]).set_defaults(fn=cmd_matroid_info)

    p_psi = sub.add_parser("psi", parents=[common])
    p_psi.add_argument("--check-det", action="store_true")
    p_psi.set_defaults(fn=cmd_psi)

    p_fan = sub.add_parser("fan", parents=[common])
    p_fan.add_argument("--which", choices=FAN_KINDS, required=True)
    p_fan.add_argument("--verify-unimodular", action="store_true")
    p_fan.add_argument("--verify-maps", action="store_true")
    p_fan.add_argument("--verify-refines", action="store_true")
    p_fan.set_defaults(fn=cmd_fan)

    p_res = sub.add_parser("resolve-report", parents=[common])
    p_res.add_argument("--flat", required=True)
    p_res.add_argument("--subset", required=True)
    p_res.set_defaults(fn=cmd_resolve_report)

    sub.add_parser("classes", parents=[common]).set_defaults(fn=cmd_classes)

    p_chp = sub.add_parser("charp", parents=[common])
    p_chp.add_argument("--p", type=int, required=True)
    p_chp.add_argument("--strict", action="store_true")
    p_chp.set_defaults(fn=cmd_charp)

    return parser


def main(argv=None) -> int:
    # exact results are printed whole: CPython (3.11, and the security
    # releases before it) by default refuses int <-> str past 4,300 digits
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        cap = _ground_cap()
        lines, payload, failures = args.fn(args, cap)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return 3
    except ConfanError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.output == "json":
        from .jsonwriter import iterencode

        payload = {"command": args.command, "seed": args.seed, **payload}
        if failures:
            payload["failures"] = failures
        out = chain(iterencode(payload), "\n")
    else:
        out = (s + "\n" for s in ["seed: %d" % args.seed, *lines, *failures])
    try:
        # one write per 32 KiB: per-piece writes are slow unbuffered
        size, batch = 0, []
        for s in out:
            batch.append(s)
            if (size := size + len(s)) >= 32768:
                sys.stdout.write("".join(batch))
                size, batch = 0, []
        sys.stdout.write("".join(batch))
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early (`| head`): the rest goes to devnull, so the
        # flush at exit stays quiet; 141 is a shell's SIGPIPE status (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 3 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
