"""Command-line front end.

Subcommands: `eggbox` renders egg-box diagrams, `congruences` enumerates a
congruence lattice by oracle and/or structural pipeline, `classify` names a
serialized congruence by its decomposition triple, and `height` compares the
closed-form lattice height with an actual longest-chain search.  All output
is deterministic; progress goes to stderr so stdout stays machine-readable.
"""

import argparse
import json
import sys
import time

from .congruence import (CapExceeded, EquivalenceRelation, NotPermutable,
                         OracleCheckFailed, dump_congruences,
                         enumerate_all_congruences, is_congruence)
from .lattice import FiniteLattice, height_formula
from .malcev import context_chain
from .semigroup import eggbox_dot, eggbox_text
from .synthesis import classify, enumerate_structurally, lattice_dot, lattice_json
from .transform import format_transformation, parse_transformation, rank
from .variant import build_context


class RunConfig:
    """Validated bundle of the common CLI options."""

    def __init__(self, a_text, cap_elements=300, cap_systems=10 ** 7,
                 out=None, fmt="text"):
        self.sandwich = parse_transformation(a_text)
        if cap_elements <= 0 or cap_systems <= 0:
            raise ValueError("caps must be positive")
        self.cap_elements = cap_elements
        self.cap_systems = cap_systems
        self.out = out
        self.fmt = fmt

    def context(self):
        # the context tabulates all n^n maps, so bound that grid up front
        full = self.sandwich.n ** self.sandwich.n
        if full > self.cap_systems:
            raise CapExceeded("map enumeration for the variant", full,
                              self.cap_systems)
        return build_context(self.sandwich)


def _emit(cfg, text, suffix=""):
    if cfg.out:
        path = cfg.out + suffix
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _progress(label):
    def cb(done, total):
        if total:
            print(f"{label}: {done}/{total}", file=sys.stderr, end="\r")
        else:
            print(f"{label}: {done} found", file=sys.stderr, end="\r")
    return cb


def _pick_semigroup(cfg, which):
    """The context and the semigroup the oracle runs on, refused before any
    work is spent on it when it has more than --cap-elements elements.  The
    full variant (n^n maps) and aT_Xa (r^r) are sized from the sandwich,
    before the context is built; the regular part needs the context."""
    a, cap = cfg.sandwich, cfg.cap_elements
    sizes = {"full-variant": a.n ** a.n, "image-T": rank(a) ** rank(a)}
    if sizes.get(which, 0) > cap:
        raise CapExceeded("congruence enumeration", sizes[which], cap)
    ctx = cfg.context()
    if which == "regular-part":
        if len(ctx.P) > cap:
            raise CapExceeded("congruence enumeration", len(ctx.P), cap)
        return ctx, ctx.P
    return ctx, ctx.txa() if which == "full-variant" else ctx.T


def cmd_eggbox(cfg, which):
    ctx = cfg.context()
    boxes = {"full-variant": ctx.txa(), "regular-part": ctx.P, "image-T": ctx.T}
    if which:
        boxes = {which: boxes[which]}
    ext = "dot" if cfg.fmt == "dot" else "txt"
    for name, S in boxes.items():
        if cfg.fmt == "dot":
            text = eggbox_dot(S, name=name.replace("-", "_"))
        else:
            text = f"== {name} ==\n" + eggbox_text(S)
        _emit(cfg, text, suffix=f"_{name}.{ext}" if cfg.out else "")
    return 0


def _oracle_pipeline(cfg, S):
    t0 = time.time()
    congs = enumerate_all_congruences(S, cap=cfg.cap_elements,
                                      progress=_progress("oracle"))
    print(file=sys.stderr)
    # timings go to stderr only, so that stdout stays deterministic
    print(f"oracle: {len(congs)} congruences in {time.time() - t0:.1f}s",
          file=sys.stderr)
    return congs


def _structural_pipeline(cfg, ctx):
    t0 = time.time()
    ll = enumerate_structurally(ctx, cap=cfg.cap_systems)
    print(f"structural: {len(ll)} congruences in {time.time() - t0:.1f}s",
          file=sys.stderr)
    return ll


def cmd_congruences(cfg, method, which):
    if which == "full-variant" and method != "oracle":
        print("structural enumeration covers the regular part only; "
              "use --method oracle for the full variant", file=sys.stderr)
        return 2
    if method == "structural":
        ctx, S = cfg.context(), None
    else:
        ctx, S = _pick_semigroup(cfg, which)
    if which == "image-T" and method != "oracle":
        # the chain construction doubles as the structural route on T
        chain = context_chain(ctx)
        payload = {"sandwich": format_transformation(cfg.sandwich),
                   "semigroup": which, "chain": chain.report(),
                   "chain_count": len(chain)}
        ok = True
        if method == "both":
            oracle = _oracle_pipeline(cfg, S)
            ok = {c.key() for c in chain.relations()} == {c.key() for c in oracle}
            payload.update(oracle_count=len(oracle), match=ok)
        _emit(cfg, _json_text(payload) if cfg.fmt == "json"
              else _report_text(payload))
        return 0 if ok else 1

    if method == "oracle":
        congs = _oracle_pipeline(cfg, S)
        if cfg.fmt == "json":
            payload = {"sandwich": format_transformation(cfg.sandwich),
                       "semigroup": which, "method": method,
                       "count": len(congs),
                       "congruences": [c.to_blocks() for c in congs]}
            _emit(cfg, _json_text(payload))
        elif cfg.fmt == "dot":
            print("dot output needs the structural pipeline", file=sys.stderr)
            return 2
        else:
            _emit(cfg, dump_congruences(congs) + "\n")
        return 0

    if method == "structural":
        ll = _structural_pipeline(cfg, ctx)
        if cfg.fmt == "json":
            _emit(cfg, _json_text(lattice_json(ctx, ll)))
        elif cfg.fmt == "dot":
            _emit(cfg, lattice_dot(ctx, ll))
        else:
            _emit(cfg, dump_congruences(ll.congruences) + "\n")
        return 0

    # both: the headline regression, a set diff that must come out empty
    ll = _structural_pipeline(cfg, ctx)
    oracle = _oracle_pipeline(cfg, S)
    skeys = {c.key() for c in ll.congruences}
    okeys = {c.key() for c in oracle}
    payload = {"sandwich": format_transformation(cfg.sandwich),
               "semigroup": which,
               "oracle_count": len(oracle),
               "structural_count": len(ll),
               "only_oracle": len(okeys - skeys),
               "only_structural": len(skeys - okeys),
               "match": skeys == okeys}
    _emit(cfg, _json_text(payload) if cfg.fmt == "json"
          else _report_text(payload))
    return 0 if skeys == okeys else 1


def _report_text(payload):
    lines = [f"{k} = {payload[k]}" for k in sorted(payload)
             if k not in ("congruences", "chain", "nodes")]
    return "\n".join(lines) + "\n"


def _violating_triple(S, rel):
    for x in range(len(S)):
        for y in range(x + 1, len(S)):
            if not rel.contains(x, y):
                continue
            for s in range(len(S)):
                if not rel.contains(S.mul[x, s], S.mul[y, s]):
                    return x, y, s, "right"
                if not rel.contains(S.mul[s, x], S.mul[s, y]):
                    return x, y, s, "left"
    return None


def cmd_classify(cfg, cong_file):
    ctx = cfg.context()
    if cong_file == "-":
        blocks = json.load(sys.stdin)
    else:
        with open(cong_file) as fh:
            blocks = json.load(fh)
    rel = EquivalenceRelation.from_blocks(len(ctx.P), blocks)
    if not is_congruence(rel, ctx.P):
        x, y, s, side = _violating_triple(ctx.P, rel)
        print(f"not a congruence: pair ({x},{y}) breaks under {side} "
              f"translation by {s}", file=sys.stderr)
        return 1
    if rel == EquivalenceRelation.universal(len(ctx.P)):
        _emit(cfg, _json_text({"universal": True}))
        return 0
    dec = classify(ctx, rel)
    payload = dec.report()
    payload["classes"] = rel.num_blocks()
    _emit(cfg, _json_text(payload))
    return 0


def cmd_height(cfg):
    ctx = cfg.context()
    formula = height_formula(ctx.n, ctx.sand.block_sizes())
    ll = enumerate_structurally(ctx, cap=cfg.cap_systems)
    h, witness = ll.height()
    chain_blocks = [ll.congruences[i].num_blocks() for i in witness]
    payload = {"sandwich": format_transformation(cfg.sandwich),
               "formula": formula, "search": h,
               "match": formula == h,
               "witness_class_counts": chain_blocks}
    _emit(cfg, _json_text(payload) if cfg.fmt == "json"
          else _report_text(payload))
    return 0 if formula == h else 1


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--a", required=True, metavar="MAP",
                        help='sandwich element, e.g. "4: 1 2 3 3"')
    common.add_argument("--cap-elements", type=int, default=300,
                        help="largest semigroup the oracle will tabulate")
    common.add_argument("--cap-systems", type=int, default=10 ** 7,
                        help="bound on the n^n map grid, the system search "
                             "space and the k*k order matrix of the "
                             "structural lattice")
    common.add_argument("--format", choices=["json", "dot", "text"],
                        default="text", dest="fmt")
    common.add_argument("--out", help="output path (prefix for eggbox)")

    parser = argparse.ArgumentParser(
        prog="varcong",
        description="Congruence lattices of regular variants of finite "
                    "full transformation monoids")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eggbox", parents=[common],
                       help="render egg-box diagrams")
    p.add_argument("--semigroup", choices=["regular-part", "full-variant",
                                           "image-T"], default=None,
                   help="which semigroup (default: all three)")

    p = sub.add_parser("congruences", parents=[common],
                       help="enumerate a congruence lattice")
    p.add_argument("--method", choices=["oracle", "structural", "both"],
                   default="both")
    p.add_argument("--semigroup", choices=["regular-part", "full-variant",
                                           "image-T"], default="regular-part")

    p = sub.add_parser("classify", parents=[common],
                       help="decompose a serialized congruence")
    p.add_argument("congruence_file",
                   help="JSON block list, or - for stdin")

    sub.add_parser("height", parents=[common],
                   help="closed-form height vs longest-chain search")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(args.a, cap_elements=args.cap_elements,
                        cap_systems=args.cap_systems, out=args.out,
                        fmt=args.fmt)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "eggbox":
            return cmd_eggbox(cfg, args.semigroup)
        if args.command == "congruences":
            return cmd_congruences(cfg, args.method, args.semigroup)
        if args.command == "classify":
            return cmd_classify(cfg, args.congruence_file)
        if args.command == "height":
            return cmd_height(cfg)
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OracleCheckFailed, NotPermutable) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
