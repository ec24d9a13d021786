"""Command line front end.

Subcommands map onto the library modules: `graph` exposes brute-force
structure, `census` counts vertices by degree with the run-level transfer
automaton, `gf` prints series expansions of the closed-form
generating functions, `verify` runs the verification suites and exits
nonzero when any check fails (two of the published order-theoretic
claims do fail, so `verify --all` reports that honestly), and `poset`,
`inv`, `embed` expose the order, inversion, and embedding tools.

Exit codes: 0 success, 1 verification failure, 2 bad usage or input.
JSON output always carries "schema": 1 and is deterministic.
"""

import argparse
import dataclasses
import json
import sys

from . import __version__, embedding, enumerators, graph, inversions, poset
from .errors import RuncubeError
from .polyseries import render_columns

GF_KINDS = {
    "updown": enumerators.updown_gf,
    "down": enumerators.down_gf,
    "up": enumerators.up_gf,
    "degree": enumerators.degree_gf,
    "maximal": enumerators.maximal_gf,
    "edge": enumerators.edge_gf,
    "cube": embedding.cube_gf,
    "rank": poset.rank_gf,
}

# Each suite takes (max_n, order), None meaning its own default.  embed
# keeps its own max_n: its encoding check hosts Q_n in R_(3 max_n - 1), which
# a --max-n sized for the other suites (12, say) would push past the vertex cap.
VERIFY_SUITES = {
    "gf": enumerators.suite,
    "poset": poset.suite,
    "inv": inversions.suite,
    "embed": lambda max_n, order: embedding.suite(order=order),
}


def _emit_json(payload):
    payload = {"schema": 1, **payload}
    print(json.dumps(payload, separators=(", ", ": ")))


def _positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


def cmd_graph(args):
    g = graph.build(args.n, cap=args.vertex_cap)
    if args.format == "dot":
        sys.stdout.write(graph.to_dot(g))
    elif args.format == "json":
        _emit_json({"graph": graph.graph_json(g)})
    else:
        print("n: %d" % g.n)
        print("vertices: %d" % g.vertex_count)
        print("edges: %d" % g.edge_count)
    return 0


def cmd_census(args):
    census = graph.transfer_census(args.n, cap=args.vertex_cap)
    if args.format == "json":
        _emit_json({"census": census.to_json_dict()})
    else:
        print("n: %d" % census.n)
        for (a, b), c in census.sorted_items():
            print("up %d down %d: %d" % (a, b, c))
        print("vertices: %d" % census.vertex_total())
        print("edges: %d" % census.edge_total())
    return 0


def _json_terms(cols, coeffs):
    """MultiPoly.json_terms of graded_terms' columns, as the JSON text of the list."""
    term = '[[%s], "%%d"]' % ", ".join(["%d"] * len(cols))
    return "[%s]" % ", ".join(map(term.__mod__, zip(*cols, coeffs)))


def cmd_gf(args):
    """Write each coefficient as the quotient recurrence yields it.

    A refused order raises before the first byte is written.  The JSON
    document is the one _emit_json would print, written in pieces: the
    header with an empty coefficient list, minus its closing "]}", then
    each [k, terms] pair, then the closing "]}".  Each coefficient comes
    as graded_terms' columns and is formatted from them directly:
    _json_terms writes what json_terms would, and render_columns is the
    formatter of MultiPoly.render.
    """
    gf = GF_KINDS[args.kind]()
    rows = gf.graded_terms(args.order)
    out = sys.stdout
    if args.format == "json":
        head = {"schema": 1, "kind": args.kind, "order": args.order,
                "variables": list(gf.ring.names), "coefficients": []}
        out.write(json.dumps(head, separators=(", ", ": "))[:-2])
        for k, (cols, coeffs) in enumerate(rows):
            out.write("%s[%d, %s]" % (", " if k else "", k, _json_terms(cols, coeffs)))
        out.write("]}\n")
    else:
        for k, (cols, coeffs) in enumerate(rows):
            out.write("t^%d: %s\n" % (k, render_columns(gf.ring.names, cols, coeffs)))
    return 0


def cmd_verify(args):
    names = list(VERIFY_SUITES) if args.all else args.suites
    if not names:
        print("verify: pick suites or pass --all", file=sys.stderr)
        return 2
    unknown = [name for name in names if name not in VERIFY_SUITES]
    if unknown:
        print(
            "verify: unknown suite %s (have: %s)"
            % (", ".join(unknown), ", ".join(VERIFY_SUITES)),
            file=sys.stderr,
        )
        return 2
    reports = []
    for name in names:
        reports.extend(VERIFY_SUITES[name](max_n=args.max_n, order=args.order))
    if args.format == "json":
        _emit_json(
            {
                "ok": all(r.ok for r in reports),
                "reports": [r.to_json() for r in reports],
            }
        )
    else:
        for rep in reports:
            print("== %s ==" % rep.name)
            for line in rep.lines():
                print(line)
    return 0 if all(r.ok for r in reports) else 1


def cmd_poset(args):
    if args.action == "rank":
        poly = poset.rank_polynomial(args.n)
        if args.format == "json":
            _emit_json({"n": args.n, "rank_polynomial": poly.json_terms()})
        else:
            print(poly.render())
        return 0
    if args.action == "maximal":
        labels = graph.maximal_vertices(args.n, cap=args.vertex_cap)
        if args.format == "json":
            _emit_json({"n": args.n, "maximal": labels})
        else:
            sys.stdout.write("".join(label + "\n" for label in labels))
        return 0
    if args.action == "mobius":
        if args.bottom is None or args.top is None:
            print("poset mobius needs --bottom and --top", file=sys.stderr)
            return 2
        closed = poset.mobius(args.n, args.bottom, args.top, cap=args.vertex_cap)
        recursive = poset.mobius_recursive(args.n, args.bottom, args.top, cap=args.vertex_cap)
        if args.format == "json":
            _emit_json(
                {
                    "n": args.n,
                    "bottom": args.bottom,
                    "top": args.top,
                    "closed_form": closed,
                    "recursive": recursive,
                    "agree": closed == recursive,
                }
            )
        else:
            print("closed form: %d" % closed)
            print("recursive: %d" % recursive)
            if closed != recursive:
                print("note: the closed form is wrong on this pair")
        return 0
    survey = poset.verify_boolean_intervals(args.n, cap=args.vertex_cap)
    if args.format == "json":
        _emit_json({"survey": survey})
    else:
        print("n: %d" % survey["n"])
        print("pairs checked: %d" % survey["pairs_checked"])
        print("violations: %d" % len(survey["violations"]))
        for v in survey["violations"][:10]:
            print(
                "  [%s, %s] has %d elements, expected %d"
                % (v["bottom"], v["top"], v["actual_size"], v["expected_size"])
            )
    return 0


def cmd_inv(args):
    if args.action == "verify":
        args.all, args.suites, args.order = False, ["inv"], None
        return cmd_verify(args)
    poly = inversions.q_polynomial(args.n, cap=args.vertex_cap)
    if args.format == "json":
        _emit_json({"n": args.n, "q_polynomial": poly.json_terms()})
    else:
        print(poly.render())
    return 0


def cmd_embed(args):
    if args.action == "encode":
        if not args.word:
            print("embed encode needs --word", file=sys.stderr)
            return 2
        res = embedding.encode(args.word)
        if args.format == "json":
            _emit_json({"encoding": dataclasses.asdict(res)})
        else:
            print("source: %s" % res.source)
            print("image: %s" % res.image)
            print("label: %s" % res.label)
            print("host: R_%d" % res.host_dim)
        return 0
    if args.action == "dilation":
        res = embedding.dilation(args.n, cap=args.vertex_cap)
        if args.format == "json":
            _emit_json({"dilation": dataclasses.asdict(res)})
        else:
            print("n: %d" % res.n)
            print("host: R_%d" % res.host_dim)
            print("dilation: %d" % res.dilation)
            print("worst edge: %s %s" % res.worst_edge)
        return 0
    records = embedding.smallest_host_probe(args.max_n)
    if args.format == "json":
        _emit_json({"hosts": [dataclasses.asdict(r) for r in records]})
    else:
        for r in records:
            print("Q_%d first appears in R_%d (conjectured %d)" % (r.n, r.smallest_host, r.conjectured))
    return 0


def _add_format(parser, choices=("text", "json")):
    parser.add_argument("--format", choices=choices, default="text")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="runcube",
        description="Exact statistics and generating functions of Fibonacci-run graphs.",
    )
    parser.add_argument("--version", action="version", version="runcube %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="build one graph and print its structure")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--vertex-cap", type=_positive, default=None)
    _add_format(p, ("text", "json", "dot"))
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("census", help="count the vertices of one graph by (up, down) degree")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--vertex-cap", type=_positive, default=None)
    _add_format(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("gf", help="expand a closed-form generating function")
    p.add_argument("--kind", choices=sorted(GF_KINDS), required=True)
    p.add_argument("--order", type=_nonnegative, default=12)
    _add_format(p)
    p.set_defaults(func=cmd_gf)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suites", nargs="*", default=[], metavar="suite")
    p.add_argument("--all", action="store_true")
    p.add_argument("--max-n", type=_positive, default=None)
    p.add_argument("--order", type=_positive, default=None)
    _add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("poset", help="rank, maximal vertices, Mobius, intervals")
    p.add_argument("action", choices=("rank", "maximal", "mobius", "intervals"))
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--bottom", default=None)
    p.add_argument("--top", default=None)
    p.add_argument("--vertex-cap", type=_positive, default=None)
    _add_format(p)
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("inv", help="inversion enumerators")
    p.add_argument("action", nargs="?", choices=("show", "verify"), default="show")
    p.add_argument("--n", type=_nonnegative, default=None)
    p.add_argument("--max", dest="max_n", type=_nonnegative, default=18)
    p.add_argument("--vertex-cap", type=_positive, default=None)
    _add_format(p)
    p.set_defaults(func=cmd_inv)

    p = sub.add_parser("embed", help="hypercube encodings and cube counts")
    p.add_argument("action", choices=("encode", "dilation", "host"))
    p.add_argument("--word", default=None)
    p.add_argument("--n", type=_positive, default=None)
    p.add_argument("--max-n", type=_positive, default=8)
    p.add_argument("--vertex-cap", type=_positive, default=None)
    _add_format(p)
    p.set_defaults(func=cmd_embed)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "inv" and args.action == "show" and args.n is None:
        parser.error("inv needs --n")
    if args.command == "embed" and args.action == "dilation" and args.n is None:
        parser.error("embed dilation needs --n")
    # the caps bound the decimal coefficients (PACKED_MAX_BYTES for gf), not
    # the int-to-str digit limit; argv is parsed under it, callers get it back
    saved = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        if saved is not None:
            sys.set_int_max_str_digits(0)
        return args.func(args)
    except RuncubeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
