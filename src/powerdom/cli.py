"""Command-line front end: solve/analyze/enumerate/convert."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from .errors import FormatError, InternalError, ParameterError, PowerDomError
from .graph import Graph, parse_edge_list, parse_graph6, write_edge_list, write_graph6
from .library import BUILTIN_NAMES, builtin_graph
from .search import SolverConfig, allminpds, default_workers, solve

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _detect_format(data: bytes) -> str:
    if data.startswith(b">>graph6<<"):
        return "graph6"
    stripped = data.strip()
    if not stripped:
        return "edgelist"
    lines = stripped.splitlines()
    if len(lines) == 1 and not any(b in (32, 9) for b in lines[0]):
        return "graph6"
    return "edgelist"


def _load_graph(args) -> Graph:
    if args.builtin and args.input:
        raise ParameterError("provide an input file or --builtin NAME, not both")
    if args.builtin:
        return builtin_graph(args.builtin)
    if not args.input:
        raise ParameterError("provide an input file or --builtin NAME")
    with open(args.input, "rb") as fh:
        data = fh.read()
    fmt = args.format
    if fmt == "auto":
        fmt = _detect_format(data)
    if fmt == "graph6":
        return parse_graph6(data)
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        raise FormatError("edge-list input is not valid UTF-8") from None
    return parse_edge_list(text)


def _resolve_workers(args) -> int:
    if args.workers is not None:
        return args.workers
    env = os.environ.get("PDT_WORKERS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ParameterError(f"PDT_WORKERS must be an integer, got {env!r}") from None
        if value < 1:
            raise ParameterError("PDT_WORKERS must be >= 1")
        return value
    return default_workers()


def _config(args) -> SolverConfig:
    return SolverConfig(workers=_resolve_workers(args), mode=args.mode)


def _result_json(result, timing_ms: float) -> dict:
    return {
        "pdn": result.pdn,
        "pds": list(result.pds),
        "components": [
            {"nodes": sorted(nodes), "pdn": pdn, "pds": list(pds)}
            for nodes, pdn, pds in result.per_component
        ],
        "diagnostics": {
            "N": result.diagnostics.n_formula,
            "N_prime": result.diagnostics.n_prime_formula,
            "p": result.diagnostics.p,
            "d": result.diagnostics.d,
            "r": result.diagnostics.r,
            "candidates": result.diagnostics.candidates,
            "removed": result.diagnostics.removed_by_contraction,
            "subsets_checked": result.diagnostics.subsets_checked,
            "levels_completed": result.diagnostics.levels_completed,
        },
        "timing_ms": timing_ms,
    }


def _cmd_solve(args) -> int:
    """pdn and minpds: the same solve, with the command's plain-text line."""
    g = _load_graph(args)
    start = time.perf_counter()
    result = solve(g, _config(args))
    ms = (time.perf_counter() - start) * 1000
    if args.json:
        print(json.dumps(_result_json(result, ms)))
    else:
        print(args.plain(result))
    return EXIT_OK


def _cmd_allminpds(args) -> int:
    g = _load_graph(args)
    start = time.perf_counter()
    sets = allminpds(g, _config(args))
    ms = (time.perf_counter() - start) * 1000
    ordered = [sorted(s) for s in sets]
    if args.json:
        print(json.dumps({
            "pdn": len(ordered[0]),
            "sets": ordered,
            "timing_ms": ms,
        }))
    else:
        for s in ordered:
            print(json.dumps(s))
    return EXIT_OK


def _analyze_component(nodes, pipeline, mode: str) -> dict:
    """Format the pre-processing reports a solve kept for one component."""
    info: dict = {"nodes": sorted(nodes), "node_count": len(nodes)}
    if mode == "naive":
        info["naive"] = "naive mode: no pre-processing ran; every node was a candidate"
        return info
    if pipeline is None:
        info["trivial"] = "path or cycle: any single node is a power dominating set"
        return info
    report = pipeline.contraction
    cg = report.contracted
    prep = pipeline.preferred
    info["contraction"] = {
        "removed": sorted(report.removed),
        "rules": dict(sorted(report.rules.items())),
        "contracted_nodes": cg.node_count,
        "contracted_edges": cg.edge_count,
    }
    info["preferred"] = {
        "b_preferred": sorted(prep.b_preferred),
        "f_preferred": sorted(prep.f_preferred),
        "forts": {v: sorted(f) for v, f in sorted(prep.forts.items())},
        "p_preferred": prep.p_preferred,
        "pref": sorted(prep.pref),
    }
    info["candidates"] = [
        {
            "node": c.node,
            "degree": c.degree,
            "pref_distance": c.pref_distance,
            "score": format(float(c.score), ".4f"),
        }
        for c in pipeline.candidates
    ]
    return info


def _cmd_analyze(args) -> int:
    g = _load_graph(args)
    cfg = _config(args)
    start = time.perf_counter()
    result = solve(g, cfg)
    ms = (time.perf_counter() - start) * 1000
    components = [
        _analyze_component(nodes, pipeline, cfg.mode)
        for (nodes, _, _), pipeline in zip(result.per_component, result.pipeline)
    ]
    payload = _result_json(result, ms)
    payload["analysis"] = components
    if args.json:
        print(json.dumps(payload))
        return EXIT_OK
    print(f"nodes: {g.node_count}  edges: {g.edge_count}  components: {len(components)}")
    for idx, comp in enumerate(components):
        print(f"component {idx}: {comp['node_count']} nodes")
        note = comp.get("trivial") or comp.get("naive")
        if note:
            print(f"  {note}")
            continue
        con = comp["contraction"]
        print(f"  contraction removed {len(con['removed'])} node(s): {con['removed']}")
        pref = comp["preferred"]
        print(f"  b-preferred: {pref['b_preferred']}")
        print(f"  f-preferred: {pref['f_preferred']}")
        for v, fort in pref["forts"].items():
            print(f"    fort of {v}: {fort}")
        print(f"  p-preferred: {pref['p_preferred']}")
        print(f"  pref: {pref['pref']}")
        print("  candidates (ordered):")
        for c in comp["candidates"]:
            print(
                f"    {c['node']}: degree {c['degree']}, "
                f"pref distance {c['pref_distance']}, score {c['score']}"
            )
    d = payload["diagnostics"]
    print(
        f"pdn: {result.pdn}  pds: {list(result.pds)}\n"
        f"diagnostics: N={d['N']} N'={d['N_prime']} p={d['p']} d={d['d']} "
        f"r={d['r']} candidates={d['candidates']} removed={d['removed']} "
        f"subsets_checked={d['subsets_checked']} "
        f"levels_completed={d['levels_completed']}"
    )
    return EXIT_OK


def _cmd_convert(args) -> int:
    g = _load_graph(args)
    if args.to == "graph6":
        out = write_graph6(g).decode("ascii") + "\n"
    else:
        out = write_edge_list(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


def _add_input_options(parser, with_solver=True):
    parser.add_argument("input", nargs="?", help="path to a graph6 or edge-list file")
    parser.add_argument(
        "--builtin", choices=BUILTIN_NAMES, help="use a builtin graph instead of a file"
    )
    parser.add_argument(
        "--format", choices=["auto", "graph6", "edgelist"], default="auto",
        help="input format (default: autodetect)",
    )
    if with_solver:
        parser.add_argument("--workers", type=int, help="worker count (default: cpus-1)")
        parser.add_argument(
            "--mode", choices=["optimized", "naive"], default="optimized"
        )
        parser.add_argument("--json", action="store_true", help="emit JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdt",
        description="Exact minimum PMU placement (power domination) solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pdn", help="print the power domination number")
    _add_input_options(p)
    p.set_defaults(func=_cmd_solve, plain=lambda result: result.pdn)

    p = sub.add_parser("minpds", help="print one minimum power dominating set")
    _add_input_options(p)
    p.set_defaults(func=_cmd_solve, plain=lambda result: json.dumps(list(result.pds)))

    p = sub.add_parser("allminpds", help="print every minimum power dominating set")
    _add_input_options(p)
    p.set_defaults(func=_cmd_allminpds)

    p = sub.add_parser("analyze", help="print the pre-processing reports")
    _add_input_options(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("convert", help="transcode between graph6 and edge list")
    _add_input_options(p, with_solver=False)
    p.add_argument("--to", choices=["graph6", "edgelist"], required=True)
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_convert)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (PowerDomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
