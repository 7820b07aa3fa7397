"""Command-line front end.

Subcommands: compile, verify, stats, eval, smooth, level, gen, certify-leaf.
Exit codes: 0 success, 1 parse/input error, 2 unmet compile precondition,
3 verification failure, 4 budget exceeded.  The resolved configuration is
echoed to stderr; outputs are byte-deterministic for fixed inputs and flags.
The BDMC_BUDGET environment variable (a positive integer, default 3^14) caps
the assignments of every exhaustive sweep: 3^k for a strength check over the
k scope variables some clause mentions, 2^n for the correctness check over n
inputs, which verify runs against the sentence as written, not a smoothed or
leveled copy.  Only verify and certify-leaf run sweeps, so only they read it
(once a run) and echo it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import encoder, formats, propcheck, transform
from .core import CLASS_SATISFIES, CLASS_STRENGTH, evaluate
from .errors import (
    BdmcError,
    BudgetExceededError,
    InputError,
    ParseError,
    PreconditionError,
    StructureError,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_VERIFY_FAIL = 3
EXIT_BUDGET = 4


def _budget() -> int:
    raw = os.environ.get("BDMC_BUDGET")
    if raw is None:
        return propcheck.DEFAULT_EXHAUSTIVE_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise InputError(f"BDMC_BUDGET must be an integer, got {raw!r}")
    if budget <= 0:
        raise InputError(f"BDMC_BUDGET must be a positive integer, got {raw!r}")
    return budget


def _echo_config(args: argparse.Namespace) -> None:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print("config " + json.dumps(cfg, sort_keys=True, default=str), file=sys.stderr)


def _read_text(path: str) -> str:
    # utf-8-sig drops the byte-order mark some editors write at the start
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def _read_graph(path: str):
    return formats.parse_bdmc(_read_text(path))


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _compile_from_args(args, graph):
    return encoder.compile_graph(
        graph,
        args.target,
        auto_smooth=args.auto_smooth,
        auto_level=args.auto_level,
        lean_cc=getattr(args, "lean_cc", False),
    )


def cmd_compile(args) -> int:
    graph = _read_graph(args.input)
    output = _compile_from_args(args, graph)
    cnf_text, varmap_text = formats.emit_dimacs(output)
    out = args.output or str(Path(args.input).with_suffix(".cnf"))
    _write(out, cnf_text)
    _write(out + ".varmap.jsonl", varmap_text)
    stats = output.stats.to_dict()
    _write(out + ".stats.json", json.dumps(stats, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}, {out}.varmap.jsonl, {out}.stats.json", file=sys.stderr)
    if stats["ok"] is not True:
        print("size bound violation (encoder bug):", stats["bounds"], file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _parse_mode(text: str):
    if text == "exhaustive":
        return ("exhaustive", None, None)
    if text.startswith("sample:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise InputError("sampled mode is sample:<count>:<seed>")
        try:
            return ("sampled", int(parts[1]), int(parts[2]))
        except ValueError:
            raise InputError("sampled mode is sample:<count>:<seed> with integers") from None
    raise InputError(f"unknown mode {text!r}; use 'exhaustive' or 'sample:N:SEED'")


def cmd_verify(args) -> int:
    graph = _read_graph(args.input)
    spec = encoder.target_spec(args.target)
    if args.cnf:
        nvars, clauses = formats.parse_dimacs(_read_text(args.cnf))
        num_inputs = graph.num_inputs
        if nvars < num_inputs:
            raise InputError(f"{args.cnf} declares {nvars} variables, but the sentence"
                             f" has {num_inputs} inputs")
        source = args.cnf
    else:
        output = _compile_from_args(args, graph)
        clauses = output.all_clauses()
        nvars = output.num_vars
        num_inputs = output.num_inputs
        source = "compiled"
    scope_kind, style = CLASS_STRENGTH[spec.leaf_class]
    scope_kind = args.scope or scope_kind
    # a range: an absurd header's variable count costs nothing
    scope = range(1, (num_inputs if scope_kind == "inputs" else nvars) + 1)
    mode, samples, seed = _parse_mode(args.mode)
    verdict = {"target": spec.name, "source": source, "style": style, "scope": scope_kind}
    checks = {
        "encoding": lambda: propcheck.check_encoding(
            clauses, nvars, list(range(1, num_inputs + 1)), graph, budget=args.budget),
        "strength": lambda: propcheck.check_strength(
            clauses, nvars, scope, style, mode=mode, samples=samples, seed=seed,
            budget=args.budget, jobs=args.jobs,
        ),
    }
    # first the check whose budget gate can refuse before any work: 3^k over
    # the k scope variables some clause mentions when exhaustive, else 2^n
    order = ("strength", "encoding") if mode == "exhaustive" else ("encoding", "strength")
    results = {key: checks[key]() for key in order}
    verdict.update((key, result.to_dict()) for key, result in results.items())
    cex = results["strength"].counterexample
    if cex is not None:  # replayed against the definitions, apart from the checker
        verdict["strength"]["confirmed"] = propcheck.confirm_strength_counterexample(
            clauses, nvars, cex.alpha, cex.literal)
    verdict["passed"] = passed = all(results.values())
    print(json.dumps(verdict, indent=2, sort_keys=True))
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


def cmd_stats(args) -> int:
    if Path(args.input).suffix == ".bdmc":
        if not args.target:
            raise InputError("stats on a .bdmc file needs --target")
        output = _compile_from_args(args, _read_graph(args.input))
        data = output.stats.to_dict()
    else:
        try:
            data = json.loads(_read_text(args.input))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{args.input} is not JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ParseError(f"{args.input} holds no JSON object")
    print(json.dumps(data, indent=2, sort_keys=True))
    return EXIT_OK if data.get("ok") else EXIT_VERIFY_FAIL


def cmd_eval(args) -> int:
    graph = _read_graph(args.input)
    name_to_id = {name: i + 1 for i, name in enumerate(graph.input_names)}
    assignment = {}
    for part in args.assign.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError(f"assignment item {part!r} is not name=0/1")
        name, _, val = part.partition("=")
        if name not in name_to_id:
            raise InputError(f"unknown input variable {name!r}")
        if val not in ("0", "1"):
            raise InputError(f"value for {name} must be 0 or 1")
        if name_to_id[name] in assignment:
            raise InputError(f"input variable {name!r} is assigned twice")
        assignment[name_to_id[name]] = val == "1"
    print(1 if evaluate(graph, assignment) else 0)
    return EXIT_OK


def _cmd_transform(args, op) -> int:
    graph = _read_graph(args.input)
    result = op(graph)
    text = formats.serialize_bdmc(result)
    if args.output:
        _write(args.output, text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_smooth(args) -> int:
    return _cmd_transform(args, transform.smooth)


def cmd_level(args) -> int:
    return _cmd_transform(args, lambda g: transform.level(transform.smooth(g)) if args.with_smooth else transform.level(g))


def cmd_gen(args) -> int:
    if args.count < 0:
        raise InputError(f"sentence count must be non-negative, got {args.count}")
    for k in range(args.count):
        graph = propcheck.gen_random(
            n=args.n, max_depth=args.depth, leaf_class=args.leaf_class,
            seed=args.seed + k, max_encoding_vars=args.max_vars,
        )
        text = formats.serialize_bdmc(graph)
        if args.output_dir:
            path = Path(args.output_dir) / f"g{args.seed + k}.bdmc"
            path.parent.mkdir(parents=True, exist_ok=True)
            _write(str(path), text)
            print(f"wrote {path}", file=sys.stderr)
        else:
            sys.stdout.write(text)
    return EXIT_OK


def cmd_certify_leaf(args) -> int:
    graph = _read_graph(args.input)
    if args.leaf is not None and not 1 <= args.leaf <= len(graph.leaves):
        raise InputError(f"--leaf {args.leaf} is not a leaf index 1..{len(graph.leaves)}")
    rows = []
    applied = []
    refuted = []
    for leaf in graph.leaves:
        if args.leaf is not None and leaf.index != args.leaf:
            applied.append(leaf)
            continue
        cert = propcheck.certify_leaf(leaf, budget=args.budget)
        rows.append({
            "leaf": leaf.index,
            "claimed": leaf.claimed_class,
            "certified": sorted(cert.classes),
            "best": cert.best,
        })
        # a held claim (every class it implies is certified) moves only to a
        # strictly stronger best; a refuted one becomes best, if there is one
        claimed = CLASS_SATISFIES[leaf.claimed_class]
        if not claimed <= cert.classes and cert.best == "none":
            refuted.append(leaf)
        elif not claimed <= cert.classes or CLASS_SATISFIES[cert.best] > claimed:
            leaf = replace(leaf, claimed_class=cert.best)
        applied.append(leaf)
    print(json.dumps(rows, indent=2, sort_keys=True))
    if args.apply:
        for leaf in refuted:
            print(f"leaf {leaf.index}: claimed class {leaf.claimed_class} is refuted and no"
                  " class is certified; nothing written", file=sys.stderr)
        if refuted:
            return EXIT_VERIFY_FAIL
        new_graph = replace(graph, leaves=tuple(applied))
        out = args.output or args.input
        _write(out, formats.serialize_bdmc(new_graph))
        print(f"wrote {out}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bdmc", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def add_auto(sp):
        sp.add_argument("--auto-smooth", action="store_true",
                        help="apply the smoothing rewrite when the target needs it")
        sp.add_argument("--auto-level", action="store_true",
                        help="apply the leveling rewrite when the target needs separators")

    sp = sub.add_parser("compile", help="compile a .bdmc file to DIMACS")
    sp.add_argument("input")
    sp.add_argument("-o", "--output", help="output CNF path (default: input with .cnf)")
    sp.add_argument("--target", required=True, choices=encoder.TARGETS)
    sp.add_argument("--lean-cc", action="store_true",
                    help="cc only: plain dual rail in E1 instead of the extended one")
    add_auto(sp)
    sp.set_defaults(func=cmd_compile)

    sp = sub.add_parser("verify", help="check encoding correctness and propagation strength")
    sp.add_argument("input")
    sp.add_argument("--target", required=True, choices=encoder.TARGETS)
    sp.add_argument("--cnf", help="verify this DIMACS file instead of compiling")
    sp.add_argument("--scope", choices=["inputs", "all"],
                    help="override the scope implied by the target")
    sp.add_argument("--mode", default="exhaustive", help="exhaustive | sample:N:SEED")
    sp.add_argument("--jobs", type=int, default=1,
                    help="sampled mode: chunks of the samples, at most one worker per CPU")
    add_auto(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("stats", help="print a size report with bound checks")
    sp.add_argument("input", help="a .stats.json file, or a .bdmc with --target")
    sp.add_argument("--target", choices=encoder.TARGETS)
    sp.add_argument("--lean-cc", action="store_true")
    add_auto(sp)
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("eval", help="evaluate the represented function on an assignment")
    sp.add_argument("input")
    sp.add_argument("--assign", required=True, help="comma list like x1=1,x2=0")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("smooth", help="write the smoothed sentence")
    sp.add_argument("input")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_smooth)

    sp = sub.add_parser("level", help="write the layered sentence: one pass-through"
                                       " or-node on each edge that skips a layer")
    sp.add_argument("input")
    sp.add_argument("-o", "--output")
    sp.add_argument("--with-smooth", action="store_true", help="smooth first")
    sp.set_defaults(func=cmd_level)

    sp = sub.add_parser("gen", help="generate random sentences")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--depth", type=int, default=3)
    sp.add_argument("--leaf-class", default="pc", choices=["pc", "urc"])
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--max-vars", type=int, default=40,
                    help="bound on n+2m+s after smoothing and stretching every"
                         " edge to span one layer")
    sp.add_argument("-o", "--output-dir")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("certify-leaf", help="brute-force certify leaf classes")
    sp.add_argument("input")
    sp.add_argument("--leaf", type=int, help="only this leaf index")
    sp.add_argument("--apply", action="store_true",
                    help="write back certified claims (exit 3 if a refuted leaf certifies none)")
    sp.add_argument("-o", "--output", help="target file for --apply (default: in place)")
    sp.set_defaults(func=cmd_certify_leaf)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.func in (cmd_verify, cmd_certify_leaf):  # the commands that run sweeps
            args.budget = _budget()
        _echo_config(args)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (StructureError, InputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BdmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
