"""Command-line surface: minimize, compare, audit-tree, gen.

Exit codes: 0 success, 1 semantic failure (kernel mismatch, audit
failure), 2 configuration or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import ExitStack
from typing import NoReturn

from .coalgebra import Coalgebra
from .engine import WEIGHT_KINDS, RefineResult, _gc_paused, refine_hopcroft, refine_naive
from .formats import (
    FORMATS,
    FormatError,
    dump_coalgebra,
    load_coalgebra,
    partition_to_json,
    tree_from_json,
    tree_to_json,
)
from .gen import FAMILIES, GenSpec, generate
from .oracle import bisim_bruteforce, partitions_equal
from .wtree import MalformedTreeError, WeightedTree, audit_tree

# the run counters, then the wall time, in the order --stats writes them;
# the phase timings, the audit's too under --audit, follow as "phases"
STATS_COLUMNS = (
    "iterations", "splits", "dirty_markings", "markdirty_touches",
    "signatures_computed", "wall_ms",
)

# compare runs the brute-force oracle on inputs of at most this many states
COMPARE_ORACLE_STATES = 1000


def _echo(line: str, err: bool = False) -> None:
    """Write one line to stdout or stderr and flush.

    The stream is looked up on each call and nothing keeps it, so a caller
    that redirects ``sys.stdout`` or ``sys.stderr`` gets every line and can
    drop the stream afterwards.
    """
    stream = sys.stderr if err else sys.stdout
    stream.write(line + "\n")
    stream.flush()


def _fail(e, code: int = 2) -> NoReturn:
    _echo(f"error: {e}", err=True)
    sys.exit(code)


def _load(path: str, fmt: str) -> Coalgebra:
    try:
        return load_coalgebra(path, fmt)
    except (FormatError, OSError) as e:
        _fail(e)


def _write_all(outputs: list[tuple[str, str]]) -> None:
    """Write each (path, text) pair in order, '-' meaning stdout.

    Every path is opened, once, before any text is written, so a path that
    cannot be opened exits 2 with nothing written.  Texts for one path
    follow one another, as they do on stdout.
    """
    try:
        with ExitStack() as stack:
            streams = {"-": sys.stdout}
            for path, _ in outputs:
                if path not in streams:
                    streams[path] = stack.enter_context(open(path, "w", encoding="utf-8"))
            for path, text in outputs:
                streams[path].write(text)
    except OSError as e:
        _fail(e)


def _stats_obj(result: RefineResult) -> dict:
    s = result.stats
    values = [getattr(s, k) for k in STATS_COLUMNS[:-1]] + [round(s.wall_time * 1000.0, 3)]
    obj = dict(zip(STATS_COLUMNS, values))
    obj["phases"] = {k: round(v, 6) for k, v in s.phases.items()}
    return obj


def _audit(tree: WeightedTree, weights, heavy):
    """audit_tree; exit 2 on a malformed tree, weight or heavy choice, 1 on
    a heavy choice that fails its check."""
    try:
        return audit_tree(tree, weights, heavy)
    except MalformedTreeError as e:
        _fail(e)
    except ValueError as e:
        _fail(e, 1)


def minimize(input_path, fmt, algo, weight, out, audit, tree_out, want_stats, stats_out):
    """Minimize INPUT and write the partition as JSON."""
    if algo == "naive" and weight is not None:
        _fail("--weight only applies to --algo hopcroft")
    if algo == "naive" and audit:
        _fail("--audit needs the tree built by --algo hopcroft")
    if tree_out is not None and not audit:
        _fail("--tree-out only applies with --audit")
    if stats_out is not None and not want_stats:
        _fail("--stats-out only applies with --stats")
    coalg = _load(input_path, fmt)
    if algo == "naive":
        result = refine_naive(coalg)
    else:
        result = refine_hopcroft(coalg, weight or "card")
    if audit:
        # audited before anything is written, so --stats can time it
        tree = result.tree
        started = time.perf_counter()
        report = _audit(WeightedTree(tree.parent), tree.weight, tree.heavy)
        result.stats.phases["wtree.audit_s"] = time.perf_counter() - started
    outputs = [(out, partition_to_json(result.partition))]
    stats_text = json.dumps(_stats_obj(result)) + "\n"
    if stats_out:
        outputs.append((stats_out, stats_text))
    if audit:
        dest = tree_out or (out + ".tree.json" if out != "-" else "refinement-tree.json")
        outputs.append((dest, tree_to_json(result.tree)))
    _write_all(outputs)
    if want_stats and not stats_out:
        sys.stderr.write(stats_text)

    if audit:
        if not report.all_ok():
            _fail("refinement tree failed its audit", 1)
        _echo(
            f"audit ok: light sum {report.light_sum} <= bound {report.bound} "
            f"(margin {report.margin})",
            err=True,
        )


def compare(input_path, fmt):
    """Run every algorithm on INPUT and check all results agree; the
    brute-force oracle joins on inputs of at most 1000 states."""
    coalg = _load(input_path, fmt)
    runs = [("naive", refine_naive(coalg).partition)]
    for w in WEIGHT_KINDS:
        runs.append((f"hopcroft/{w}", refine_hopcroft(coalg, w).partition))
    if coalg.n_states <= COMPARE_ORACLE_STATES:
        runs.append(("bruteforce", bisim_bruteforce(coalg)))
    base_name, base = runs[0]
    ok = True
    _echo(f"{base_name}: {base.n_blocks} blocks")
    for name, part in runs[1:]:
        same = partitions_equal(base, part)
        ok = ok and same
        _echo(f"{name}: {part.n_blocks} blocks, {'match' if same else 'MISMATCH'}")
    sys.exit(0 if ok else 1)


def audit_tree_cmd(tree_path):
    """Check the weight bounds of a refinement tree file."""
    try:
        with open(tree_path, "r", encoding="utf-8") as f:
            tree, weights, heavy = tree_from_json(f.read())
    except (FormatError, OSError) as e:
        _fail(e)
    report = _audit(tree, weights, heavy)
    if not report.valid:
        _echo("weight law: VIOLATED")
        sys.exit(1)
    _echo(f"weight law: ok ({'tight' if report.tight else 'not tight'})")
    _echo(f"edge-exclusion sums: {'ok' if report.lemma1_ok else 'FAILED'}")
    rel = "=" if report.light_sum == report.lpath_sum else ">"
    _echo(
        f"light-children sum {report.light_sum} {rel} "
        f"weighted light-path sum {report.lpath_sum}: "
        f"{'ok' if report.lemma2_ok else 'FAILED'}"
    )
    _echo(f"tightening properties: {'ok' if report.lemma3_ok else 'FAILED'}")
    _echo(f"light-path length bound: {'ok' if report.lemma4_ok else 'FAILED'}")
    _echo(
        f"weight bound: {report.light_sum} <= {report.bound} "
        f"(exact check {'ok' if report.theorem1_ok else 'FAILED'}) "
        f"(margin {report.margin})"
    )
    sys.exit(0 if report.all_ok() else 1)


def gen_cmd(family, n_states, alphabet, branching, seed, out):
    """Emit a seeded random instance as coalgebra JSON."""
    try:
        spec = GenSpec(family, n_states, alphabet, branching, seed)
        coalg = generate(spec)
    except ValueError as e:
        _fail(e)
    _write_all([(out, dump_coalgebra(coalg))])


def _parser() -> argparse.ArgumentParser:
    """One parser for every command; each subcommand stores its function as
    ``run``, itself as ``parser`` and its options under that function's
    parameter names."""
    parser = argparse.ArgumentParser(
        prog="bisimkit", description="Minimize finite state systems modulo bisimilarity.",
        allow_abbrev=False)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    default = "[default: %(default)s]"

    def command(name, run):
        doc = " ".join(run.__doc__.split())
        sub = commands.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        sub.set_defaults(run=run, parser=sub)
        return sub.add_argument

    add = command("minimize", minimize)
    add("input_path", metavar="INPUT")
    add("--format", dest="fmt", default="auto", choices=("auto",) + FORMATS, help=default)
    add("--algo", default="hopcroft", choices=("naive", "hopcroft"), help=default)
    add("--weight", choices=WEIGHT_KINDS,
        help="Block weight for the hopcroft algorithm [default: card].")
    add("--out", default="-", help="Partition JSON destination ('-' for stdout). " + default)
    add("--audit", action="store_true",
        help="Emit the refinement tree and verify its weight bounds.")
    add("--tree-out", help="Refinement tree destination, with --audit "
                           "[default: OUT.tree.json; ./refinement-tree.json when OUT is '-'].")
    add("--stats", dest="want_stats", action="store_true", help="Emit run counters.")
    add("--stats-out", help="Counters destination, with --stats [default: stderr].")

    add = command("compare", compare)
    add("input_path", metavar="INPUT")
    add("--format", dest="fmt", default="auto", choices=("auto",) + FORMATS, help=default)

    command("audit-tree", audit_tree_cmd)("tree_path", metavar="TREEFILE")

    add = command("gen", gen_cmd)
    add("--family", required=True, choices=FAMILIES)
    add("--states", dest="n_states", required=True, type=int)
    add("--alphabet", default=2, type=int, help=default)
    add("--branching", default=2, type=int, help=default)
    add("--seed", default=0, type=int, help=default)
    add("--out", default="-", help=default)
    return parser


_PARSER = _parser()


def main(argv=None, standalone_mode=True) -> NoReturn:
    """Run the command that ``argv`` (default ``sys.argv[1:]``) names, and exit.

    Every outcome ends in ``SystemExit``: 0 on success or after ``--help``,
    a command's own 1 or 2, or 2 with a usage and an error line for argv
    the parser rejects; only a crash raises anything else.  So
    ``standalone_mode``, kept for callers that pass it, changes nothing.
    """
    # parse, load, compile, refine, audit and output all run with the cyclic
    # garbage collector paused; the context restores the caller's setting
    # however the command ends
    with _gc_paused():
        argv = sys.argv[1:] if argv is None else list(argv)
        args, extra = _PARSER.parse_known_args(argv)
        args = vars(args)
        parser = args.pop("parser")
        if extra:
            # the parser that met the first of them reports them, with its
            # usage line: the top one before the command name, else the command's
            if argv.index(extra[0]) < argv.index(parser.prog.split()[-1]):
                parser = _PARSER
            parser.error("unrecognized arguments: " + " ".join(extra))
        args.pop("run")(**args)
    sys.exit(0)


if __name__ == "__main__":
    main()
