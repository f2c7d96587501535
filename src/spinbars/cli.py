"""Command-line front end: enumerate, verify, and report with a stable JSON schema."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import groupby
from operator import itemgetter

from . import zverify
from .barcomb import P_BOUND, BarPartition, bar_core_quotient, bar_partitions, require_n, require_prime, sigma
from .blocks import BlockId, basic_set, block_members, block_partition, brauer_count, local_side
from .isometry import basic_set_transport, iso_I, swap_reports
from .spinchar import MARKS, SpinLabel


# one encoder for every call, one per matrix row included; entries hold no
# cycle, so the cycle check buys nothing
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode

# a value no entry holds, set where a report's hand-written text goes: its
# encoding splits a report's JSON text at those places
_MARK = "\0"
_HOLE = _dumps(_MARK)


def _label_json(x: SpinLabel) -> dict:
    return {"partition": list(x.lam.parts), "tag": x.tag}


def _quotient_json(q) -> dict:
    return {
        "lambda0": list(q.lambda0.parts),
        "components": [list(c.parts) for c in q.components],
    }


def _block_json(b: BlockId) -> dict:
    return {
        "group": b.group,
        "p": b.p,
        "core": list(b.core.parts),
        "weight": b.weight,
        "sign": b.sign,
        "n": b.n,
        "defect_zero": b.is_defect_zero(),
    }


def _parse_core(text: str) -> BarPartition:
    if text.strip() in ("", "-"):
        return BarPartition(())
    try:
        parts = tuple(int(tok) for tok in text.split(","))
        return BarPartition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"core must be comma-separated strictly decreasing positive integers: {exc}"
        ) from None


def _select_blocks(args) -> list[BlockId]:
    found = block_partition(args.group, args.n, args.p)
    chosen = [b for b, _ in found if args.core is None or b.core == args.core]
    if not chosen:  # every n >= 1 has a block, so only a --core can select none
        raise ValueError(f"no spin block of n={args.n}, p={args.p} has core {args.core.parts}")
    return chosen


def _fmt_parts(parts) -> str:
    return "(" + ",".join(str(a) for a in parts) + ")"


def _fmt_label(label: dict) -> str:
    return _fmt_parts(label["partition"]) + MARKS[label["tag"]]


def _cores(args):
    for lam in bar_partitions(args.n):
        core, quotient = bar_core_quotient(lam, args.p)
        yield {
            "partition": list(lam.parts),
            "sign": sigma(lam),
            "core": list(core.parts),
            "weight": quotient.weight,
            "quotient": _quotient_json(quotient),
        }


def _cores_lines(r: dict) -> list[str]:
    comps = " ".join(_fmt_parts(c) for c in r["quotient"]["components"])
    return [
        f"{_fmt_parts(r['partition'])} sign={r['sign']:+d} core={_fmt_parts(r['core'])} "
        f"w={r['weight']} lambda0={_fmt_parts(r['quotient']['lambda0'])} components={comps}"
    ]


def _blocks(b: BlockId) -> dict:
    return {"labels": [_label_json(x) for x in block_members(b)]}


def _blocks_lines(r: dict) -> list[str]:
    tagline = "defect-zero" if r["defect_zero"] else f"w={r['weight']}"
    labels = " ".join(_fmt_label(x) for x in r["labels"])
    return [
        f"core={_fmt_parts(r['core'])} {tagline} sign={r['sign']:+d} "
        f"characters={len(r['labels'])}: {labels}"
    ]


def _basic_set(b: BlockId) -> dict:
    return {"basic_set": [_label_json(x) for x in basic_set(b)]}


def _basic_set_lines(r: dict) -> list[str]:
    labels = " ".join(_fmt_label(x) for x in r["basic_set"])
    return [f"core={_fmt_parts(r['core'])} w={r['weight']} basic-set: {labels}"]


def _cell_text(units: tuple, values: tuple) -> str:
    """One value in the schema's {"re", "im"} form: the table holds twice each value, a/2 in lowest terms."""
    re, im = [], []
    for (d, e), a in zip(units, values):
        if a:
            (im if e else re).append(f"[{a},2,{d}]" if a % 2 else f"[{a // 2},1,{d}]")
    return '{"im":[' + ",".join(im) + '],"re":[' + ",".join(re) + "]}"


# the cell of a class with no unit column in the table: zero in every row
_ZERO_CELL = _cell_text((), ())


def _label_text(x: SpinLabel) -> str:
    """``_dumps(_label_json(x))``, by string formatting."""
    return '{"partition":[' + ",".join(map(str, x.lam.parts)) + '],"tag":"' + x.tag + '"}'


def _matrix_text(table: zverify.IntegerTable):
    """The matrix of a verify entry as JSON text in pieces, one per row, straight from its integer table.

    The columns are sorted by class index, so each class with unit columns
    has its cell in one slice of a row, and every run of classes without
    one is constant text between those cells.  A cell's text is memoised by
    the slice's units and values, and a one-unit cell (every class but an
    alternating pair's own) by its one integer, which is cheaper to take and
    hash than a slice.
    """
    # each class with unit columns as a placeholder in the constant text of the values
    slices, memos, start = [], {}, 0
    values = [_ZERO_CELL] * len(table.classes)
    for j, group in groupby(table.columns, itemgetter(0)):
        units = tuple(unit for _, unit in group)
        stop = start + len(units)
        slices.append((start, stop, start if stop - start == 1 else None, units, memos.setdefault(units, {})))
        values[j] = "\0"
        start = stop
    line = [None] * (2 * len(slices) + 1)
    line[::2] = (',"values":[' + ",".join(values) + "]}").split("\0")
    yield "["
    sep = ""
    for x, row in zip(table.row_keys, table.rows):
        cells = []
        for lo, hi, one, units, memo in slices:
            key = row[lo:hi] if one is None else row[one]
            text = memo.get(key)
            if text is None:
                text = memo[key] = _cell_text(units, row[lo:hi])
            cells.append(text)
        line[1::2] = cells
        yield sep + '{"label":' + _label_text(x) + "".join(line)
        sep = ","
    yield "]"


@functools.lru_cache(maxsize=1)
def _classes_json(group: str, n: int, p: int) -> tuple[list, str]:
    """The class list of verify's blocks and its JSON text: it depends only on
    (group, n, p), so every block of a run shares both, and the list is encoded once."""
    classes = [
        {"type": list(c.pi), "branch": c.branch, "centralizer": c.centralizer_order}
        for c in zverify._regular_classes(group, n, p)
    ]
    return classes, _dumps(classes)


def _verify(b: BlockId, report: zverify.VerificationReport) -> dict:
    return {
        "verdict": "pass" if report.verdict else "fail",
        "basic_set": [_label_json(x) for x in report.candidates],
        "rank": report.rank_full,
        "relations": [
            {"label": _label_json(x), "coordinates": list(coords) if coords is not None else None}
            for x, coords in report.coordinates.items()
        ],
        "classes": _classes_json(b.group, b.n, b.p)[0],
        # the integer table itself: only the JSON writer renders it, by _matrix_text
        "matrix": report.table,
    }


def _verify_lines(e: dict) -> list[str]:
    rel = "; ".join(f"{_fmt_label(x['label'])} = {x['coordinates']}" for x in e["relations"])
    basic = " ".join(_fmt_label(x) for x in e["basic_set"])
    return [
        f"core={_fmt_parts(e['core'])} w={e['weight']} sign={e['sign']:+d} "
        f"verdict={e['verdict']} basic-set: {basic}" + (f" relations: {rel}" if rel else "")
    ]


def _counts(b: BlockId, report: zverify.VerificationReport) -> dict:
    return {
        "basic_set_size": len(basic_set(b)),
        "brauer_count": brauer_count(b),
        # k on a pass; the verdict runs the full HNF only on a fail
        "rank": report.rank_full,
    }


def _counts_lines(r: dict) -> list[str]:
    return [
        f"core={_fmt_parts(r['core'])} w={r['weight']} basic={r['basic_set_size']} "
        f"brauer={r['brauer_count']} rank={r['rank']}"
    ]


def _isometry(b: BlockId) -> dict:
    iso = None
    if b.weight:
        spec = iso_I(b)
        iso = {
            "side": local_side(b),
            "basic_transport": basic_set_transport(spec, b),
            "mapping": [
                {"from": _label_json(s), "to": {**_quotient_json(t.quotient), "tag": t.tag}, "sign": sign}
                for s, t, sign in spec.mapping
            ],
        }
    swaps = [
        {"pair": list(lam), "broue": report.passed, "perfect": report.perfect}
        for lam, report in swap_reports(b).items()
    ]
    return {"isometry": iso, "swaps": swaps}


def _isometry_lines(r: dict) -> list[str]:
    iso = r["isometry"]
    if iso is None:
        lines = [f"core={_fmt_parts(r['core'])} defect-zero: no isometry"]
    else:
        maps = "; ".join(
            f"{_fmt_label(m['from'])} -> {m['sign']:+d}*"
            + _fmt_parts(m["to"]["lambda0"])
            + "|" + ",".join(_fmt_parts(c) for c in m["to"]["components"])
            + MARKS[m["to"]["tag"]]
            for m in iso["mapping"]
        )
        lines = [
            f"core={_fmt_parts(r['core'])} w={r['weight']} side={iso['side']} "
            f"transport={'ok' if iso['basic_transport'] else 'BROKEN'} {maps}"
        ]
    for s in r["swaps"]:
        lines.append(
            f"  swap {_fmt_parts(s['pair'])}: broue={'pass' if s['broue'] else 'fail'} "
            f"perfect={'pass' if s['perfect'] else 'fail'}"
        )
    return lines


def _selftest():
    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception:  # noqa: BLE001 - report, do not crash the battery
            ok = False
        return {"check": name, "ok": ok}

    b = BlockId("sym", 3, BarPartition(()), 1)

    def micro():
        report = zverify.verify_basic_set(b)
        table = report.table  # the table verify decided on
        idx = {c.pi: i for i, c in enumerate(table.classes)}
        rows = {x.lam.parts + (x.tag,): r for x, r in zip(table.row_keys, table.rows)}

        def value(label, pi):  # {(d, e): twice the coefficient of sqrt(d) * i^e}
            return {unit: a for (j, unit), a in zip(table.columns, rows[label]) if j == idx[pi] and a}

        return (
            value((3, "self"), (1, 1, 1)) == {(1, 0): 4}
            and value((2, 1, "plus"), (2, 1)) == {(1, 1): 2}
            and value((2, 1, "minus"), (2, 1)) == {(1, 1): -2}
            and report.verdict
        )

    yield check("worked-micro-instance", micro)
    yield check(
        "sign-identity-n<=12",
        lambda: all(
            sigma(lam) == sigma(core) * quotient.sigma()
            for p in (3, 5)
            for n in range(13)
            for lam in bar_partitions(n)
            for core, quotient in [bar_core_quotient(lam, p)]
        ),
    )
    yield check(
        "verification-n<=8",
        lambda: all(
            zverify.verify_basic_set(bid).verdict
            for group in ("sym", "alt")
            for bid, _ in block_partition(group, 8, 3)
        ),
    )


def _selftest_lines(r: dict) -> list[str]:
    return [f"{'ok  ' if r['ok'] else 'FAIL'} {r['check']}"]


# each verb, in the parser's order, with the fields it adds to a selected block's
# _block_json entry (None for cores and selftest, which select no block; verify
# and counts take the block's report too) and the table lines of one of its entries
COMMANDS = {
    "cores": (None, _cores_lines),
    "blocks": (_blocks, _blocks_lines),
    "basic-set": (_basic_set, _basic_set_lines),
    "verify": (_verify, _verify_lines),
    "counts": (_counts, _counts_lines),
    "isometry": (_isometry, _isometry_lines),
    "selftest": (None, _selftest_lines),
}

# the verbs whose entries can fail, and the test of a failed entry (exit status 1)
FAILED = {"verify": lambda e: e["verdict"] != "pass", "selftest": lambda e: not e["ok"]}


def _entries(args):
    """The verb's entries, each built when it is read; the blocks are selected by this call."""
    if args.command == "cores":
        return _cores(args)
    if args.command == "selftest":
        return _selftest()
    fields, _ = COMMANDS[args.command]
    chosen = _select_blocks(args)
    if args.command in ("verify", "counts"):
        # every table of the run from one stream, each decided as it comes
        reports = map(zverify.verify_table, chosen, zverify.block_tables(chosen))
        return ({**_block_json(b), **fields(b, report)} for b, report in zip(chosen, reports))
    return ({**_block_json(b), **fields(b)} for b in chosen)


def _entry_json(entry: dict):
    """One entry as sorted compact JSON, in pieces; a verify entry's matrix comes row by row amid its other fields.

    A verify entry's class list is written as the text cached with it.
    """
    if "matrix" not in entry:
        yield _dumps(entry)
        return
    head, mid, tail = _dumps({**entry, "classes": _MARK, "matrix": _MARK}).split(_HOLE)
    yield head + _classes_json(entry["group"], entry["n"], entry["p"])[1] + mid
    yield from _matrix_text(entry["matrix"])
    yield tail


def _write(args, entries) -> int:
    """Write each entry to stdout as soon as it is built, then verify's summary; return the exit status.

    The JSON payload is one template with holes for the entries and, on
    verify, for the summary, so nothing needs look-ahead.
    """
    write = sys.stdout.write
    as_json = args.format == "json"
    verify = args.command == "verify"
    if as_json:
        payload = {
            "command": args.command,
            "parameters": {
                "n": getattr(args, "n", None),
                "p": getattr(args, "p", None),
                "group": getattr(args, "group", None),
                "core": list(args.core.parts) if getattr(args, "core", None) is not None else None,
            },
            "results": [{"blocks": [_MARK], "summary": _MARK}] if verify else [_MARK],
        }
        # the text before the entries, and after them: one piece, or two around verify's summary
        head, *tail = _dumps(payload).split(_HOLE)
        write(head)
    _, lines_of = COMMANDS[args.command]
    failed_if = FAILED.get(args.command)
    count = failed = 0
    for entry in entries:
        if as_json:
            if count:
                write(",")
            sys.stdout.writelines(_entry_json(entry))
        else:
            write("".join(line + "\n" for line in lines_of(entry)))
        count += 1
        failed += failed_if is not None and failed_if(entry)
    if as_json:
        write(_dumps({"blocks": count, "pass": count - failed, "fail": failed}).join(tail) + "\n")
    elif verify:
        write(f"summary: {count - failed} pass, {failed} fail of {count}\n")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbars",
        description="Exact spin-block and basic-set computations for the double covers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in COMMANDS:
        sp = sub.add_parser(verb)
        if verb != "selftest":
            sp.add_argument("--n", type=int, required=(verb != "cores"), default=0)
            sp.add_argument("--p", type=int, required=True)
            if verb != "cores":  # cores lists every partition of n, whatever its group or core
                sp.add_argument("--group", choices=["sym", "alt"], default="sym")
                sp.add_argument("--core", type=_parse_core, default=None)
        sp.add_argument("--format", choices=["json", "table"], default="json")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command != "selftest":
            require_prime(args.p)
            require_n(args.n, 0 if args.command == "cores" else 1)
            if args.command == "cores" and args.p > P_BOUND:
                raise ValueError(f"cores --p must be at most {P_BOUND}: it prints all (p - 1)/2 quotient components")
        entries = _entries(args)
    except ValueError as exc:
        parser.error(str(exc))
    return _write(args, entries)


def main() -> None:
    # imported here, not at module level: only the console entry point sets a
    # signal action, and the import costs about 1 ms that callers of run() skip
    import signal

    if hasattr(signal, "SIGPIPE"):
        # a reader that closes the pipe early ends the run as it ends any filter,
        # not with a traceback and the status of a failing block
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
