"""Command-line front end: enumerate, verify, and report with a stable JSON schema."""

from __future__ import annotations

import argparse
import json
import sys

from . import zverify
from .barcomb import P_BOUND, BarPartition, bar_core_quotient, bar_partitions, is_odd_prime, sigma
from .blocks import BlockId, basic_set, block_members, block_partition, brauer_count, local_side
from .isometry import basic_set_transport, iso_I, swap_reports
from .spinchar import MARKS, SpinLabel


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


def _cmd_cores(args) -> tuple[list, int]:
    results = []
    for lam in bar_partitions(args.n):
        core, quotient = bar_core_quotient(lam, args.p)
        results.append(
            {
                "partition": list(lam.parts),
                "sign": sigma(lam),
                "core": list(core.parts),
                "weight": quotient.weight,
                "quotient": _quotient_json(quotient),
            }
        )
    return results, 0


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


# every zero cell of a rendered matrix is this one dict; it is never mutated
_ZERO_CELL = {"re": [], "im": []}


def _values_json(table: zverify.IntegerTable) -> list[list[dict]]:
    """Each row's values in AlgNum.to_json form: the table holds twice each value, a/2 in lowest terms."""
    width = len(table.classes)
    out = []
    for row in table.rows:
        cells = [_ZERO_CELL] * width
        for (j, (d, e)), a in zip(table.columns, row):
            if a:
                cell = cells[j]
                if cell is _ZERO_CELL:
                    cell = cells[j] = {"re": [], "im": []}
                cell["im" if e else "re"].append([a, 2, d] if a % 2 else [a // 2, 1, d])
        out.append(cells)
    return out


def _verify(b: BlockId) -> dict:
    report = zverify.verify_basic_set(b)
    table = report.table
    return {
        "verdict": "pass" if report.verdict else "fail",
        "basic_set": [_label_json(x) for x in report.candidates],
        "rank": report.rank_full,
        "relations": [
            {"label": _label_json(x), "coordinates": list(coords) if coords is not None else None}
            for x, coords in report.coordinates.items()
        ],
        "classes": [
            {"type": list(c.pi), "branch": c.branch, "centralizer": c.centralizer_order}
            for c in table.classes
        ],
        "matrix": [
            {"label": _label_json(x), "values": values}
            for x, values in zip(table.row_keys, _values_json(table))
        ],
    }


def _verify_lines(r: dict) -> list[str]:
    """One line per block of the one verify result, then its summary."""
    lines = []
    for e in r["blocks"]:
        rel = "; ".join(f"{_fmt_label(x['label'])} = {x['coordinates']}" for x in e["relations"])
        basic = " ".join(_fmt_label(x) for x in e["basic_set"])
        lines.append(
            f"core={_fmt_parts(e['core'])} w={e['weight']} sign={e['sign']:+d} "
            f"verdict={e['verdict']} basic-set: {basic}" + (f" relations: {rel}" if rel else "")
        )
    s = r["summary"]
    return lines + [f"summary: {s['pass']} pass, {s['fail']} fail of {s['blocks']}"]


def _counts(b: BlockId) -> dict:
    return {
        "basic_set_size": len(basic_set(b)),
        "brauer_count": brauer_count(b),
        # k on a pass; the verdict runs the full HNF only on a fail
        "rank": zverify.verify_basic_set(b).rank_full,
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


def _cmd_selftest(args) -> tuple[list, int]:
    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception:  # noqa: BLE001 - report, do not crash the battery
            ok = False
        checks.append({"check": name, "ok": ok})

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

    check("worked-micro-instance", micro)
    check(
        "sign-identity-n<=12",
        lambda: all(
            sigma(lam) == sigma(core) * quotient.sigma()
            for p in (3, 5)
            for n in range(13)
            for lam in bar_partitions(n)
            for core, quotient in [bar_core_quotient(lam, p)]
        ),
    )
    check(
        "verification-n<=8",
        lambda: all(
            zverify.verify_basic_set(bid).verdict
            for group in ("sym", "alt")
            for bid, _ in block_partition(group, 8, 3)
        ),
    )
    failed = sum(1 for c in checks if not c["ok"])
    return checks, (1 if failed else 0)


def _selftest_lines(r: dict) -> list[str]:
    return [f"{'ok  ' if r['ok'] else 'FAIL'} {r['check']}"]


# each verb, in the parser's order, with the fields it adds to a selected block's
# _block_json entry (None for cores and selftest, which select no block) and the
# table lines of one of its results
COMMANDS = {
    "cores": (None, _cores_lines),
    "blocks": (_blocks, _blocks_lines),
    "basic-set": (_basic_set, _basic_set_lines),
    "verify": (_verify, _verify_lines),
    "counts": (_counts, _counts_lines),
    "isometry": (_isometry, _isometry_lines),
    "selftest": (None, _selftest_lines),
}


def _results(args) -> tuple[list, int]:
    """The verb's results and exit status; cores and selftest select no block."""
    if args.command == "cores":
        return _cmd_cores(args)
    if args.command == "selftest":
        return _cmd_selftest(args)
    fields, _ = COMMANDS[args.command]
    results = [{**_block_json(b), **fields(b)} for b in _select_blocks(args)]
    if args.command != "verify":
        return results, 0
    failed = sum(1 for r in results if r["verdict"] != "pass")
    summary = {"blocks": len(results), "pass": len(results) - failed, "fail": failed}
    return [{"summary": summary, "blocks": results}], (1 if failed else 0)


def _render_table(command: str, results: list) -> str:
    _, lines_of = COMMANDS[command]
    return "\n".join(line for r in results for line in lines_of(r))


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
    if args.command != "selftest":
        try:
            prime = is_odd_prime(args.p)
        except ValueError as exc:
            parser.error(f"--p: {exc}")
        if not prime:
            parser.error(f"--p must be an odd prime, got {args.p}")
        if args.command == "cores" and args.p > P_BOUND:
            parser.error(f"cores --p must be at most {P_BOUND}: it prints all (p - 1)/2 quotient components")
        if args.command != "cores" and args.n < 1:
            parser.error("--n must be at least 1")
        if args.n < 0:
            parser.error("--n must be non-negative")
    try:
        results, status = _results(args)
    except ValueError as exc:
        parser.error(str(exc))
    payload = {
        "command": args.command,
        "parameters": {
            "n": getattr(args, "n", None),
            "p": getattr(args, "p", None),
            "group": getattr(args, "group", None),
            "core": list(args.core.parts) if getattr(args, "core", None) is not None else None,
        },
        "results": results,
    }
    if args.format == "json":
        # the payload is built fresh here and holds no cycle, so the cycle check buys nothing
        print(json.dumps(payload, sort_keys=True, separators=(",", ":"), check_circular=False))
    else:
        print(_render_table(args.command, results))
    return status


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
