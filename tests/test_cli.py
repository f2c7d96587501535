import dataclasses
import hashlib
import importlib
import json
import os
import pkgutil
import signal
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import spinbars
from spinbars import barcomb, blocks, cli, zverify
from oracles import cli_payload


# sha256 of `spinbars isometry --group sym --n 14 --p <p>` stdout, by p
SYM_N14_ISOMETRY_SHA256 = {
    3: "706c3c51a8de2f6803eb31290d4537d78553effc9b86263eef3df1d2c3e2bdfb",
    5: "61c5736222700ba778553621408f7b7e342292ef95900b6e1ef392dcb6ca32f1",
    7: "7471f41fb95088376674702ba36838f4265f312f569a020c5e3e9a2de8380f72",
}

# the same at p = 3 for larger n, where each block has many swaps
SYM_P3_ISOMETRY_SHA256 = {
    16: "e90fd4b8a87d73390e9f81bacbc14ebe0378ec81c4f8c2b21e462376c819aaa4",
    18: "0c3f3cb2ec470e4de402fe3a5fc2d51cd0ba81c671ba460c17e7e02548ce2a4e",
}

# sha256 of `--format table` stdout, by argv; each verb on both covers at two
# (n, p), a --core filter, cores and selftest
TABLE_SHA256 = {
    "blocks --group sym --n 9 --p 3": "dab42af09111490cd58f63b03b5a6854314209942f7abedf85e3abcf81ae3223",
    "blocks --group sym --n 11 --p 5": "18fce66782df16ec383fc95b7e7e1d799f517ef59fcc68d9f05957af37bc9a08",
    "blocks --group alt --n 9 --p 3": "8288d95554c04867f7bad69252bc5bb31e46b601d603295379052542ae488cc6",
    "blocks --group alt --n 11 --p 5": "5622afa9ebd7af9a8b73790a51917e55bc4eda4f18bb894cf849ce72b799edca",
    "basic-set --group sym --n 9 --p 3": "ea70d0626a47e7b88da5fc633bca024b11f0aae21a8a86ff2e9c69d4dfa4821a",
    "basic-set --group sym --n 11 --p 5": "64d3d57168e61813fdb7c3a4a531a46084c4fa9822178c48303f69a0116bb1d5",
    "basic-set --group alt --n 9 --p 3": "a6d9619eb54b7235228ba3d115752a5fa3ade9676365f5753c84cfa6b428c9ea",
    "basic-set --group alt --n 11 --p 5": "8d2120f8d3b5e4be42b5663b6a9fcd2b7a00c3251432913ca50a281dbdddf1f2",
    "verify --group sym --n 9 --p 3": "1f7f89863c803b68c4f97179bb04f01c0a5e9ffc5e5fb7312b4002a13c14468b",
    "verify --group sym --n 11 --p 5": "c47b52f64d0c12d5b68357cf6354d2c3a0cc290d52cbe23c4d0283175447b042",
    "verify --group alt --n 9 --p 3": "ec8b8b728d5f101efc156e77a2e59248c34065f0b5dfe4aaaf824bbc2b63101e",
    "verify --group alt --n 11 --p 5": "fcf2bcc2afc273daf7b7f80530d19ec701d47add32d27de8a9e1da92c57faddb",
    "counts --group sym --n 9 --p 3": "c1d128b0b8b738d696761697134181da3cca53f84012288278da562164984a99",
    "counts --group sym --n 11 --p 5": "5511637810adf780a9f2f9e202ea6e7b032cfc6a14d6655eb98eba7f9f3ea03c",
    "counts --group alt --n 9 --p 3": "8f889b1464d2767bde85cc47678d6b94c2113a69a271c51d11a42011a1a08206",
    "counts --group alt --n 11 --p 5": "a9e817ea8ac0ba82f770502a044148dd295508d2cbddc0482fccf3c6340a6dd0",
    "isometry --group sym --n 9 --p 3": "86ad67123c903d7c40ae4da3af3e73598108ca2339c372135903b4535671e20a",
    "isometry --group sym --n 11 --p 5": "d1edaee04127c8978181bf131cd55521285ac30939793bde4988af89be1a00b5",
    "isometry --group alt --n 9 --p 3": "7ab1f755548a0deb9663e035ec0408045fcf4f612eb4841a6db2e6596a5379a5",
    "isometry --group alt --n 11 --p 5": "f5666a1909188ff7b4fb387a3f816120b2a02c9081a3851469081ede8532fa25",
    "verify --n 5 --p 3 --core 2": "2b59cb1f5853b8d4da26b5d2d93197085363403b3c61f4135445399ec21a885b",
    "cores --n 6 --p 3": "2f180484c6f001a933b1cd5c19d31d2b35995ab09dfd8ac4fe20dbf0b5f974ff",
    "selftest": "d7feda279ff74b263c14d420035890ae65cd6028267e2a184bf78b84b9ccae84",
}

# sha256 of JSON stdout, by argv: every verb that prints a bar partition, a
# p-bar quotient, a signed label bijection or a Broué verdict, and verify's
# matrices on both covers and under a --core filter
JSON_SHA256 = {
    "verify --group sym --n 14 --p 3": "caff32228bf0deb5f66251267f744a1508b4b830221534ad8baaf68df3e1b68f",
    "verify --group alt --n 12 --p 5": "8e5913e3eddf8015d1e05f50f54e5638b9ec10f82b150fadeabf15da41899138",
    "verify --group sym --n 13 --p 5 --core 3": "f8ad8e792e077ea2dcb2c170ae33f14f4eed5ea18a9f2fb6384a953dce84b27e",
    "cores --n 12 --p 5": "03b97b5d01eefd951c651559c14c0d04384c1b606fa12c52126c76057b329c32",
    "isometry --group sym --n 12 --p 5": "7bf075e18f457f52e9ac94fc9b472ba3d5e590ed470743abf14930eb8238516d",
    "isometry --group alt --n 13 --p 3": "deba2b6c71d4195537ad3c4c0fd791c20d095fd89917ffe3f0f46cfc32b621e2",
    "blocks --group alt --n 11 --p 7": "c573c914fd3f4ef22ccfdf5e8d7ee8afb7b32dcc85f6a437d96a8139708e84e4",
    "counts --group sym --n 13 --p 3": "be28a09efb10bc5d422fb2452092535d152fffdc975947038b80df7e336e248a",
}


def differential_argvs(verb):
    """The argv lists the streamed output is compared on with the tree oracle.

    A verb that selects blocks runs on every (group, n, p) of a grid, and on
    each block at p = 3, 5 and n <= 12 selected alone with --core.
    """
    if verb == "selftest":
        return [["selftest"]]
    if verb == "cores":
        return [["cores", "--n", str(n), "--p", str(p)] for p in (3, 5, 7, 11) for n in range(13)]
    top = 16 if verb == "verify" else 12
    whole = [
        [verb, "--group", group, "--n", str(n), "--p", str(p)]
        for group in ("sym", "alt")
        for p in (3, 5, 7, 11)
        for n in range(1, top + 1)
    ]
    alone = [
        [verb, "--group", group, "--n", str(n), "--p", str(p), "--core", ",".join(map(str, b.core.parts)) or "-"]
        for group in ("sym", "alt")
        for p in (3, 5)
        for n in range(1, 13)
        for b, _ in blocks.block_partition(group, n, p)
    ]
    return whole + alone


def run_cli(capsys, *argv):
    status = cli.run(list(argv))
    out = capsys.readouterr().out
    return status, out


def load_schema():
    path = resources.files("spinbars") / "schemas" / "report.schema.json"
    return json.loads(path.read_text())


def validate(payload):
    jsonschema.validate(payload, load_schema())


class TestVerbs:
    def test_blocks_table(self, capsys):
        status, out = run_cli(capsys, "blocks", "--group", "sym", "--n", "7", "--p", "3", "--format", "table")
        assert status == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert "core=(1)" in lines[0] and "characters=6" in lines[0]
        assert "core=(5,2)" in lines[1] and "defect-zero" in lines[1]

    def test_verify_micro(self, capsys):
        status, out = run_cli(capsys, "verify", "--group", "sym", "--n", "3", "--p", "3")
        assert status == 0
        payload = json.loads(out)
        validate(payload)
        block = payload["results"][0]["blocks"][0]
        assert block["verdict"] == "pass"
        assert block["relations"] == [
            {"label": {"partition": [3], "tag": "self"}, "coordinates": [1, 1]}
        ]
        assert payload["results"][0]["summary"] == {"blocks": 1, "pass": 1, "fail": 0}

    def test_cores_zero(self, capsys):
        for p, components in (("3", [[]]), ("5", [[], []])):
            status, out = run_cli(capsys, "cores", "--n", "0", "--p", p)
            assert status == 0
            payload = json.loads(out)
            validate(payload)
            assert payload["results"] == [
                {
                    "partition": [],
                    "sign": 1,
                    "core": [],
                    "weight": 0,
                    "quotient": {"lambda0": [], "components": components},
                }
            ]

    def test_basic_set_and_counts(self, capsys):
        status, out = run_cli(capsys, "basic-set", "--n", "7", "--p", "3", "--core", "1")
        assert status == 0
        payload = json.loads(out)
        validate(payload)
        assert payload["results"][0]["basic_set"] == [
            {"partition": [7], "tag": "self"},
            {"partition": [4, 2, 1], "tag": "self"},
        ]
        status, out = run_cli(capsys, "counts", "--n", "7", "--p", "3")
        payload = json.loads(out)
        validate(payload)
        for entry in payload["results"]:
            assert entry["basic_set_size"] == entry["brauer_count"] == entry["rank"]

    def test_isometry_report(self, capsys):
        status, out = run_cli(capsys, "isometry", "--n", "4", "--p", "3")
        assert status == 0
        payload = json.loads(out)
        validate(payload)
        entry = next(e for e in payload["results"] if e["core"] == [1])
        assert entry["isometry"]["side"] == "G"
        assert entry["isometry"]["basic_transport"] is True
        assert entry["swaps"] == [{"pair": [4], "broue": True, "perfect": True}]

    def test_swap_verdicts_read_one_report(self, capsys, monkeypatch):
        # "broue" is the whole report; "perfect" is its separation condition (ii) alone
        from spinbars.isometry import BroueReport

        cells = (("x", "y"),)
        for report, verdicts in (
            (BroueReport(cells, ()), "broue=fail perfect=pass"),
            (BroueReport((), cells), "broue=fail perfect=fail"),
        ):
            monkeypatch.setattr(cli, "swap_reports", lambda block, report=report: {(4,): report})
            status, out = run_cli(capsys, "isometry", "--n", "4", "--p", "3", "--format", "table")
            assert status == 0
            assert [line.strip() for line in out.splitlines() if "swap" in line] == [f"swap (4): {verdicts}"]

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_isometry_sym_n14_digest(self, capsys, p):
        # pinned stdout past the benchmark's n = 10: swap verdicts of larger blocks
        status, out = run_cli(capsys, "isometry", "--group", "sym", "--n", "14", "--p", str(p))
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SYM_N14_ISOMETRY_SHA256[p]

    @pytest.mark.parametrize("n", [16, 18])
    def test_isometry_sym_p3_digest(self, capsys, n):
        status, out = run_cli(capsys, "isometry", "--group", "sym", "--n", str(n), "--p", "3")
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SYM_P3_ISOMETRY_SHA256[n]

    def test_isometry_alt_cover(self, capsys):
        status, out = run_cli(capsys, "isometry", "--group", "alt", "--n", "6", "--p", "3")
        assert status == 0
        payload = json.loads(out)
        validate(payload)
        for entry in payload["results"]:
            assert entry["swaps"] == []
            if entry["isometry"] is not None:
                assert entry["isometry"]["basic_transport"] is True

    @pytest.mark.parametrize("argv", sorted(TABLE_SHA256))
    def test_table_digest(self, capsys, argv):
        status, out = run_cli(capsys, *argv.split(), "--format", "table")
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == TABLE_SHA256[argv]

    @pytest.mark.parametrize("argv", sorted(JSON_SHA256))
    def test_json_digest(self, capsys, argv):
        status, out = run_cli(capsys, *argv.split())
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == JSON_SHA256[argv]

    def test_selftest(self, capsys):
        status, out = run_cli(capsys, "selftest")
        assert status == 0
        payload = json.loads(out)
        validate(payload)
        assert all(c["ok"] for c in payload["results"])

    def test_selftest_splits_each_partition_once(self, capsys, monkeypatch):
        # the sign identity needs core and quotient of each (p, partition) from one split
        calls = [0]
        split = cli.bar_core_quotient

        def counted(lam, p):
            calls[0] += 1
            return split(lam, p)

        monkeypatch.setattr(cli, "bar_core_quotient", counted)
        status, _ = run_cli(capsys, "selftest")
        assert status == 0
        assert calls[0] == 140  # strict partitions of n <= 12, for p = 3 and p = 5

    def test_failing_selftest_exits_1(self, capsys, monkeypatch):
        verify = zverify.verify_basic_set
        monkeypatch.setattr(
            zverify, "verify_basic_set", lambda block: dataclasses.replace(verify(block), verdict=False)
        )
        status, out = run_cli(capsys, "selftest")
        assert status == 1
        payload = json.loads(out)
        validate(payload)
        assert {c["check"]: c["ok"] for c in payload["results"]} == {
            "worked-micro-instance": False,
            "sign-identity-n<=12": True,
            "verification-n<=8": False,
        }


class TestContract:
    def test_unknown_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_p_exits_2(self, capsys):
        for p in ("2", "9"):
            with pytest.raises(SystemExit) as exc:
                cli.run(["blocks", "--n", "4", "--p", p])
            assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("verify --n 0 --p 3", "n must be positive"),
            ("cores --n -1 --p 3", "n must be non-negative"),
            ("blocks --n 4 --p 9", "p must be an odd prime, got 9"),
            ("cores --n 3 --p 2097169", "2097152"),
        ],
    )
    def test_refusal_writes_nothing(self, capsys, argv, message):
        # the library's refusal is the CLI's, and it comes before the first byte
        with pytest.raises(SystemExit) as exc:
            cli.run(argv.split())
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert message in captured.err

    def test_large_p_exits_2_fast(self, capsys):
        # (10^9 + 7)(10^9 + 9): trial division would take 5 * 10^8 steps
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.run(["cores", "--n", "3", "--p", str((10**9 + 7) * (10**9 + 9))])
        assert exc.value.code == 2 and time.perf_counter() - start < 1
        # 25 digits, above the bound where the primality test is exact
        with pytest.raises(SystemExit) as exc:
            cli.run(["cores", "--n", "3", "--p", "9" * 25])
        assert exc.value.code == 2
        assert "3317044064679887385961981" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["blocks", "basic-set", "verify", "counts", "isometry"])
    def test_large_prime_work_does_not_grow(self, capsys, monkeypatch, verb):
        # only the residue pairs that a label's parts occupy are visited, not all
        # (p - 1)/2, so two primes above n (one above the cores bound) take the
        # same number of runner-pair conversions
        calls = [0]
        pair_to_partition = barcomb._pair_to_partition

        def counted(aset, bset):
            calls[0] += 1
            return pair_to_partition(aset, bset)

        monkeypatch.setattr(barcomb, "_pair_to_partition", counted)
        work = []
        for p in ("1000003", "2097169"):
            calls[0] = 0
            blocks._blocks.cache_clear()  # another verb may have partitioned these labels
            status, out = run_cli(capsys, verb, "--n", "3", "--p", p)
            assert status == 0
            validate(json.loads(out))
            work.append(calls[0])
        assert work[0] == work[1] > 0

    def test_cores_rejects_core(self, capsys):
        # cores lists every bar partition of n, so a core or group filter would be ignored
        for option in (["--core", "2"], ["--group", "alt"]):
            with pytest.raises(SystemExit) as exc:
                cli.run(["cores", "--n", "5", "--p", "3", *option])
            assert exc.value.code == 2
            assert option[0] in capsys.readouterr().err
        status, out = run_cli(capsys, "cores", "--n", "5", "--p", "3")
        parameters = json.loads(out)["parameters"]
        assert status == 0 and parameters["core"] is None and parameters["group"] is None

    def test_cores_prime_above_bound_exits_2(self, capsys):
        # cores prints all (p - 1)/2 components of each quotient
        for p in ("2097169", "100000000000031"):
            with pytest.raises(SystemExit) as exc:
                cli.run(["cores", "--n", "3", "--p", p])
            assert exc.value.code == 2
            assert "2097152" in capsys.readouterr().err
        # the other verbs store only the occupied components
        status, out = run_cli(capsys, "blocks", "--n", "3", "--p", "100000000000031")
        assert status == 0
        validate(json.loads(out))

    def test_bad_core_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["blocks", "--n", "4", "--p", "3", "--core", "1,2"])
        assert exc.value.code == 2

    def test_unknown_core_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["blocks", "--n", "4", "--p", "3", "--core", "3,1"])
        assert exc.value.code == 2

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
    def test_closed_pipe_is_not_a_failing_block(self):
        # 77 KB of stdout, more than a pipe holds: the write after the reader
        # closes its end ends the run as it ends any filter, silently
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-m", "spinbars.cli", "verify", "--group", "sym", "--n", "20", "--p", "3"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read()
            status = proc.wait(timeout=60)
        assert err == b"" and status != 1

    def test_verify_failure_exit_code(self, capsys, monkeypatch):
        # force a failing verdict to exercise the exit-code contract; the CLI
        # decides each block of its table stream through zverify.verify_table
        from spinbars import zverify

        real = zverify.verify_table

        def sabotaged(block, table):  # fails the block of weight 2, passes the defect-zero one
            rep = real(block, table)
            return zverify.VerificationReport(
                rep.table, rep.candidates, not block.weight, rep.coordinates, rep.rank_full, rep.rank_candidate
            )

        monkeypatch.setattr(zverify, "verify_table", sabotaged)
        status, out = run_cli(capsys, "verify", "--n", "7", "--p", "3")
        assert status == 1
        # the summary and the status follow the last streamed block
        payload = json.loads(out)
        validate(payload)
        assert payload["results"][0]["summary"] == {"blocks": 2, "pass": 1, "fail": 1}
        assert [b["verdict"] for b in payload["results"][0]["blocks"]] == ["fail", "pass"]

    def test_unmatched_core_writes_nothing(self, capsys):
        # blocks are selected before the first byte is written
        for verb in ("blocks", "verify"):
            for fmt in ("json", "table"):
                with pytest.raises(SystemExit) as exc:
                    cli.run([verb, "--n", "7", "--p", "3", "--core", "2", "--format", fmt])
                captured = capsys.readouterr()
                assert exc.value.code == 2 and captured.out == ""
                assert "core (2,)" in captured.err

    def test_verify_table_renders_no_matrix(self, capsys, monkeypatch):
        def boom(table):
            raise RuntimeError("a matrix rendered for --format table")

        monkeypatch.setattr(cli, "_matrix_text", boom)
        for argv in sorted(TABLE_SHA256):
            if argv.startswith("verify"):
                status, out = run_cli(capsys, *argv.split(), "--format", "table")
                assert status == 0
                assert hashlib.sha256(out.encode()).hexdigest() == TABLE_SHA256[argv]

    @pytest.mark.parametrize("verb", list(cli.COMMANDS))
    def test_streamed_output_matches_the_tree_oracle(self, capsys, verb):
        # the whole payload as one tree and one json.dumps, the table as one join
        for argv in differential_argvs(verb):
            payload, lines, status = cli_payload(argv)
            expected = {
                "json": json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
                "table": "\n".join(lines) + "\n",
            }
            for fmt, text in expected.items():
                assert run_cli(capsys, *argv, "--format", fmt) == (status, text), (argv, fmt)

    def test_verify_encodes_its_class_list_once(self, capsys, monkeypatch):
        # the class list depends only on (group, n, p): every block shares it
        real = cli._dumps
        encoded = []

        def counted(obj):
            text = real(obj)
            if '"centralizer"' in text:
                encoded.append(text)
            return text

        monkeypatch.setattr(cli, "_dumps", counted)
        # an earlier run of the same (group, n, p) leaves its text cached
        cli._classes_json.cache_clear()
        status, out = run_cli(capsys, "verify", "--group", "sym", "--n", "12", "--p", "3")
        found = json.loads(out)["results"][0]["blocks"]
        assert status == 0 and len(found) > 1
        assert len(encoded) == 1
        assert all(b["classes"] == json.loads(encoded[0]) for b in found)

    def test_verify_and_counts_never_build_algnum_values(self, capsys, monkeypatch):
        # the CLI reads integer tables; AlgNum values stay at the API boundary
        def boom(x, c):
            raise RuntimeError("char_value on the CLI path")

        for info in pkgutil.iter_modules(spinbars.__path__):
            module = importlib.import_module(f"spinbars.{info.name}")
            if hasattr(module, "char_value"):
                monkeypatch.setattr(module, "char_value", boom)
        for group in ("sym", "alt"):
            for verb in ("verify", "counts", "isometry"):
                status, out = run_cli(capsys, verb, "--group", group, "--n", "9", "--p", "3")
                assert status == 0
                validate(json.loads(out))

    def test_verify_builds_each_table_once(self, capsys, monkeypatch):
        # each block is decided once, on a table of the run's one stream, and
        # written once, with the table it was decided on
        from spinbars.blocks import block_partition

        decide, render = zverify.verify_table, cli._matrix_text
        decided, written = [], []

        def counted_decide(block, table):
            decided.append((block, table))
            return decide(block, table)

        def counted_render(table):
            written.append(table)
            return render(table)

        monkeypatch.setattr(zverify, "verify_table", counted_decide)
        monkeypatch.setattr(cli, "_matrix_text", counted_render)
        for group in ("sym", "alt"):
            decided.clear()
            written.clear()
            status, out = run_cli(capsys, "verify", "--group", group, "--n", "9", "--p", "3")
            assert status == 0
            validate(json.loads(out))
            found = block_partition(group, 9, 3)
            assert [b for b, _ in decided] == [b for b, _ in found]
            assert [table.row_keys for _, table in decided] == [members for _, members in found]
            assert len(written) == len(decided) and all(w is t for w, (_, t) in zip(written, decided))

    def test_byte_identical_reruns(self, capsys, monkeypatch):
        args = ["verify", "--group", "alt", "--n", "6", "--p", "3"]
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second
        # SPINBARS_WORKERS is not an option: even an invalid value is ignored
        monkeypatch.setenv("SPINBARS_WORKERS", "abc")
        assert run_cli(capsys, "verify", "--n", "3", "--p", "3")[0] == 0
        _, third = run_cli(capsys, *args)
        assert third == first

    @pytest.mark.parametrize("group", ["sym", "alt"])
    def test_each_block_writes_as_it_does_alone(self, capsys, group):
        # a full run builds its defect-zero blocks' tables in shared batches; a
        # --core run builds its one block alone, and each entry's text is the same
        from spinbars.blocks import block_partition

        def blocks_text(out):
            head = '"results":[{"blocks":['
            return out[out.index(head) + len(head) : out.rindex('],"summary":')]

        argv = ["verify", "--group", group, "--n", "16", "--p", "7"]
        status, whole = run_cli(capsys, *argv)
        assert status == 0
        found = [b for b, _ in block_partition(group, 16, 7)]
        assert sum(len(batch) > 1 for batch in zverify._batches(found)) > 0
        alone = []
        for b in found:
            status, out = run_cli(capsys, *argv, "--core", ",".join(map(str, b.core.parts)) or "-")
            assert status == 0
            alone.append(blocks_text(out))
        assert blocks_text(whole) == ",".join(alone)

    def test_zero_cells_render_as_empty_terms(self, capsys):
        from spinbars.blocks import block_partition

        b, _ = block_partition("alt", 9, 3)[0]
        table = zverify.block_table(b)
        text = "".join(cli._matrix_text(table))
        assert '{"im":[],"re":[]}' in text
        rows = json.loads(text)
        assert [row["label"] for row in rows] == [cli._label_json(x) for x in table.row_keys]
        assert all(len(row["values"]) == len(table.classes) for row in rows)
        # a cell is empty exactly when its slice of the row is zero
        for row, values in zip(rows, table.rows):
            zero = [True] * len(table.classes)
            for (j, _), a in zip(table.columns, values):
                zero[j] = zero[j] and not a
            assert [not (cell["re"] or cell["im"]) for cell in row["values"]] == zero

    def test_schema_covers_all_group_variants(self, capsys):
        for group in ("sym", "alt"):
            _, out = run_cli(capsys, "verify", "--group", group, "--n", "5", "--p", "3")
            validate(json.loads(out))
