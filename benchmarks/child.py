"""Run one spinbars CLI job in this fresh interpreter and report on it.

Usage: python3 child.py JOB_ID TRACE SPANS_PATH -- CLI_ARGS...

With no CLI_ARGS the child only sets up and reports its set-up time.
After an untraced job (TRACE 0) the child times PROBE_PASSES passes of
the host probe (hostprobe.py) and reports their mean.

TRACE is 0 (no wrappers), 1 (timed spans) or 2 (call and construction
counters only).  SPANS_PATH is where a traced job writes its raw spans
("-" for nowhere).  The report is one JSON line on the real stdout; the
CLI's own stdout is captured in memory.
"""

import sys
import time

# Set-up as a CLI user pays it: nothing but sys and time is imported first.
_t0 = time.perf_counter()
try:
    import spinbars
    import spinbars.cli as cli

    cli.build_parser()
except ImportError as exc:
    print(f"cannot import spinbars: {exc}", file=sys.stderr)
    sys.exit(3)
_setup_s = time.perf_counter() - _t0

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


# Passes of the host probe after a job.  The passes closest to the job track
# its host speed best: in trial runs two passes gave the steadiest scaled
# times on `isometry` and close to it on `wide`, and three or more passes,
# reaching further from the job, were less steady on both.
PROBE_PASSES = 2


def check_output(verb: str, payload: dict):
    """Semantic check of one job's JSON output; a reason string, or None when it passes."""
    results = payload["results"]
    if verb == "verify":
        summary = results[0]["summary"]
        bad = [b["core"] for b in results[0]["blocks"] if b["verdict"] != "pass"]
        if summary["fail"] or bad:
            return f"verify: {summary['fail']} failing block(s), cores {bad[:3]}"
    elif verb == "counts":
        bad = [r["core"] for r in results if r["brauer_count"] != r["basic_set_size"]]
        if bad:
            return f"counts: brauer_count != basic_set_size at cores {bad[:3]}"
    elif verb == "isometry":
        for r in results:
            iso = r["isometry"]
            if iso is not None and not iso["basic_transport"]:
                return f"isometry: basic-set transport broken at core {r['core']}"
            for s in r["swaps"]:
                if not (s["broue"] and s["perfect"]):
                    return f"isometry: swap {s['pair']} broue={s['broue']} perfect={s['perfect']}"
    return None


def main() -> None:
    job_id, trace, spans_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1 :]
    if not argv:
        print(json.dumps({"job": job_id, "setup_s": _setup_s, "reason": None}))
        return
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer(job_id)
        if trace == 1:
            tracer.install_spans(spinbars)
        else:
            tracer.install_counters(spinbars)
    out = io.StringIO()
    status, reason = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            status = cli.run(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception:  # noqa: BLE001 - a crashing job is a failed job, not a crashed benchmark
        reason = "raised " + traceback.format_exc().strip().splitlines()[-1]
    wall_s = time.perf_counter() - start
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    text = out.getvalue()
    if reason is None and status != 0:
        reason = f"exit code {status}"
    if reason is None:
        try:
            reason = check_output(argv[0], json.loads(text))
        except (ValueError, LookupError, TypeError) as exc:
            reason = f"output is not the expected JSON: {exc!r}"
    report = {
        "job": job_id,
        "status": status,
        "setup_s": _setup_s,
        "wall_s": wall_s,
        "rss_kib": rss_kib,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "output_bytes": len(text.encode("utf-8")),
        "reason": reason,
    }
    if trace == 0:  # imported only now, so the job's peak RSS does not include it
        import hostprobe

        report["probe_s"] = sum(hostprobe.probe_s() for _ in range(PROBE_PASSES)) / PROBE_PASSES
    if tracer is not None:
        report["trace"] = tracer.summary()
        if spans_path != "-":
            tracer.write(spans_path)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
