"""Run one d2dsim simulation in this fresh interpreter and report it.

Usage: python3 perfbench/child.py {timed|outputs|traced} [--spans PATH RUN_ID]

Reads scenario text on stdin and prints one JSON object on stdout.
``timed`` runs with d2dsim's trace and ledger off; ``outputs`` turns
them on and adds their digests; ``traced`` also wraps every layer in
spans (see tracer.py).  A failing simulation is reported as
``{"error": ...}``; exit status 3 means d2dsim cannot be imported from
this checkout's ``src``.

d2dsim uses none of the modules imported here, so ``setup_s`` still
pays for every module d2dsim needs.
"""

import hashlib
import json
import os
import resource
import sys
import time


def _conservation_problems(result) -> list[str]:
    problems = []
    for flow_id, m in sorted(result.flow_metrics.items()):
        accounted = m["delivered_packets"] + m["queued_end"] + sum(
            value for name, value in m.items() if name.startswith("lost_"))
        if m["offered_packets"] != accounted:
            problems.append(f"flow {flow_id}: offered {m['offered_packets']} != "
                            f"delivered + lost + queued {accounted}")
    violations = result.run_metrics["rb_conservation_violations"]
    if violations:
        problems.append(f"{violations} rb conservation violations")
    return problems


def main() -> int:
    mode = sys.argv[1]
    text = sys.stdin.read()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    started = time.perf_counter()
    try:
        import d2dsim
    except ImportError as exc:
        print(f"cannot import d2dsim from {src}: {exc}", file=sys.stderr)
        return 3
    if not d2dsim.__file__.startswith(src + os.sep):
        print(f"d2dsim imported from {d2dsim.__file__}, not {src}",
              file=sys.stderr)
        return 3

    outputs = mode in ("outputs", "traced")
    parse, make_engine = d2dsim.parse_scenario, d2dsim.Engine
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        parse = tracer.timed("config.parse", parse)
        make_engine = tracer.timed("engine.init", make_engine)
        started = time.perf_counter()
    try:
        config = parse(text)
        engine = make_engine(config, trace=outputs, ledger_dump=outputs)
        setup_done = time.perf_counter()
        result = engine.run()
        metrics_csv = result.metrics_csv()
        run_done = time.perf_counter()
    except Exception as exc:  # any failure of the simulator is a failed run
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 0

    report = {
        "ttis": config.sim.tti_count,
        "setup_s": setup_done - started,
        "run_s": run_done - setup_done,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "metrics_sha256": hashlib.sha256(metrics_csv.encode()).hexdigest(),
        "problems": _conservation_problems(result),
    }
    if outputs:
        report["trace_sha256"] = hashlib.sha256(result.trace_csv().encode()).hexdigest()
        report["ledger_sha256"] = hashlib.sha256(result.ledger_csv().encode()).hexdigest()
    if tracer is not None:
        report["layers"], report["shares"] = tracer.layers()
        if "--spans" in sys.argv:
            path, run_id = sys.argv[sys.argv.index("--spans") + 1:][:2]
            tracer.write_spans(path, run_id)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
