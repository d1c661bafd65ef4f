"""One repeat of one workload in a fresh process; prints one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and
BLAS threads pinned to 1.  With ``--trace 1`` every traced name is wrapped
before the workload starts; the spans are written as JSON lines to
``--out`` when it ends and reduced to per-layer figures.
"""

import argparse
import json
import os
import resource
import sys
import traceback


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--mesh")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import projnav
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(projnav.__file__).startswith(src + os.sep):
        print(f"projnav imported from {projnav.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import tracing
    import workloads

    # the interp-verify command seeds its random trials from PROJNAV_SEED
    os.environ["PROJNAV_SEED"] = str(args.seed)
    os.makedirs(args.out, exist_ok=True)
    inputs = {"mesh": args.mesh} if args.mesh else {}
    size = workloads.SIZES[args.size][args.workload]
    tracer = tracing.Tracer(args.run_id).install() if args.trace else None
    try:
        record = workloads.run_workload(args.workload, size, inputs,
                                        args.out, tracer)
    except Exception as err:
        traceback.print_exc()
        record = {"failures": [f"{type(err).__name__}: {err}"]}
    finally:
        if tracer is not None:
            tracer.uninstall()
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        tracer.write_jsonl(os.path.join(args.out, "spans.jsonl"))
        record["layers"] = tracing.layer_metrics(tracer.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
