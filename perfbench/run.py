"""projnav benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ns-large --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Each repeat of a workload runs in a fresh Python process (worker.py), one
at a time, with BLAS threads pinned to 1.  Repeats continue until the next
one would end after ``--seconds``, with at least MIN_REPEATS; every
end-to-end time is the median over all samples of all repeats.  With
``--trace 1`` the run instead makes one untraced and one traced repeat of
the workload, plus one traced repeat of each other workload, and reports
the per-layer metrics, each taken on the workload where it should move
(LAYER_METRICS).

Every repeat is one operation; it fails when its process fails, when an
output check fails, or when its diagnostics.csv differs byte for byte from
the first repeat's.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("ns-large", "ns-long", "interp-verify")
MIN_REPEATS = 3
# a single-workload run must end within 180 s; no repeat outlives this
RUN_DEADLINE_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("output_s", "s"),
              ("verify_s", "s"), ("peak_rss_mb", "MiB"))

# the end-to-end time the tracing overhead is measured on
MAIN_PHASE = {"ns-large": "solve_s", "ns-long": "solve_s",
              "interp-verify": "verify_s"}

# per-layer metric: unit and the workloads it is taken on (the first one
# unless the traced workload is listed)
LAYER_METRICS = {
    "mesh.read_s": ("s", ("ns-long",)),
    "mesh.build_s": ("s", ("ns-large",)),
    "fem.assemble_static_s": ("s", ("ns-large",)),
    "fem.convection_s": ("s", ("ns-long",)),
    "fem.convection_calls": ("count", ("ns-long",)),
    "fem.load_s": ("s", ("ns-long",)),
    "fem.div_moments_s": ("s", ("interp-verify",)),
    "fem.div_moments_calls": ("count", ("interp-verify",)),
    "mms.forcing_s": ("s", ("ns-long",)),
    "sparse.matvec_s": ("s", ("ns-large",)),
    "sparse.matvec_calls": ("count", ("ns-large",)),
    "sparse.matvec_bytes_per_s": ("B/s", ("ns-large",)),
    "sparse.bicgstab_s": ("s", ("ns-large",)),
    "sparse.bicgstab_iters": ("count", ("ns-large",)),
    "sparse.cg_s": ("s", ("ns-long",)),
    "sparse.cg_iters": ("count", ("ns-long",)),
    "sparse.from_coo_s": ("s", ("ns-long",)),
    "sparse.from_coo_calls": ("count", ("ns-long",)),
    "scheme.initialize_s": ("s", ("ns-large", "ns-long")),
    "scheme.step_s": ("s", ("ns-large", "ns-long")),
    "scheme.predict_self_s": ("s", ("ns-long",)),
    "scheme.correct_s": ("s", ("ns-long",)),
    "scheme.audit_s": ("s", ("ns-long",)),
    "scheme.step_uncovered_share": ("ratio", ("ns-long",)),
    "interp.edge_bubble_s": ("s", ("interp-verify",)),
    "interp.edge_bubble_calls": ("count", ("interp-verify",)),
    "interp.divergence_correct_s": ("s", ("interp-verify",)),
    "interp.pi_n_s": ("s", ("interp-verify",)),
    "interp.study_s": ("s", ("interp-verify",)),
    "vtk.write_s": ("s", ("ns-large",)),
    "vtk.bytes": ("B", ("ns-large",)),
    "cli.interp_verify_self_s": ("s", ("interp-verify",)),
}
TRACE_OVERHEAD = ("trace.overhead_s", "s")


class Bench:
    def __init__(self, root, seed, size, out_root):
        self.root = root
        self.seed = seed
        self.size = size
        self.out_root = out_root
        self.inputs = {}
        self.t_start = time.perf_counter()
        self.deadline = self.t_start + RUN_DEADLINE_S

    def _inputs(self, workload):
        """Input files of a workload, made from the seed once per run."""
        if workload not in self.inputs:
            import workloads
            out = os.path.join(self.out_root, workload)
            os.makedirs(out, exist_ok=True)
            self.inputs[workload] = workloads.make_inputs(
                workload, self.seed, workloads.SIZES[self.size][workload], out)
        return self.inputs[workload]

    def repeat(self, workload, index, traced):
        """One repeat in a fresh process; returns its record."""
        out = os.path.join(self.out_root, workload,
                           f"rep{index}{'-traced' if traced else ''}")
        cmd = [sys.executable, os.path.join(os.path.dirname(__file__),
                                            "worker.py"),
               "--workload", workload, "--seed", str(self.seed),
               "--size", self.size, "--trace", str(int(traced)),
               "--run-id", f"{workload}-seed{self.seed}-rep{index}",
               "--out", out]
        mesh = self._inputs(workload).get("mesh")
        if mesh:
            cmd += ["--mesh", mesh]
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=env,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            return {"failures": ["worker timed out"],
                    "wall_s": time.perf_counter() - t0}
        lines = proc.stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1])
        except (IndexError, ValueError):
            record = {"failures": [f"worker exit {proc.returncode}: "
                                   f"{proc.stderr.strip()[-400:]}"]}
        if proc.returncode != 0:
            record.setdefault("failures", []).append(
                f"worker exit code {proc.returncode}")
        record["wall_s"] = time.perf_counter() - t0
        return record


def _same_bytes(path_a, path_b):
    try:
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


def _mark_determinism(records):
    """Repeats after the first must write byte-identical diagnostics."""
    first = records[0].get("diagnostics")
    for rec in records[1:]:
        path = rec.get("diagnostics")
        if first and path and not _same_bytes(first, path):
            rec.setdefault("failures", []).append(
                "diagnostics.csv differs from the first repeat")


def _log(workload, label, rec):
    phases = " ".join(f"{k}={v:.4f}" for k, v in rec.get("phases", {}).items())
    status = "ok" if not rec.get("failures") else "FAILED " + "; ".join(
        rec["failures"])
    print(f"{workload} {label}: {phases} wall={rec['wall_s']:.2f}s {status}",
          flush=True)


def timed_run(bench, workload, seconds):
    """Untraced repeats for about ``seconds``; end-to-end medians."""
    records = []
    while True:
        rec = bench.repeat(workload, len(records), traced=False)
        records.append(rec)
        _log(workload, f"repeat {len(records) - 1}", rec)
        elapsed = time.perf_counter() - bench.t_start
        mean = statistics.mean(r["wall_s"] for r in records)
        if (len(records) >= MIN_REPEATS and elapsed + mean > seconds
                or time.perf_counter() + mean > bench.deadline):
            break
    _mark_determinism(records)
    good = [r for r in records if "samples" in r and "peak_rss_mb" in r]
    metrics = {}
    for name, unit in END_TO_END:
        # the median over every sample of every repeat
        vals = ([r["peak_rss_mb"] for r in good] if name == "peak_rss_mb"
                else [x for r in good for x in r["samples"][name]])
        if vals:
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
    return records, metrics


def traced_run(bench, primaries):
    """Per-layer metrics: traced repeats of every workload, plus an
    untraced repeat of each primary workload for the tracing overhead."""
    records = {}
    layers = {}
    overhead = {}
    for workload in primaries:
        plain = bench.repeat(workload, 0, traced=False)
        _log(workload, "untraced", plain)
        records[workload] = [plain]
    for workload in list(primaries) + [w for w in WORKLOADS
                                       if w not in primaries]:
        rec = bench.repeat(workload, 1, traced=True)
        _log(workload, "traced", rec)
        records.setdefault(workload, []).append(rec)
        layers[workload] = rec.get("layers", {})
        if workload in primaries:
            _mark_determinism(records[workload])
            phase = MAIN_PHASE[workload]
            try:
                overhead[workload] = (rec["phases"][phase]
                                      - records[workload][0]["phases"][phase])
            except KeyError:
                pass
    metrics = {}
    for name, (unit, homes) in LAYER_METRICS.items():
        home = next((w for w in primaries if w in homes), homes[0])
        if name in layers.get(home, {}):
            metrics[name] = {"value": layers[home][name], "unit": unit}
    flat = [r for recs in records.values() for r in recs]
    return flat, metrics, overhead


def machine_info():
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
            "platform": platform.platform()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's input sizes")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "projnav", "__init__.py")):
        print(f"no projnav sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    # workloads.py imports projnav, for the seeded input files
    sys.path.insert(0, src)
    # the program is single-threaded by design; workers inherit this
    os.environ.update({k: "1" for k in BLAS_THREAD_VARS})

    out_root = os.path.join(root, ".perfbench_out")
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    bench = Bench(root, args.seed, args.size, out_root)
    info = machine_info()
    print("machine: " + json.dumps(info), flush=True)

    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    metrics = {}
    if args.trace:
        records, layer, overhead = traced_run(bench, selected)
        metrics.update(layer)
        for workload, value in overhead.items():
            key = TRACE_OVERHEAD[0] if len(selected) == 1 else \
                f"{workload}/{TRACE_OVERHEAD[0]}"
            metrics[key] = {"value": value, "unit": TRACE_OVERHEAD[1]}
    else:
        for workload in selected:
            bench.t_start = time.perf_counter()
            bench.deadline = bench.t_start + RUN_DEADLINE_S
            recs, found = timed_run(bench, workload, args.seconds)
            records += recs
            for name, m in found.items():
                key = name if len(selected) == 1 else f"{workload}/{name}"
                metrics[key] = m

    attempted = len(records)
    failed = sum(1 for r in records if r.get("failures"))
    for name, m in metrics.items():
        print(f"{args.workload if len(selected) == 1 else ''} {name} "
              f"{m['value']:.6g} {m['unit']}".strip(), flush=True)
    print(f"operations attempted {attempted} failed {failed}", flush=True)
    with open(os.path.join(out_root, "result.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "machine": info,
                   "repeats": records, "metrics": metrics}, fh, indent=1)
    expected = (len(LAYER_METRICS) + len(selected) if args.trace
                else len(END_TO_END) * len(selected))
    if len(metrics) < expected:
        print("some metrics could not be measured", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
