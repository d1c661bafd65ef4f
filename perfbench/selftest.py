"""Quick self-test of the benchmark at tiny input sizes (about half a minute).

    python3 perfbench/selftest.py        # from the root of a checkout

Runs every workload's phases and output checks in-process, untraced and
traced; shows that the checks catch a wrong lemma residual, a study that
does not converge and a non-deterministic rerun; runs run.py end to end
with ``--size tiny``; checks that BENCHMARK.json names exactly the metrics
run.py prints; and checks that run.py refuses to run where the program's
sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def check_workloads(scratch):
    for workload in run.WORKLOADS:
        size = workloads.SIZES["tiny"][workload]
        inputs = workloads.make_inputs(workload, 7, size, scratch)
        assert inputs == workloads.make_inputs(workload, 7, size, scratch)
        plain = workloads.run_workload(workload, size, inputs, scratch)
        assert not plain["failures"], (workload, plain["failures"])
        assert set(plain["phases"]) == {"setup_s", "solve_s", "output_s",
                                        "verify_s"}
        tracer = tracing.Tracer(f"selftest-{workload}").install()
        try:
            traced = workloads.run_workload(workload, size, inputs, scratch,
                                            tracer)
        finally:
            tracer.uninstall()
        assert not traced["failures"], (workload, traced["failures"])
        layers = tracing.layer_metrics(tracer.spans)
        for name, (_, homes) in run.LAYER_METRICS.items():
            if workload in homes:
                assert layers[name] > 0, (workload, name, layers[name])
        if "diagnostics" in plain:
            with open(plain["diagnostics"]) as fh:
                first = fh.read()
            with open(traced["diagnostics"]) as fh:
                assert fh.read() == first, "tracing changed diagnostics.csv"
        print(f"{workload}: checks pass untraced and traced")


def check_checks_fail(scratch):
    levels = (8, 16)
    study = os.path.join(scratch, "study.csv")
    with open(study, "w") as fh:
        fh.write("n,h,status,err_linf,err_w1inf,err_h1,e_norm,"
                 "observed_order\n"
                 "8,0.17,corrected,0.5,39.8,4.4,18.5,nan\n"
                 "16,0.08,corrected,0.1,40.0,1.1,18.4,-0.01\n")
    text = ("lemma bij: max residual 2.000e-12 (tol 1e-12) FAIL\n"
            "lemma antisymmetry: max residual 0.000e+00 (tol 0) PASS\n"
            "lemma piddiv: max residual 1.000e-16 (tol 1e-11) PASS\n"
            "interpolator branch per level: n=8:corrected, n=16:zeroed\n")
    failures = []
    workloads._check_interp_command(3, text, levels, study, failures)
    joined = "; ".join(failures)
    for needle in ("exit code 3", "lemma bij", "lemma divpinzero",
                   "branch", "strictly decreasing"):
        assert needle in joined, (needle, failures)

    paths = []
    for k, body in enumerate(("n,t\n1,0.5\n", "n,t\n1,0.5\n", "n,t\n1,0.6\n")):
        paths.append(os.path.join(scratch, f"diag{k}.csv"))
        with open(paths[-1], "w") as fh:
            fh.write(body)
    records = [{"diagnostics": p} for p in paths]
    run._mark_determinism(records)
    assert [bool(r.get("failures")) for r in records] == [False, False, True]
    print("checks catch a failed lemma, a non-converging study and a "
          "changed rerun")


def check_run_py():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(k, v[0]) for k, v in run.LAYER_METRICS.items()] + \
        [run.TRACE_OVERHEAD]
    for trace, names in ((0, [m["name"] for m in spec["end_to_end"]]),
                         (1, [m["name"] for m in spec["per_layer"]])):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
             "ns-long", "--seed", "3", "--seconds", "1", "--trace",
             str(trace), "--size", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, result
        assert sorted(result["metrics"]) == sorted(names)
    print("run.py prints every metric BENCHMARK.json names")


def check_refuses_without_sources(scratch):
    bare = os.path.join(scratch, "bare")
    shutil.copytree(BENCH, os.path.join(bare, os.path.basename(BENCH)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(BENCH), "run.py"),
         "--workload", "ns-large", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=bare, capture_output=True, text=True,
        timeout=170)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("run.py exits with an error where src/ is missing")


def main():
    os.environ.update({k: "1" for k in run.BLAS_THREAD_VARS})
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as scratch:
        check_workloads(scratch)
        check_checks_fail(scratch)
        check_refuses_without_sources(scratch)
    check_run_py()
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
