"""Smoke tests for the runnable experiment scripts (fast configurations)."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(args, cwd):
    # A relative PYTHONPATH (e.g. "src") would resolve against cwd in the
    # child, so put this checkout's src first as an absolute path.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          text=True, capture_output=True, timeout=300)


def test_density_sweep_script(tmp_path):
    proc = _run([str(ROOT / "scripts" / "density_sweep.py"), "2", str(tmp_path)],
                cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "worst |q - closed|" in proc.stdout
    csv = tmp_path / "density_lam2.csv"
    rows = csv.read_text().splitlines()
    assert rows[0] == "s,q,q_closed,p,p_closed"
    assert len(rows) == 200


def test_lorenz_study_script(tmp_path):
    out = tmp_path / "report.json"
    proc = _run([str(ROOT / "scripts" / "lorenz_study.py"), str(out)],
                cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "admissible directions" in proc.stdout
    assert "partial-sum residual" in proc.stdout


def test_semicircle_zeros_script(tmp_path):
    proc = _run([str(ROOT / "scripts" / "semicircle_zeros.py"), str(tmp_path)],
                cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()
            if line.split() and line.split()[0].isdigit()]
    assert [int(r[0]) for r in rows] == [8, 16, 32, 64, 128, 256, 512, 1024]
    ks = [float(r[3]) for r in rows]
    assert all(a > b for a, b in zip(ks, ks[1:]))
    # measured: KS ~ 1.22 n^-0.971 over n = 8..1024
    fit = [line for line in proc.stdout.splitlines()
           if line.startswith("least-squares")]
    assert len(fit) == 1
    assert -1.05 < float(fit[0].rsplit("^", 1)[1]) < -0.9
    for n in (128, 512):
        csv = (tmp_path / f"scaled_zeros_n{n}.csv").read_text().splitlines()
        assert csv[0] == "index,t"
        assert len(csv) == 1 + n // 2


def test_benchmark_tracer_names_resolve(monkeypatch):
    # `perfbench/run.py --trace 1` wraps each (module, name) of TRACED by
    # name; a renamed or deleted function would break the traced run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for _, module, name in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module), name, None)), \
            f"{module}.{name}"


def test_benchmark_tracer_installs_after_the_benchmarks_imports():
    # The traced run wraps each (module, name) of TRACED through sys.modules
    # before a workload has run all of its commands, so importing the
    # package must put every module there, as it does without running them
    proc = _run(["-c", "import sys, time, tracing\n"
                       "from pfdensity import bell, cli, quadform\n"
                       "tracing.Tracer(time.perf_counter).install()\n"
                       "print([f'{m}.{name}' for _, m, name in tracing.TRACED\n"
                       "       if not hasattr(getattr(sys.modules[m], name), '__wrapped__')])\n"],
                cwd=ROOT / "perfbench")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
