"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Generates the workload's inputs with
``brainspeech synth`` from the seed (untimed), runs the workload in a fresh
worker process with one BLAS thread, checks the outputs and
prints the metrics named in ``BENCHMARK.json``: the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1``. A traced run makes an
untraced pass first and reports the tracing overhead against it. The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Everything is written under ``perfbench/.work``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
RUN_LIMIT_S = 170.0  # every run must end within 180 s

sys.path.insert(0, str(HERE))

from workloads import BY_NAME, REPORT_KEYS, Workload  # noqa: E402


def _ini(sections: dict) -> str:
    lines = []
    for sec, keys in sections.items():
        lines.append(f"[{sec}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    return "\n".join(lines)


def _child_env(threads: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 30)
    return env


def _call(argv, env, deadline: float, log: Path) -> int:
    """Run a child to completion or kill it at the deadline; always waits for it."""
    with open(log, "ab") as fh:
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        try:
            return proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            return -9
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def _environment(threads: int, nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            git = (rev.stdout.strip() if rev.returncode == 0
                   else f"unavailable: git exit {rev.returncode}")
        except (OSError, subprocess.SubprocessError) as exc:
            git = f"unavailable: {exc}"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": nproc,
        "git_revision": git,
        "src_sha256": _src_digest(),
    }


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _inputs(wl: Workload, seed: int, env: dict, deadline: float) -> Path:
    """Generate (or reuse) the workload's dataset for this seed."""
    base = WORK / "inputs" / f"{wl.name}-s{seed}"
    data = base / "data"
    if (base / "done").exists():
        return data
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    (base / "synth.cfg").write_text(_ini({"synth": {**wl.synth, "seed": seed}}), encoding="utf-8")
    code = _call([sys.executable, "-m", "brainspeech.cli", "synth", "--spec",
                  str(base / "synth.cfg"), "--out", str(data)], env, deadline, base / "synth.log")
    if code != 0:
        raise RuntimeError(f"synth exited {code}; see {base / 'synth.log'}")
    (base / "done").write_text("", encoding="utf-8")
    # Keep the ten most recent seeds per workload; a run may reuse its seed's inputs.
    sets = sorted(WORK.joinpath("inputs").glob(f"{wl.name}-s*/done"),
                  key=lambda p: p.stat().st_mtime)
    for old in sets[:-10]:
        shutil.rmtree(old.parent, ignore_errors=True)
    return data


def _pass(wl: Workload, data: Path, out: Path, seconds: int, trace: int, env: dict,
          deadline: float) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    train = {"dataset": {"root": str(data)}, **wl.train}
    (out / "train.cfg").write_text(_ini(train), encoding="utf-8")
    code = _call([sys.executable, str(HERE / "worker.py"), "--workload", wl.name,
                  "--data", str(data), "--out", str(out), "--seconds", str(seconds),
                  "--trace", str(trace)], env, deadline, out / "worker.log")
    result = out / "result.json"
    if code != 0 or not result.exists():
        raise RuntimeError(f"worker exited {code}; see {out / 'worker.log'}")
    return json.loads(result.read_text(encoding="utf-8"))


def _check_outputs(wl: Workload, out: Path, rec: dict) -> list:
    """(name, passed, detail) for every output check of one pass."""
    import numpy as np

    checks = []

    def check(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # a check that cannot run has failed
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append((name, bool(ok), detail))

    ev = out / "eval"
    report = {}

    def report_keys():
        report.update(json.loads((ev / "report.json").read_text(encoding="utf-8")))
        missing = [k for k in REPORT_KEYS if k not in report]
        return not missing, f"missing {missing}" if missing else "all keys"

    def sizes():
        got = (report["n_trials"], report["n_candidates"])
        return got == (wl.trials, wl.candidates), f"trials x candidates {got}"

    def probs_bytes():
        size = (ev / "probs.bin").stat().st_size
        want = report["n_trials"] * report["n_candidates"] * 4
        return size == want, f"{size} bytes, want {want}"

    def probs_rows():
        p = np.fromfile(ev / "probs.bin", dtype="<f4").reshape(
            report["n_trials"], report["n_candidates"])
        err = float(np.abs(p.astype(np.float64).sum(axis=1) - 1.0).max())
        ok = bool(np.all(np.isfinite(p))) and bool(np.all(p >= 0)) and err < 1e-4
        return ok, f"finite, nonnegative, max |row sum - 1| = {err:.2e}"

    def deterministic():
        hashes = set(rec["eval_probs_sha256"])
        runs = len(rec["eval_probs_sha256"])
        return len(hashes) == 1, f"{runs} evals, {len(hashes)} distinct probs.bin"

    def epochs():
        hist = rec["history"] or []
        ok = rec["epochs_run"] == wl.epochs == len(hist) and np.isfinite(hist[-1]["valid_loss"])
        return ok, f"{rec['epochs_run']} epochs of {wl.epochs}, finite valid loss"

    def words():
        with open(ev / "words.csv", encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        want = report["n_trials"] * report["word_level"]["vocabulary"]
        return rows == want, f"{rows} rows, want {want}"

    check("eval.report_keys", report_keys)
    check("eval.sizes", sizes)
    check("eval.probs_bytes", probs_bytes)
    check("eval.probs_rows", probs_rows)
    check("eval.deterministic", deterministic)
    check("eval.words_csv", words)
    check("train.epochs", epochs)
    if wl.min_top1_pct:
        check("eval.top1_above_chance", lambda: (
            report["topk"]["1"] >= wl.min_top1_pct,
            f"top-1 {report['topk']['1']} % >= {wl.min_top1_pct} % (chance "
            f"{100.0 / wl.candidates:.1f} %)"))
    if wl.recon:
        def recon():
            meta = json.loads((ev / "recon" / "recon.json").read_text(encoding="utf-8"))
            n = len(list((ev / "recon").glob("*.bin")))
            return meta["trials"] == n == wl.trials, f"{n} reconstructions"
        check("eval.recon", recon)
    if wl.analyze:
        def analysis():
            res = json.loads((out / "analysis" / "analysis.json").read_text(encoding="utf-8"))
            p = res["comparison"]["p"]
            return 0.0 <= p <= 1.0, f"paired p = {p}"
        check("analyze.comparison", analysis)
    if rec.get("per_layer"):
        want = wl.epochs * wl.updates_per_epoch
        steps = rec["per_layer"]["training.steps"]
        check("train.steps", lambda: (steps == want, f"{steps:g} updates, want {want}"))
    return checks


def _end_to_end(wl: Workload, rec: dict, fixed_work: bool = False) -> dict:
    """End-to-end metrics of one pass; ``fixed_work`` keeps only the minimum
    set-up and eval reps, which is all a traced pass makes."""
    samples = rec["epochs_run"] * wl.updates_per_epoch * wl.batch_size
    setups = rec["setup_s"][:wl.setup_reps] if fixed_work else rec["setup_s"]
    evals = rec["eval_s"][:wl.eval_reps] if fixed_work else rec["eval_s"]
    return {
        "setup_s": statistics.median(setups),
        "train_samples_per_s": samples / rec["train_s"],
        "eval_trials_per_s": wl.trials / statistics.median(evals),
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "brainspeech" / "__init__.py").is_file():
        print(f"error: no brainspeech sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + RUN_LIMIT_S
    wl = BY_NAME[args.workload]
    nproc = len(os.sched_getaffinity(0))
    # One BLAS thread: on a 2-core VM two OpenBLAS threads slowed eval up to
    # tenfold whenever another process held a core; one thread also leaves a
    # core for the parent process and the OS.
    threads = min(1, nproc)
    env = _child_env(threads)
    tag = f"{wl.name}-s{args.seed}-t{args.trace}"
    runs = WORK / "runs" / tag

    records, checks, ops = [], [], []
    metrics = {}
    error = None
    try:
        data = _inputs(wl, args.seed, env, deadline)
        plain = _pass(wl, data, runs / "untraced", args.seconds, 0, env, deadline)
        records.append(("untraced", runs / "untraced", plain))
        if args.trace:
            traced = _pass(wl, data, runs / "traced", args.seconds, 1, env, deadline)
            records.append(("traced", runs / "traced", traced))
            got = dict(traced.get("per_layer") or {})
            base = _end_to_end(wl, plain, fixed_work=True)
            with_trace = _end_to_end(wl, traced, fixed_work=True)
            got["trace.setup_overhead_pct"] = 100.0 * (
                with_trace["setup_s"] / base["setup_s"] - 1.0)
            got["trace.train_overhead_pct"] = 100.0 * (
                base["train_samples_per_s"] / with_trace["train_samples_per_s"] - 1.0)
            got["trace.eval_overhead_pct"] = 100.0 * (
                base["eval_trials_per_s"] / with_trace["eval_trials_per_s"] - 1.0)
        else:
            got = _end_to_end(wl, plain)
        missing = [m["name"] for m in wanted if m["name"] not in got]
        if missing:
            raise RuntimeError(f"metrics not produced: {missing}")
        metrics = {m["name"]: {"value": got[m["name"]], "unit": m["unit"]} for m in wanted}
    except (RuntimeError, OSError, KeyError, TypeError, ValueError, ZeroDivisionError,
            statistics.StatisticsError) as exc:
        error = f"{type(exc).__name__}: {exc}"

    for label, out, rec in records:
        ops += [(f"{label}.{o['op']}", o["ok"], o.get("error", "")) for o in rec["ops"]]
        checks += [(f"{label}.{n}", ok, d) for n, ok, d in _check_outputs(wl, out, rec)]
    attempted = len(ops) + len(checks) + (1 if error else 0)
    failed = sum(not ok for _, ok, _ in ops + checks) + (1 if error else 0)

    env_info = _environment(threads, nproc)
    info = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env_info, "error": error, "metrics": metrics,
        "operations": [{"name": n, "ok": ok, "detail": d} for n, ok, d in ops],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
    }
    for label, out, rec in records:
        hist = rec.get("history") or [{}]
        probs = out / "eval" / "probs.bin"
        info[label] = {
            "setup_s": rec["setup_s"], "train_s": rec["train_s"], "eval_s": rec["eval_s"],
            "final_valid_loss": hist[-1].get("valid_loss"),
            "test_top1_pct": _top1(out),
            # information only: the float32 fix will change these bytes legitimately
            "probs_sha256": hashlib.sha256(probs.read_bytes()).hexdigest()
            if probs.exists() else None,
            "self_s": rec.get("self_s"),
        }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(info, indent=1) + "\n", encoding="utf-8")

    _print_report(info, wanted, records)
    print(json.dumps({"correct": failed == 0 and error is None, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if error is None else 1


def _top1(out: Path):
    path = out / "eval" / "report.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["topk"]["1"]


def _print_report(info: dict, wanted: list, records) -> None:
    wl = BY_NAME[info["workload"]]
    print(f"workload {wl.name}  seed {info['seed']}  trace {info['trace']}")
    print(f"why: {wl.why}")
    print(f"sizing: {wl.sizing}")
    print("environment " + json.dumps(info["environment"], sort_keys=True))
    for label, _, _ in records:
        part = info[label]
        print(f"{label}: final_valid_loss {part['final_valid_loss']} nats  test_top1_pct "
              f"{part['test_top1_pct']} %  probs_sha256 {part['probs_sha256']} (information only)")
    from layers import COMPUTED, zero_notes

    for m in wanted:
        got = info["metrics"].get(m["name"])
        if got is not None:
            label = "  (computed)" if m["name"] in COMPUTED else ""
            print(f"  {m['name']:<40} {got['value']:>16.6g} {m['unit']}{label}")
    if info["trace"] and info["metrics"]:
        for name, why in zero_notes({k: v["value"] for k, v in info["metrics"].items()}).items():
            print(f"  note: {name}: {why}")
    traced = info.get("traced")
    if traced and traced.get("self_s"):
        print("self time per span (s), traced pass:")
        for name, sec in sorted(traced["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:<40} {sec:>10.4f}")
    for n in info["operations"] + info["checks"]:
        if not n["ok"]:
            print(f"FAILED {n['name']}: {n['detail']}")
    if info["error"]:
        print(f"ERROR {info['error']}")


if __name__ == "__main__":
    sys.exit(main())
