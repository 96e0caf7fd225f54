"""tools/bench_compare.py on hand-made result records."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

BENCHMARK = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "train_samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "eval_trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
}

SPREAD = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]


def side_values(side, seed):
    i = seed - 1
    if side == "parent":
        return {"setup_s": 1.0 + 0.01 * i, "train_samples_per_s": 100.0 + i,
                "eval_trials_per_s": SPREAD[i], "peak_rss_mb": 300.0 + 0.1 * i}
    return {"setup_s": 0.6 + 0.01 * i, "train_samples_per_s": 60.0 + i,
            "eval_trials_per_s": SPREAD[::-1][i], "peak_rss_mb": 301.0 + 0.1 * i}


def write_record(results, seed, values, failed_check=False, probs="a" * 64, revision="abc"):
    record = {
        "workload": "w", "seed": seed, "trace": 0, "error": None,
        "environment": {"python": "3", "git_revision": revision, "src_sha256": revision * 2},
        "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()},
        "operations": [{"name": "untraced.train", "ok": True, "detail": ""}],
        "checks": [{"name": "untraced.eval.sizes", "ok": not failed_check, "detail": ""}],
        "untraced": {"probs_sha256": probs},
    }
    results.mkdir(parents=True, exist_ok=True)
    (results / f"w-s{seed}-t0.json").write_text(json.dumps(record))


def make_results(tmp_path, failed_seed=None, probs_seed=None):
    for side in ("parent", "change"):
        for seed in range(1, 11):
            write_record(tmp_path / side, seed, side_values(side, seed),
                         failed_check=side == "change" and seed == failed_seed,
                         probs="b" * 64 if side == "change" and seed == probs_seed else "a" * 64,
                         revision="abc" if side == "parent" else "def")
    # an unpaired seed is left out
    write_record(tmp_path / "parent", 11, side_values("parent", 1))
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCHMARK))
    return bench


def run(tmp_path, bench, *extra):
    out = tmp_path / "BENCH.json"
    assert bench_compare.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                               "--benchmark", str(bench), "--out", str(out), *extra]) == 0
    return json.loads(out.read_text())


def test_each_verdict(tmp_path):
    result = run(tmp_path, make_results(tmp_path, probs_seed=4), "--claim", "w:setup_s")
    verdicts = {m: s["verdict"] for m, s in result["end_to_end"]["w"].items()}
    assert verdicts == {"setup_s": "claim met", "train_samples_per_s": "worse than bound",
                        "eval_trials_per_s": "unresolved", "peak_rss_mb": "within bound"}
    setup = result["end_to_end"]["w"]["setup_s"]
    assert setup["change_better_pairs"] == "10/10"
    assert setup["parent"] == {"median": 1.045, "q25": 1.0225, "q75": 1.0675}
    assert setup["bound_pct"] == 25.0
    assert result["claim"]["met"] is True
    assert result["claim"]["median_difference"] == pytest.approx(-0.4)
    assert sorted(result["runs"]["w"]["parent"], key=int) == [str(s) for s in range(1, 11)]
    equal = result["probs_sha256_equal_per_seed"]["w"]
    assert [s for s, same in equal.items() if not same] == ["4"]


def test_unclaimed_gain_is_within_bound(tmp_path):
    result = run(tmp_path, make_results(tmp_path))
    assert result["claim"] is None
    assert result["end_to_end"]["w"]["setup_s"]["verdict"] == "within bound"


def test_failed_operation_voids_the_claim(tmp_path):
    result = run(tmp_path, make_results(tmp_path, failed_seed=3), "--claim", "w:setup_s")
    assert result["failed_operations"]["w"] == {"parent": 0, "change": 1}
    assert result["runs"]["w"]["change"]["3"]["correct"] is False
    assert result["end_to_end"]["w"]["setup_s"]["verdict"] == "within bound"
    assert result["claim"]["met"] is False


def test_no_pairs_or_unknown_claim_is_an_error(tmp_path):
    bench = make_results(tmp_path)
    assert bench_compare.main([str(tmp_path / "parent"), str(tmp_path / "nothing"),
                               "--benchmark", str(bench)]) == 1
    assert bench_compare.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                               "--benchmark", str(bench), "--claim", "w:wall_s"]) == 2
    assert bench_compare.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                               "--benchmark", str(bench), "--claim", "typo:setup_s"]) == 2


def write_traced(results, seed, metrics, revision="abc"):
    record = {
        "workload": "w", "seed": seed, "trace": 1, "error": None,
        "environment": {"python": "3", "git_revision": revision, "src_sha256": revision * 2},
        "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()},
        "operations": [], "checks": [],
    }
    (results / f"w-s{seed}-t1.json").write_text(json.dumps(record))


def test_traced_change_pairs_each_per_layer_metric(tmp_path):
    bench = make_results(tmp_path)
    write_traced(tmp_path / "parent", 1, {"stage.s": 0.8, "stage.calls": 40, "idle.s": 0.0,
                                          "gone.s": 1.0})
    write_traced(tmp_path / "change", 1, {"stage.s": 0.6, "stage.calls": 40, "idle.s": 0.0,
                                          "new.s": 2.0})
    write_traced(tmp_path / "parent", 2, {"stage.s": 0.9})  # traced on one side only
    result = run(tmp_path, bench)
    assert set(result["traced"]) == {"w-s1_parent", "w-s1_change", "w-s2_parent"}
    assert result["traced_change"] == {"w-s1": {
        "gone.s": {"parent": 1.0, "change": None, "ratio": None},
        "idle.s": {"parent": 0.0, "change": 0.0, "ratio": None},
        "new.s": {"parent": None, "change": 2.0, "ratio": None},
        "stage.calls": {"parent": 40, "change": 40, "ratio": 1.0},
        "stage.s": {"parent": 0.8, "change": 0.6, "ratio": 0.75},
    }}


def test_no_traced_records_no_traced_change(tmp_path):
    result = run(tmp_path, make_results(tmp_path))
    assert "traced" not in result and "traced_change" not in result


def test_environment_of_each_side(tmp_path):
    result = run(tmp_path, make_results(tmp_path))
    env = result["environment"]
    assert env["parent"]["git_revision"] == "abc" and env["parent"]["src_sha256"] == "abcabc"
    assert env["change"]["git_revision"] == "def" and env["change"]["src_sha256"] == "defdef"
    assert env["parent"]["python"] == env["change"]["python"] == "3"
    assert env["parent"]["mixed_revisions"] is False
    assert env["change"]["mixed_revisions"] is False


def test_mixed_revisions_on_one_side(tmp_path):
    bench = make_results(tmp_path)
    write_traced(tmp_path / "change", 1, {"stage.s": 0.6}, revision="fed")
    result = run(tmp_path, bench)
    assert result["environment"]["change"]["mixed_revisions"] is True
    assert result["environment"]["parent"]["mixed_revisions"] is False
    write_record(tmp_path / "parent", 7, side_values("parent", 7), revision="fed")
    assert run(tmp_path, bench)["environment"]["parent"]["mixed_revisions"] is True
