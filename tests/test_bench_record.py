"""tools/bench_record.py on canned output and on two small BENCH fixtures;
no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "bench_fixtures"

_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


TITLES = ("A = ", "seed-matched ratios B/A", "claim rule: ", "per-kind median ms per job")


def all_tables(capsys, a, b):
    """The exit code of --compare, then each of its four tables, after
    their header lines, as {(workload, metric or kind): the rest of the row}."""
    code = bench_record.main(["--compare", str(FIXTURES / a), str(FIXTURES / b)])
    texts = capsys.readouterr().out.split("\n\n")
    assert [text.startswith(title) for text, title in zip(texts, TITLES)] == [True] * 4
    tables = []
    for text in texts:
        rows = {}
        for line in text.splitlines()[2:]:
            workload, metric, rest = line.split(None, 2)
            rows[workload, metric] = rest
        tables.append(rows)
    return code, *tables


def compare_tables(capsys, a, b):
    """The exit code of --compare, then its medians and its seed-matched ratios."""
    code, medians, paired, _, _ = all_tables(capsys, a, b)
    return code, medians, paired


def compare(capsys, a, b):
    code, rows, _ = compare_tables(capsys, a, b)
    return code, rows


def test_compare_flags_only_metrics_past_their_bound(capsys):
    # after/before: setup_s +14% (bound 25%), peak_rss_mb +12.5% (bound 10%)
    code, rows = compare(capsys, "BENCH_before.json", "BENCH_after.json")
    assert code == 1
    flagged = {metric for (_, metric), rest in rows.items() if "PAST BOUND" in rest}
    assert flagged == {"peak_rss_mb"}
    assert rows["search", "peak_rss_mb"].endswith(
        "1.125  wins 0/3  passes 100 -> 140  PAST BOUND 10%")
    assert rows["search", "jobs_per_s"].split() == [
        "3500", "(70)", "5000", "(1e+02)", "1.429", "wins", "3/3"]
    assert rows["search", "setup_s"].endswith("1.143  wins 0/3")


def test_compare_direction_follows_better(capsys):
    # the other way round, the three timings worsen past 20% and RSS improves
    code, rows = compare(capsys, "BENCH_after.json", "BENCH_before.json")
    assert code == 1
    flagged = {metric for (_, metric), rest in rows.items() if "PAST BOUND" in rest}
    assert flagged == {"jobs_per_s", "job_ms_p50", "job_ms_tail"}
    assert "passes 140 -> 100" in rows["search", "peak_rss_mb"]


def test_compare_with_itself_passes(capsys):
    code, rows = compare(capsys, "BENCH_after.json", "BENCH_after.json")
    assert code == 0
    assert all(rest.split()[4] == "1.000" for rest in rows.values())
    # every pair ties, and a tie counts for neither
    assert all(rest.split()[5:7] == ["wins", "0/3"] for rest in rows.values())


def test_compare_prints_the_spread_of_seed_matched_ratios(capsys):
    # jobs_per_s B/A by seed: 5100/3430, 5000/3500, 4900/3570; quartiles
    # by the inclusive method, as ``summary`` takes them
    _, rows, ratios = compare_tables(capsys, "BENCH_before.json", "BENCH_after.json")
    assert ratios.keys() == rows.keys()
    assert ratios["search", "jobs_per_s"].split() == [
        "1.401", "1.429", "1.458", "1.373", "1.487", "3"]
    assert ratios["search", "job_ms_p50"].split() == ["0.560"] * 5 + ["3"]
    _, _, ratios = compare_tables(capsys, "BENCH_after.json", "BENCH_after.json")
    assert all(rest.split() == ["1.000"] * 5 + ["3"] for rest in ratios.values())


def test_ratio_spread_of_one_pair_and_of_none():
    assert bench_record.ratio_spread([(2.0, 3.0)]).split() == ["1.500"] * 5 + ["1"]
    assert bench_record.ratio_spread([]) == "no seed-matched pairs"


def test_fixture_summaries_are_those_of_their_raw_runs():
    for name in ("BENCH_before.json", "BENCH_after.json"):
        workload = json.loads((FIXTURES / name).read_text())["workloads"]["search"]
        raw = workload["raw"]
        assert [r["seed"] for r in raw] == [1, 2, 3]
        assert workload["passes"] == bench_record.summary([r["passes"] for r in raw])
        for metric, summary in workload["metrics"].items():
            assert summary == bench_record.summary([r["metrics"][metric] for r in raw])


def test_compare_counts_wins_over_seed_matched_pairs(tmp_path, capsys):
    mixed = json.loads((FIXTURES / "BENCH_before.json").read_text())
    raw = mixed["workloads"]["search"]["raw"]
    # seed 1 faster, seed 2 a tie, seed 3 slower; listed out of seed order
    for run, jobs_per_s, p50 in zip(raw, (3431.0, 3500.0, 3569.0), (0.244, 0.25, 0.256)):
        run["metrics"].update(jobs_per_s=jobs_per_s, job_ms_p50=p50)
    raw.reverse()
    path = tmp_path / "BENCH_mixed.json"
    path.write_text(json.dumps(mixed))
    code, rows = compare(capsys, "BENCH_before.json", path)
    assert code == 0
    assert rows["search", "jobs_per_s"].endswith("wins 1/3")
    assert rows["search", "job_ms_p50"].endswith("wins 1/3")
    assert rows["search", "setup_s"].endswith("wins 0/3")
    # only seeds both files ran are paired: drop seed 3
    del raw[0]
    path.write_text(json.dumps(mixed))
    _, rows = compare(capsys, "BENCH_before.json", path)
    assert rows["search", "jobs_per_s"].endswith("wins 1/2")


def test_parse_run_and_summary():
    head = (
        "workload search seed 3: 152 jobs x 241 passes\n"
        "job_ms_tail is p93.42 of 152 per-job medians (10 jobs beyond it; 36632 samples)\n"
        "fail_ratio 0.000000 (0 of 36632 jobs failed, 0 with a wrong result)\n"
    )
    # run.py pads a kind to 32 characters; a longer one keeps one space
    kinds = (
        "job kind shares of the summed per-job median time:\n"
        "  bungo                                10 jobs   10.5%  median 0.3012 ms/job\n"
        "  config_search.a_kind_name_past_32_characters     42 jobs   89.5%  median 12.5000 ms/job\n"
    )
    last = ('{"correct": true, "attempted": 36632, "failed": 0, "metrics": '
            '{"jobs_per_s": {"value": 4900.5, "unit": "1/s"}}}\n')
    run = bench_record.parse_run(head + kinds + last)
    assert run == {"passes": 241, "correct": True, "failed": 0, "attempted": 36632,
                   "metrics": {"jobs_per_s": 4900.5},
                   "kinds": {"bungo": [10, 10.5, 0.3012],
                             "config_search.a_kind_name_past_32_characters": [42, 89.5, 12.5]}}
    assert bench_record.parse_run(head + last)["kinds"] == {}
    assert bench_record.summary([5.0, 1.0, 3.0, 2.0, 4.0]) == {"median": 3.0, "iqr": 2.0, "runs": 5}
    assert bench_record.summary([7.0]) == {"median": 7.0, "iqr": 0.0, "runs": 1}


def _with_failures(tmp_path, name, **search):
    """BENCH_after.json with the search workload's counts replaced, as a file."""
    bench = json.loads((FIXTURES / "BENCH_after.json").read_text())
    bench["workloads"]["search"].update(search)
    path = tmp_path / name
    path.write_text(json.dumps(bench))
    return str(path)


def test_compare_flags_new_failures(tmp_path, capsys):
    failing = _with_failures(tmp_path, "BENCH_failing.json", correct=False, failed=3)
    code = bench_record.main(["--compare", str(FIXTURES / "BENCH_after.json"), failing])
    assert code == 1
    assert "search     FAILURES: A 0 of 30000, B 3 of 30000" in capsys.readouterr().out
    # the share of failed jobs counts, not their number: a faster B attempts more
    a = _with_failures(tmp_path, "BENCH_a.json", failed=3)
    more_jobs = _with_failures(tmp_path, "BENCH_b.json", failed=4, attempted=60000)
    assert bench_record.main(["--compare", a, more_jobs]) == 0
    assert "FAILURES" not in capsys.readouterr().out
    fewer_jobs = _with_failures(tmp_path, "BENCH_c.json", failed=3, attempted=10000)
    assert bench_record.main(["--compare", a, fewer_jobs]) == 1
    assert "search     FAILURES: A 3 of 30000, B 3 of 10000" in capsys.readouterr().out


def test_record_refuses_a_checkout_with_bytecode_under_src(tmp_path, capsys, monkeypatch):
    # a cached checkout skips the compiles that a fresh one pays, so it is
    # refused before any checkout runs, even when listed after a clean one
    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_record, "run_once", no_run)
    clean, cached = tmp_path / "clean", tmp_path / "cached"
    (clean / "src" / "stci").mkdir(parents=True)
    cache = cached / "src" / "stci" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "theorems.cpython-311.pyc").write_bytes(b"")
    code = bench_record.main([f"parent={clean}", f"change={cached}"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {cache}: ") and err.count("\n") == 1
    assert bench_record.bytecode_cache(str(clean)) is None


def test_compare_states_the_claim_rule_per_metric(tmp_path, capsys):
    # three of three pairs won and a median gap past A's IQR: met; setup_s
    # and peak_rss_mb lose every pair
    _, _, _, claims, _ = all_tables(capsys, "BENCH_before.json", "BENCH_after.json")
    assert claims["search", "jobs_per_s"].split() == ["3/3", "1500", "70", "met"]
    assert claims["search", "job_ms_p50"].split() == ["3/3", "-0.11", "0.005", "met"]
    assert claims["search", "setup_s"].split() == ["0/3", "0.005", "0.0007", "not", "met"]
    _, _, _, claims, _ = all_tables(capsys, "BENCH_after.json", "BENCH_after.json")
    assert all(rest.endswith("not met") for rest in claims.values())
    # every pair won, but the gap stays within A's IQR: not met
    path = _with_jobs_per_s(tmp_path, (3490.0, 3560.0, 3630.0))
    _, _, _, claims, _ = all_tables(capsys, "BENCH_before.json", path)
    assert claims["search", "jobs_per_s"].split() == ["3/3", "60", "70", "not", "met"]
    # nine tenths of three pairs is all three: two wins are not enough
    path = _with_jobs_per_s(tmp_path, (3000.0, 4500.0, 4570.0))
    _, _, _, claims, _ = all_tables(capsys, "BENCH_before.json", path)
    assert claims["search", "jobs_per_s"].split() == ["2/3", "1000", "70", "not", "met"]


def _with_jobs_per_s(tmp_path, values):
    """BENCH_before.json with the search runs' jobs_per_s of seeds 1-3 set
    to values and the summary taken again, as a file."""
    bench = json.loads((FIXTURES / "BENCH_before.json").read_text())
    workload = bench["workloads"]["search"]
    for run, value in zip(workload["raw"], values):
        run["metrics"]["jobs_per_s"] = value
    workload["metrics"]["jobs_per_s"] = bench_record.summary(list(values))
    path = tmp_path / "BENCH_changed.json"
    path.write_text(json.dumps(bench))
    return path


def test_compare_prints_per_kind_medians(tmp_path, capsys):
    # medians over the runs that ran each kind; wins over the seeds both ran
    # it (bungo: seed 2 only), lower being better
    _, _, _, _, kinds = all_tables(capsys, "BENCH_before.json", "BENCH_after.json")
    assert kinds == {
        ("search", "bungo"): "0.305      0.315   1.033  wins 1/1",
        ("search", "config_search"): "0.3       0.15   0.500  wins 3/3",
        ("search", "enumerate"): "0.1        0.1   1.000  wins 0/3",
    }
    # a file recorded before runs kept their kinds has no per-kind rows
    old = json.loads((FIXTURES / "BENCH_before.json").read_text())
    for run in old["workloads"]["search"]["raw"]:
        del run["kinds"]
    path = tmp_path / "BENCH_old.json"
    path.write_text(json.dumps(old))
    code, _, _, _, kinds = all_tables(capsys, path, "BENCH_after.json")
    assert (code, kinds) == (1, {})

