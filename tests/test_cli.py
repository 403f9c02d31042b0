import io
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from kahlergrad import cli
from kahlergrad.cli import dump_json

CLI = [sys.executable, "-m", "kahlergrad"]


def run(*args):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=600
    )


def test_weights_json_casimir_value():
    # oracle for c_2 at (2,1): sum rho^i (rho^i + m - 2i + 1)
    #   = 2*(2+2-2+1) + 1*(1+2-4+1) = 6 + 0 = 6
    out = run("weights", "2,1", "--json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["schema"] == "kahlergrad/v1"
    assert payload["m"] == 2 and payload["rho"] == [2, 1]
    c2 = [row for row in payload["casimir"] if row["q"] == 2][0]
    assert c2["plain"] == "6/1"


def test_weights_text_mode():
    out = run("weights", "1,0,0")
    assert out.returncode == 0
    assert "gamma" in out.stdout and "8/3" in out.stdout


def test_malformed_weight_exits_2():
    assert run("weights", "1,x").returncode == 2
    assert run("weights", "0,1").returncode == 2
    assert run("cpm", "1,0,0", "--i", "2").returncode == 2
    assert run("identity", "1,1", "--weitzenboeck").returncode == 2


def test_casimir_command():
    out = run("casimir", "1,0,0", "--q", "2", "--json")
    payload = json.loads(out.stdout)
    assert payload["values"][0] == {"q": 0, "plain": "3/1", "tilde": "3/1"}
    assert payload["values"][1]["tilde"] == "-1/1"


def test_identity_q1_values():
    out = run("identity", "1,0", "--q", "1", "--json")
    payload = json.loads(out.stdout)
    (ident,) = payload["identities"]
    assert [row["coeff"] for row in ident["minus"]] == ["2/1", "0/1"]
    assert [row["coeff"] for row in ident["plus"]] == ["-1/1", "1/1"]
    assert ident["curvature"] == [{"token": "R^1", "coeff": "1/1"}]


def test_contradictory_identity_flags_exit_2(capsys):
    for argv, message in ((["identity", "1,0", "--json", "--latex"],
                           "--json and --latex cannot be combined"),
                          (["identity", "1,0", "--weitzenboeck", "--q", "3"],
                           "--weitzenboeck takes no --q")):
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"error: {message}" in out.err
    # each flag on its own is still accepted
    assert cli.main(["identity", "1,0", "--latex"]) == 0
    assert cli.main(["identity", "1,0", "--weitzenboeck", "--json"]) == 0


def test_identity_latex_is_standalone():
    out = run("identity", "1,0", "--weitzenboeck", "--latex")
    assert out.returncode == 0
    doc = out.stdout
    assert doc.startswith("\\documentclass")
    assert doc.count("\\begin{equation}") == doc.count("\\end{equation}") == 1
    assert "\\end{document}" in doc
    assert "D_{-1}^{*}D_{-1}" in doc and "\\nabla^{*}\\nabla" in doc


def test_estimate_and_spinor_table():
    out = run("estimate", "3", "--json")
    payload = json.loads(out.stdout)
    assert payload["coefficient"] == "4/3" and payload["witness_p"] == 1

    out = run("spinor-table", "3", "--json")
    payload = json.loads(out.stdout)
    p1 = [b for b in payload["degrees"] if b["p"] == 1][0]
    rows = {r["map"]: r for r in p1["rows"]}
    assert rows["+1"]["w"] == -1 and rows["+1"]["gamma"] == "2/1"
    assert rows["+2"]["w"] == 1 and rows["+2"]["gamma"] == "1/1"
    assert rows["-3"]["w"] == 0 and rows["-3"]["gamma"] == "8/3"
    assert rows["-1"]["w"] == 3 and rows["-1"]["gamma"] == "1/3"


def test_cpm_command():
    out = run("cpm", "1,0", "--i", "1", "--r", "1", "--json")
    payload = json.loads(out.stdout)
    assert payload["eigenvalue"] == "3/4"


def test_verify_m1_trivial():
    out = run("verify", "--m", "1", "--bound", "1", "--q", "2", "--suite", "all")
    assert out.returncode == 0
    assert "TOTAL PASS" in out.stdout


def test_verify_unknown_suite_exits_2():
    assert run("verify", "--suite", "nonsense").returncode == 2


def test_casimir_negative_degree_exits_2():
    out = run("casimir", "1,0", "--q", "-3")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "--q must be >= 0" in out.stderr


def test_verify_reversed_m_range_exits_2():
    out = run("verify", "--m", "3-2")
    assert out.returncode == 2
    assert "--m range '3-2' is empty" in out.stderr
    assert "must be >= 1" not in out.stderr


def test_verify_jobs_below_one_exits_2(capsys):
    for jobs in ("0", "-3"):
        assert cli.main(["verify", "--suite", "weights", "--jobs", jobs]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"error: --jobs must be >= 1, got {jobs}" in out.err


def test_verify_negative_budget_exits_2(capsys):
    for budget in ("-1", "-5"):
        assert cli.main(["verify", "--suite", "envalg", "--budget", budget]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"error: --budget must be >= 0, got {budget}" in out.err
    # a zero budget is valid: every expansion is over it, so not applicable,
    # and a run that checked nothing is EMPTY and exits 1
    assert cli.main(["verify", "--suite", "envalg", "--m", "2", "--q", "1",
                     "--budget", "0"]) == 1
    out = capsys.readouterr().out
    assert "not applicable" in out
    assert "TOTAL EMPTY: 0 passed, 0 failed, 1 not applicable" in out
    assert cli.main(["verify", "--suite", "envalg", "--m", "2", "--q", "1",
                     "--budget", "0", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False and payload["summary"]["pass"] == 0


def test_verify_bad_budget_environment_exits_2(monkeypatch, capsys):
    # the environment variable is resolved once, before any task runs
    for value, message in (("junk", "KAHLERGRAD_BUDGET must be an integer, got 'junk'"),
                           ("-3", "KAHLERGRAD_BUDGET must be >= 0, got -3")):
        monkeypatch.setenv("KAHLERGRAD_BUDGET", value)
        assert cli.main(["verify", "--suite", "envalg", "--m", "2", "--q", "1"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"error: {message}" in out.err
    # a valid value still runs, and an explicit --budget wins over it
    monkeypatch.setenv("KAHLERGRAD_BUDGET", "1000")
    assert cli.main(["verify", "--suite", "envalg", "--m", "2", "--q", "1"]) == 0
    assert "TOTAL PASS" in capsys.readouterr().out
    monkeypatch.setenv("KAHLERGRAD_BUDGET", "-3")
    assert cli.main(["verify", "--suite", "envalg", "--m", "2", "--q", "1",
                     "--budget", "0"]) == 1
    assert "TOTAL EMPTY" in capsys.readouterr().out


def test_verify_jobs_parallel():
    out = run(
        "verify", "--m", "2", "--bound", "1", "--q", "1",
        "--suite", "clifford", "--jobs", "2",
    )
    assert out.returncode == 0


def test_verify_exit_code_on_failure(monkeypatch):
    # the suites verify true statements, so force a failing report to pin
    # the exit-code contract
    import kahlergrad.cli as cli
    from kahlergrad.report import VerificationReport

    def broken(m, bound, q_max, budget):
        rep = VerificationReport()
        rep.check("synthetic", {"m": m}, False, witness="forced failure")
        return rep

    monkeypatch.setitem(cli._TASK_FUNCS, "weights", broken)
    code = cli.main(["verify", "--m", "1", "--bound", "0", "--suite", "weights"])
    assert code == 1


def test_report_verdicts():
    from kahlergrad.report import VerificationReport

    rep = VerificationReport()
    assert rep.verdict == "EMPTY" and rep.to_json_dict()["passed"] is False
    rep.skip("skipped", {}, "component vanishes")
    assert rep.verdict == "EMPTY" and rep.summary().startswith("EMPTY: 0 passed")
    rep.check("checked", {}, True)
    assert rep.verdict == "PASS" and rep.to_json_dict()["passed"] is True
    rep.check("broken", {}, False, witness="forced failure")
    assert rep.verdict == "FAIL" and rep.to_json_dict()["passed"] is False


def test_verify_budget_exhaustion_is_not_applicable():
    out = run(
        "verify", "--m", "3", "--bound", "1", "--q", "3",
        "--suite", "envalg", "--budget", "1", "--json",
    )
    payload = json.loads(out.stdout)
    assert payload["summary"]["not-applicable"] >= 1
    assert payload["summary"]["fail"] == 0
    # nothing fits the budget, so nothing was checked: not a pass
    assert payload["summary"]["pass"] == 0
    assert payload["passed"] is False and out.returncode == 1


@pytest.mark.parametrize(
    "args",
    [
        ("weights", "1,0", "--json"),
        ("casimir", "2,1", "--json"),
        ("identity", "1,0", "--q", "2", "--json"),
        ("identity", "2,1,0", "--weitzenboeck", "--json"),
        ("estimate", "4", "--json"),
        ("spinor-table", "2", "--json"),
        ("cpm", "1,0", "--i", "1", "--json"),
        ("verify", "--m", "1", "--bound", "1", "--suite", "weights", "--json"),
    ],
)
def test_json_round_trip_byte_identical(args):
    out = run(*args)
    assert out.returncode == 0
    rendered = io.StringIO()
    dump_json(json.loads(out.stdout), rendered)
    assert rendered.getvalue() == out.stdout


def test_dimension_budget_task_is_not_applicable():
    task = ("gtrep", (20, 0, -20), 0, 0, None)
    got, rep = cli._run_task(task)
    assert got == task
    assert rep.counts() == {"pass": 0, "fail": 0, "not-applicable": 1}
    assert "dimension 9261 exceeds budget" in rep.items[0].witness


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failing_task_does_not_abort_the_batch(monkeypatch, capsys, jobs):
    if jobs != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers inherit the patched task only when forked")
    real = cli._TASK_FUNCS["gtrep"]

    def flaky(rho, bound, q_max, budget):
        if tuple(rho) == (1, 0):
            raise RuntimeError("boom")
        return real(rho, bound, q_max, budget)

    monkeypatch.setitem(cli._TASK_FUNCS, "gtrep", flaky)
    code = cli.main(["verify", "--suite", "gtrep", "--m", "2", "--bound", "1",
                     "--q", "1", "--jobs", jobs, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    failed = [it for it in payload["items"] if it["status"] == "fail"]
    assert failed == [{"tag": "gtrep", "params": {"arg": "(1, 0)"},
                       "status": "fail", "witness": "RuntimeError: boom"}]
    others = {it["params"]["rho"] for it in payload["items"] if it["status"] == "pass"}
    assert len(others) == 5 and "(1,0)" not in others


def test_dead_worker_fails_only_its_task(monkeypatch, capsys):
    # a worker that dies breaks the pool; each task still without a result
    # reruns alone, and the one whose worker dies again is one failed item
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers inherit the patched task only when forked")
    real = cli._TASK_FUNCS["gtrep"]

    def dying(rho, bound, q_max, budget):
        if tuple(rho) == (1, 0):
            os._exit(3)
        return real(rho, bound, q_max, budget)

    monkeypatch.setitem(cli._TASK_FUNCS, "gtrep", dying)
    code = cli.main(["verify", "--suite", "gtrep", "--m", "2", "--bound", "1",
                     "--q", "1", "--jobs", "2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["passed"] is False
    failed = [it for it in payload["items"] if it["status"] == "fail"]
    assert [(it["tag"], it["params"]) for it in failed] == [("gtrep", {"arg": "(1, 0)"})]
    assert failed[0]["witness"].startswith("worker process died")
    others = {it["params"]["rho"] for it in payload["items"] if it["status"] == "pass"}
    assert len(others) == 5 and "(1,0)" not in others


@pytest.mark.parametrize("perturb, broken", [
    (lambda gamma: [2 * gamma[0]] + gamma[1:], "gamma-sum"),
    (lambda gamma: gamma[::-1], "gamma-vanishing"),
], ids=["doubled", "reversed"])
def test_weights_theorems_fail_item_by_item(monkeypatch, capsys, perturb, broken):
    # conformal_table does not check its gamma theorems; the weights suite
    # reports each as its own item, so a wrong gamma fails named items and
    # the other theorem and the dimension count still pass
    from kahlergrad import weights

    real = weights._gamma
    monkeypatch.setattr(weights, "_gamma", lambda w: perturb(real(w)))
    code = cli.main(["verify", "--suite", "weights", "--m", "2", "--bound", "1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    status = {}
    for it in payload["items"]:
        status.setdefault(it["tag"], set()).add(it["status"])
    assert status[broken] == {"pass", "fail"}
    intact = "gamma-vanishing" if broken == "gamma-sum" else "gamma-sum"
    assert status[intact] == status["dimension-count"] == {"pass"}
    failed = [it for it in payload["items"] if it["tag"] == broken and it["status"] == "fail"]
    assert all(it["witness"] for it in failed)
    if broken == "gamma-sum":
        # (1,1) sign +: w = (-1, 0), gamma (2, 0), doubled gamma_{+1} makes 4
        assert {"tag": "gamma-sum", "params": {"rho": "(1,1)", "sign": "+"}, "status": "fail",
                "witness": "sum 4, expected 2"} in failed
    else:
        # reversed, gamma (0, 2) vanishes at the valid shift (2,1), not at (1,2)
        assert {"tag": "gamma-vanishing", "params": {"rho": "(1,1)", "sign": "+"},
                "status": "fail",
                "witness": "gamma ['0', '2'], valid [True, False]"} in failed
