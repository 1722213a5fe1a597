"""`job_digests.py --diff`: the places where two checkouts' lines differ,
and the bit-identity gate against the committed `job_digests.txt`."""

import os
import subprocess
import sys
from pathlib import Path

import job_digests

HERE = Path(__file__).resolve().parent

PARENT = ["7 quadrature aa integrate_K_dA x", "7 queries bb euler_report y", "7 combined cc"]


def test_differences_name_each_changed_place():
    changed = [PARENT[0], "7 queries bd euler_report y", "7 combined cd"]
    assert job_digests.differences(PARENT, PARENT) == []
    assert job_digests.differences(PARENT, changed) == [
        "- 7 queries bb euler_report y", "+ 7 queries bd euler_report y",
        "- 7 combined cc", "+ 7 combined cd",
    ]
    assert job_digests.differences(PARENT[:2], PARENT) == ["+ 7 combined cc"]


def test_diff_exit_status(monkeypatch, tmp_path, capsys):
    parent = tmp_path / "parent.txt"
    parent.write_text("\n".join(PARENT) + "\n")
    asked = []
    monkeypatch.setattr(job_digests, "seed_lines", lambda seeds: asked.append(seeds) or PARENT)
    assert job_digests.main(["--diff", str(parent)]) == 0
    assert asked == [[7]]
    assert capsys.readouterr().out == f"equal: 3 lines of {parent}\n"
    monkeypatch.setattr(job_digests, "seed_lines", lambda seeds: PARENT[:2] + ["7 combined cd"])
    assert job_digests.main(["--diff", str(parent)]) == 1
    assert capsys.readouterr().out.splitlines()[:2] == ["- 7 combined cc", "+ 7 combined cd"]
    # the library section names no seed
    parent.write_text("\n".join(PARENT + ["library dd kappa_s_measure z"]) + "\n")
    monkeypatch.setattr(job_digests, "seed_lines", lambda seeds: asked.append(seeds) or PARENT)
    assert job_digests.main(["--diff", str(parent)]) == 1
    assert asked[-1] == [7]


def test_every_job_output_keeps_its_committed_bits():
    """Every benchmark job's output at seeds 7 and 12345, and every output of
    the library section, has the digest that `job_digests.txt` records.  A change that moves a number on purpose
    regenerates the file (`PYTHONPATH=src python tests/job_digests.py >
    tests/job_digests.txt`) and says so.  The run is a fresh interpreter,
    so no state of this test session reaches the jobs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(HERE.parent / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-B", str(HERE / "job_digests.py"), "--diff",
         str(HERE / "job_digests.txt")],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
