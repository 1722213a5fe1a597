"""`job_digests.py --diff`: the places where two checkouts' lines differ."""

import job_digests

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
