"""tools/bench_pairs.py: its statistics on fixed numbers and its tree exports."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_of_fixed_pairs():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 3.5, 3.0, 4.0]
    lower = bench_pairs.summarize(parent, change, "lower")
    assert lower["parent_runs"] == parent and lower["change_runs"] == change
    assert lower["parent_median"] == 3.0 and lower["change_median"] == 3.0
    # inclusive quartiles: the sorted values' 1/4 and 3/4 points, interpolated
    assert lower["parent_quartiles"] == [2.0, 4.0]
    assert lower["change_quartiles"] == [2.0, 3.5]
    # pair 2 is a tie and counts for neither side
    assert lower["change_better_pairs"] == 3
    assert bench_pairs.summarize(parent, change, "higher")["change_better_pairs"] == 1

    even = bench_pairs.summarize([4.0, 1.0, 3.0, 2.0], [1.0, 1.0, 1.0, 1.0], "lower")
    assert even["parent_median"] == 2.5
    assert even["parent_quartiles"] == pytest.approx([1.75, 3.25])
    assert even["change_better_pairs"] == 3



def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        cwd=repo, capture_output=True, check=True,
    )


def test_export_of_the_working_tree(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / ".gitignore").write_text("_work/\n")
    (repo / "kept.txt").write_text("committed\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "first")
    (repo / "kept.txt").write_text("modified\n")
    (repo / "new.txt").write_text("untracked\n")
    (repo / "_work").mkdir()
    (repo / "_work" / "out.json").write_text("{}\n")
    index = (repo / ".git" / "index").read_bytes()

    tree = tmp_path / "change"
    tree.mkdir()
    bench_pairs.export(repo, tree)
    assert sorted(p.name for p in tree.iterdir()) == [".gitignore", "kept.txt", "new.txt"]
    assert (tree / "kept.txt").read_text() == "modified\n"
    assert (tree / "new.txt").read_text() == "untracked\n"
    # the repository's own index stays as it was: new.txt is still untracked
    assert (repo / ".git" / "index").read_bytes() == index

    head = tmp_path / "parent"
    head.mkdir()
    bench_pairs.export(repo, head, "HEAD")
    assert sorted(p.name for p in head.iterdir()) == [".gitignore", "kept.txt"]
    assert (head / "kept.txt").read_text() == "committed\n"
