"""scripts/bench_compare.py: the wall-time gate and its skip report."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def write_set(root: Path, **walls) -> Path:
    root.mkdir()
    for name, wall in walls.items():
        (root / f"BENCH_{name}.json").write_text(
            json.dumps({"name": name, "wall_time_s": wall})
        )
    return root


@pytest.fixture
def artifacts(tmp_path):
    return write_set(tmp_path / "a", test_noc_validation=1.0)


class TestSameArtifacts:
    def test_reports_the_gate_as_not_run(self, artifacts, capsys):
        assert bench_compare.main([str(artifacts), str(artifacts)]) == 0
        out = capsys.readouterr().out
        assert "wall-time gate not run" in out
        assert "no wall-time regressions" not in out

    def test_file_and_its_directory_are_the_same_artifacts(self, artifacts, capsys):
        file = artifacts / "BENCH_test_noc_validation.json"
        assert bench_compare.main([str(artifacts), str(file)]) == 0
        assert "wall-time gate not run" in capsys.readouterr().out

    def test_still_enforces_require(self, artifacts, capsys):
        argv = [str(artifacts), str(artifacts), "--require", "test_numa"]
        assert bench_compare.main(argv) == 1
        assert "required benchmark missing" in capsys.readouterr().err
        argv[-1] = "test_noc"
        assert bench_compare.main(argv) == 0


class TestDistinctArtifacts:
    def test_passes_within_threshold(self, artifacts, tmp_path, capsys):
        cand = write_set(tmp_path / "b", test_noc_validation=1.1)
        assert bench_compare.main([str(artifacts), str(cand)]) == 0
        assert "no wall-time regressions beyond 20%" in capsys.readouterr().out

    def test_fails_on_regression(self, artifacts, tmp_path, capsys):
        cand = write_set(tmp_path / "b", test_noc_validation=1.5)
        assert bench_compare.main([str(artifacts), str(cand)]) == 1
        assert "REGRESSION" in capsys.readouterr().out
