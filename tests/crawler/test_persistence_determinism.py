"""Saved datasets and figure CSVs are byte-identical across processes.

String hashing is salted per process (``PYTHONHASHSEED``), so set
iteration order differs between two runs of the same seed, and a
wall-clock stamp differs between any two runs. The report gate
(``tools/check_report_determinism.py``) hashes the report JSON; this
test covers the files a run writes: the dataset in both stores and
every figure CSV.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Runs in a fresh interpreter: crawl one scenario, write every artifact.
WRITER = """
import sys

from repro.core.export import export_figures
from repro.crawler import save_dataset
from repro.oracle import EthUsdOracle
from repro.simulation import ScenarioConfig, run_scenario

out = sys.argv[1]
dataset, _ = run_scenario(ScenarioConfig(n_domains=120, seed=5)).run_crawl()
for store in ("object", "columnar"):
    save_dataset(dataset, f"{out}/{store}", store=store)
export_figures(dataset, EthUsdOracle(), f"{out}/figures")
"""


def _written_files(out: Path, hash_seed: str) -> dict[str, bytes]:
    """Run the writer under ``PYTHONHASHSEED=hash_seed``; relative path -> bytes."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", WRITER, str(out)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_saved_files_are_byte_identical_across_processes(tmp_path) -> None:
    first = _written_files(tmp_path / "a", "1")
    second = _written_files(tmp_path / "b", "2")
    assert sorted(first) == sorted(second)
    for store in ("object", "columnar"):
        assert f"{store}/meta.json" in first
    assert "columnar/dataset.rcol" in first
    assert any(name.startswith("figures/") for name in first)
    assert [name for name in first if first[name] != second[name]] == []
