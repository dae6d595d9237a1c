"""Every ``python`` block of README.md runs as written, and its chain model loads as it says."""

import re
from pathlib import Path

import numpy as np
import pytest

from tcbsde.io import load_chain_model

README = Path(__file__).resolve().parents[1] / "README.md"
CHAIN_INI = re.search(r"^```ini\n(\[chain\]\n.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_readme_chain_model_reads_its_profiles(tmp_path):
    # constant 1.0, linear 0.5 0.1 and polynomial 1.0 1.0, at t = 2
    path = tmp_path / "chain.ini"
    path.write_text(CHAIN_INI.group(1))
    cfg = load_chain_model(path)
    assert cfg.state_names == ["src", "relay", "dst"] and cfg.hitting_set == frozenset({2})
    relay = 0.5 + 0.1 * 2.0
    A = np.array([[-1.0, 0.0, 0.0], [1.0, -relay, 0.0], [0.0, relay, 0.0]])
    assert cfg.model.rates(2.0).tobytes() == A.tobytes()
    assert cfg.loss_rate(2.0, 1) == 3.0 and cfg.loss_rate(2.0, 0) == 0.0 == cfg.loss_rate(2.0, 2)
    assert cfg.loss_rate(np.full(3, 2.0), np.arange(3)).tolist() == [0.0, 3.0, 0.0]
