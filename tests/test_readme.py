"""The README's Python examples run against the library as it is."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for code in blocks:
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, f"{code}\n{proc.stderr}"
