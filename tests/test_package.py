import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ("accel", "bench", "core", "kronops", "nuclear", "sensing",
           "symmetric")


def test_root_binds_only_its_modules():
    # each name is imported from its module; the import runs in a fresh
    # interpreter, as other tests here import rsvm.cli, which binds "cli"
    probe = ("import rsvm; print(*sorted(f'{k}:{type(v).__name__}' "
             "for k, v in vars(rsvm).items() if not k.startswith('_')))")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [f"{name}:module" for name in MODULES]
