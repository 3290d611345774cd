"""The benchmark's program run (benchmark/child.py) on a small config.

child.py measures the package from outside: it wraps names where the
package looks them up, so a renamed or bypassed name would silently drop
out of its spans or checks.  These runs read benchmark/ and never edit it.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from empbench import cli, corrections, estimators, harness
from empbench.harness import load_config

REPO = Path(__file__).resolve().parent.parent
CHILD = REPO / "benchmark" / "child.py"
SRC = REPO / "src" / "empbench"
CONFIG = REPO / "tests" / "data" / "benchmark_small.cfg"


def run_child(tmp_path, *flags):
    """child.py's closing JSON line for one run of CONFIG at master seed 3."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, str(CHILD), str(CONFIG), "--seed", "3",
                           "--out", str(tmp_path / "out"), *flags],
                          cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 0
    return result


@pytest.mark.parametrize("flags", [("--check-solver", "1"), ("--trace", "1")])
def test_every_check_passes(tmp_path, flags):
    result = run_child(tmp_path, *flags)
    assert all(check["ok"] for check in result["checks"].values()), result["checks"]
    if "--check-solver" in flags:
        solver = result["checks"]["solver"]
        assert solver["records_match"] and solver["solves"] > 0
        assert solver["failed_solves"] == 0
    else:
        cfg = load_config(CONFIG)
        steps = sum(n * h for n in cfg.num_trajectories for h in cfg.horizons) * cfg.seeds
        assert result["layers"]["mdp.sample_steps"] == steps


def traced_names():
    """child.py's ``_traced_names`` for this package's modules."""
    spec = importlib.util.spec_from_file_location("benchmark_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child._traced_names(harness, estimators, corrections, cli)


def unused_imports(path):
    """The names that the module at ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_traced_names_resolve():
    names = traced_names()
    names += [(harness, attr, None) for attr in ("_run_cell", "_cell_context",
                                                 "sample_trajectories", "run_method")]
    names.append((corrections, "solve_normalized_quadratic", None))
    missing = [(namespace.__name__, attr) for namespace, attr, _ in names
               if not hasattr(namespace, attr)]
    assert not missing


def test_every_import_is_read_or_traced():
    # a name a module imports only so that child.py can wrap it there is
    # allowed; any other unread import is dead code
    wrapped = {(namespace.__name__, attr) for namespace, attr, _ in traced_names()}
    unused = {(f"empbench.{path.stem}", name) for path in SRC.glob("*.py")
              if path.stem != "__init__" for name in unused_imports(path)}
    assert unused <= wrapped, sorted(unused - wrapped)
