"""The package's public names, and what importing it loads: the names are
resolved on first use, so `mirrorboost check` runs without numpy. The
README's Library example runs as written, and the README lists the public
names."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mirrorboost
from mirrorboost.cli import EXIT_OK, main


def test_every_public_name_resolves_and_star_import_binds_them_all():
    namespace = {}
    exec("from mirrorboost import *", namespace)
    assert set(mirrorboost.__all__) <= set(namespace)
    assert set(mirrorboost.__all__) <= set(dir(mirrorboost))
    for name in mirrorboost.__all__:
        value = getattr(mirrorboost, name)
        assert namespace[name] is value
        # the object its defining module holds under its own name
        assert getattr(sys.modules[value.__module__], value.__name__) is value
        assert value.__name__ == name or (name, value.__name__) == ("run_mirror_descent", "run")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mirrorboost.no_such_name


# runs `python -m mirrorboost check TRACE` in this interpreter, then reports
# its exit code and whether numpy was imported
_CHECK_THEN_REPORT_IMPORTS = """\
import runpy, sys
sys.argv = ["mirrorboost", "check", sys.argv[1]]
try:
    runpy.run_module("mirrorboost", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print("exit", exc.code, "numpy" in sys.modules)
"""


def test_check_never_imports_numpy(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "minmax-game", "--data", "synthetic:game:seed=3:m=20:n=15",
                 "--schedule", "dynamic", "--iters", "20", "--out", str(out),
                 "--prefix", "g"]) == EXIT_OK
    src = str(Path(mirrorboost.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _CHECK_THEN_REPORT_IMPORTS,
                           str(out / "g.trace.jsonl")],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "summary: " in proc.stdout
    assert proc.stdout.splitlines()[-1] == f"exit {EXIT_OK} False"


def test_the_readmes_library_example_runs():
    readme = Path(__file__).parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, str(readme), "exec"), {})
    surface = section.split("public surface is these ", 1)[1].split(". A trace", 1)[0]
    count, names = surface.split(" names", 1)
    assert int(count) == len(mirrorboost.__all__) == 18
    assert re.findall(r"`(\w+)`", names) == mirrorboost.__all__
