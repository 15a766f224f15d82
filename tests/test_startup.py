"""Start-up: what a fresh process imports for each command.

Each case launches a new interpreter, so the modules an earlier test
imported do not count.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
HEAVY = ("gearsieve.engine", "gearsieve.correlation", "gearsieve.fourier")

# Runs `gearsieve <argv>` as the console script does and prints its exit
# code and the gearsieve modules the process loaded.
_RUN_COMMAND = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from gearsieve import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("gearsieve"))]))
"""

_IMPORT_PACKAGE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import gearsieve
loaded = sorted(m for m in sys.modules if m.startswith("gearsieve"))
listed = dir(gearsieve)
unlisted = [name for name in gearsieve.__all__ if name not in listed]
unresolved = [name for name in gearsieve.__all__ if getattr(gearsieve, name, None) is None]
print(json.dumps([loaded, unlisted, unresolved, hasattr(gearsieve, "no_such_name")]))
"""


def _launch(code: str, *argv: str, cwd: Path):
    done = subprocess.run([sys.executable, "-c", code, SRC, *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["prime", "97"], HEAVY),
        (["seed", "100"], HEAVY),
        (["admissible", "0,2,6"], HEAVY),
        (["scan", "--m0", "45"], HEAVY[1:]),
        (["table1", "--m0-list", "30", "--out", "out"], HEAVY[1:]),
    ],
)
def test_a_command_loads_only_the_layers_it_runs(tmp_path, argv, absent):
    code, loaded = _launch(_RUN_COMMAND, *argv, cwd=tmp_path)
    assert code == 0
    assert "gearsieve.cli" in loaded
    assert [name for name in absent if name in loaded] == []


def test_the_package_resolves_every_public_name_on_first_access(tmp_path):
    loaded, unlisted, unresolved, has_unknown = _launch(_IMPORT_PACKAGE, cwd=tmp_path)
    # importing the package loads none of its modules
    assert loaded == ["gearsieve"]
    assert unlisted == [] and unresolved == []
    assert has_unknown is False
