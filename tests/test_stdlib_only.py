"""The runtime uses only the standard library: importing every spincert
module in a fresh interpreter loads no third-party package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import spincert

_CHILD = """
import importlib, json, pkgutil, sys
startup = {name.split(".")[0] for name in sys.modules}
import spincert
for info in pkgutil.walk_packages(spincert.__path__, "spincert."):
    importlib.import_module(info.name)
loaded = {name.split(".")[0] for name in sys.modules}
print(json.dumps({"startup": sorted(startup), "loaded": sorted(loaded)}))
"""


def test_every_module_imports_only_the_standard_library():
    src = str(Path(spincert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    names = json.loads(out.stdout)
    # what the interpreter loaded before spincert (site hooks, __main__)
    # is not spincert's doing
    added = set(names["loaded"]) - set(names["startup"])
    assert "spincert" in added
    foreign = sorted(
        n for n in added if n != "spincert" and n not in sys.stdlib_module_names
    )
    assert foreign == []
