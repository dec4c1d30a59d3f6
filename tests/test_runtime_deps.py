"""numpy is the only runtime dependency.

scipy, mpmath and hypothesis serve the tests alone, so importing the
package and its CLI in a fresh interpreter loads none of them, nor pytest.
This also keeps each out of the benchmark's measured import time.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
TEST_ONLY = ("scipy", "mpmath", "hypothesis", "pytest")


def test_import_loads_no_test_only_package():
    probe = ("import json, sys\n"
             "import channelsim, channelsim.cli\n"
             "print(json.dumps(sorted({name.partition('.')[0]"
             " for name in sys.modules})))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    assert "channelsim" in loaded
    assert loaded.isdisjoint(TEST_ONLY)
