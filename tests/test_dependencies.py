"""numpy is frontlab's only runtime dependency: a fresh interpreter that
imports frontlab and runs one function of each layer imports no other
module outside the standard library."""

import json
import os
import subprocess
import sys
from pathlib import Path

import frontlab

# Everything before `import sys` is the interpreter's own start-up (site
# hooks may import third-party modules there), so it is the baseline.
CODE = """\
import sys
before = set(sys.modules)
import json
import frontlab
from frontlab import gallery
swallowtail = gallery("standard_swallowtail")
frontlab.eval_jet(frontlab.parse("(u, v, sin(u*v))"), 0.1, 0.2, 2)  # expr
frontlab.lambda_value(swallowtail, 0.1, 0.2)  # front
curves = frontlab.trace(swallowtail, grid=32)  # singular
frontlab.integrate_kappa_s(swallowtail, curves)  # gaussbonnet
frontlab.zigzag_plane(frontlab.plane_gallery(frontlab.plane_gallery_names()[0]))  # zigzag
new = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(new - set(sys.stdlib_module_names))))
"""


def test_numpy_is_the_only_runtime_dependency():
    env = {**os.environ, "PYTHONPATH": str(Path(frontlab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", CODE], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert json.loads(done.stdout.splitlines()[-1]) == ["frontlab", "numpy"]
