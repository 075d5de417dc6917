"""The import graph: the particle scenarios, the reference sampler and the
``jacobian`` scenario load no scipy at all, and ``scipy.linalg``,
``scipy.optimize``, ``scipy.sparse``, ``scipy.spatial`` and ``scipy.special``
load only where the kinetic diagnostics call them; ``scipy.integrate`` never
loads.

``import flockkit`` must not load any of them.  The spectrum goes through
``numpy.linalg.eigvalsh``, connectivity is a breadth-first search on the dense
adjacency, the log-gradient normalizer evaluates ``K_nu`` by its own
quadrature, the moment check sums the cumulative Simpson rule in the package,
and the reference sampler's acceptance mass is the chi-square law in closed
form; so ``simulate``, ``flock-detect``, ``spectrum`` and ``jacobian``, the
cloud evolution and characteristics, and sampling the reference density import
no scipy module.  The transport distance (Hungarian assignment) and the kNN
entropy (k-d tree, digamma) import theirs where they are called, and
``scipy.linalg``, ``scipy.sparse`` and ``scipy.special`` arrive with
``scipy.spatial`` or ``scipy.optimize``.  The check runs in a fresh
interpreter, because this test process has loaded these modules already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flockkit
from flockkit import ConfigError, PointCloud, Torus, knn_entropy, transport_distance
from flockkit.density import torus_gaussian_sampler

DEFERRED = ("scipy.linalg", "scipy.optimize", "scipy.integrate", "scipy.sparse", "scipy.spatial",
            "scipy.special")

SCRIPT = r"""
import json, sys
from pathlib import Path

def loaded(stage):
    scipy = any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
    print(json.dumps([stage, [[m for m in %r if m in sys.modules], scipy]]), flush=True)

import flockkit, flockkit.cli
loaded("import")

from flockkit.cli import parse_config_text, run_scenario
out = Path(sys.argv[1])
run_scenario(parse_config_text(%r), out / "flock")
loaded("flock-detect")
run_scenario(parse_config_text(%r), out / "spectrum")
loaded("spectrum")
run_scenario(parse_config_text(%r), out / "simulate")
loaded("simulate")

import numpy as np
from flockkit import (FieldSpec, GaussianPeriodized, PointCloud, Regularized,
                      Torus, evolve_cloud, flow_characteristics, knn_entropy,
                      transport_distance)

rng = np.random.default_rng(0)
torus = Torus(2, 10.0)
field = FieldSpec(spec=GaussianPeriodized(d=2, width=1.0, period=10.0), mode=Regularized(0.1))
cloud = PointCloud(torus, rng.uniform(0.0, 10.0, (20, 2)), rng.uniform(-0.5, 0.5, (20, 2)))
curve = evolve_cloud(cloud, field, T=0.02, dt=0.01)
loaded("evolve_cloud")
flow_characteristics(cloud, curve, field, t_final=0.02, dt=0.01, want_overlap=True)
loaded("flow_characteristics")
from flockkit.density import torus_gaussian_sampler
torus_gaussian_sampler(torus, 0.3)(50, rng)
loaded("sampler built and drawn")
run_scenario(parse_config_text(%r), out / "jacobian")
loaded("jacobian scenario")
knn_entropy(np.hstack([cloud.x, cloud.v]), k=2, box=np.array([10.0, 10.0, 0.0, 0.0]))
loaded("knn_entropy")
transport_distance(cloud, PointCloud(torus, curve.x[-1], curve.v[-1]))
loaded("transport_distance")
"""

# a regularized log-gradient run with the moment check, and a flock detection
SIMULATE = """
[run]
scenario = simulate
seed = 1
save_every = 5
spectral_every = 2
graph_every = 1

[domain]
kind = free
d = 2

[potential]
kind = loggrad
range = 1.0

[dynamics]
mode = regularized
epsilon = 0.1
n = 6
t = 0.05
dt = 0.005

[init]
kind = uniform
extent = 1.5
"""

FLOCK = """
[run]
scenario = flock-detect
seed = 2
save_every = 25

[domain]
kind = free
d = 2

[potential]
kind = bump
range = 1.0

[dynamics]
mode = plain
n = 6
t = 0.1
dt = 0.002
speed = 0.5

[init]
kind = perturbed_flock
spacing = 0.55
perturbation = 0.01

[flock]
radius = 0.01
"""

# flow-map determinants at two points of the reference density, regularized field
JACOBIAN = """
[run]
scenario = jacobian
seed = 4

[domain]
kind = torus
d = 2
size = 10.0

[potential]
kind = gaussian
range = 1.0

[dynamics]
mode = regularized
epsilon = 0.1

[jacobian]
points = 2
t = 0.02
dt = 0.01
curve_n = 20
curve_dt = 0.01
"""

# weight-matrix spectra and graph connectivity of random bump configurations
SPECTRUM = """
[run]
scenario = spectrum
seed = 3

[domain]
kind = free
d = 2

[potential]
kind = bump
range = 1.0

[spectrum]
configs = 4
n = 6
extent = 1.0
"""


def test_scipy_submodules_load_only_where_called(tmp_path):
    src = str(Path(flockkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = SCRIPT % (DEFERRED, FLOCK, SPECTRUM, SIMULATE, JACOBIAN)
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    stages = dict(json.loads(line) for line in out.stdout.splitlines())
    # the particle scenarios, the cloud evolution and the reference density: no scipy at all
    for stage in ("import", "flock-detect", "spectrum", "simulate", "evolve_cloud",
                  "flow_characteristics", "sampler built and drawn", "jacobian scenario"):
        assert stages[stage] == [[], False], f"loaded after {stage}: {stages[stage]}"
    assert stages["knn_entropy"] == [["scipy.linalg", "scipy.sparse", "scipy.spatial",
                                      "scipy.special"], True]
    assert stages["transport_distance"] == [["scipy.linalg", "scipy.optimize", "scipy.sparse",
                                             "scipy.spatial", "scipy.special"], True]


TORUS = Torus(2, 10.0)
CLOUD = PointCloud(TORUS, [[1.0, 2.0], [3.0, 4.0]], [[0.1, 0.0], [0.0, 0.1]])


def block_scipy(monkeypatch):
    """Make every scipy import fail: a None entry in sys.modules does so even where the
    module is loaded already."""
    for name in [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")] + ["scipy"]:
        monkeypatch.setitem(sys.modules, name, None)


@pytest.mark.parametrize("call,what", [
    (lambda: transport_distance(CLOUD, CLOUD), "the transport distance"),
    (lambda: knn_entropy(np.arange(10.0).reshape(5, 2), k=2), "the k-nearest-neighbour entropy"),
], ids=["transport_distance", "knn_entropy"])
def test_missing_scipy_is_a_config_error(monkeypatch, call, what):
    # each deferred scipy import used to let a ModuleNotFoundError through, which
    # the CLI printed as a traceback instead of a failure record
    block_scipy(monkeypatch)
    with pytest.raises(ConfigError, match=f"^{what} needs scipy, which is not installed$"):
        call()


def test_reference_sampler_draws_without_scipy(monkeypatch):
    # it used to need scipy.special.gammainc for its acceptance mass
    expected = torus_gaussian_sampler(TORUS, 0.3)(200, np.random.default_rng(5))
    block_scipy(monkeypatch)
    w0, logf = torus_gaussian_sampler(TORUS, 0.3)(200, np.random.default_rng(5))
    np.testing.assert_array_equal(w0, expected[0])
    np.testing.assert_array_equal(logf, expected[1])
