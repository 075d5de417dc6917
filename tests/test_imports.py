"""The import graph: ``scipy.optimize`` and ``scipy.integrate`` load only when called.

``import flockkit`` must not load them; the transport distance (Hungarian
assignment), the log-gradient normalizer (``quad``) and the moment check
(``cumulative_simpson``) import them where they are called.  The check runs
in a fresh interpreter, because this test process has loaded them already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import flockkit

DEFERRED = ("scipy.optimize", "scipy.integrate")

SCRIPT = r"""
import json, sys

def loaded(stage):
    print(json.dumps([stage, [m for m in %r if m in sys.modules]]), flush=True)

import flockkit, flockkit.cli
loaded("import")

import numpy as np
from flockkit import (FieldSpec, GaussianPeriodized, LogGradBounded, PointCloud, Regularized,
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
knn_entropy(np.hstack([cloud.x, cloud.v]), k=2, box=np.array([10.0, 10.0, 0.0, 0.0]))
loaded("knn_entropy")
transport_distance(cloud, curve.cloud_at(0.02))
loaded("transport_distance")
LogGradBounded(d=2).normalizer
loaded("normalizer")
""" % (DEFERRED,)


def test_scipy_optimize_and_integrate_load_only_where_called():
    src = str(Path(flockkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    stages = dict(json.loads(line) for line in out.stdout.splitlines())
    for stage in ("import", "evolve_cloud", "flow_characteristics", "knn_entropy"):
        assert stages[stage] == [], f"loaded after {stage}: {stages[stage]}"
    assert stages["transport_distance"] == ["scipy.optimize"]
    assert stages["normalizer"] == list(DEFERRED)
