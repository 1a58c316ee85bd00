import os
import subprocess
import sys
import textwrap
from pathlib import Path

import mlscore

# run in a fresh interpreter: other tests import scipy and numpy.ma into
# this one
_SCRIPT = textwrap.dedent(
    """
    import sys

    import mlscore
    from mlscore.cli import main

    data, out = sys.argv[1], sys.argv[2]
    assert main(["synth", "--setup", "1", "--rho", "0.9", "--n", "80",
                 "--output", data]) == 0
    for method in ("ls", "mls", "dufs", "dufs-mls"):
        epochs = ["--epochs", "2"] if method.startswith("dufs") else []
        assert main(["select", "--method", method, "--num-features", "2",
                     "--input", data, "--output", out, *epochs]) == 0
    assert main(["score", "--method", "ls", "--kernel", "binary-knn",
                 "--input", data, "--output", out]) == 0
    assert main(["validate-margin", "--input", data, "--label-col", "label",
                 "--output", out]) == 0

    from mlscore.evaluation import ks_statistic
    from mlscore.gates import GateState, open_prob

    p = open_prob(GateState.fresh(3))
    assert all(abs(v - 0.8413447460685429) <= 1e-15 * 0.8413447460685429 for v in p)
    assert ks_statistic([0.0, 1.0], [2.0, 3.0])[0] == 1.0
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, loaded
    # numpy.ma costs every process about 2 MB of RSS
    assert "numpy.ma" not in sys.modules
    """
)


def test_no_command_loads_scipy(tmp_path):
    src = str(Path(mlscore.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    argv = [sys.executable, "-c", _SCRIPT, str(tmp_path / "in.csv"), str(tmp_path / "out.csv")]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
