"""Start-up cost and order, in fresh interpreters: importing the package or
the CLI, `--help` and usage errors load no numpy; the lazy namespace still
offers every public name; the CLI's thread pin precedes numpy's load."""

import json
import os
import subprocess
import sys

import pytest

import tmpnn

SRC = os.path.dirname(os.path.dirname(os.path.abspath(tmpnn.__file__)))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def python(*args, env=None):
    base = {k: v for k, v in os.environ.items()
            if k not in BLAS_VARS and k != "TMPNN_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**base, **(env or {})},
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("args,code", [
    (["-c", "import tmpnn"], 0),
    (["-c", "import tmpnn.cli"], 0),
    (["-m", "tmpnn.cli", "--help"], 0),
    (["-m", "tmpnn.cli", "train", "--data"], 2),
    (["-m", "tmpnn.cli", "train", "--batch", "abc", "--out", "m.json"], 2),
])
def test_start_up_loads_no_numpy(args, code):
    # -X importtime lists every module the process imports on stderr
    proc = python("-X", "importtime", *args)
    assert proc.returncode == code, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "tmpnn" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


def test_lazy_namespace_offers_every_public_name():
    proc = python("-c", """if True:
        import json, tmpnn
        # submodules resolve as attributes, as when all were imported
        modules = [tmpnn.io.__name__, tmpnn.odeview.__name__]
        listed = dir(tmpnn)
        star = {}
        exec("from tmpnn import *", star)
        print(json.dumps({
            "modules": modules,
            "all": tmpnn.__all__,
            "unlisted": [n for n in tmpnn.__all__ if n not in listed],
            "unbound": [n for n in tmpnn.__all__ if n not in star],
            "sources": {n: getattr(getattr(tmpnn, n), "__module__", None)
                        for n in tmpnn.__all__},
        }))""")
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["modules"] == ["tmpnn.io", "tmpnn.odeview"]
    assert len(got["all"]) == len(set(got["all"]))
    assert got["unlisted"] == [] and got["unbound"] == []
    for name, module in got["sources"].items():
        if name != "__version__":
            assert module.startswith("tmpnn."), name
    with pytest.raises(AttributeError, match="no_such_name"):
        tmpnn.no_such_name


def test_cli_thread_count_is_set_before_numpy_loads(tmp_path):
    out = tmp_path / "linear.csv"
    proc = python("-c", f"""if True:
        import os, sys
        import tmpnn.cli
        loaded_early = "numpy" in sys.modules
        code = tmpnn.cli.main(["gen-data", "linear", "--samples", "5",
                               "--out", {str(out)!r}])
        threads = (len(os.listdir("/proc/self/task"))
                   if sys.platform == "linux" else None)
        print(loaded_early, code, "numpy" in sys.modules,
              os.environ["OPENBLAS_NUM_THREADS"], threads)""",
                  env={"TMPNN_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    loaded_early, code, loaded, blas, threads = proc.stdout.split()[-5:]
    assert (loaded_early, code, loaded, blas) == ("False", "0", "True", "1")
    if sys.platform == "linux":
        assert threads == "1"
