"""Shared test configuration.

The hypothesis profile removes per-example deadlines (several properties
exercise whole solver runs) and derandomizes so CI failures replay exactly.
``HYPOTHESIS_PROFILE=deep`` runs the same profile with 2000 examples per
property instead of 100.

``child_env`` builds the environment of every ``python -m ssdopt`` child the
CLI tests start in a fresh working directory.  ``pin_note`` is the failure
message of every pinned digest: it names the OpenBLAS kernel the process
loaded, since the pins hold bit for bit only on the kernel they were made on.
"""

import os

from hypothesis import settings

settings.register_profile("suite", deadline=None, derandomize=True)
settings.register_profile("deep", settings.get_profile("suite"), max_examples=2000)
settings.load_profile("deep" if os.environ.get("HYPOTHESIS_PROFILE") == "deep" else "suite")


def child_env(env_extra=None):
    """Environment for a child that must import the ``ssdopt`` under test.

    The directory holding the imported package goes first on ``PYTHONPATH``,
    then the inherited entries made absolute against this process's working
    directory: children run in ``tmp_path``, where a relative entry such as
    ``PYTHONPATH=src`` points nowhere. ``SSD_SEED`` is dropped so the seed
    default is what is tested, and ``env_extra`` is laid over the result.
    """
    import ssdopt

    env = {k: v for k, v in os.environ.items() if k != "SSD_SEED"}
    package_root = os.path.dirname(os.path.dirname(ssdopt.__file__))
    inherited = [
        os.path.abspath(p)
        for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    env["PYTHONPATH"] = os.pathsep.join([package_root, *inherited])
    if env_extra:
        env.update(env_extra)
    return env


def blas_core():
    """The core of numpy's bundled OpenBLAS that this process loaded, for
    example ``"SkylakeX"``, read with ``ctypes`` from
    ``scipy_openblas_get_corename64_``; None when no bundled library has
    that symbol."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def pin_note():
    """Failure message for a pinned digest: the pins were made on the
    SkylakeX kernel, and another kernel can round in the last bit."""
    return f"OpenBLAS core {blas_core()}; the pins were made on SkylakeX"
