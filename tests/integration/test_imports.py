"""Start-up imports: lazy package exports and per-command CLI imports.

Each import-set check runs in a fresh interpreter, so the modules this
test process already loaded cannot hide an eager import.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Every package whose ``__init__`` exports its names lazily.
LAZY_PACKAGES = ("repro.core", "repro.cost", "repro.cpu",
                 "repro.experiments", "repro.icache", "repro.isa",
                 "repro.predictors", "repro.runtime", "repro.serve",
                 "repro.targets", "repro.trace")

#: The tracers' modules: only a trace capture needs them.
TRACER_MODULES = {"repro.cpu.fast", "repro.cpu.codegen",
                  "repro.cpu.machine"}


def _python(*args, **env):
    """Run a fresh interpreter on ``src`` (``env`` added to the
    environment); return its completed process."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **env)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=True)


def _loaded_after(code):
    proc = _python("-c", code + "\nimport sys\n"
                   "print(' '.join(sorted(sys.modules)))\n")
    return set(proc.stdout.split())


def _cli_imports(*argv, **env):
    """Modules loaded by the end of ``python -m repro *argv``.

    Read from ``sys.modules``, not ``-X importtime``: importtime lists
    no module that ``importlib.import_module`` loads, which is how the
    CLI loads its runners and lazy packages load their exports.
    """
    proc = _python("-c", "import runpy, sys\n"
                   f"sys.argv = ['repro', *{list(argv)!r}]\n"
                   "try:\n"
                   "    runpy.run_module('repro', run_name='__main__',\n"
                   "                     alter_sys=True)\n"
                   "except SystemExit as exc:\n"
                   "    assert not exc.code, exc.code\n"
                   "print('modules:', *sorted(sys.modules))\n", **env)
    return set(proc.stdout.rsplit("modules:", 1)[1].split())


def test_capture_imports_load_no_service_runner_or_cost_model():
    loaded = _loaded_after(
        "import repro.core.dual, repro.core.kernels, repro.workloads\n"
        "from repro.serve import ServeRequest")
    assert "repro.serve.requests" in loaded
    unwanted = {f"repro.serve.{m}" for m in
                ("service", "chaos", "traffic", "store", "breaker")}
    unwanted |= {"repro.trace.synthetic", "asyncio"}
    assert not loaded & unwanted
    assert not {m for m in loaded
                if m.startswith(("repro.experiments.", "repro.cost."))}


def test_cli_help_imports_no_figure_runner():
    imported = _cli_imports("--help")
    assert "repro.runtime.executor" in imported
    assert not {m for m in imported
                if m.startswith("repro.experiments.fig")}
    assert "repro.serve.service" not in imported
    assert not imported & TRACER_MODULES


def test_warm_figure_loads_no_tracer(tmp_path):
    """A run on a warm cache captures nothing, so it loads no tracer:
    ``REPRO_TRACER`` is validated without importing one."""
    env = {"REPRO_CACHE_DIR": str(tmp_path), "REPRO_TRACE_LEN": "1000"}
    cold = _cli_imports("fig6", **env)
    assert TRACER_MODULES <= cold
    warm = _cli_imports("fig6", **env)
    assert "repro.experiments.fig6" in warm
    assert not warm & TRACER_MODULES


def test_cli_command_imports_only_its_runner():
    imported = _cli_imports("table7")
    runners = {m for m in imported if m.startswith("repro.experiments.")}
    assert runners == {"repro.experiments.table7"}


def _exports(package):
    """The ``{submodule: names}`` literal a lazy ``__init__`` passes to
    :func:`repro.lazy.lazy_exports`."""
    module = importlib.import_module(package)
    tree = ast.parse(Path(module.__file__).read_text())
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "lazy_exports"]
    assert len(calls) == 1, package
    return ast.literal_eval(calls[0].args[1])


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_each_export_is_its_submodules_object(package):
    module = importlib.import_module(package)
    exports = _exports(package)
    names = [name for group in exports.values() for name in group]
    assert len(set(names)) == len(names)
    assert sorted(module.__all__) == sorted(names)
    # Importing a submodule binds its name in the package, so only the
    # submodule itself may be exported under that name.
    submodules = {info.name for info in pkgutil.iter_modules(module.__path__)}
    for name in set(names) & submodules:
        assert name in exports.get(name, ()), (package, name)
    listed = dir(module)
    for submodule, group in exports.items():
        source = importlib.import_module(f"{package}.{submodule}")
        for name in group:
            expected = source if name == submodule else getattr(source, name)
            assert getattr(module, name) is expected, (package, name)
            assert name in listed


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import_binds_every_export(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name), (package, name)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(module, "no_such_export")
    assert not hasattr(module, "no_such_export")
