import importlib
import pkgutil
import subprocess
import sys

import pytest

import chdp

MODULES = ["chdp"] + [f"chdp.{info.name}" for info in pkgutil.iter_modules(chdp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # The benchmark's tracer looks up each name in every chdp module's
    # __all__, so a stale entry would break it.
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_top_level_names_are_their_modules_own():
    # chdp.evolve is chdp.evolution.evolve: no copy, no wrapper.
    for attr in chdp.__all__:
        if attr == "__version__":
            continue
        value = getattr(chdp, attr)
        assert value.__module__.startswith("chdp.")
        assert getattr(sys.modules[value.__module__], attr) is value, attr


def _loaded(child_env, code: str) -> set[str]:
    """The chdp modules a fresh interpreter holds after running code."""
    script = (code + "\nimport sys\n"
              "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'chdp'))")
    done = subprocess.run([sys.executable, "-c", script], env=child_env,
                          capture_output=True, text=True, check=True, timeout=120)
    return set(done.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("code, modules", [
    ("import chdp", {"chdp"}),
    ("import chdp.csvio", {"chdp", "chdp.csvio", "chdp.connection", "chdp.spectral"}),
], ids=["chdp", "csvio"])
def test_import_loads_only_what_it_uses(child_env, code, modules):
    assert _loaded(child_env, code) == modules


# Each command loads its own module and none of the other commands'.
COMMAND_MODULES = {"chdp.curvature", "chdp.flowmap", "chdp.rigidbody", "chdp.verification"}


@pytest.mark.parametrize("argv, own", [
    (["rigidbody", "--t-end", "0.01"], {"chdp.rigidbody"}),
    (["evolve", "--model", "2ch", "--ic", "pair:1:0.1:1:0.1", "--n", "32", "--dt", "1e-3",
      "--t-end", "1e-3"], set()),
    (["curvature-scan", "--max-mode", "2"], {"chdp.curvature"}),
], ids=["rigidbody", "evolve", "curvature-scan"])
def test_command_loads_only_its_module(child_env, tmp_path, argv, own):
    argv = argv + ["--out-dir", str(tmp_path)]
    loaded = _loaded(child_env, f"from chdp import cli\nassert cli.main({argv!r}) == 0")
    assert loaded & COMMAND_MODULES == own


def test_runtime_needs_numpy_alone(child_env, tmp_path):
    # pyproject.toml lists numpy alone.  With scipy, sympy and hypothesis
    # blocked, every chdp module imports, every command but verify runs at a
    # smoke size, and the criteria that need no smooth run pass.
    pair = ["--model", "2ch", "--ic", "pair:1:0.1:1:0.1", "--n", "32", "--dt", "1e-3",
            "--t-end", "2e-3"]
    commands = [["evolve", *pair], ["flowmap", *pair], ["curvature"],
                ["curvature-scan", "--max-mode", "2"], ["rigidbody", "--t-end", "0.01"]]
    code = "\n".join([
        "import importlib, sys",
        "for name in ('scipy', 'sympy', 'hypothesis'):",
        "    sys.modules[name] = None",
        f"for name in {MODULES!r}:",
        "    importlib.import_module(name)",
        "from chdp import cli, verification",
        f"for i, argv in enumerate({commands!r}):",
        f"    assert cli.main(argv + ['--out-dir', {str(tmp_path)!r} + f'/{{i}}']) == 0, argv",
        "for criterion in ('C1', 'C3', 'C5', 'C9', 'C10'):",
        "    result = verification.run_criterion(criterion, seed=0)",
        "    assert result.passed, result.line()",
    ])
    assert _loaded(child_env, code) == set(MODULES)
