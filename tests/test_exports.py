import importlib
import inspect
import pkgutil
import re

import pytest

import qabcert

# ``__main__`` is the ``python -m qabcert`` entry point and runs on import.
MODULES = ["qabcert"] + [
    f"qabcert.{info.name}"
    for info in pkgutil.iter_modules(qabcert.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # ``qabcert.certify`` is shadowed by the function of that name, so
    # modules are loaded by import path.
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


# ``cli`` is the command-line entry point: its command functions are table
# entries, and ``main`` is its one public name.
@pytest.mark.parametrize("name", [m for m in MODULES[1:] if m != "qabcert.cli"])
def test_every_public_function_is_exported(name):
    module = importlib.import_module(name)
    public = {
        attr
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == name and not attr.startswith("_")
    }
    assert public - set(module.__all__) == set()


def test_package_exports_exactly_the_library_modules_names():
    library = ["linalg", "quantum", "mixture", "qab_core", "certify", "channel_re"]
    names = set()
    for name in library:
        names |= set(importlib.import_module(f"qabcert.{name}").__all__)
    assert set(qabcert.__all__) == names


def _tolerance_like(param: str) -> bool:
    return "tol" in param or "cutoff" in param or param in {"reg", "atol", "chunk", "floor"}


# The one parameter whose callers pass two different values: STATE_FLOOR and
# REPAIR_FLOOR.  Every support, other floor or tolerance value is a named
# module constant; SUPPORT_CUTOFF is the one support rule.
ALLOWED_KNOBS = {("floor_spectrum", "floor")}


def test_no_tolerance_knobs_beyond_the_two_valued_ones():
    from qabcert.channel_re import ChannelObjective
    from qabcert.qab_core import QabOptions

    callables = {"QabOptions": QabOptions, "ChannelObjective": ChannelObjective}
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if inspect.isfunction(obj):
                callables[attr] = obj
    knobs = {
        (name, param)
        for name, obj in callables.items()
        for param in inspect.signature(obj).parameters
        if _tolerance_like(param)
    }
    assert knobs == ALLOWED_KNOBS


def test_constants_table_names_every_tolerance():
    # The linalg docstring's table lists each support, floor and tolerance
    # constant, qualified by its module outside linalg, with its value.
    linalg = importlib.import_module("qabcert.linalg")
    table = dict(re.findall(r"^``([\w.]+)``\s+(\S+)", linalg.__doc__, re.M))
    pattern = r"^([A-Z0-9_]+_(?:TOL|TOLERANCE|CUTOFF|FLOOR)) = "
    constants = {}
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for const in re.findall(pattern, inspect.getsource(module), re.M):
            key = const if module is linalg else f"{name.split('.')[1]}.{const}"
            constants[key] = getattr(module, const)
    assert len(constants) >= 11
    assert {key: float(table[key]) if key in table else None for key in constants} == constants
