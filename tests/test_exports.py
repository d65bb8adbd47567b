import importlib
import pkgutil

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
