"""Every public annotation in ``repro.*`` names something that exists.

``from __future__ import annotations`` turns annotations into strings
nobody evaluates, so a name that was never imported (``Optional[Set[str]]``
without ``Set``) survives every test until a tool calls
``typing.get_type_hints``.  This resolves them all with the standard
library alone.  Names imported under ``if TYPE_CHECKING:`` — the
import-cycle breakers — are imported for real here (no cycle at test
time) and supplied as the local namespace, so those annotations are
checked too rather than skipped.
"""

import ast
import importlib
import inspect
import pkgutil
import typing

import pytest

import repro


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        yield importlib.import_module(info.name)


def _type_checking_imports(module):
    """What the module's ``if TYPE_CHECKING:`` blocks would import."""
    namespace = {}
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            block = ast.Module(body=node.body, type_ignores=[])
            exec(compile(block, module.__file__, "exec"), namespace)
    return namespace


def _public_callables(module):
    """(qualified name, function-or-class) defined in ``module``."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj  # class-level (dataclass field) annotations
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(member, property):
                    member = member.fget
                member = getattr(member, "__func__", member)  # static/classmethod
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module", list(_modules()), ids=lambda module: module.__name__)
def test_public_annotations_resolve(module):
    guarded = _type_checking_imports(module)
    unresolved = []
    for name, obj in _public_callables(module):
        try:
            typing.get_type_hints(obj, localns=guarded)
        except Exception as error:  # NameError, or a malformed annotation
            unresolved.append(f"{module.__name__}.{name}: {error!r}")
    assert not unresolved, "\n".join(unresolved)


def test_the_walk_sees_the_code_base():
    """Guard the guard: an empty walk would pass vacuously."""
    seen = {
        f"{module.__name__}.{name}"
        for module in _modules()
        for name, _ in _public_callables(module)
    }
    assert len(seen) > 500
    assert "repro.ledger.mempool.Mempool.select" in seen
    assert "repro.gametheory.empirical.classify_round" in seen  # TYPE_CHECKING user
