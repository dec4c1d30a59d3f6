"""Every callable the package exports is reached by code outside the tests.

A public function that only its own tests call is code no subcommand,
``verify`` check or benchmark job runs. This scans the library modules
(not ``__init__.py``, which only re-exports) and the benchmark harness
for a name or attribute reference to each callable in ``__all__``,
outside that callable's own definition.
"""

import ast
import pathlib

import channelsim

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = ([p for p in sorted((ROOT / "src" / "channelsim").glob("*.py"))
            if p.name != "__init__.py"]
           + sorted((ROOT / "perfbench").glob("*.py")))

# Public names kept without a route, each with the ROADMAP item that is to
# give it one. The list only shrinks: a name that gains a route leaves it.
AWAITING_ROUTE = {
    "achievability_size": "item 16",
}


def _referenced() -> set:
    """Names and attributes used in the sources, except that a top-level
    definition's references to its own name do not count."""
    found = set()
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    found.add(name)
    return found


def test_every_exported_callable_has_a_route():
    exported = {name for name in channelsim.__all__
                if callable(getattr(channelsim, name))}
    unreached = exported - _referenced()
    assert unreached == set(AWAITING_ROUTE)
