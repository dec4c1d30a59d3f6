"""Every callable the package exports is reached by code outside the tests,
and so is every public method, classmethod and property of an exported
class.

A public function that only its own tests call is code no subcommand,
``verify`` check or benchmark job runs. This scans the library modules
(not ``__init__.py``, which only re-exports) and the benchmark harness
for a name or attribute reference to each callable in ``__all__``,
outside that callable's own definition. A class member can only be
reached as an attribute, so for members only attribute references
count, again outside the member's own definition.
"""

import ast
import inspect
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


def _attributes_used() -> set:
    """Attribute names used in the sources, except inside a definition
    (at any depth) of the same name."""
    found = set()

    def visit(node, owners):
        if isinstance(node, ast.Attribute) and node.attr not in owners:
            found.add(node.attr)
        own = getattr(node, "name", None)
        if isinstance(own, str):
            owners = owners | {own}
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def _public_members() -> dict:
    """Class.member -> member for every public method, classmethod,
    staticmethod and property of the classes in __all__."""
    members = {}
    for name in channelsim.__all__:
        cls = getattr(channelsim, name)
        if not inspect.isclass(cls):
            continue
        for attr, value in vars(cls).items():
            if not attr.startswith("_") and (
                    inspect.isfunction(value)
                    or isinstance(value, (classmethod, staticmethod,
                                          property))):
                members[f"{name}.{attr}"] = attr
    return members


def test_every_exported_callable_has_a_route():
    exported = {name for name in channelsim.__all__
                if callable(getattr(channelsim, name))}
    unreached = exported - _referenced()
    assert unreached == set(AWAITING_ROUTE)


def test_every_public_class_member_has_a_route():
    members = _public_members()
    # The scan sees the members at all: properties, classmethods and
    # methods of the channel and protocol classes.
    assert {"Dmc.bsc", "Pmf.size", "RngStream.state_at"} <= set(members)
    used = _attributes_used()
    unreached = {label for label, attr in members.items() if attr not in used}
    assert unreached == {label for label in AWAITING_ROUTE if "." in label}
