"""The package's public names, and the source rules its modules keep."""

import ast
from pathlib import Path

import parsicompact


def test_star_import_gives_exactly_all():
    space = {}
    exec("from parsicompact import *", space)
    space.pop("__builtins__")
    assert sorted(space) == sorted(parsicompact.__all__)


def test_all_names_resolve_once_in_sorted_order():
    names = parsicompact.__all__
    for name in names:
        assert getattr(parsicompact, name, None) is not None, name
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; a name in ``__all__`` is read."""
    module = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    root = Path(__file__).resolve().parent.parent
    unused = {}
    for folder in ("src", "tests", "demos"):
        for path in sorted((root / folder).rglob("*.py")):
            names = _unused_imports(path.read_text(encoding="utf-8"))
            if names:
                unused[str(path.relative_to(root))] = names
    assert unused == {}


def _key_format_uses(source: str) -> list[str]:
    """Calls of ``CanonicalKey(...)`` and reads of an attribute ``data``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "CanonicalKey":
                out.append(f"CanonicalKey(...) (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr == "data":
            out.append(f".data (line {node.lineno})")
    return out


def test_only_tree_module_knows_the_canonical_key_format():
    # A key is the UTF-8 of canonical Newick; every other module goes
    # through canonical_key(), as_text() and write_newick().
    root = Path(__file__).resolve().parent.parent
    uses = {}
    for path in sorted((root / "src").rglob("*.py")):
        if path.name != "tree.py":
            found = _key_format_uses(path.read_text(encoding="utf-8"))
            if found:
                uses[str(path.relative_to(root))] = found
    assert uses == {}


PACKING_NAMES = {"vmask", "alpha", "value_mask", "alpha_all", "group_low", "group_width"}


def _packing_names(source: str) -> list[str]:
    """Names, attributes, arguments, definitions and imports of a packing name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.arg):
            name = node.arg
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.alias):
            name = node.asname or node.name
        else:
            continue
        if name in PACKING_NAMES:
            out.append(f"{name} (line {node.lineno})")
    return out


def test_only_parsimony_module_knows_the_packed_set_format():
    # The scorer packs each species' states into bit groups; the matrix
    # keeps names, alphabets and state indices, and every other module
    # reads those or the scorer's fold constants.
    root = Path(__file__).resolve().parent.parent
    uses = {}
    for path in sorted((root / "src").rglob("*.py")):
        if path.name != "parsimony.py":
            found = _packing_names(path.read_text(encoding="utf-8"))
            if found:
                uses[str(path.relative_to(root))] = found
    assert uses == {}


ARENA_LISTS = {"adj", "label"}
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}


def _into_arena(node) -> bool:
    """Whether ``node`` is an attribute ``adj`` or ``label``, or an item of
    one (at any depth)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in ARENA_LISTS


def _arena_writes(source: str) -> list[str]:
    """Item stores and deletions into, and mutating calls on, an ``adj`` or
    ``label`` list reached as an attribute.  Binding the attribute itself
    is not such a write."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
            and _into_arena(node.func.value)
        ):
            out.append(f".{node.func.attr}(...) (line {node.lineno})")
            continue
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Subscript) and _into_arena(target.value):
                out.append(f"item store (line {node.lineno})")
    return out


def test_only_tree_module_writes_into_the_arena():
    # A tree is its adj and label lists, and every count and id rule is
    # derived from them, so every write into them stays in one module.
    root = Path(__file__).resolve().parent.parent
    writes = {}
    for path in sorted((root / "src").rglob("*.py")):
        if path.name != "tree.py":
            found = _arena_writes(path.read_text(encoding="utf-8"))
            if found:
                writes[str(path.relative_to(root))] = found
    assert writes == {}


def test_a_tree_changes_only_through_its_growth_rules():
    # No free-form editor: past construction, the arena changes through
    # the four growth rules, their undo and requeue_edge alone.
    public = {name for name in vars(parsicompact.MixedTree) if not name.startswith("_")}
    assert public == {
        "adj", "label",  # the arena lists
        "iter_nodes", "iter_edges", "species_node", "hang",
        "num_nodes", "n_labelled", "n_unlabelled",
        "single", "from_arrays", "copy",
        "grow_rule_1", "grow_rule_2", "grow_rule_3", "grow_rule_4",
        "undo_growth", "requeue_edge", "canonical_key", "write_newick",
    }
