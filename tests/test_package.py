"""The package's own structure: every public name has a caller, and a module
uses another module's private names only where a list below allows it."""

import ast
from pathlib import Path

import gramoverlap

SRC = Path(gramoverlap.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"

# Every use of one module's private name by another, as (user, provider,
# name).  A new coupling is added here on purpose, or not at all.
ALLOWED_PRIVATE_USES = {
    ("bench", "overlap", "_preprocess"),
    ("bench", "synth", "_complete"),
    ("bench", "synth", "_draw_trial"),
    ("bench", "synth", "_inlier_masks"),
    ("parallel", "overlap", "_preprocessed_pair"),
    ("overlap", "linalg", "_khatri_rao"),
    ("overlap", "linalg", "_khatri_rao_vectors"),
    ("overlap", "linalg", "_khatri_rao_row_sums"),
    ("overlap", "linalg", "_power_iteration"),
}


def sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def entry_point_names() -> set[str]:
    """The calls that README's entry-point table names, by their own name
    (``bench.run_sweep`` is ``run_sweep``)."""
    text = README.read_text(encoding="utf-8")
    table = text.split("\nKey entry points:\n\n", 1)[1].split("\n\n", 1)[0]
    return {
        call.split("(", 1)[0].strip().rpartition(".")[2]
        for line in table.splitlines()
        if line.startswith("| `")
        for call in line.split("`", 2)[1].split(" / ")
    }


def is_private(name: str) -> bool:
    return name.startswith("_")


def public_definitions(tree):
    """(qualified name, node) of each public top-level function and class of
    a module and each public method of its public classes."""
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef | ast.ClassDef) or is_private(node.name):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not is_private(item.name):
                    yield f"{node.name}.{item.name}", item


def foreign_modules(tree) -> set[str]:
    """The local names that ``import m`` or ``import m as x`` binds to a
    module outside the package (``np``, ``math``)."""
    return {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.partition(".")[0] != "gramoverlap"
    }


def uncalled(srcs: dict[str, str], named: set[str]) -> list[str]:
    """The public definitions of ``srcs`` that no code outside their own
    body reads by name (as a name or an attribute), and that ``named`` does
    not list.  A re-export (``from .x import f``) is not a reader, nor is
    an attribute read off a module outside the package (``np.empty`` does
    not read a member named ``empty``).  Other reads are matched by name
    alone, so a member whose name another package object's attribute shares
    counts as read by any read of that name."""
    trees = {mod: ast.parse(text) for mod, text in srcs.items()}
    reads = []
    for mod, tree in trees.items():
        foreign = foreign_modules(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.append((mod, node.lineno, node.id))
            elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name) and node.value.id in foreign
            ):
                reads.append((mod, node.lineno, node.attr))
    out = []
    for mod, tree in trees.items():
        for qual, node in public_definitions(tree):
            name = qual.rpartition(".")[2]
            inside = range(node.lineno, node.end_lineno + 1)
            if name not in named and not any(
                n == name and not (m == mod and line in inside) for m, line, n in reads
            ):
                out.append(f"{mod}.{qual}")
    return out


def private_uses(srcs: dict[str, str]) -> set[tuple[str, str, str]]:
    """(user, provider, name) for each private name of a package module that
    another module imports by name or reads as an attribute of the module."""
    uses = set()
    for mod, text in srcs.items():
        tree = ast.parse(text)
        modules = {}  # local name -> package module
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:
                provider = node.module
            elif (node.module or "").split(".")[0] == "gramoverlap":
                provider = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if provider is None:
                    modules[alias.asname or alias.name] = alias.name
                elif is_private(alias.name):
                    uses.add((mod, provider, alias.name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and is_private(node.attr)
            ):
                uses.add((mod, modules[node.value.id], node.attr))
    return uses


def test_every_public_name_has_a_caller():
    # a name that nothing in the package calls and README does not offer
    # is surface without a user: delete it, or give it a caller
    assert uncalled(sources(), entry_point_names()) == []


def test_the_caller_scan_sees_an_unused_name_and_a_use():
    srcs = sources()
    srcs["synth"] += "\n\ndef unused_helper():\n    return unused_helper\n"
    assert uncalled(srcs, entry_point_names()) == ["synth.unused_helper"]
    srcs["bench"] += "\n\nprobe = synth.unused_helper\n"
    assert uncalled(srcs, entry_point_names()) == []
    # np.empty reads numpy's empty, not a package member of that name
    box = "class Box:\n    def empty(self):\n        return np.empty(0)\n"
    srcs["synth"] += "\n\n" + box
    srcs["bench"] += "\nprobe = synth.Box\n"
    assert uncalled(srcs, entry_point_names()) == ["synth.Box.empty"]


def test_private_names_cross_modules_only_where_allowed():
    assert private_uses(sources()) == ALLOWED_PRIVATE_USES


def test_a_new_private_import_is_seen():
    srcs = sources()
    srcs["bench"] = "from .classify import _centroids\n" + srcs["bench"]
    assert private_uses(srcs) - ALLOWED_PRIVATE_USES == {
        ("bench", "classify", "_centroids")
    }
    srcs["fileio"] += "\n\nprobe = linalg._sign_flips\n"
    assert ("fileio", "linalg", "_sign_flips") in private_uses(srcs)
