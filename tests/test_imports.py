"""Every name a package module imports is read there. A module that keeps an
import it no longer uses says it depends on what it does not; the scan reads
the source with ``ast``, and a name listed in ``__all__`` counts as read."""

from __future__ import annotations

import ast
import pathlib

import chorprism


def _unused_imports(tree: ast.AST) -> list[str]:
    """The names ``tree`` imports and never reads, in import order."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    found = []
    for path in sorted(pathlib.Path(chorprism.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}: {name}" for name in _unused_imports(tree)]
    assert found == []


def test_import_scan_sees_every_form_of_import():
    src = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport json as j\n"
        "from a import b, c as d\nfrom .e import f, g, h\n"
        "__all__ = ['f']\n"
        "os.sep\nprint(b)\nx: g = 1\n"
    )
    assert _unused_imports(ast.parse(src)) == ["j", "d", "h"]
