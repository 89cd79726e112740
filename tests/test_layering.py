"""The package's import layering, read from its source without importing it.

network holds the helpers the other modules share: the graph search, the
length check, the demand check, the path-flow check and the assembly of the
used-path system.  A module reaches a sibling's private
name only through network, and network builds on errors alone, so every
module can import it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "odadjust"


def _sibling_imports():
    """(module, sibling, names) for every import, at any depth, of a
    module of the package from a sibling."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1 and node.module:
                sibling = node.module
            elif node.level == 0 and (node.module or "").startswith("odadjust."):
                sibling = node.module.split(".", 1)[1]
            else:
                continue
            out.append((path.stem, sibling, [alias.name for alias in node.names]))
    return out


def test_private_names_come_only_from_network():
    imports = _sibling_imports()
    assert any(sibling == "network" for _, sibling, _ in imports)
    private = [(module, sibling, name) for module, sibling, names in imports
               for name in names if name.startswith("_") and sibling != "network"]
    assert private == []


def test_network_imports_only_errors():
    siblings = {sibling for module, sibling, _ in _sibling_imports() if module == "network"}
    assert siblings == {"errors"}
