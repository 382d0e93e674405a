"""The package's public names: what ``wipcast/__init__.py`` imports is what it exports."""

import ast
import inspect

import wipcast


def test_every_exported_name_resolves_and_every_imported_one_is_exported():
    assert len(set(wipcast.__all__)) == len(wipcast.__all__)
    assert [name for name in wipcast.__all__ if not hasattr(wipcast, name)] == []
    tree = ast.parse(inspect.getsource(wipcast))
    imported = {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert public and sorted(public - set(wipcast.__all__)) == []
