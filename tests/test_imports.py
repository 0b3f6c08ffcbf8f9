"""Import hygiene: every ``fasta_windows_ray`` import in the package,
``__ray_entry__``, the scripts and the benchmark resolves to an existing
module and name — including function-local lazy imports, which would
otherwise fail only when their query or command is called."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = "fasta_windows_ray"


def _sources():
    files = sorted((ROOT / PKG).rglob("*.py"))
    files += [ROOT / "__ray_entry__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    return files


def _find(name: str):
    """Module spec, or None when the module (or a parent) is missing."""
    try:
        return importlib.util.find_spec(name)
    except ModuleNotFoundError:
        return None


def _imports(path: Path):
    """(line, module, names) for every package import in ``path``;
    ``names`` is empty for a plain ``import module``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == PKG:
                    yield node.lineno, a.name, []
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                pkg = ".".join(path.relative_to(ROOT).parts[:-1])
                mod = importlib.util.resolve_name(
                    "." * node.level + (node.module or ""), pkg)
            else:
                mod = node.module or ""
            if mod.split(".")[0] == PKG:
                yield node.lineno, mod, [a.name for a in node.names]


def test_package_imports_resolve():
    problems = []
    for path in _sources():
        where = path.relative_to(ROOT)
        for line, mod, names in _imports(path):
            if _find(mod) is None:
                problems.append(f"{where}:{line}: no module {mod}")
                continue
            m = importlib.import_module(mod)
            for n in names:
                if n == "*" or hasattr(m, n):
                    continue
                if _find(f"{mod}.{n}") is None:
                    problems.append(f"{where}:{line}: {mod} has no {n}")
    assert not problems, "\n".join(problems)


def test_queries_and_oracles_share_keys():
    from fasta_windows_ray.pipelines.queries import (build_oracle_sql,
                                                     build_queries)
    assert build_queries().keys() == build_oracle_sql().keys()


def test_stages_import_no_engine_privates():
    """Batch stages use ``BucketWindowStats``; the stream engine's private
    accumulators (``_WindowAcc`` and friends) stay the engine's own."""
    problems = []
    for path in sorted((ROOT / PKG / "stages").rglob("*.py")):
        for line, mod, names in _imports(path):
            private = [n for n in names if n.startswith("_")]
            if mod == f"{PKG}.state.engine" and private:
                problems.append(f"{path.relative_to(ROOT)}:{line}: {private}")
    assert not problems, "\n".join(problems)
