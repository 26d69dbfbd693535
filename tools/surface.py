"""Print the size of mvflow's settable surface.

    python3 tools/surface.py [--src DIR]

One line per module of ``DIR/mvflow`` with its line count and its settable
values, then the total lines and the total settable values.  A module's
settable values are its defaulted parameters (every function parameter with
a default) plus its dataclass ``__init__`` fields (annotated fields of a
``@dataclass`` class, less those declared ``field(init=False)``), counted by
an AST walk.  Run it with each checkout's ``--src`` to compare two.
"""
from __future__ import annotations

import argparse
import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _init_field(stmt) -> bool:
    if not isinstance(stmt, ast.AnnAssign):
        return False
    v = stmt.value
    return not (isinstance(v, ast.Call) and any(
        k.arg == "init" and getattr(k.value, "value", True) is False for k in v.keywords))


def counts(source: str) -> tuple[int, int]:
    """(defaulted parameters, dataclass __init__ fields) of one module."""
    params = fields = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            params += len(node.args.defaults) + sum(
                d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += sum(_init_field(stmt) for stmt in node.body)
    return params, fields


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the mvflow package to measure")
    args = ap.parse_args(argv)
    lines = params = fields = 0
    print(" lines settable module")
    for path in sorted(glob.glob(os.path.join(args.src, "mvflow", "*.py"))):
        with open(path) as fh:
            source = fh.read()
        n, (p, f) = source.count("\n"), counts(source)
        lines, params, fields = lines + n, params + p, fields + f
        print(f"{n:6d} {p + f:8d} {os.path.basename(path)}")
    print(f"{lines:6d} total lines")
    print(f"settable values {params + fields} = {params} defaulted parameters "
          f"+ {fields} dataclass __init__ fields")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
