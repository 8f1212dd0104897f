"""Print each function of a checkout's src/mlsurf that no call of the identity corpus reaches.

Usage: python tools/reachability.py CHECKOUT

CHECKOUT is the root of an mlsurf source tree.  The corpus of tools/identity_corpus.py
runs in process, as that tool runs it, under a sys.setprofile hook that records the code
of every Python call; the functions of CHECKOUT/src/mlsurf are listed with ast (every
def, nested ones too; no lambda), and each whose code never ran is printed as
module.qualified_name, one a line, module by module in source order.  It exits 0 after
a run and 2 where the checkout's mlsurf could not be imported.  Only the stdlib is used.
"""

import ast
import sys
from pathlib import Path

import identity_corpus


def functions(src: Path) -> list:
    """(module.qualified_name, path, first line, name) of every def under src: the first
    line is a decorator's where there is one, as in the function's code object."""
    found = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found.append((name, path, first, child.name))
                visit(child, path, name)
            else:
                visit(child, path, prefix)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), str(path.resolve()), path.stem)
    return found


def unreached(checkout: str):
    """The functions of functions(CHECKOUT/src/mlsurf) that no corpus call runs; None where
    the checkout's mlsurf could not be imported."""
    cli = identity_corpus.load_cli(checkout)
    if cli is None:
        return None
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with identity_corpus.corpus_directory():
        sys.setprofile(record)
        try:
            for call in identity_corpus.corpus():
                identity_corpus.run_call(cli.main, call)
        finally:
            sys.setprofile(None)
    ran = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in codes}
    src = Path(cli.__file__).resolve().parent
    return [name for name, *key in functions(src) if tuple(key) not in ran]


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    names = unreached(argv[0])
    if names is None:
        return 2
    for name in names:
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
