#!/usr/bin/env python
"""Smoke-check every command quoted in README.md.

Extracts the commands from README.md's fenced code blocks and verifies each
one is actually runnable, without paying for a full execution:

* ``scripts/*.py`` -- run with ``--help`` and require exit status 0, so
  argument parsers and module imports are exercised;
* ``examples/*.py`` -- byte-compile (they have no CLI; running them is the
  figure harness's job);
* ``scripts/*.sh`` -- ``bash -n`` syntax check plus an executability check.

Any README command that names a file that does not exist fails the check --
documentation that drifts from the tree should break CI, which is the point
of the docs job.  So does any ``scripts/...``, ``examples/...`` or top-level
``*.md`` path named anywhere in README.md, DESIGN.md or the text of a
``src/repro/**/*.py`` file (docstrings and comments alike) that is not in
the tree, and any ``:mod:`` / ``:class:`` / ``:func:`` / ``:meth:`` /
``:attr:`` / ``:data:`` target in a ``src/repro`` source that does not
resolve to a module or an attribute of one (looked up as Sphinx looks it
up: in the enclosing class, then the module, then as an absolute path).
And so does README's "Execution knobs" table when its rows are
not exactly the fields of ``repro.query.plans.ExecutionConfig`` -- the one
declaration of every knob -- and its "Architecture map" table when its rows
are not exactly the packages under ``src/repro/``.  Exit status: 0 when
every check passes.

Usage::

    PYTHONPATH=src python scripts/check_docs.py
"""

from __future__ import annotations

import ast
import dataclasses
import glob
import importlib
import inspect
import os
import py_compile
import re
import subprocess
import sys
import textwrap

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(REPO, "README.md")

sys.path.insert(0, os.path.join(REPO, "src"))

from repro.query.plans import ExecutionConfig  # noqa: E402

#: Matches the script/example path tokens inside quoted commands.
PATH_PATTERN = re.compile(r"\b((?:scripts|examples)/[\w./-]+\.(?:py|sh))\b")
#: Matches a top-level markdown file name (not one inside a directory).
MARKDOWN_PATTERN = re.compile(r"(?<![\w/.-])([\w-]+\.md)\b")
#: Matches the text of a cross-reference role (which may wrap across a line
#: break inside a docstring or a comment block).
ROLE_PATTERN = re.compile(r":(?:mod|class|func|meth|attr|data):`([^`]+)`")


def fenced_blocks(text: str):
    inside = False
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("```"):
            inside = not inside
            continue
        if inside:
            yield stripped


def check_python_help(path: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, path, "--help"], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        return f"`{path} --help` exited {proc.returncode}: {proc.stderr[-300:]}"
    return ""


def check_command_paths(command: str):
    """Yield error strings for one quoted command line."""
    for path in PATH_PATTERN.findall(command):
        full = os.path.join(REPO, path)
        if not os.path.exists(full):
            yield f"README quotes {path}, which does not exist"
            continue
        if path.endswith(".sh"):
            if not os.access(full, os.X_OK):
                yield f"{path} is not executable"
            proc = subprocess.run(["bash", "-n", full], capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                yield f"`bash -n {path}` failed: {proc.stderr[-300:]}"
        elif path.startswith("examples/"):
            try:
                py_compile.compile(full, doraise=True)
            except py_compile.PyCompileError as error:
                yield f"{path} does not compile: {error}"
        else:
            error = check_python_help(path)
            if error:
                yield error


def dangling_references():
    """Yield error strings for paths the docs and sources name but the
    tree does not have."""
    documents = [README, os.path.join(REPO, "DESIGN.md")] + sorted(glob.glob(
        os.path.join(REPO, "src", "repro", "**", "*.py"), recursive=True))
    for document in documents:
        with open(document) as handle:
            text = handle.read()
        named = PATH_PATTERN.findall(text) + MARKDOWN_PATTERN.findall(text)
        for path in sorted(set(named)):
            if not os.path.exists(os.path.join(REPO, path)):
                yield (f"{os.path.relpath(document, REPO)} names {path}, "
                       f"which does not exist")


def role_target(text: str) -> str:
    """The target a role's text names: the ``<...>`` part of the ``title
    <target>`` form, without line breaks, comment markers and a leading
    ``~``."""
    text = text.strip()
    if text.endswith(">") and "<" in text:
        text = text[text.rindex("<") + 1:-1]
    return re.sub(r"\s+(?:#:?\s*)?", "", text).lstrip("~")


def instance_attribute(cls: type, name: str) -> bool:
    """Whether instances of ``cls`` carry ``name`` that the class itself
    does not: a dataclass field without a default, or an assignment to
    ``self.<name>`` in the body of ``cls`` or of a base.  (A ``__slots__``
    entry is a class attribute already.)"""
    if name in getattr(cls, "__dataclass_fields__", {}):
        return True
    for klass in cls.__mro__:
        try:
            tree = ast.parse(textwrap.dedent(inspect.getsource(klass)))
        except (OSError, TypeError):
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == name
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                return True
    return False


def dotted_path_resolves(path: str) -> bool:
    """Whether an absolute dotted path names a module, an attribute of one,
    or an instance attribute of a class."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for position, name in enumerate(parts[cut:], cut + 1):
            try:
                found = getattr(found, name)
            except AttributeError:
                return (position == len(parts) and isinstance(found, type)
                        and instance_attribute(found, name))
        return True
    return False


def role_target_resolves(target: str, module: str, package: str,
                         classes: tuple = ()) -> bool:
    """Whether a role target names something importable, searched as Sphinx
    searches: a leading dot is relative to the naming file's ``package``;
    otherwise the target is tried in each enclosing class of ``classes``
    (qualified names, innermost first), then in the naming ``module``, then
    -- when dotted -- as an absolute path."""
    if target.startswith("."):
        return dotted_path_resolves(package + target)
    candidates = [f"{module}.{cls}.{target}" for cls in classes]
    candidates.append(f"{module}.{target}")
    if "." in target:
        candidates.append(target)
    return any(dotted_path_resolves(candidate) for candidate in candidates)


def class_spans(tree: ast.AST, prefix: str = ""):
    """Yield ``(first line, last line, qualified name)`` of every class."""
    for node in ast.iter_child_nodes(tree):
        name = prefix
        if isinstance(node, ast.ClassDef):
            name = f"{prefix}{node.name}"
            yield node.lineno, node.end_lineno, name
            name += "."
        yield from class_spans(node, name)


def dangling_roles():
    """Yield error strings for role targets in ``src/repro`` sources that
    resolve to nothing."""
    source_root = os.path.join(REPO, "src")
    for path in sorted(glob.glob(os.path.join(source_root, "repro", "**", "*.py"),
                                 recursive=True)):
        module = os.path.relpath(path, source_root)[:-3].replace(os.sep, ".")
        package = module.rsplit(".", 1)[0]
        if module.endswith(".__init__"):
            module = package
        with open(path) as handle:
            text = handle.read()
        spans = list(class_spans(ast.parse(text)))
        references = set()
        for match in ROLE_PATTERN.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            enclosing = sorted((span for span in spans
                                if span[0] <= line <= span[1]), reverse=True)
            references.add((role_target(match.group(1)),
                            tuple(name for _, _, name in enclosing)))
        for target, classes in sorted(references):
            if not role_target_resolves(target, module, package, classes):
                yield (f"{os.path.relpath(path, REPO)} references {target}, "
                       f"which does not resolve")


def knob_table_errors(text: str):
    """Yield an error when README's "Execution knobs" table does not list
    exactly ``ExecutionConfig``'s fields (two knobs may share a row)."""
    section = text.split("## Execution knobs", 1)[-1].split("\n## ", 1)[0]
    listed = sorted(
        name for line in section.splitlines() if line.startswith("| `")
        for name in re.findall(r"`(\w+)`", line.split("|")[1]))
    declared = sorted(field.name for field in dataclasses.fields(ExecutionConfig))
    if listed != declared:
        yield (f"README's Execution knobs table lists {listed}, "
               f"ExecutionConfig declares {declared}")


def architecture_map_errors(text: str):
    """Yield an error when README's "Architecture map" table does not list
    exactly the packages under ``src/repro/`` (one ``| `name/` |`` row
    each)."""
    section = text.split("## Architecture map", 1)[-1].split("\n## ", 1)[0]
    listed = sorted(re.findall(r"^\| `(\w+)/` \|", section, re.MULTILINE))
    source = os.path.join(REPO, "src", "repro")
    packages = sorted(
        name for name in os.listdir(source)
        if os.path.isfile(os.path.join(source, name, "__init__.py")))
    if listed != packages:
        yield (f"README's Architecture map lists {listed}, "
               f"src/repro/ holds {packages}")


def main() -> int:
    with open(README) as handle:
        text = handle.read()
    commands = [line for line in fenced_blocks(text)
                if PATH_PATTERN.search(line)]
    if not commands:
        print("README.md quotes no runnable commands -- nothing to check?")
        return 1
    errors = []
    checked = set()
    for command in commands:
        key = tuple(PATH_PATTERN.findall(command))
        if key in checked:
            continue
        checked.add(key)
        command_errors = list(check_command_paths(command))
        errors.extend(command_errors)
        print(f"[{'FAIL' if command_errors else 'ok':>4}] {command}")
    errors.extend(dangling_references())
    errors.extend(dangling_roles())
    errors.extend(knob_table_errors(text))
    errors.extend(architecture_map_errors(text))
    if errors:
        print("\ndocs check FAILED:")
        for error in errors:
            print(f"  - {error}")
        return 1
    print(f"\ndocs check passed ({len(checked)} distinct quoted commands)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
