"""The prose documents name only source files and CLI flags that exist.

DESIGN.md, README.md and EXPERIMENTS.md point readers at modules,
tests and scripts by path, and so do the CI workflow and the verify
skill's recipe. A path that names no file sends a reader looking for
code that is not there, and a CI step that runs one fails, so every
one must resolve: paths under ``repro/``, or inside it such as
``harness/cache.py``, against ``src/``, the others against the
repository root. Likewise every ``--flag`` of a
``python -m repro.harness`` or ``python -m repro.obs
<run|diff|attribute>`` command the three documents show must be one
that command's ``--help`` lists. PAPER.md is the supplied paper text
and is not checked.
"""

import contextlib
import io
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")
PATH_DOCS = DOCS + (".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md")
PATH = re.compile(r"(?:src/)?(?:repro|tests|benchmarks|bench)/[\w/]+\.py")
PACKAGE = os.path.join(ROOT, "src", "repro")
# A path inside the package, e.g. ``harness/cache.py``.
PACKAGE_PATH = re.compile(r"(?<![\w/.-])(?:%s)/[\w/]+\.py" % "|".join(
    name for name in sorted(os.listdir(PACKAGE))
    if os.path.isfile(os.path.join(PACKAGE, name, "__init__.py"))))


def test_docs_name_only_files_that_exist():
    checked, missing = 0, []
    for doc in PATH_DOCS:
        with open(os.path.join(ROOT, doc), encoding="utf-8") as f:
            text = f.read()
        paths = set(PATH.findall(text))
        paths |= {"repro/" + path for path in PACKAGE_PATH.findall(text)}
        for path in sorted(paths):
            rel = "src/" + path if path.startswith("repro/") else path
            checked += 1
            if not os.path.isfile(os.path.join(ROOT, rel)):
                missing.append(f"{doc}: {path}")
    assert checked, "no source paths found in the documents"
    assert not missing, missing


# ``python -m repro.<module> ...`` up to the end of an inline code span
# or a shell comment.
COMMAND = re.compile(r"python3? -m repro\.(harness|obs)\b([^`#\n]*)")
OBS_SUBCOMMANDS = ("run", "diff", "attribute")
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def _help_flags(module, sub):
    """The option strings ``--help`` lists for one CLI (sub)command;
    argparse prints them and exits before anything simulates."""
    if module == "harness":
        from repro.harness.__main__ import main
        argv = ["--help"]
    else:
        from repro.obs.__main__ import main
        argv = [sub, "--help"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        main(argv)
    return set(FLAG.findall(out.getvalue()))


def test_docs_name_only_cli_flags_that_exist():
    helps, checked, unknown = {}, 0, []
    for doc in DOCS:
        with open(os.path.join(ROOT, doc), encoding="utf-8") as f:
            text = f.read().replace("\\\n", " ")  # join continued lines
        for module, args in COMMAND.findall(text):
            sub = None
            if module == "obs":
                sub, _, args = args.strip().partition(" ")
                if sub not in OBS_SUBCOMMANDS:
                    continue  # a bare mention names no flags
            key = (module, sub)
            if key not in helps:
                helps[key] = _help_flags(module, sub)
            for flag in FLAG.findall(args):
                checked += 1
                if flag not in helps[key]:
                    command = " ".join(filter(None, (module, sub)))
                    unknown.append(f"{doc}: repro.{command} {flag}")
    assert checked, "no CLI flags found in the documents"
    assert not unknown, unknown
